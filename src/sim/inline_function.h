/**
 * @file
 * Inline, move-only type-erased callable for the simulation hot path.
 *
 * `InplaceFunction<R(Args...), Capacity>` stores its callable inside
 * its own `Capacity`-byte buffer and never allocates. A callable that
 * does not fit (or whose move may throw, or that needs more than
 * pointer alignment) is rejected at compile time,
 * so each site sizes its capacity to the captures it carries: a `this`
 * pointer plus a few scalars for event callbacks. Like C++23's
 * `std::move_only_function`, it is move-only, so move-only captures
 * (`std::unique_ptr`, another InplaceFunction) are accepted and a
 * capture is never copied behind the caller's back; there is no RTTI
 * and no `target()`.
 *
 * Invoking an empty function is a no-op for void-returning signatures;
 * for value-returning ones it asserts in debug builds and is undefined
 * otherwise.
 */

#ifndef APC_SIM_INLINE_FUNCTION_H
#define APC_SIM_INLINE_FUNCTION_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace apc::sim {

namespace detail {
/** Compile-time capacity check; a failing instantiation names both the
 *  callable's size and the capacity it overflows. */
template <std::size_t CallableSize, std::size_t Capacity>
constexpr void
checkInplaceCapacity()
{
    static_assert(CallableSize <= Capacity,
                  "callable larger than its InplaceFunction capacity: "
                  "shrink the capture or raise the capacity");
}
} // namespace detail

template <typename Signature, std::size_t Capacity = 64>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    /** Assign a fresh callable in place (no temporary + relocation). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFunction &
    operator=(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
        return *this;
    }

    InplaceFunction(InplaceFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args) const
    {
        if constexpr (std::is_void_v<R>) {
            if (!ops_)
                return;
        } else {
            assert(ops_ && "invoking an empty InplaceFunction");
        }
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move the callable from src to dst and destroy src. */
        void (*relocateTo)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
        /** Relocation is a plain byte copy (trivially copyable). */
        bool trivialRelocate;
        /** Destruction is a no-op (no indirect call needed). */
        bool trivialDestroy;
    };

    void
    reset()
    {
        if (ops_) {
            if (!ops_->trivialDestroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        detail::checkInplaceCapacity<sizeof(Fn), Capacity>();
        static_assert(alignof(Fn) <= kAlign, "over-aligned callable");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callable must be nothrow move-constructible");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kOps<Fn>;
    }

    void
    moveFrom(InplaceFunction &other) noexcept
    {
        if (other.ops_) {
            // The hot path: event records and observer slots relocate
            // constantly; trivially-relocatable callables move as one
            // fixed-size copy instead of an indirect call.
            if (other.ops_->trivialRelocate)
                std::memcpy(buf_, other.buf_, Capacity);
            else
                other.ops_->relocateTo(other.buf_, buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    template <typename Fn>
    static inline const Ops kOps = {
        /* invoke */
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        /* relocateTo */
        [](void *src, void *dst) noexcept {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        /* destroy */
        [](void *p) noexcept {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        /* trivialRelocate */ std::is_trivially_copyable_v<Fn>,
        /* trivialDestroy */ std::is_trivially_destructible_v<Fn>,
    };

    /** Pointer alignment: captures are pointers and scalars, and a
     *  wider alignment would pad every slot (an event record, two
     *  observers per wire) by up to 8 bytes. */
    static constexpr std::size_t kAlign = alignof(void *);

    const Ops *ops_ = nullptr;
    alignas(kAlign) unsigned char buf_[Capacity];
};

} // namespace apc::sim

#endif // APC_SIM_INLINE_FUNCTION_H
