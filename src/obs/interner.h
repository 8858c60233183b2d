/**
 * @file
 * Deterministic string interning for the telemetry subsystem.
 *
 * Trace records and analysis events store 4-byte `StrId`s instead of
 * `std::string`s; the interner maps each distinct string to the id of
 * its first registration, so ids depend only on registration order —
 * never on addresses or hashing — and a trace recorded twice interns
 * identically. Interning is a *setup-time* operation (subscription,
 * tracer construction): the hot recording path only copies ids.
 */

#ifndef APC_OBS_INTERNER_H
#define APC_OBS_INTERNER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/annotations.h"

namespace apc::obs {

/** Interned string id (index into the interner's table). */
using StrId = std::uint32_t;

/** "No string" sentinel (lookup misses, unset fields). */
inline constexpr StrId kNoStr = UINT32_MAX;

/** Registration-ordered string table. Not thread-safe: intern only
 *  from single-threaded setup/teardown code. That ownership is modeled
 *  as a capability (`table_`) guarding the id map and string vector —
 *  a no-op at runtime that keeps every table access visible to clang's
 *  thread-safety analysis (the setup-time-only discipline itself is
 *  checked by the TSan CI job). */
class StringInterner
{
  public:
    /** Unbounded table. */
    StringInterner() = default;

    /** Bounded table: at most @p max_strings distinct strings; further
     *  first-sight interns are rejected with kNoStr (and counted). */
    explicit StringInterner(std::size_t max_strings) : cap_(max_strings)
    {
    }

    /** Id for @p s, registering it on first sight. Returns kNoStr when
     *  a bounded table is full (re-interning an existing string always
     *  succeeds — the table never forgets what it holds). */
    StrId
    intern(std::string_view s)
    {
        sim::RoleGuard own(table_);
        const auto it = ids_.find(std::string(s));
        if (it != ids_.end())
            return it->second;
        if (strings_.size() >= cap_) {
            ++rejected_;
            return kNoStr;
        }
        const auto id = static_cast<StrId>(strings_.size());
        strings_.emplace_back(s);
        ids_.emplace(strings_.back(), id);
        return id;
    }

    /** The string behind @p id (must be a valid id). */
    const std::string &
    str(StrId id) const
    {
        sim::SharedRoleGuard own(table_);
        return strings_[id];
    }

    std::size_t
    size() const
    {
        sim::SharedRoleGuard own(table_);
        return strings_.size();
    }

    /** Capacity of a bounded table (SIZE_MAX = unbounded). */
    std::size_t capacity() const { return cap_; }

    /** First-sight interns rejected because the table was full. */
    std::uint64_t
    rejected() const
    {
        sim::SharedRoleGuard own(table_);
        return rejected_;
    }

  private:
    /** Setup-time single-threaded ownership capability. */
    mutable sim::Role table_;
    std::unordered_map<std::string, StrId> ids_ APC_GUARDED_BY(table_);
    std::vector<std::string> strings_ APC_GUARDED_BY(table_);
    std::size_t cap_ = SIZE_MAX;
    std::uint64_t rejected_ APC_GUARDED_BY(table_) = 0;
};

} // namespace apc::obs

#endif // APC_OBS_INTERNER_H
