/**
 * @file
 * The RSSD_SMOKE switch, shared by the bench binaries and the example
 * CLIs. The ctest smoke and scenario suites set RSSD_SMOKE=1 so every
 * run finishes in seconds; the numbers such a run prints are not
 * paper-comparable.
 */

#ifndef RSSD_BENCH_SMOKE_HH
#define RSSD_BENCH_SMOKE_HH

#include <cstdlib>
#include <cstring>

namespace rssd::bench {

/**
 * Whether an RSSD_SMOKE value turns smoke mode on: only when it is
 * set, non-empty and not "0", so `RSSD_SMOKE=` and `RSSD_SMOKE=0`
 * keep the full-size run.
 */
inline bool
smokeRequested(const char *value)
{
    return value != nullptr && value[0] != '\0' &&
           std::strcmp(value, "0") != 0;
}

/** smokeRequested() on this process's RSSD_SMOKE, read once. */
inline bool
smoke()
{
    // rssd-lint: allow-next-line(D1) smoke switch scales run sizes only; every run at a given size/seed stays byte-identical
    static const bool on = smokeRequested(std::getenv("RSSD_SMOKE"));
    return on;
}

} // namespace rssd::bench

#endif // RSSD_BENCH_SMOKE_HH
