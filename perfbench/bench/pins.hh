/**
 * @file
 * Pinned output digests.  A pinned (workload, seed) pair must reproduce
 * its digest exactly; any other seed is checked for invariants only.
 * Re-pinning is a change of its own, never part of a performance
 * change (README.md).
 */

#ifndef PERFBENCH_PINS_HH
#define PERFBENCH_PINS_HH

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

/** The seed the benchmark is developed against. */
constexpr uint64_t kDefaultSeed = 1;
/** A seed held out from development, pinned to catch overfitting. */
constexpr uint64_t kHeldOutSeed = 90017;

/** The pinned digest of @p workload at @p seed, if any. */
std::optional<uint64_t> pinnedDigest(const std::string &workload,
                                     uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PINS_HH
