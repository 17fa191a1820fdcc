/**
 * @file
 * The JSON form of a RunResult.
 *
 * runResultToJson renders every field of a run — doubles with full
 * precision, SimTime as raw microseconds — so two runs are identical
 * exactly when their dumps are. The determinism audit, sim_digest,
 * trace-diff and the golden-trace tests compare and pin results
 * through it; fnv1a64 condenses a dump into a short digest.
 */

#ifndef PC_EXP_RESULT_CACHE_H
#define PC_EXP_RESULT_CACHE_H

#include <cstdint>
#include <string>

#include "common/json.h"
#include "exp/runner.h"

namespace pc {

/** FNV-1a 64-bit hash of @p text. */
std::uint64_t fnv1a64(const std::string &text);

/** Serialize a RunResult (including traces) to JSON. */
JsonValue runResultToJson(const RunResult &result);

} // namespace pc

#endif // PC_EXP_RESULT_CACHE_H
