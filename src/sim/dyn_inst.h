/**
 * @file
 * Dynamic instruction in flight through the pipeline.
 */

#ifndef BTBSIM_SIM_DYN_INST_H
#define BTBSIM_SIM_DYN_INST_H

#include <cstdint>

#include "common/types.h"
#include "trace/instruction.h"

namespace btbsim {

/** Frontend redirect classes (Fig. 3). */
enum class Resteer : std::uint8_t {
    kNone,
    kDecode, ///< Misfetch: resolved when the branch reaches Decode.
    kExec,   ///< Misprediction: resolved when the branch executes.
};

/**
 * One in-flight instruction, copied from the FTQ through the decode and
 * allocate queues into the ROB. It carries only what those stages read;
 * the backend keeps its own per-entry dependence and timing record.
 */
struct DynInst
{
    Instruction in;
    std::uint64_t seq = 0;

    /// Frontend event this instruction resolves.
    Resteer resteer = Resteer::kNone;

    /// Cycle the instruction left Decode (allocation waits one cycle).
    Cycle decode_cycle = 0;
};

static_assert(sizeof(DynInst) <= 56, "DynInst is copied per stage");

} // namespace btbsim

#endif // BTBSIM_SIM_DYN_INST_H
