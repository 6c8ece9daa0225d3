/**
 * @file
 * Hashed perceptron conditional branch predictor.
 *
 * Models the paper's Table 1 predictor: 16 tables of 4K 8-bit weights
 * (64KB total) indexed by hashes of the PC and geometric global-history
 * segments spanning 0 to 232 bits, with adaptive-threshold training
 * (Jiménez; Tarjan and Skadron).
 */

#ifndef BTBSIM_BPRED_PERCEPTRON_H
#define BTBSIM_BPRED_PERCEPTRON_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/sat_counter.h"
#include "common/types.h"
#include "bpred/history.h"

namespace btbsim {

/** Hashed perceptron configuration. */
struct PerceptronConfig
{
    unsigned num_tables = 16;
    unsigned entries_per_table = 4096; ///< 4K x 16 x 1B = 64KB.
    unsigned max_history = 232;

    /** Total storage in bytes (one byte per weight). */
    std::uint64_t
    sizeBytes() const
    {
        return std::uint64_t{num_tables} * entries_per_table;
    }

    /** Build a configuration of roughly @p kb kilobytes (Fig. 11b sweep). */
    static PerceptronConfig
    ofSizeKB(unsigned kb)
    {
        PerceptronConfig c;
        c.entries_per_table = std::max(64u, kb * 1024 / c.num_tables);
        return c;
    }

    bool operator==(const PerceptronConfig &) const = default;
};

/**
 * The predictor. Prediction and training are fused (trace-driven immediate
 * update): predictAndTrain() returns what the hardware would have
 * predicted, then trains on the actual outcome and shifts history.
 */
class HashedPerceptron
{
  public:
    explicit HashedPerceptron(const PerceptronConfig &config = {});

    /** Predict the branch at @p pc, then train with @p taken. */
    bool predictAndTrain(Addr pc, bool taken);

    /** Read-only prediction (no training, no history shift). */
    bool predict(Addr pc) const;

    /** Share the history register (read-only) with other predictors. */
    const GlobalHistory &history() const { return history_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Largest supported PerceptronConfig::num_tables. */
    static constexpr unsigned kMaxTables = 64;

  private:
    using Indices = std::array<unsigned, kMaxTables>;

    PerceptronConfig cfg_;
    /// One-pass fold of every table's history segment.
    FoldSchedule folds_;
    /// Flattened weights: table t entry i lives at t * entries_per_table
    /// + i (one allocation, one indirection on the sum path).
    std::vector<SignedSatCounter<8>> weights_;
    GlobalHistory history_;

    unsigned index_bits_ = 0;
    std::uint64_t index_mask_ = 0;
    /// Per-table hash constant: t * phi64 >> 48, fixed at construction.
    std::vector<std::uint64_t> table_hash_;

    int theta_ = 0;
    int tc_ = 0; ///< Adaptive-threshold training counter.

    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;

    /** Weight sum at @p pc; fills each table's weight index. */
    int sum(Addr pc, Indices &indices) const;
};

} // namespace btbsim

#endif // BTBSIM_BPRED_PERCEPTRON_H
