/**
 * @file
 * Global branch history register with folded-segment hashing.
 */

#ifndef BTBSIM_BPRED_HISTORY_H
#define BTBSIM_BPRED_HISTORY_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace btbsim {

/**
 * Precomputed plan for folding the history at several lengths in one
 * pass (GlobalHistory::foldAll), bit-identical to calling fold() once
 * per length.
 *
 * fold() walks the history in chunks of min(out_bits, bits left in the
 * word) and shortens only the last chunk to end at the length. So every
 * length's fold is the shared chunk prefix up to the chunk holding its
 * last bit, then that chunk cut at the length, then one rotation. The
 * schedule stores the shared chunks (word, shift, mask) once and, per
 * length, the prefix it extends and its cut chunk.
 */
class FoldSchedule
{
  public:
    FoldSchedule(const std::vector<unsigned> &lengths, unsigned out_bits);

    /** Number of lengths (and of outputs foldAll writes). */
    std::size_t size() const { return tails_.size(); }

  private:
    friend class GlobalHistory;

    struct Chunk
    {
        std::uint64_t mask;
        std::uint8_t word;
        std::uint8_t shift;
    };

    struct Tail
    {
        Chunk cut;           ///< The length's last chunk, cut at the length.
        std::uint16_t chunks; ///< Shared chunks before it.
    };

    std::vector<Chunk> chunks_;
    std::vector<Tail> tails_;
    unsigned out_bits_;
    std::uint64_t out_mask_;
};

/**
 * A shift register of branch outcomes up to 256 bits long, supporting the
 * folded-segment hashes geometric-history predictors index with.
 */
class GlobalHistory
{
  public:
    static constexpr unsigned kBits = 256;

    /** Shift in one outcome (bit 0 becomes the most recent). */
    void shift(bool taken);

    /** Clear all history. */
    void reset();

    /**
     * XOR-fold the most recent @p length bits down to @p out_bits bits.
     * length == 0 yields 0 (bias-table indexing).
     */
    std::uint64_t fold(unsigned length, unsigned out_bits) const;

    /**
     * fold(length, out_bits) for every length of @p s in one pass over
     * the history: out[i] gets the fold at the schedule's i-th length.
     */
    void foldAll(const FoldSchedule &s, std::uint64_t *out) const;

    /** Raw low @p n bits of history (n <= 64). */
    std::uint64_t low(unsigned n) const;

  private:
    std::array<std::uint64_t, kBits / 64> words_{};
};

/** Path history: hashed PCs of recent taken branches. */
class PathHistory
{
  public:
    void
    shift(Addr pc)
    {
        value_ = (value_ << 3) ^ (pc >> 2);
    }

    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_BPRED_HISTORY_H
