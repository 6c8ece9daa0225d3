#include "bpred/history.h"

#include <algorithm>

namespace btbsim {

void
GlobalHistory::shift(bool taken)
{
    for (std::size_t i = words_.size() - 1; i > 0; --i)
        words_[i] = (words_[i] << 1) | (words_[i - 1] >> 63);
    words_[0] = (words_[0] << 1) | static_cast<std::uint64_t>(taken);
}

void
GlobalHistory::reset()
{
    words_.fill(0);
}

std::uint64_t
GlobalHistory::fold(unsigned length, unsigned out_bits) const
{
    if (length == 0 || out_bits == 0)
        return 0;
    if (length > kBits)
        length = kBits;

    std::uint64_t acc = 0;
    unsigned consumed = 0;
    while (consumed < length) {
        const unsigned word = consumed / 64;
        const unsigned bit = consumed % 64;
        unsigned chunk = std::min({64u - bit, length - consumed, out_bits});
        std::uint64_t v = (words_[word] >> bit) &
            ((chunk == 64) ? ~0ull : ((1ull << chunk) - 1));
        acc ^= v;
        // Rotate accumulator by chunk within out_bits to spread segments.
        acc = ((acc << 1) | (acc >> (out_bits - 1))) &
            ((out_bits == 64) ? ~0ull : ((1ull << out_bits) - 1));
        consumed += chunk;
    }
    return acc;
}

namespace {

/** Rotate @p acc left by one within its low @p bits bits. */
inline std::uint64_t
rotate1(std::uint64_t acc, unsigned bits, std::uint64_t mask)
{
    return ((acc << 1) | (acc >> (bits - 1))) & mask;
}

std::uint64_t
lowMask(unsigned bits)
{
    return bits >= 64 ? ~0ull : (1ull << bits) - 1;
}

} // namespace

FoldSchedule::FoldSchedule(const std::vector<unsigned> &lengths,
                           unsigned out_bits)
    : out_bits_(out_bits), out_mask_(lowMask(out_bits))
{
    // The shared chunk sequence, as fold() cuts it for a length that
    // has not ended yet; each length takes its prefix plus one cut chunk.
    std::vector<unsigned> starts; // first history bit of each chunk
    for (unsigned consumed = 0; out_bits > 0 && consumed < GlobalHistory::kBits;) {
        const unsigned bit = consumed % 64;
        const unsigned chunk = std::min(64u - bit, out_bits);
        starts.push_back(consumed);
        chunks_.push_back({lowMask(chunk),
                           static_cast<std::uint8_t>(consumed / 64),
                           static_cast<std::uint8_t>(bit)});
        consumed += chunk;
    }

    std::size_t used = 0; // shared chunks any length needs
    for (unsigned length : lengths) {
        length = std::min(length, GlobalHistory::kBits);
        Tail t{{0, 0, 0}, 0}; // length 0 (or out_bits 0) folds to 0
        if (length > 0 && out_bits > 0) {
            // The chunk holding the length's last bit.
            std::size_t k = starts.size() - 1;
            while (starts[k] >= length)
                --k;
            t.cut = chunks_[k];
            t.cut.mask &= lowMask(length - starts[k]);
            t.chunks = static_cast<std::uint16_t>(k);
            used = std::max(used, k);
        }
        tails_.push_back(t);
    }
    chunks_.resize(used);
}

void
GlobalHistory::foldAll(const FoldSchedule &s, std::uint64_t *out) const
{
    if (s.out_bits_ == 0) {
        std::fill(out, out + s.tails_.size(), 0);
        return;
    }
    // prefix[k]: the accumulator after the first k shared chunks.
    std::uint64_t prefix[kBits + 1];
    std::uint64_t acc = 0;
    prefix[0] = 0;
    for (std::size_t k = 0; k < s.chunks_.size(); ++k) {
        const FoldSchedule::Chunk &c = s.chunks_[k];
        acc = rotate1(acc ^ ((words_[c.word] >> c.shift) & c.mask),
                      s.out_bits_, s.out_mask_);
        prefix[k + 1] = acc;
    }
    for (std::size_t i = 0; i < s.tails_.size(); ++i) {
        const FoldSchedule::Tail &t = s.tails_[i];
        const std::uint64_t v = (words_[t.cut.word] >> t.cut.shift) & t.cut.mask;
        out[i] = rotate1(prefix[t.chunks] ^ v, s.out_bits_, s.out_mask_);
    }
}

std::uint64_t
GlobalHistory::low(unsigned n) const
{
    if (n == 0)
        return 0;
    if (n >= 64)
        return words_[0];
    return words_[0] & ((1ull << n) - 1);
}

} // namespace btbsim
