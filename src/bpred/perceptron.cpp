#include "bpred/perceptron.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace btbsim {

namespace {

/** Geometric history lengths from 0 to max_history: table 0 is the
 *  PC-indexed bias table, the rest follow a geometric progression. */
std::vector<unsigned>
historyLengths(const PerceptronConfig &cfg)
{
    if (cfg.num_tables == 0 || cfg.num_tables > HashedPerceptron::kMaxTables)
        throw std::invalid_argument(
            "perceptron: num_tables must be in 1.." +
            std::to_string(HashedPerceptron::kMaxTables));
    std::vector<unsigned> lengths(cfg.num_tables);
    lengths[0] = 0;
    const double ratio = std::pow(
        static_cast<double>(cfg.max_history) / 3.0,
        1.0 / static_cast<double>(cfg.num_tables - 2));
    double len = 3.0;
    for (unsigned t = 1; t < cfg.num_tables; ++t) {
        lengths[t] = static_cast<unsigned>(len + 0.5);
        len *= ratio;
    }
    lengths.back() = cfg.max_history;
    return lengths;
}

} // namespace

HashedPerceptron::HashedPerceptron(const PerceptronConfig &config)
    : cfg_(config),
      folds_(historyLengths(cfg_), log2i(cfg_.entries_per_table))
{
    weights_.assign(std::size_t{cfg_.num_tables} * cfg_.entries_per_table,
                    SignedSatCounter<8>{});

    index_bits_ = log2i(cfg_.entries_per_table);
    index_mask_ = (1ull << index_bits_) - 1;
    table_hash_.resize(cfg_.num_tables);
    for (unsigned t = 0; t < cfg_.num_tables; ++t)
        table_hash_[t] = std::uint64_t{t} * 0x9e3779b97f4a7c15ull >> 48;

    theta_ = static_cast<int>(2.14 * cfg_.num_tables + 20.58);
}

int
HashedPerceptron::sum(Addr pc, Indices &indices) const
{
    std::uint64_t folds[kMaxTables];
    history_.foldAll(folds_, folds);
    const std::uint64_t pc_hash = (pc >> 2) ^ ((pc >> 2) >> index_bits_);
    int s = 0;
    const SignedSatCounter<8> *w = weights_.data();
    for (unsigned t = 0; t < cfg_.num_tables; ++t) {
        indices[t] = static_cast<unsigned>(
            (pc_hash ^ table_hash_[t] ^ folds[t]) & index_mask_);
        s += w[std::size_t{t} * cfg_.entries_per_table + indices[t]].value();
    }
    return s;
}

bool
HashedPerceptron::predict(Addr pc) const
{
    Indices indices;
    return sum(pc, indices) >= 0;
}

bool
HashedPerceptron::predictAndTrain(Addr pc, bool taken)
{
    Indices idx;
    const int s = sum(pc, idx);
    const bool pred = s >= 0;

    ++lookups_;
    if (pred != taken)
        ++mispredicts_;

    // Train on mispredict or low confidence.
    if (pred != taken || std::abs(s) <= theta_) {
        for (unsigned t = 0; t < cfg_.num_tables; ++t)
            weights_[std::size_t{t} * cfg_.entries_per_table + idx[t]]
                .add(taken ? 1 : -1);

        // Adaptive threshold (Seznec-style): grow on mispredicts, shrink
        // when training only because of low confidence.
        if (pred != taken) {
            if (++tc_ >= 32) {
                tc_ = 0;
                ++theta_;
            }
        } else {
            if (--tc_ <= -32) {
                tc_ = 0;
                if (theta_ > 4)
                    --theta_;
            }
        }
    }

    history_.shift(taken);
    return pred;
}

} // namespace btbsim
