/**
 * @file
 * Lightweight statistics primitives: named counters, running averages,
 * histograms, and the geometric-mean helpers the paper's figures use.
 */

#ifndef BTBSIM_COMMON_STATS_H
#define BTBSIM_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace btbsim {

/** Running mean without storing samples. */
class RunningMean
{
  public:
    void
    add(double v, double weight = 1.0)
    {
        sum_ += v * weight;
        count_ += weight;
    }

    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
    double count() const { return count_; }
    double sum() const { return sum_; }

    /** Pool another running mean into this one. */
    void
    merge(const RunningMean &other)
    {
        sum_ += other.sum_;
        count_ += other.count_;
    }

  private:
    double sum_ = 0.0;
    double count_ = 0.0;
};

/** Fixed-bucket histogram over small non-negative integers. Values at or
 *  beyond the last bucket clamp into it (overflow bucket). */
class Histogram
{
  public:
    /** @p buckets is clamped to at least 1 so add() always has a valid
     *  overflow bucket. */
    explicit Histogram(std::size_t buckets = 64)
        : buckets_(buckets > 0 ? buckets : 1, 0)
    {}

    void
    add(std::size_t v)
    {
        if (v >= buckets_.size())
            v = buckets_.size() - 1;
        ++buckets_[v];
        ++total_;
    }

    std::uint64_t count(std::size_t v) const { return buckets_.at(v); }
    std::uint64_t total() const { return total_; }
    std::size_t bucketCount() const { return buckets_.size(); }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Mean of the recorded values (overflow bucket counted at its index). */
    double mean() const;

    /** Add another histogram's counts bucket-wise. A wider @p other grows
     *  this histogram; counts keep their bucket index. */
    void merge(const Histogram &other);

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
};

/**
 * Geometric mean over the strictly positive entries of @p values;
 * non-positive entries are skipped (log is undefined for them) so a
 * single zero IPC cannot poison a whole reported table. Returns 0 when
 * no positive entry exists.
 */
double geomean(const std::vector<double> &values);

/** Minimum / maximum helpers that tolerate empty input (returning 0). */
double vecMin(const std::vector<double> &values);
double vecMax(const std::vector<double> &values);

/**
 * A tiny registry mapping stat names to counter values, used by modules to
 * expose internal occurrence counts without hard-coding a schema.
 *
 * A counter appears only once it is first accessed. Hot-path sites name
 * their counter with a string literal: that overload remembers the
 * counter's map node by the literal's address, so later increments skip
 * building a std::string and walking the map (map nodes never move).
 */
class StatSet
{
  public:
    StatSet() = default;
    StatSet(const StatSet &o) : counters_(o.counters_) {}
    StatSet(StatSet &&o) noexcept : counters_(std::move(o.counters_))
    {
        o.cached_ = 0;
    }

    StatSet &
    operator=(const StatSet &o)
    {
        counters_ = o.counters_;
        cached_ = 0;
        return *this;
    }

    StatSet &
    operator=(StatSet &&o) noexcept
    {
        counters_ = std::move(o.counters_);
        cached_ = 0;
        o.cached_ = 0;
        return *this;
    }

    std::uint64_t &operator[](const std::string &name) { return counters_[name]; }

    /** Counter named by a string literal (see the class comment). */
    template <std::size_t N>
    std::uint64_t &
    operator[](const char (&name)[N])
    {
        for (unsigned i = 0; i < cached_; ++i)
            if (cache_[i].name == name)
                return *cache_[i].value;
        std::uint64_t &v = counters_[name];
        if (cached_ < kCacheSize)
            cache_[cached_++] = {name, &v};
        return v;
    }

    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    const std::map<std::string, std::uint64_t> &all() const { return counters_; }

    void
    merge(const StatSet &other)
    {
        for (const auto &[k, v] : other.counters_)
            counters_[k] += v;
    }

  private:
    static constexpr unsigned kCacheSize = 16;

    struct CachedCounter
    {
        const char *name;
        std::uint64_t *value;
    };

    std::map<std::string, std::uint64_t> counters_;
    CachedCounter cache_[kCacheSize];
    unsigned cached_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_COMMON_STATS_H
