/**
 * @file
 * Hierarchical statistics registry. Stats are registered under dotted
 * paths ("l1_btb.hit", "ftq.occupancy") so every component of the Cpu —
 * PC generation, BTB organization, caches, backend — exports under its
 * own namespace, and registries from different runs or threads can be
 * merged for suite-level aggregation.
 *
 * Three stat kinds are supported, matching the primitives in
 * common/stats.h: monotonically increasing counters, running means, and
 * fixed-bucket histograms. The legacy per-component StatSet is wrapped via
 * importStatSet(), so existing modules keep their cheap local counters and
 * the registry remains the single export surface.
 */

#ifndef BTBSIM_OBS_REGISTRY_H
#define BTBSIM_OBS_REGISTRY_H

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.h"

namespace btbsim::obs {

/** Dotted-path stat registry; see file comment. */
class StatRegistry
{
  public:
    /** Counter at @p path, created zero-initialized on first use. */
    std::uint64_t &counter(const std::string &path);

    /** Running mean at @p path, created empty on first use. */
    RunningMean &mean(const std::string &path);

    /**
     * Histogram at @p path, created with @p buckets buckets on first use
     * (the bucket count of an existing histogram is not changed).
     */
    Histogram &histogram(const std::string &path, std::size_t buckets = 64);

    /** True if any stat kind is registered at @p path. */
    bool has(const std::string &path) const;

    /**
     * Scalar read of the stat at @p path: counter value, mean of a
     * running mean, or mean of a histogram. 0 when absent.
     */
    double value(const std::string &path) const;

    /** Import every counter of a legacy StatSet under @p prefix. */
    void importStatSet(const std::string &prefix, const StatSet &s);

    /**
     * Combine @p other into this registry: counters add, running means
     * pool their sums, histograms add bucket-wise. Used to aggregate the
     * per-run registries produced by a threaded sweep.
     */
    void merge(const StatRegistry &other);

    /** All stats flattened to (dotted path -> scalar), for export. */
    std::map<std::string, double> flatten() const;

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, RunningMean> &means() const { return means_; }
    const std::map<std::string, Histogram> &histograms() const
    {
        return hists_;
    }

    bool empty() const
    {
        return counters_.empty() && means_.empty() && hists_.empty();
    }

    void
    clear()
    {
        counters_.clear();
        means_.clear();
        hists_.clear();
    }

    /**
     * A registration proxy bound to one dotted prefix. Components receive
     * a Scope and need not know where in the hierarchy they live:
     *
     *   auto btb = registry.scope("l1_btb");
     *   ++btb.counter("hit");            // registers "l1_btb.hit"
     *   auto sub = btb.scope("evict");   // prefix "l1_btb.evict"
     */
    class Scope
    {
      public:
        Scope(StatRegistry &reg, std::string prefix)
            : reg_(&reg), prefix_(std::move(prefix))
        {}

        std::uint64_t &counter(const std::string &name)
        {
            return reg_->counter(join(name));
        }
        RunningMean &mean(const std::string &name)
        {
            return reg_->mean(join(name));
        }
        Histogram &histogram(const std::string &name,
                             std::size_t buckets = 64)
        {
            return reg_->histogram(join(name), buckets);
        }
        void importStatSet(const StatSet &s)
        {
            reg_->importStatSet(prefix_, s);
        }
        Scope scope(const std::string &sub) const
        {
            return Scope(*reg_, join(sub));
        }
        const std::string &prefix() const { return prefix_; }

      private:
        std::string
        join(const std::string &name) const
        {
            return prefix_.empty() ? name : prefix_ + "." + name;
        }

        StatRegistry *reg_;
        std::string prefix_;
    };

    Scope scope(const std::string &prefix) { return Scope(*this, prefix); }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, RunningMean> means_;
    std::map<std::string, Histogram> hists_;
};

} // namespace btbsim::obs

#endif // BTBSIM_OBS_REGISTRY_H
