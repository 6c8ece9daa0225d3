/**
 * @file
 * Differential test of the event-driven backend scheduler against the
 * chain-walk reference model (chain_walk_backend.h). Both are driven with
 * the same random DynInst streams, each over its own MemHier, and must
 * agree cycle by cycle on every issue and completion cycle (hence on the
 * order of MemHier::load calls), on commit counts, ROB occupancy,
 * allocation back-pressure and exec resteers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "backend/backend.h"
#include "chain_walk_backend.h"
#include "common/rng.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

/** Stream shape knobs. */
struct StreamShape
{
    unsigned regs = 16;        ///< Register names in use (1..63).
    double no_src = 0.2;       ///< Chance a source register is absent.
    double load = 0.25;        ///< Class mix; the rest is ALU/MUL/DIV/FP.
    double store = 0.1;
    double branch = 0.15;
    double exec_resteer = 0.1; ///< Of branches.
    double cold = 0.1;         ///< Memory ops to a fresh line (DRAM).
    unsigned max_alloc = 16;   ///< Allocations attempted per cycle.
    double gap = 0.02;         ///< Chance the next cycle skips ahead.
    double alloc_first = 0.3;  ///< Allocate before runCycle this cycle.
};

/** What a run exercised, so each test can require its coverage. */
struct Coverage
{
    std::uint64_t long_latency = 0;   ///< Completions past the wheel.
    std::uint64_t saturated = 0;      ///< Cycles that filled a port class.
    std::uint64_t resteers = 0;       ///< Exec resteers taken.
    std::uint64_t committed_deps = 0; ///< Sources whose writer committed.
    unsigned classes = 0;             ///< Bit per InstClass allocated.
};

class DiffRun
{
  public:
    DiffRun(const BackendConfig &cfg, std::uint64_t seed, StreamShape shape)
        : cfg_(cfg), rng_(seed), shape_(shape), fast_(cfg, mem_fast_),
          ref_(cfg, mem_ref_)
    {
        fast_.traceIssues(&log_fast_);
        ref_.traceIssues(&log_ref_);
        class_of_.push_back(InstClass::kAlu); // seqs start at 1
    }

    /** Run @p cycles cycles of traffic, then drain both backends. */
    void
    run(Cycle cycles)
    {
        Cycle now = 0;
        for (Cycle i = 0; i < cycles && !::testing::Test::HasFailure(); ++i) {
            now += rng_.nextBool(shape_.gap) ? 2 + rng_.nextBounded(200) : 1;
            cycle(now);
        }
        shape_.max_alloc = 0;
        for (Cycle i = 0; i < 20000 && !fast_.empty() &&
                          !::testing::Test::HasFailure();
             ++i)
            cycle(++now);
        EXPECT_TRUE(fast_.empty());
        EXPECT_TRUE(ref_.empty());
        EXPECT_EQ(fast_.committed(), seq_);
    }

    const Coverage &coverage() const { return cov_; }

  private:
    DynInst
    makeInst()
    {
        DynInst d;
        d.seq = ++seq_;
        d.in.pc = 0x400000 + (d.seq % 4096) * kInstBytes;
        d.in.next_pc = d.in.pc + kInstBytes;
        const double r = rng_.nextDouble();
        if (r < shape_.load) {
            d.in.cls = InstClass::kLoad;
        } else if (r < shape_.load + shape_.store) {
            d.in.cls = InstClass::kStore;
        } else if (r < shape_.load + shape_.store + shape_.branch) {
            d.in.cls = InstClass::kBranch;
            d.in.branch = BranchClass::kCondDirect;
            if (rng_.nextBool(shape_.exec_resteer))
                d.resteer = Resteer::kExec;
            else if (rng_.nextBool(0.1))
                d.resteer = Resteer::kDecode;
        } else {
            static constexpr InstClass kOther[] = {
                InstClass::kAlu, InstClass::kMul, InstClass::kDiv,
                InstClass::kFp};
            d.in.cls = kOther[rng_.nextBounded(4)];
        }
        cov_.classes |= 1u << static_cast<unsigned>(d.in.cls);
        class_of_.push_back(d.in.cls);
        if (d.in.isLoad() || d.in.isStore()) {
            // A small hot set (L1 hits, MSHR merges, stride prefetches)
            // plus lines never touched before (LLC and DRAM misses).
            d.in.mem_addr = rng_.nextBool(shape_.cold)
                ? 0x10000000 + (++cold_lines_) * kLineBytes * 3
                : 0x200000 + rng_.nextBounded(512) * 8;
        }
        auto reg = [&](double p_none) -> std::uint8_t {
            if (rng_.nextBool(p_none))
                return 0;
            return static_cast<std::uint8_t>(1 + rng_.nextBounded(shape_.regs));
        };
        d.in.src1 = reg(shape_.no_src);
        d.in.src2 = reg(shape_.no_src + 0.3);
        d.in.dst = d.in.isStore() || d.in.isBranch() ? 0 : reg(0.05);
        for (std::uint8_t s : {d.in.src1, d.in.src2})
            if (s && writer_[s] && writer_[s] <= fast_.committed())
                ++cov_.committed_deps; // seqs are dense from 1
        if (d.in.dst)
            writer_[d.in.dst] = d.seq;
        return d;
    }

    void
    allocate(Cycle now)
    {
        const auto n =
            static_cast<unsigned>(rng_.nextBounded(shape_.max_alloc + 1));
        for (unsigned i = 0; i < n; ++i) {
            const bool can = fast_.canAllocate();
            ASSERT_EQ(can, ref_.canAllocate()) << "cycle " << now;
            if (!can)
                return;
            DynInst d = makeInst();
            DynInst copy = d;
            fast_.allocate(std::move(d), now);
            ref_.allocate(std::move(copy), now);
        }
    }

    void
    cycle(Cycle now)
    {
        const Cycle resteer = fast_.takeExecResteer(now);
        ASSERT_EQ(resteer, ref_.takeExecResteer(now)) << "cycle " << now;
        if (resteer)
            ++cov_.resteers;

        const bool alloc_first = rng_.nextBool(shape_.alloc_first);
        if (alloc_first)
            allocate(now);
        const std::size_t before = log_fast_.size();
        fast_.runCycle(now);
        ref_.runCycle(now);
        if (!alloc_first)
            allocate(now);

        ASSERT_EQ(log_fast_.size(), log_ref_.size()) << "cycle " << now;
        unsigned ports[3] = {};
        for (std::size_t i = before; i < log_fast_.size(); ++i) {
            const Backend::IssueEvent &a = log_fast_[i];
            const Backend::IssueEvent &b = log_ref_[i];
            ASSERT_EQ(a.seq, b.seq) << "cycle " << now;
            ASSERT_EQ(a.issue, b.issue) << "seq " << a.seq;
            ASSERT_EQ(a.complete, b.complete) << "seq " << a.seq;
            if (a.complete - a.issue > 64)
                ++cov_.long_latency;
            const InstClass c = class_of_[a.seq];
            ++ports[c == InstClass::kLoad ? 0 : c == InstClass::kStore ? 1 : 2];
        }
        if (!cfg_.ideal && (ports[0] == cfg_.load_ports ||
                            ports[1] == cfg_.store_ports ||
                            ports[2] == cfg_.misc_ports))
            ++cov_.saturated;
        ASSERT_EQ(fast_.committed(), ref_.committed()) << "cycle " << now;
        ASSERT_EQ(fast_.robOccupancy(), ref_.robOccupancy());
        ASSERT_EQ(fast_.empty(), ref_.empty());
    }

    BackendConfig cfg_;
    Rng rng_;
    StreamShape shape_;
    MemHier mem_fast_;
    MemHier mem_ref_;
    Backend fast_;
    ChainWalkBackend ref_;
    std::vector<Backend::IssueEvent> log_fast_, log_ref_;
    std::vector<InstClass> class_of_;
    std::uint64_t writer_[64] = {};
    std::uint64_t seq_ = 0;
    std::uint64_t cold_lines_ = 0;
    Coverage cov_;
};

constexpr unsigned kAllClasses = (1u << 7) - 1;

} // namespace

TEST(BackendDiff, Table1RandomStreams)
{
    // 63 registers: some writers commit before a consumer names them.
    StreamShape s;
    s.regs = 63;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        DiffRun d(BackendConfig{}, seed, s);
        d.run(4000);
        ASSERT_FALSE(HasFailure());
        const Coverage &c = d.coverage();
        EXPECT_EQ(c.classes, kAllClasses);
        EXPECT_GT(c.long_latency, 0u);
        EXPECT_GT(c.resteers, 0u);
        EXPECT_GT(c.committed_deps, 0u);
    }
}

TEST(BackendDiff, Table1SaturatedPorts)
{
    // Wide, shallow dependences and many loads/stores: the port caps and
    // the issue width bind most cycles.
    StreamShape s;
    s.regs = 60;
    s.no_src = 0.6;
    s.load = 0.4;
    s.store = 0.25;
    s.cold = 0.01;
    s.max_alloc = 24;
    s.gap = 0.0;
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        SCOPED_TRACE(seed);
        DiffRun d(BackendConfig{}, seed, s);
        d.run(3000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(d.coverage().saturated, 100u);
    }
}

TEST(BackendDiff, SmallWindowDeepChains)
{
    // A few registers and a tiny ROB/IQ: long chains, producers that
    // committed (or left the window) before their consumers allocate,
    // and slot reuse on every lap of the ring.
    BackendConfig cfg;
    cfg.rob_size = 12;
    cfg.iq_size = 6;
    cfg.lq_size = 4;
    cfg.sq_size = 3;
    cfg.issue_width = 3;
    cfg.misc_ports = 2;
    cfg.load_ports = 1;
    cfg.store_ports = 1;
    StreamShape s;
    s.regs = 3;
    s.no_src = 0.1;
    s.max_alloc = 4;
    for (std::uint64_t seed = 200; seed < 206; ++seed) {
        SCOPED_TRACE(seed);
        DiffRun d(cfg, seed, s);
        d.run(4000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(d.coverage().committed_deps, 100u);
        EXPECT_GT(d.coverage().saturated, 0u);
    }
}

TEST(BackendDiff, IdealRandomStreams)
{
    StreamShape s;
    s.max_alloc = 64;
    for (std::uint64_t seed = 300; seed < 306; ++seed) {
        SCOPED_TRACE(seed);
        DiffRun d(BackendConfig::idealBackend(), seed, s);
        d.run(3000);
        ASSERT_FALSE(HasFailure());
        EXPECT_EQ(d.coverage().classes, kAllClasses);
        EXPECT_GT(d.coverage().resteers, 0u);
        EXPECT_GT(d.coverage().committed_deps, 0u);
    }
}
