#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "backend/backend.h"
#include "bpred/bpred_unit.h"
#include "frontend/ftq.h"
#include "frontend/pcgen.h"
#include "memory/memhier.h"
#include "sim/dyn_inst.h"
#include "traceio/trace_writer.h"

namespace perfbench {

using namespace btbsim;

namespace {

/** Make a loop's result observable so the loop cannot be removed. */
template <typename T>
void
keep(T v)
{
    volatile T sink = v;
    (void)sink;
}

} // namespace

TimedBtb::TimedBtb(std::unique_ptr<BtbOrg> inner) : inner_(std::move(inner))
{
    walk_stats = inner_->walk_stats;
}

int
TimedBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    const Clock::time_point t0 = Clock::now();
    const int level = inner_->beginAccess(pc, b);
    timers.begin_access.ns += nsSince(t0, Clock::now());
    ++timers.begin_access.calls;
    return level;
}

bool
TimedBtb::chainAccess(Addr pc, Addr target, PredictionBundle &b)
{
    const Clock::time_point t0 = Clock::now();
    const bool more = inner_->chainAccess(pc, target, b);
    timers.chain_access.ns += nsSince(t0, Clock::now());
    ++timers.chain_access.calls;
    return more;
}

void
TimedBtb::endAccess(PredictionBundle &b)
{
    const Clock::time_point t0 = Clock::now();
    inner_->endAccess(b);
    timers.end_access.ns += nsSince(t0, Clock::now());
    ++timers.end_access.calls;
}

void
TimedBtb::update(const Instruction &br, bool resteer)
{
    const Clock::time_point t0 = Clock::now();
    inner_->update(br, resteer);
    timers.update.ns += nsSince(t0, Clock::now());
    ++timers.update.calls;
}

FrontendProbe
probeFrontend(TraceSource &src, const std::vector<CpuConfig> &cfgs,
              std::uint64_t cycles_per_config)
{
    CallTimer cycle;
    std::uint64_t accesses = 0;
    std::uint64_t fetch_pcs = 0;
    for (const CpuConfig &cfg : cfgs) {
        src.reset();
        std::unique_ptr<BtbOrg> org = makeBtb(cfg.btb);
        BPredUnit bpred(cfg.bpred);
        Ftq ftq(cfg.ftq_entries);
        PcGen pcgen(*org, bpred, src, ftq);
        for (Cycle now = 1; now <= cycles_per_config; ++now) {
            const Clock::time_point t0 = Clock::now();
            pcgen.runCycle(now);
            cycle.ns += nsSince(t0, Clock::now());
            if (pcgen.waitingResteer())
                pcgen.resteerResolved(now);
            ftq.clear();
        }
        cycle.calls += cycles_per_config;
        accesses += pcgen.stats.accesses;
        fetch_pcs += pcgen.stats.fetch_pcs;
    }
    FrontendProbe p;
    p.pcgen_cycle_ns = cycle.nsPerCall();
    p.fetch_pcs_per_access =
        accesses ? static_cast<double>(fetch_pcs) / static_cast<double>(accesses)
                 : 0.0;
    return p;
}

BpredProbe
probeBpred(const std::vector<Instruction> &insts, const BPredConfig &cfg,
           unsigned passes)
{
    std::vector<const Instruction *> conds, indirects;
    for (const Instruction &in : insts) {
        if (in.branch == BranchClass::kCondDirect)
            conds.push_back(&in);
        else if (in.branch == BranchClass::kIndirectJump ||
                 in.branch == BranchClass::kIndirectCall)
            indirects.push_back(&in);
    }

    BpredProbe p;
    {
        BPredUnit unit(cfg);
        std::uint64_t wrong = 0;
        const Clock::time_point t0 = Clock::now();
        for (unsigned pass = 0; pass < passes; ++pass)
            for (const Instruction *in : conds)
                wrong += unit.predictDirection(in->pc, in->taken) != in->taken;
        const double ns = nsSince(t0, Clock::now());
        p.direction_calls = conds.size() * passes;
        if (p.direction_calls) {
            p.direction_ns = ns / static_cast<double>(p.direction_calls);
            p.cond_mispredict_rate = static_cast<double>(wrong) /
                                     static_cast<double>(p.direction_calls);
        }
    }
    {
        BPredUnit unit(cfg);
        Addr sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (unsigned pass = 0; pass < passes; ++pass)
            for (const Instruction *in : indirects)
                sink ^= unit.predictIndirect(in->pc, in->next_pc);
        const double ns = nsSince(t0, Clock::now());
        keep(sink);
        const std::uint64_t calls = indirects.size() * passes;
        if (calls)
            p.indirect_ns = ns / static_cast<double>(calls);
    }
    return p;
}

MemoryProbe
probeMemory(const std::vector<Instruction> &insts, const MemConfig &cfg,
            unsigned passes)
{
    std::vector<Addr> lines;
    std::vector<const Instruction *> loads, stores;
    for (const Instruction &in : insts) {
        const Addr line = alignDown(in.pc, kLineBytes);
        if (lines.empty() || lines.back() != line)
            lines.push_back(line);
        if (in.isLoad())
            loads.push_back(&in);
        else if (in.isStore())
            stores.push_back(&in);
    }

    MemHier mem(cfg);
    Cycle now = 0;
    Cycle sink = 0;
    double fetch_ns = 0, load_ns = 0, store_ns = 0;
    for (unsigned pass = 0; pass < passes; ++pass) {
        Clock::time_point t0 = Clock::now();
        for (Addr line : lines)
            sink ^= mem.fetchLine(line, ++now);
        Clock::time_point t1 = Clock::now();
        fetch_ns += nsSince(t0, t1);
        for (const Instruction *in : loads)
            sink ^= mem.load(in->pc, in->mem_addr, ++now);
        t0 = Clock::now();
        load_ns += nsSince(t1, t0);
        for (const Instruction *in : stores)
            mem.store(in->mem_addr, ++now);
        store_ns += nsSince(t0, Clock::now());
    }

    keep(sink);
    auto perCall = [&](double ns, std::size_t n) {
        return n ? ns / static_cast<double>(n * passes) : 0.0;
    };
    auto missRate = [](const Cache &c) {
        return c.demandAccesses() ? static_cast<double>(c.demandMisses()) /
                                        static_cast<double>(c.demandAccesses())
                                  : 0.0;
    };
    MemoryProbe p;
    p.fetch_line_ns = perCall(fetch_ns, lines.size());
    p.load_ns = perCall(load_ns, loads.size());
    p.store_ns = perCall(store_ns, stores.size());
    p.l1i_miss_rate = missRate(mem.l1i());
    p.l1d_miss_rate = missRate(mem.l1d());
    return p;
}

BackendProbe
probeBackend(const std::vector<Instruction> &insts, const CpuConfig &cfg,
             unsigned passes)
{
    MemHier mem(cfg.mem);
    Backend backend(cfg.backend, mem);
    const std::uint64_t total = insts.size() * passes;
    const Cycle guard = total * 400 + 1'000'000;
    CallTimer cycle, alloc;
    double rob_sum = 0.0;
    std::uint64_t seq = 0;
    Cycle now = 0;
    while (seq < total) {
        if (++now > guard)
            throw std::runtime_error("backend probe: no progress");
        const Clock::time_point t0 = Clock::now();
        backend.runCycle(now);
        const Clock::time_point t1 = Clock::now();
        cycle.ns += nsSince(t0, t1);
        unsigned n = 0;
        while (n < cfg.alloc_width && seq < total && backend.canAllocate()) {
            DynInst d;
            d.in = insts[seq % insts.size()];
            d.seq = ++seq;
            d.decode_cycle = now - 1;
            backend.allocate(std::move(d), now);
            ++n;
        }
        alloc.ns += nsSince(t1, Clock::now());
        alloc.calls += n;
        rob_sum += static_cast<double>(backend.robOccupancy());
    }
    cycle.calls = now;

    BackendProbe p;
    p.run_cycle_ns = cycle.nsPerCall();
    p.allocate_ns = alloc.nsPerCall();
    p.ipc = static_cast<double>(backend.committed()) / static_cast<double>(now);
    p.rob_occupancy_mean = rob_sum / static_cast<double>(now);
    return p;
}

RecordProbe
recordTrace(TraceSource &src, const std::string &path, std::uint64_t insts)
{
    src.reset();
    const Clock::time_point t0 = Clock::now();
    {
        traceio::TraceWriter writer(path, src.name(), src.codeImage());
        for (std::uint64_t i = 0; i < insts; ++i)
            writer.append(src.next());
        writer.finish();
    }
    RecordProbe r;
    r.seconds = nsSince(t0, Clock::now()) * 1e-9;
    r.bytes = std::filesystem::file_size(path);
    r.insts = insts;
    return r;
}

double
calibrateHostNs()
{
    // Larger than a core's private caches, so the probe, like the
    // simulator, feels contention for the shared last-level cache.
    constexpr std::uint32_t kEntries = 1u << 21; // 8 MiB of uint32.
    constexpr std::uint32_t kSteps = 1u << 18;
    std::vector<std::uint32_t> table(kEntries);
    std::uint32_t x = 0x2545f491u;
    for (std::uint32_t &t : table) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        t = x;
    }
    std::vector<double> reps;
    std::uint32_t h = 1;
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::uint32_t i = 0; i < kSteps; ++i)
            h = (h * 0x9e3779b1u) ^ table[(h >> 7) & (kEntries - 1)];
        reps.push_back(nsSince(t0, Clock::now()) / kSteps);
    }
    keep(h);
    std::sort(reps.begin(), reps.end());
    return reps[reps.size() / 2];
}

} // namespace perfbench
