#include "sim/cpu.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "check/checker.h"
#include "obs/span.h"
#include "trace/program.h"

namespace btbsim {

Cpu::Cpu(const CpuConfig &cfg, TraceSource &trace)
    : Cpu(cfg, trace, makeBtb(cfg.btb))
{}

Cpu::Cpu(const CpuConfig &cfg, TraceSource &trace,
         std::unique_ptr<BtbOrg> org)
    : cfg_(cfg), trace_(&trace), mem_(cfg.mem), bpred_(cfg.bpred),
      org_(std::move(org)),
      checked_(check::CheckedBtb::wrapFromEnv(*org_)),
      btb_front_(checked_ ? static_cast<BtbOrg *>(checked_.get())
                          : org_.get()),
      ftq_(cfg.ftq_entries),
      pcgen_(*btb_front_, bpred_, trace, ftq_), backend_(cfg.backend, mem_)
{
    stats_.config = org_->config().name();
    stats_.workload = trace.name();
}

Cpu::~Cpu() = default;

void
Cpu::fetchIssue()
{
    unsigned issues = 0;
    std::deque<FtqEntry> &entries = ftq_.entries();
    // Entries before firstUnissued() are all issued; start past them.
    for (std::size_t i = ftq_.firstUnissued(); i < entries.size(); ++i) {
        FtqEntry &e = entries[i];
        if (issues >= cfg_.fetch_lines)
            break;
        if (e.min_issue_cycle > now_)
            break; // Younger entries cannot be earlier.
        const bool was_miss = !mem_.l1i().contains(e.line);
        e.data_ready = mem_.fetchLine(e.line, now_);
        e.issued = true;
        ftq_.noteIssued();
        ++issues;
        if (cfg_.btb_predecode_fill && was_miss)
            predecodeLine(e.line);
    }
}

void
Cpu::deliver()
{
    unsigned instrs = 0;
    unsigned lines_used = 0;
    unsigned used_interleaves = 0;
    Addr prev_line = 0;
    bool have_prev = false;

    while (!ftq_.empty() && instrs < cfg_.fetch_width &&
           decode_queue_.size() < cfg_.decode_queue) {
        FtqEntry &e = ftq_.front();
        if (!e.issued || e.data_ready > now_)
            break; // In-order delivery.
        // Consecutive entries for the same line share one data-array
        // read: only a *new* line consumes a line slot and must land in
        // a fresh interleave.
        const bool new_line = !have_prev || e.line != prev_line;
        if (new_line) {
            const unsigned il = mem_.icacheInterleave(e.line);
            if (lines_used > 0 && (used_interleaves & (1u << il)))
                break; // Same-interleave conflict this cycle.
            if (lines_used >= cfg_.fetch_lines)
                break;
            used_interleaves |= (1u << il);
            ++lines_used;
            prev_line = e.line;
            have_prev = true;
        }

        bool entry_done = true;
        while (e.next_idx < e.insts.size()) {
            if (instrs >= cfg_.fetch_width ||
                decode_queue_.size() >= cfg_.decode_queue) {
                entry_done = false;
                break;
            }
            decode_queue_.push_back(std::move(e.insts[e.next_idx]));
            ++e.next_idx;
            ++instrs;
        }
        if (!entry_done)
            break;
        ftq_.popFront();
    }
}

void
Cpu::decode()
{
    unsigned n = 0;
    while (!decode_queue_.empty() && n < cfg_.decode_width &&
           alloc_queue_.size() < cfg_.alloc_queue) {
        DynInst d = std::move(decode_queue_.front());
        decode_queue_.pop_front();
        d.decode_cycle = now_;
        if (d.resteer == Resteer::kDecode)
            pcgen_.resteerResolved(now_);
        alloc_queue_.push_back(std::move(d));
        ++n;
    }
}

void
Cpu::allocate()
{
    unsigned n = 0;
    while (!alloc_queue_.empty() && n < cfg_.alloc_width &&
           backend_.canAllocate()) {
        if (alloc_queue_.front().decode_cycle >= now_)
            break; // Decoded this cycle; allocate next cycle.
        backend_.allocate(std::move(alloc_queue_.front()), now_);
        alloc_queue_.pop_front();
        ++n;
    }
}

void
Cpu::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    pcgen_.setTracer(tracer);
    if (checked_)
        checked_->setTracer(tracer);
}

void
Cpu::step()
{
    ++now_;
    if (checked_)
        checked_->setNow(now_);
    if (backend_.takeExecResteer(now_) != 0) {
        pcgen_.resteerResolved(now_);
        if (tracer_)
            tracer_->record(now_, obs::TraceEventType::kBranchResolve, 0);
    }
    backend_.runCycle(now_);
    allocate();
    decode();
    deliver();
    pcgen_.runCycle(now_);
    fetchIssue();
}

void
Cpu::predecodeLine(Addr line)
{
    const Program *prog = trace_->codeImage();
    if (!prog)
        return;
    for (Addr pc = line; pc < line + kLineBytes; pc += kInstBytes) {
        if (pc < prog->code_base ||
            pc >= prog->code_base + prog->footprintBytes())
            continue;
        const StaticInst &si = prog->insts[prog->indexOf(pc)];
        // Only architecturally-taken direct branches have targets that
        // predecode can compute from the instruction bytes.
        if (si.branch != BranchClass::kUncondDirect &&
            si.branch != BranchClass::kDirectCall)
            continue;
        Instruction br;
        br.pc = pc;
        br.cls = InstClass::kBranch;
        br.branch = si.branch;
        br.taken = true;
        br.next_pc = prog->pcOf(si.target);
        // Through the front pointer: the checker's training oracle must
        // observe prefills or it would flag their values as untrained.
        btb_front_->prefill(br);
    }
}

void
Cpu::sampleStructures()
{
    const OccupancySample s = org_->sampleOccupancy();
    occ_accum_.l1_slot_occupancy += s.l1_slot_occupancy;
    occ_accum_.l2_slot_occupancy += s.l2_slot_occupancy;
    occ_accum_.l1_redundancy += s.l1_redundancy;
    occ_accum_.l2_redundancy += s.l2_redundancy;
    occ_samples_ += 1.0;
}

void
Cpu::run(std::uint64_t warmup, std::uint64_t measure)
{
    // ---- warmup ----------------------------------------------------------
    const Cycle cycle_guard_per_inst = 400;
    std::uint64_t guard =
        (warmup + measure) * cycle_guard_per_inst + 1'000'000;
    {
        obs::ObsSpan span("warmup");
        while (backend_.committed() < warmup) {
            step();
            if (now_ > guard) {
                std::fprintf(stderr,
                             "btbsim: deadlock guard hit (%s / %s)\n",
                             stats_.workload.c_str(), stats_.config.c_str());
                std::abort();
            }
        }
    }

    // ---- snapshot --------------------------------------------------------
    const Cycle cycles0 = now_;
    const std::uint64_t insts0 = backend_.committed();
    const PcGenStats pg0 = pcgen_.stats;
    const std::uint64_t i_miss0 = mem_.l1i().demandMisses();

    // ---- measure ---------------------------------------------------------
    {
        obs::ObsSpan span("measure");
        const std::uint64_t sample_period = 1'000'000;
        std::uint64_t next_sample = insts0 + sample_period;
        const std::uint64_t end = insts0 + measure;
        obs::Sampler sampler(sample_interval_);
        ftq_occ_sum_ = 0.0;
        while (backend_.committed() < end) {
            step();
            ftq_occ_sum_ += static_cast<double>(ftq_.size());
            if (backend_.committed() >= next_sample) {
                sampleStructures();
                next_sample += sample_period;
            }
            if (sampler.due(now_ - cycles0))
                sampler.sample(sampleSnapshot(cycles0, insts0, pg0, i_miss0));
            if (now_ > guard) {
                std::fprintf(stderr,
                             "btbsim: deadlock guard hit (%s / %s)\n",
                             stats_.workload.c_str(), stats_.config.c_str());
                std::abort();
            }
        }
        if (occ_samples_ == 0.0)
            sampleStructures();
        stats_.sample_interval = sampler.interval();
        stats_.samples = sampler.take();
    }

    // ---- reduce ----------------------------------------------------------
    obs::ObsSpan reduce_span("reduce");
    const PcGenStats &pg = pcgen_.stats;
    const double insts =
        static_cast<double>(backend_.committed() - insts0);
    const double cycles = static_cast<double>(now_ - cycles0);
    const double ki = insts / 1000.0;

    stats_.instructions = backend_.committed() - insts0;
    stats_.cycles = now_ - cycles0;
    stats_.ipc = insts / cycles;
    stats_.branch_mpki = (pg.mispredicts - pg0.mispredicts) / ki;
    stats_.misfetch_pki = (pg.misfetches - pg0.misfetches) / ki;
    stats_.combined_mpki = stats_.branch_mpki + stats_.misfetch_pki;

    const double conds = static_cast<double>(pg.cond_branches - pg0.cond_branches);
    stats_.cond_mispredict_rate = conds > 0
        ? (pg.cond_mispredicts - pg0.cond_mispredicts) / conds : 0.0;

    const double taken =
        static_cast<double>(pg.taken_branches - pg0.taken_branches);
    stats_.taken_per_ki = taken / ki;
    stats_.l1_btb_hitrate = taken > 0
        ? (pg.taken_l1_hits - pg0.taken_l1_hits) / taken : 0.0;
    stats_.btb_hitrate = taken > 0
        ? ((pg.taken_l1_hits - pg0.taken_l1_hits) +
           (pg.taken_l2_hits - pg0.taken_l2_hits)) / taken
        : 0.0;

    const double accesses = static_cast<double>(pg.accesses - pg0.accesses);
    stats_.fetch_pcs_per_access = accesses > 0
        ? (pg.fetch_pcs - pg0.fetch_pcs) / accesses : 0.0;

    const double branches = static_cast<double>(pg.branches - pg0.branches);
    stats_.avg_dyn_bb_size = branches > 0 ? insts / branches : 0.0;

    stats_.icache_mpki = (mem_.l1i().demandMisses() - i_miss0) / ki;

    if (occ_samples_ > 0) {
        stats_.l1_slot_occupancy = occ_accum_.l1_slot_occupancy / occ_samples_;
        stats_.l2_slot_occupancy = occ_accum_.l2_slot_occupancy / occ_samples_;
        stats_.l1_redundancy = occ_accum_.l1_redundancy / occ_samples_;
        stats_.l2_redundancy = occ_accum_.l2_redundancy / occ_samples_;
    }

    harvestRegistry();
    stats_.counters = registry_.flatten();
}

obs::SampleSnapshot
Cpu::sampleSnapshot(Cycle cycles0, std::uint64_t insts0,
                    const PcGenStats &pg0, std::uint64_t i_miss0) const
{
    const PcGenStats &pg = pcgen_.stats;
    obs::SampleSnapshot s;
    s.cycle = now_ - cycles0;
    s.instructions = backend_.committed() - insts0;
    s.taken_branches = pg.taken_branches - pg0.taken_branches;
    s.taken_l1_hits = pg.taken_l1_hits - pg0.taken_l1_hits;
    s.taken_l2_hits = pg.taken_l2_hits - pg0.taken_l2_hits;
    s.mispredicts = pg.mispredicts - pg0.mispredicts;
    s.misfetches = pg.misfetches - pg0.misfetches;
    s.icache_misses = mem_.l1i().demandMisses() - i_miss0;
    s.ftq_occupancy_sum = ftq_occ_sum_;
    return s;
}

void
Cpu::harvestRegistry()
{
    registry_.clear();

    auto pg = registry_.scope("pcgen");
    pg.counter("accesses") = pcgen_.stats.accesses;
    pg.counter("fetch_pcs") = pcgen_.stats.fetch_pcs;
    pg.counter("branches") = pcgen_.stats.branches;
    pg.counter("taken_branches") = pcgen_.stats.taken_branches;
    pg.counter("taken_l1_hits") = pcgen_.stats.taken_l1_hits;
    pg.counter("taken_l2_hits") = pcgen_.stats.taken_l2_hits;
    pg.counter("cond_branches") = pcgen_.stats.cond_branches;
    pg.counter("cond_mispredicts") = pcgen_.stats.cond_mispredicts;
    pg.counter("mispredicts") = pcgen_.stats.mispredicts;
    pg.counter("misfetches") = pcgen_.stats.misfetches;
    pg.counter("misp_cond") = pcgen_.stats.misp_cond;
    pg.counter("misp_indirect") = pcgen_.stats.misp_indirect;
    pg.counter("misp_return") = pcgen_.stats.misp_return;
    pg.counter("misp_btbmiss") = pcgen_.stats.misp_btbmiss;
    pg.counter("taken_bubbles") = pcgen_.stats.taken_bubbles;

    registry_.scope("btb").importStatSet(org_->stats);

    auto cacheScope = [this](const char *name, const Cache &c) {
        auto s = registry_.scope(name);
        s.counter("demand_accesses") = c.demandAccesses();
        s.counter("demand_misses") = c.demandMisses();
        s.importStatSet(c.stats);
    };
    cacheScope("l1i", mem_.l1i());
    cacheScope("l1d", mem_.l1d());
    cacheScope("l2", mem_.l2());
    cacheScope("llc", mem_.llc());
    registry_.counter("dram.accesses") = mem_.dram().accesses();

    auto be = registry_.scope("backend");
    be.counter("committed") = backend_.committed();
    be.importStatSet(backend_.stats);

    auto ftq = registry_.scope("ftq");
    ftq.counter("capacity") = ftq_.capacity();
    if (stats_.cycles > 0)
        ftq.mean("occupancy").add(
            ftq_occ_sum_ / static_cast<double>(stats_.cycles));

    if (tracer_) {
        auto tr = registry_.scope("trace");
        tr.counter("events") = tracer_->total();
        tr.counter("dropped") = tracer_->dropped();
    }
}

} // namespace btbsim
