#include "exp/config_json.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace btbsim::exp {

namespace {

// ---- strict read helpers ----------------------------------------------

std::uint64_t
u64At(const obs::JsonValue &v, std::string_view key)
{
    const double d = v.at(key).asNumber();
    // Whole numbers in [0, 2^64) only: converting a fraction loses it
    // silently, and a value out of range is undefined behaviour.
    if (!(d >= 0) || d >= 0x1p64 || d != std::floor(d)) {
        std::ostringstream os;
        os << "expected an unsigned 64-bit integer for \"" << key
           << "\", got " << d;
        throw std::runtime_error(os.str());
    }
    return static_cast<std::uint64_t>(d);
}

unsigned
u32At(const obs::JsonValue &v, std::string_view key)
{
    const std::uint64_t n = u64At(v, key);
    if (n > std::numeric_limits<std::uint32_t>::max())
        throw std::runtime_error("value " + std::to_string(n) + " for \"" +
                                 std::string(key) +
                                 "\" is out of range for 32 bits");
    return static_cast<unsigned>(n);
}

double
numAt(const obs::JsonValue &v, std::string_view key)
{
    return v.at(key).asNumber();
}

bool
boolAt(const obs::JsonValue &v, std::string_view key)
{
    const obs::JsonValue &b = v.at(key);
    if (b.type != obs::JsonValue::Type::kBool)
        throw std::runtime_error("expected bool for \"" + std::string(key) +
                                 "\"");
    return b.boolean;
}

void
checkSchema(const obs::JsonValue &v, const char *what)
{
    const int got = static_cast<int>(v.at("_schema").asNumber());
    if (got != kConfigSchemaVersion)
        throw std::runtime_error(
            std::string(what) + ": config schema version " +
            std::to_string(got) + " (this build reads " +
            std::to_string(kConfigSchemaVersion) + ")");
}

// ---- nested config writers/readers ------------------------------------

void
writeLevelGeom(obs::JsonWriter &w, const BtbLevelGeom &g)
{
    w.beginObject();
    w.kv("sets", g.sets);
    w.kv("ways", g.ways);
    w.endObject();
}

BtbLevelGeom
levelGeomFromJson(const obs::JsonValue &v)
{
    BtbLevelGeom g;
    g.sets = u32At(v, "sets");
    g.ways = u32At(v, "ways");
    return g;
}

void
writeCacheConfig(obs::JsonWriter &w, const CacheConfig &c)
{
    w.beginObject();
    w.kv("name", c.name);
    w.kv("sets", c.sets);
    w.kv("ways", c.ways);
    w.kv("latency", c.latency);
    w.kv("mshrs", c.mshrs);
    w.kv("next_line_prefetch", c.next_line_prefetch);
    w.endObject();
}

CacheConfig
cacheConfigFromJson(const obs::JsonValue &v)
{
    CacheConfig c;
    c.name = v.at("name").asString();
    c.sets = u32At(v, "sets");
    c.ways = u32At(v, "ways");
    c.latency = u32At(v, "latency");
    c.mshrs = u32At(v, "mshrs");
    c.next_line_prefetch = boolAt(v, "next_line_prefetch");
    return c;
}

void
writeBPredConfig(obs::JsonWriter &w, const BPredConfig &c)
{
    w.beginObject();
    w.key("perceptron");
    w.beginObject();
    w.kv("num_tables", c.perceptron.num_tables);
    w.kv("entries_per_table", c.perceptron.entries_per_table);
    w.kv("max_history", c.perceptron.max_history);
    w.endObject();
    w.kv("ras_entries", c.ras_entries);
    w.kv("indirect_entries", c.indirect_entries);
    w.endObject();
}

BPredConfig
bpredConfigFromJson(const obs::JsonValue &v)
{
    BPredConfig c;
    const obs::JsonValue &p = v.at("perceptron");
    c.perceptron.num_tables = u32At(p, "num_tables");
    c.perceptron.entries_per_table = u32At(p, "entries_per_table");
    c.perceptron.max_history = u32At(p, "max_history");
    c.ras_entries = u32At(v, "ras_entries");
    c.indirect_entries = u32At(v, "indirect_entries");
    return c;
}

void
writeMemConfig(obs::JsonWriter &w, const MemConfig &c)
{
    w.beginObject();
    w.key("l1i");
    writeCacheConfig(w, c.l1i);
    w.key("l1d");
    writeCacheConfig(w, c.l1d);
    w.key("l2");
    writeCacheConfig(w, c.l2);
    w.key("llc");
    writeCacheConfig(w, c.llc);
    w.kv("dram_latency", c.dram_latency);
    w.kv("icache_interleaves", c.icache_interleaves);
    w.endObject();
}

MemConfig
memConfigFromJson(const obs::JsonValue &v)
{
    MemConfig c;
    c.l1i = cacheConfigFromJson(v.at("l1i"));
    c.l1d = cacheConfigFromJson(v.at("l1d"));
    c.l2 = cacheConfigFromJson(v.at("l2"));
    c.llc = cacheConfigFromJson(v.at("llc"));
    c.dram_latency = u32At(v, "dram_latency");
    c.icache_interleaves = u32At(v, "icache_interleaves");
    return c;
}

void
writeBackendConfig(obs::JsonWriter &w, const BackendConfig &c)
{
    w.beginObject();
    w.kv("rob_size", c.rob_size);
    w.kv("iq_size", c.iq_size);
    w.kv("lq_size", c.lq_size);
    w.kv("sq_size", c.sq_size);
    w.kv("alloc_width", c.alloc_width);
    w.kv("commit_width", c.commit_width);
    w.kv("issue_width", c.issue_width);
    w.kv("misc_ports", c.misc_ports);
    w.kv("load_ports", c.load_ports);
    w.kv("store_ports", c.store_ports);
    w.kv("ideal", c.ideal);
    w.endObject();
}

BackendConfig
backendConfigFromJson(const obs::JsonValue &v)
{
    BackendConfig c;
    c.rob_size = u32At(v, "rob_size");
    c.iq_size = u32At(v, "iq_size");
    c.lq_size = u32At(v, "lq_size");
    c.sq_size = u32At(v, "sq_size");
    c.alloc_width = u32At(v, "alloc_width");
    c.commit_width = u32At(v, "commit_width");
    c.issue_width = u32At(v, "issue_width");
    c.misc_ports = u32At(v, "misc_ports");
    c.load_ports = u32At(v, "load_ports");
    c.store_ports = u32At(v, "store_ports");
    c.ideal = boolAt(v, "ideal");
    return c;
}

void
writeGenParams(obs::JsonWriter &w, const GenParams &p)
{
    w.beginObject();
    w.kv("seed", p.seed);
    w.kv("target_static_insts", p.target_static_insts);
    w.kv("num_handlers", p.num_handlers);
    w.kv("mean_block_len", p.mean_block_len);
    w.kv("w_check", p.w_check);
    w.kv("w_always_if", p.w_always_if);
    w.kv("w_mixed_if", p.w_mixed_if);
    w.kv("w_loop", p.w_loop);
    w.kv("w_call", p.w_call);
    w.kv("w_icall", p.w_icall);
    w.kv("w_switch", p.w_switch);
    w.kv("w_jump", p.w_jump);
    w.kv("monomorphic_frac", p.monomorphic_frac);
    w.kv("pattern_frac", p.pattern_frac);
    w.kv("min_trips", p.min_trips);
    w.kv("max_trips", p.max_trips);
    w.kv("fixed_trip_frac", p.fixed_trip_frac);
    w.kv("data_footprint", p.data_footprint);
    w.kv("frac_load", p.frac_load);
    w.kv("frac_store", p.frac_store);
    w.kv("frac_stream_stack", p.frac_stream_stack);
    w.kv("frac_stream_stride", p.frac_stream_stride);
    w.kv("dep_locality", p.dep_locality);
    w.endObject();
}

GenParams
genParamsFromJson(const obs::JsonValue &v)
{
    GenParams p;
    p.seed = u64At(v, "seed");
    p.target_static_insts = u32At(v, "target_static_insts");
    p.num_handlers = u32At(v, "num_handlers");
    p.mean_block_len = numAt(v, "mean_block_len");
    p.w_check = numAt(v, "w_check");
    p.w_always_if = numAt(v, "w_always_if");
    p.w_mixed_if = numAt(v, "w_mixed_if");
    p.w_loop = numAt(v, "w_loop");
    p.w_call = numAt(v, "w_call");
    p.w_icall = numAt(v, "w_icall");
    p.w_switch = numAt(v, "w_switch");
    p.w_jump = numAt(v, "w_jump");
    p.monomorphic_frac = numAt(v, "monomorphic_frac");
    p.pattern_frac = numAt(v, "pattern_frac");
    p.min_trips = u32At(v, "min_trips");
    p.max_trips = u32At(v, "max_trips");
    p.fixed_trip_frac = numAt(v, "fixed_trip_frac");
    p.data_footprint = u64At(v, "data_footprint");
    p.frac_load = numAt(v, "frac_load");
    p.frac_store = numAt(v, "frac_store");
    p.frac_stream_stack = numAt(v, "frac_stream_stack");
    p.frac_stream_stride = numAt(v, "frac_stream_stride");
    p.dep_locality = numAt(v, "dep_locality");
    return p;
}

} // namespace

// ---- enum names --------------------------------------------------------

const char *
btbKindName(BtbKind k)
{
    switch (k) {
      case BtbKind::kInstruction:
        return "instruction";
      case BtbKind::kRegion:
        return "region";
      case BtbKind::kBlock:
        return "block";
      case BtbKind::kMultiBlock:
        return "multiblock";
      case BtbKind::kHetero:
        return "hetero";
    }
    return "unknown";
}

BtbKind
btbKindFromName(const std::string &name)
{
    for (BtbKind k :
         {BtbKind::kInstruction, BtbKind::kRegion, BtbKind::kBlock,
          BtbKind::kMultiBlock, BtbKind::kHetero})
        if (name == btbKindName(k))
            return k;
    throw std::runtime_error("unknown BtbKind \"" + name + "\"");
}

const char *
pullPolicyName(PullPolicy p)
{
    switch (p) {
      case PullPolicy::kNone:
        return "none";
      case PullPolicy::kUncondDir:
        return "uncond_dir";
      case PullPolicy::kCallDir:
        return "call_dir";
      case PullPolicy::kAllBr:
        return "all_br";
    }
    return "unknown";
}

PullPolicy
pullPolicyFromName(const std::string &name)
{
    for (PullPolicy p : {PullPolicy::kNone, PullPolicy::kUncondDir,
                         PullPolicy::kCallDir, PullPolicy::kAllBr})
        if (name == pullPolicyName(p))
            return p;
    throw std::runtime_error("unknown PullPolicy \"" + name + "\"");
}

// ---- BtbConfig ---------------------------------------------------------

void
writeBtbConfigJson(obs::JsonWriter &w, const BtbConfig &c)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.kv("kind", btbKindName(c.kind));
    w.kv("branch_slots", c.branch_slots);
    w.kv("width", c.width);
    w.kv("skip_taken", c.skip_taken);
    w.kv("region_bytes", c.region_bytes);
    w.kv("dual_region", c.dual_region);
    w.kv("reach_instrs", c.reach_instrs);
    w.kv("split", c.split);
    w.kv("cond_ends_block", c.cond_ends_block);
    w.kv("pull", pullPolicyName(c.pull));
    w.kv("stability_threshold", c.stability_threshold);
    w.kv("allow_last_slot_pull", c.allow_last_slot_pull);
    w.key("l1");
    writeLevelGeom(w, c.l1);
    w.key("l2");
    writeLevelGeom(w, c.l2);
    w.kv("ideal", c.ideal);
    w.kv("l2_penalty", c.l2_penalty);
    w.endObject();
}

BtbConfig
btbConfigFromJson(const obs::JsonValue &v)
{
    checkSchema(v, "BtbConfig");
    BtbConfig c;
    c.kind = btbKindFromName(v.at("kind").asString());
    c.branch_slots = u32At(v, "branch_slots");
    c.width = u32At(v, "width");
    c.skip_taken = boolAt(v, "skip_taken");
    c.region_bytes = u32At(v, "region_bytes");
    c.dual_region = boolAt(v, "dual_region");
    c.reach_instrs = u32At(v, "reach_instrs");
    c.split = boolAt(v, "split");
    c.cond_ends_block = boolAt(v, "cond_ends_block");
    c.pull = pullPolicyFromName(v.at("pull").asString());
    c.stability_threshold = u32At(v, "stability_threshold");
    c.allow_last_slot_pull = boolAt(v, "allow_last_slot_pull");
    c.l1 = levelGeomFromJson(v.at("l1"));
    c.l2 = levelGeomFromJson(v.at("l2"));
    c.ideal = boolAt(v, "ideal");
    c.l2_penalty = u32At(v, "l2_penalty");
    return c;
}

// ---- CpuConfig ---------------------------------------------------------

void
writeCpuConfigJson(obs::JsonWriter &w, const CpuConfig &c)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.key("btb");
    writeBtbConfigJson(w, c.btb);
    w.key("bpred");
    writeBPredConfig(w, c.bpred);
    w.key("mem");
    writeMemConfig(w, c.mem);
    w.key("backend");
    writeBackendConfig(w, c.backend);
    w.kv("ftq_entries", c.ftq_entries);
    w.kv("decode_queue", c.decode_queue);
    w.kv("alloc_queue", c.alloc_queue);
    w.kv("fetch_width", c.fetch_width);
    w.kv("fetch_lines", c.fetch_lines);
    w.kv("decode_width", c.decode_width);
    w.kv("alloc_width", c.alloc_width);
    w.kv("btb_predecode_fill", c.btb_predecode_fill);
    w.endObject();
}

CpuConfig
cpuConfigFromJson(const obs::JsonValue &v)
{
    checkSchema(v, "CpuConfig");
    CpuConfig c;
    c.btb = btbConfigFromJson(v.at("btb"));
    c.bpred = bpredConfigFromJson(v.at("bpred"));
    c.mem = memConfigFromJson(v.at("mem"));
    c.backend = backendConfigFromJson(v.at("backend"));
    c.ftq_entries = u32At(v, "ftq_entries");
    c.decode_queue = u32At(v, "decode_queue");
    c.alloc_queue = u32At(v, "alloc_queue");
    c.fetch_width = u32At(v, "fetch_width");
    c.fetch_lines = u32At(v, "fetch_lines");
    c.decode_width = u32At(v, "decode_width");
    c.alloc_width = u32At(v, "alloc_width");
    c.btb_predecode_fill = boolAt(v, "btb_predecode_fill");
    return c;
}

// ---- RunOptions --------------------------------------------------------

void
writeRunOptionsJson(obs::JsonWriter &w, const RunOptions &o)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.kv("warmup", o.warmup);
    w.kv("measure", o.measure);
    w.kv("traces", static_cast<std::uint64_t>(o.traces));
    w.kv("threads", o.threads);
    w.endObject();
}

RunOptions
runOptionsFromJson(const obs::JsonValue &v)
{
    checkSchema(v, "RunOptions");
    RunOptions o;
    o.warmup = u64At(v, "warmup");
    o.measure = u64At(v, "measure");
    o.traces = static_cast<std::size_t>(u64At(v, "traces"));
    o.threads = u32At(v, "threads");
    return o;
}

// ---- WorkloadSpec ------------------------------------------------------

void
writeWorkloadSpecJson(obs::JsonWriter &w, const WorkloadSpec &s)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.kv("name", s.name);
    w.key("params");
    writeGenParams(w, s.params);
    w.kv("trace_seed", s.trace_seed);
    w.endObject();
}

WorkloadSpec
workloadSpecFromJson(const obs::JsonValue &v)
{
    checkSchema(v, "WorkloadSpec");
    WorkloadSpec s;
    s.name = v.at("name").asString();
    s.params = genParamsFromJson(v.at("params"));
    s.trace_seed = u64At(v, "trace_seed");
    return s;
}

// ---- canonical strings -------------------------------------------------

namespace {

template <typename T, typename WriteFn>
std::string
canonical(const T &value, WriteFn write)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    write(w, value);
    return os.str();
}

} // namespace

std::string
toCanonicalJson(const CpuConfig &c)
{
    return canonical(c, [](obs::JsonWriter &w, const CpuConfig &v) {
        writeCpuConfigJson(w, v);
    });
}

std::string
toCanonicalJson(const RunOptions &o)
{
    return canonical(o, [](obs::JsonWriter &w, const RunOptions &v) {
        writeRunOptionsJson(w, v);
    });
}

std::string
toCanonicalJson(const WorkloadSpec &s)
{
    return canonical(s, [](obs::JsonWriter &w, const WorkloadSpec &v) {
        writeWorkloadSpecJson(w, v);
    });
}

} // namespace btbsim::exp
