#include "traceio/trace_reader.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/env.h"
#include "obs/span.h"

#if defined(__unix__) || defined(__APPLE__)
#define BTBSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace btbsim::traceio {

// ---------------------------------------------------------------------
// MappedFile.

MappedFile::MappedFile(const std::string &path, bool try_mmap)
{
#if BTBSIM_HAVE_MMAP
    if (try_mmap) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw TraceError("cannot open trace file " + path);
        struct stat st {};
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void *p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                             PROT_READ, MAP_PRIVATE, fd, 0);
            if (p != MAP_FAILED) {
                data_ = static_cast<const std::uint8_t *>(p);
                size_ = static_cast<std::size_t>(st.st_size);
                mapped_ = true;
            }
        }
        ::close(fd);
        if (mapped_)
            return;
        // Fall through to the buffered path (mmap unavailable or the
        // file is empty).
    }
#else
    (void)try_mmap;
#endif
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw TraceError("cannot open trace file " + path);
    owned_.assign(std::istreambuf_iterator<char>(is),
                  std::istreambuf_iterator<char>());
    if (is.bad())
        throw TraceError("I/O error reading trace file " + path);
    data_ = owned_.data();
    size_ = owned_.size();
}

MappedFile::~MappedFile()
{
#if BTBSIM_HAVE_MMAP
    if (mapped_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
#endif
}

// ---------------------------------------------------------------------
// TraceReplaySource.

TraceReplaySource::Options
TraceReplaySource::Options::fromEnv()
{
    Options o;
    o.use_mmap = !env::disabled("BTBSIM_REPLAY_MMAP");
    if (env::isSet("BTBSIM_REPLAY_CACHE_MB"))
        o.cache_budget_bytes = env::u64("BTBSIM_REPLAY_CACHE_MB", 0) << 20;
    return o;
}

TraceReplaySource::TraceReplaySource(const std::string &path, Options opt)
    : path_(path), map_(path, opt.use_mmap)
{
    obs::ObsSpan span("replay_open");
    header_ = parseHeader(map_.data(), map_.size());

    if (header_.hasProgram()) {
        const std::uint8_t *blob = map_.data() + header_.program_offset;
        const auto n = static_cast<std::size_t>(header_.program_bytes);
        if (crc32(blob, n) != header_.program_crc)
            throw TraceError(path + ": Program image CRC mismatch");
        program_ = std::make_unique<Program>(deserializeProgram(blob, n));
    }

    // Build the chunk directory with pure bounds checks; payload CRCs
    // are verified lazily as chunks are decoded.
    std::uint64_t off = header_.data_offset;
    std::uint64_t total = 0;
    chunks_.reserve(header_.chunk_count);
    for (std::uint32_t i = 0; i < header_.chunk_count; ++i) {
        if (map_.size() - off < 16)
            throw TraceError(path + ": truncated chunk header (chunk " +
                             std::to_string(i) + ")");
        const std::uint8_t *h = map_.data() + off;
        if (readLeU32(h) != kChunkMagic)
            throw TraceError(path + ": bad chunk magic (chunk " +
                             std::to_string(i) + ")");
        Chunk c;
        c.records = readLeU32(h + 4);
        c.payload_bytes = readLeU32(h + 8);
        c.crc = readLeU32(h + 12);
        c.payload_offset = off + 16;
        if (map_.size() - c.payload_offset < c.payload_bytes)
            throw TraceError(path + ": truncated chunk payload (chunk " +
                             std::to_string(i) + ")");
        off = c.payload_offset + c.payload_bytes;
        total += c.records;
        chunks_.push_back(c);
    }
    if (total != header_.inst_count)
        throw TraceError(path + ": chunk record counts disagree with the "
                         "header instruction count");
    if (header_.inst_count == 0)
        throw TraceError(path + ": trace holds no instructions");
    crc_checked_.assign(chunks_.size(), false);

    // The wrap seam lives in the last non-empty chunk; its tail gets
    // rewritten on install.
    seam_chunk_ = chunks_.size() - 1;
    while (seam_chunk_ > 0 && chunks_[seam_chunk_].records == 0)
        --seam_chunk_;

    // Decode-once cache: when the whole decoded trace fits the budget,
    // every chunk is decoded at most once and wraps/resets are free.
    cached_mode_ = opt.cache_budget_bytes > 0 &&
                   header_.inst_count <=
                       opt.cache_budget_bytes / sizeof(Instruction);
    if (cached_mode_) {
        cache_.resize(chunks_.size());
        cache_valid_.assign(chunks_.size(), false);
    }

    reset();
}

void
TraceReplaySource::decodeChunk(std::size_t idx, std::vector<Instruction> &out)
{
    obs::ObsSpan span("replay_decode");
    const Chunk &c = chunks_[idx];
    const std::uint8_t *payload = map_.data() + c.payload_offset;
    if (!crc_checked_[idx]) {
        if (crc32(payload, c.payload_bytes) != c.crc)
            throw TraceError(path_ + ": payload CRC mismatch (chunk " +
                             std::to_string(idx) + ")");
        crc_checked_[idx] = true;
    }
    // Avoid resize()'s value-initialization when the buffer is reused at
    // the same size (every full chunk): decode overwrites each element.
    if (out.size() != c.records) {
        out.clear();
        out.resize(c.records);
    }
    try {
        decodeChunkPayload(payload, c.payload_bytes, c.records, out.data());
    } catch (const TraceError &e) {
        throw TraceError(path_ + ": " + e.what() + " (chunk " +
                         std::to_string(idx) + ")");
    }
}

const std::vector<Instruction> &
TraceReplaySource::chunkBuffer(std::size_t idx)
{
    if (!cache_valid_[idx]) {
        decodeChunk(idx, cache_[idx]);
        cache_valid_[idx] = true;
    }
    return cache_[idx];
}

void
TraceReplaySource::installFront(std::size_t idx)
{
    cur_chunk_ = idx;
    pos_ = 0;
    if (cur_->empty())
        return;
    if (!first_pc_set_) {
        first_pc_ = cur_->front().pc;
        first_pc_set_ = true;
    }

    // Control-flow-consistent wrap seam: the frontend asserts that each
    // instruction's next_pc matches the following pc, so the recorded
    // tail is rewritten into a jump back to the recorded head. The
    // rewrite is idempotent, so re-installing a cached chunk is fine.
    if (idx == seam_chunk_) {
        std::vector<Instruction> &buf =
            cached_mode_ ? cache_[idx] : stream_buf_;
        Instruction &tail = buf.back();
        if (tail.next_pc != first_pc_) {
            tail.cls = InstClass::kBranch;
            tail.branch = BranchClass::kUncondDirect;
            tail.taken = true;
            tail.next_pc = first_pc_;
            tail.mem_addr = 0;
        }
    }
}

void
TraceReplaySource::advance()
{
    // Skip empty chunks, but never loop forever on an all-empty file
    // (the constructor rejects inst_count == 0).
    for (std::size_t guard = 0; guard <= chunks_.size(); ++guard) {
        std::size_t idx = cur_chunk_ + 1;
        if (idx == chunks_.size()) {
            idx = 0;
            ++wraps_;
        }
        if (cached_mode_) {
            cur_ = &chunkBuffer(idx);
        } else {
            decodeChunk(idx, stream_buf_);
            cur_ = &stream_buf_;
        }
        installFront(idx);
        if (!cur_->empty())
            return;
    }
    throw TraceError(path_ + ": no decodable instructions");
}

const Instruction &
TraceReplaySource::next()
{
    if (pos_ >= cur_->size())
        advance();
    return (*cur_)[pos_++];
}

void
TraceReplaySource::reset()
{
    wraps_ = 0;
    if (cached_mode_) {
        cur_ = &chunkBuffer(0);
    } else {
        decodeChunk(0, stream_buf_);
        cur_ = &stream_buf_;
    }
    installFront(0);
    while (cur_->empty())
        advance();
}

// ---------------------------------------------------------------------
// Inspection / verification.

TraceFileInfo
inspectTrace(const std::string &path, bool check_crc)
{
    MappedFile map(path, true);
    TraceFileInfo info;
    info.file_bytes = map.size();
    info.header = parseHeader(map.data(), map.size());

    if (check_crc && info.header.hasProgram()) {
        const std::uint8_t *blob = map.data() + info.header.program_offset;
        info.program_crc_ok =
            crc32(blob, static_cast<std::size_t>(info.header.program_bytes)) ==
            info.header.program_crc;
    }

    std::uint64_t off = info.header.data_offset;
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < info.header.chunk_count; ++i) {
        if (map.size() - off < 16)
            throw TraceError(path + ": truncated chunk header (chunk " +
                             std::to_string(i) + ")");
        const std::uint8_t *h = map.data() + off;
        if (readLeU32(h) != kChunkMagic)
            throw TraceError(path + ": bad chunk magic (chunk " +
                             std::to_string(i) + ")");
        ChunkInfo c;
        c.offset = off;
        c.records = readLeU32(h + 4);
        c.payload_bytes = readLeU32(h + 8);
        const std::uint32_t crc = readLeU32(h + 12);
        if (map.size() - (off + 16) < c.payload_bytes)
            throw TraceError(path + ": truncated chunk payload (chunk " +
                             std::to_string(i) + ")");
        if (check_crc)
            c.crc_ok = crc32(map.data() + off + 16, c.payload_bytes) == crc;
        off += 16 + c.payload_bytes;
        total += c.records;
        info.chunks.push_back(c);
    }
    if (total != info.header.inst_count)
        throw TraceError(path + ": chunk record counts disagree with the "
                         "header instruction count");
    return info;
}

std::vector<std::string>
verifyTrace(const std::string &path)
{
    std::vector<std::string> problems;

    TraceFileInfo info;
    try {
        info = inspectTrace(path, true);
    } catch (const TraceError &e) {
        problems.push_back(e.what());
        return problems;
    }

    if (!info.program_crc_ok)
        problems.push_back(path + ": Program image CRC mismatch");

    MappedFile map(path, true);
    if (info.header.hasProgram() && info.program_crc_ok) {
        try {
            deserializeProgram(
                map.data() + info.header.program_offset,
                static_cast<std::size_t>(info.header.program_bytes));
        } catch (const TraceError &e) {
            problems.push_back(e.what());
        }
    }

    for (std::size_t i = 0; i < info.chunks.size(); ++i) {
        const ChunkInfo &c = info.chunks[i];
        if (!c.crc_ok) {
            problems.push_back(path + ": payload CRC mismatch (chunk " +
                               std::to_string(i) + ")");
            continue;
        }
        try {
            std::vector<Instruction> scratch(c.records);
            decodeChunkPayload(map.data() + c.offset + 16, c.payload_bytes,
                               c.records, scratch.data());
        } catch (const TraceError &e) {
            problems.push_back(std::string(e.what()) + " (chunk " +
                               std::to_string(i) + ")");
        }
    }
    return problems;
}

} // namespace btbsim::traceio
