#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace alphaevolve::ckpt {

namespace fs = std::filesystem;

namespace {

struct CkptCounters {
  obs::Counter& writes;
  obs::Counter& write_failures;
  obs::Counter& bytes_written;
  obs::Counter& fallback_generations;
  obs::Counter& publish_retries;

  static CkptCounters& Get() {
    static CkptCounters* c = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return new CkptCounters{reg.GetCounter("ckpt.writes"),
                              reg.GetCounter("ckpt.write_failures"),
                              reg.GetCounter("ckpt.bytes_written"),
                              reg.GetCounter("ckpt.fallback_generations"),
                              reg.GetCounter("ckpt.publish_retries")};
    }();
    return *c;
  }
};

void EncodeF64Vector(serde::Writer& w, const std::vector<double>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (double x : v) w.F64(x);
}

std::vector<double> DecodeF64Vector(serde::Reader& r) {
  const size_t n = r.Count(r.U32(), sizeof(double));
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(r.F64());
  return v;
}

void EncodeInstructions(serde::Writer& w,
                        const std::vector<core::Instruction>& list) {
  w.U32(static_cast<uint32_t>(list.size()));
  for (const core::Instruction& ins : list) {
    w.U8(static_cast<uint8_t>(ins.op));
    w.U8(ins.out);
    w.U8(ins.in1);
    w.U8(ins.in2);
    w.U8(ins.idx0);
    w.U8(ins.idx1);
    w.F64(ins.imm0);
    w.F64(ins.imm1);
  }
}

std::vector<core::Instruction> DecodeInstructions(serde::Reader& r) {
  // 6 bytes of operands + 2 doubles per instruction.
  const size_t n = r.Count(r.U32(), 6 + 2 * sizeof(double));
  std::vector<core::Instruction> list;
  list.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::Instruction ins;
    const uint8_t op = r.U8();
    if (op >= static_cast<uint8_t>(core::kNumOps)) {
      throw serde::Error("checkpoint: instruction opcode out of range");
    }
    ins.op = static_cast<core::Op>(op);
    ins.out = r.U8();
    ins.in1 = r.U8();
    ins.in2 = r.U8();
    ins.idx0 = r.U8();
    ins.idx1 = r.U8();
    ins.imm0 = r.F64();
    ins.imm1 = r.F64();
    // A CRC-valid record can still name a register or an immediate that no
    // search writes; running it would index past the executor's and the
    // pruner's register files.
    const std::string bad =
        core::ValidateInstruction(ins, core::ProgramLimits{});
    if (!bad.empty()) throw serde::Error("checkpoint: " + bad);
    list.push_back(ins);
  }
  return list;
}

std::string GenerationFileName(const std::string& stem, int64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".g%08lld.ckpt",
                static_cast<long long>(generation));
  return stem + buf;
}

/// Parses `<stem>.g<digits>.ckpt`; -1 if `name` is not a generation file of
/// this stem.
int64_t ParseGeneration(const std::string& stem, const std::string& name) {
  const std::string prefix = stem + ".g";
  const std::string suffix = ".ckpt";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return -1;
  }
  int64_t gen = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    gen = gen * 10 + (c - '0');
  }
  return gen;
}

/// Every generation of `<dir>/<stem>`, sorted ascending. Missing or
/// unreadable directory yields empty.
std::vector<int64_t> ListGenerations(const std::string& dir,
                                     const std::string& stem) {
  std::vector<int64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const int64_t gen = ParseGeneration(stem, entry.path().filename().string());
    if (gen >= 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

/// write(2) loop covering partial writes; false on any error.
bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// ---------------------------------------------------------------------------
// Codecs.

void EncodeProgram(serde::Writer& w, const core::AlphaProgram& program) {
  EncodeInstructions(w, program.setup);
  EncodeInstructions(w, program.predict);
  EncodeInstructions(w, program.update);
}

core::AlphaProgram DecodeProgram(serde::Reader& r) {
  core::AlphaProgram program;
  program.setup = DecodeInstructions(r);
  program.predict = DecodeInstructions(r);
  program.update = DecodeInstructions(r);
  return program;
}

void EncodeMetrics(serde::Writer& w, const core::AlphaMetrics& m) {
  w.Bool(m.valid);
  w.Bool(m.timed_out);
  w.F64(m.ic_valid);
  w.F64(m.ic_test);
  w.F64(m.sharpe_valid);
  w.F64(m.sharpe_test);
  w.F64(m.sharpe_valid_net);
  w.F64(m.sharpe_test_net);
  w.F64(m.mean_turnover_valid);
  w.F64(m.mean_turnover_test);
  EncodeF64Vector(w, m.valid_portfolio_returns);
  EncodeF64Vector(w, m.test_portfolio_returns);
}

core::AlphaMetrics DecodeMetrics(serde::Reader& r) {
  core::AlphaMetrics m;
  m.valid = r.Bool();
  m.timed_out = r.Bool();
  m.ic_valid = r.F64();
  m.ic_test = r.F64();
  m.sharpe_valid = r.F64();
  m.sharpe_test = r.F64();
  m.sharpe_valid_net = r.F64();
  m.sharpe_test_net = r.F64();
  m.mean_turnover_valid = r.F64();
  m.mean_turnover_test = r.F64();
  m.valid_portfolio_returns = DecodeF64Vector(r);
  m.test_portfolio_returns = DecodeF64Vector(r);
  return m;
}

void EncodeEvolutionStats(serde::Writer& w, const core::EvolutionStats& s) {
  w.I64(s.candidates);
  w.I64(s.evaluated);
  w.I64(s.pruned_redundant);
  w.I64(s.cache_hits);
  w.I64(s.cutoff_discarded);
  w.I64(s.screened_out);
  w.I64(s.scenario_evals);
  w.I64(s.eval_timeouts);
  w.F64(s.elapsed_seconds);
}

core::EvolutionStats DecodeEvolutionStats(serde::Reader& r) {
  core::EvolutionStats s;
  s.candidates = r.I64();
  s.evaluated = r.I64();
  s.pruned_redundant = r.I64();
  s.cache_hits = r.I64();
  s.cutoff_discarded = r.I64();
  s.screened_out = r.I64();
  s.scenario_evals = r.I64();
  s.eval_timeouts = r.I64();
  s.elapsed_seconds = r.F64();
  return s;
}

void EncodeSearchStats(serde::Writer& w, const core::SearchStats& s) {
  w.U64(s.seed);
  w.I64(s.candidates);
  w.I64(s.cache_hits);
  w.I64(s.evaluated);
  w.I64(s.pruned_redundant);
  w.I64(s.screened_out);
  w.I64(s.scenario_evals);
  w.I64(s.eval_timeouts);
}

core::SearchStats DecodeSearchStats(serde::Reader& r) {
  core::SearchStats s;
  s.seed = r.U64();
  s.candidates = r.I64();
  s.cache_hits = r.I64();
  s.evaluated = r.I64();
  s.pruned_redundant = r.I64();
  s.screened_out = r.I64();
  s.scenario_evals = r.I64();
  s.eval_timeouts = r.I64();
  return s;
}

std::string EncodeSearchSnapshot(const core::EvolutionCheckpoint& ckpt) {
  serde::Writer w;
  w.U64(ckpt.config_seed);
  w.I64(ckpt.batches_committed);
  EncodeEvolutionStats(w, ckpt.stats);
  for (uint64_t word : ckpt.rng_state) w.U64(word);
  w.F64(ckpt.best_so_far);
  w.U32(static_cast<uint32_t>(ckpt.trajectory.size()));
  for (const auto& [candidates, fitness] : ckpt.trajectory) {
    w.I64(candidates);
    w.F64(fitness);
  }
  w.U32(static_cast<uint32_t>(ckpt.population.size()));
  for (const auto& member : ckpt.population) {
    EncodeProgram(w, member.program);
    w.F64(member.fitness);
  }
  w.U32(static_cast<uint32_t>(ckpt.cache_entries.size()));
  for (const auto& [fingerprint, fitness] : ckpt.cache_entries) {
    w.U64(fingerprint);
    w.F64(fitness);
  }
  return w.Take();
}

core::EvolutionCheckpoint DecodeSearchSnapshot(std::string_view payload) {
  serde::Reader r(payload);
  core::EvolutionCheckpoint ckpt;
  ckpt.config_seed = r.U64();
  ckpt.batches_committed = r.I64();
  if (ckpt.batches_committed < 0) {
    throw serde::Error("checkpoint: negative batch count");
  }
  ckpt.stats = DecodeEvolutionStats(r);
  for (uint64_t& word : ckpt.rng_state) word = r.U64();
  if ((ckpt.rng_state[0] | ckpt.rng_state[1] | ckpt.rng_state[2] |
       ckpt.rng_state[3]) == 0) {
    throw serde::Error("checkpoint: all-zero RNG state");
  }
  ckpt.best_so_far = r.F64();
  const size_t n_traj = r.Count(r.U32(), 16);
  ckpt.trajectory.reserve(n_traj);
  for (size_t i = 0; i < n_traj; ++i) {
    const int64_t candidates = r.I64();
    const double fitness = r.F64();
    ckpt.trajectory.emplace_back(candidates, fitness);
  }
  const size_t n_pop = r.Count(r.U32(), 3 * 4 + 8);  // 3 empty lists + f64
  ckpt.population.reserve(n_pop);
  for (size_t i = 0; i < n_pop; ++i) {
    core::EvolutionCheckpoint::MemberState member;
    member.program = DecodeProgram(r);
    member.fitness = r.F64();
    ckpt.population.push_back(std::move(member));
  }
  if (ckpt.population.empty()) {
    throw serde::Error("checkpoint: empty population");
  }
  const size_t n_cache = r.Count(r.U32(), 16);
  ckpt.cache_entries.reserve(n_cache);
  for (size_t i = 0; i < n_cache; ++i) {
    const uint64_t fingerprint = r.U64();
    const double fitness = r.F64();
    ckpt.cache_entries.emplace_back(fingerprint, fitness);
  }
  r.ExpectEnd();
  return ckpt;
}

std::string EncodeCampaign(const CampaignState& state) {
  serde::Writer w;
  w.I64(state.rounds_done);
  w.F64(state.wall_seconds);
  w.U32(static_cast<uint32_t>(state.accepted.size()));
  for (const core::AcceptedAlpha& a : state.accepted) {
    w.Str(a.name);
    EncodeProgram(w, a.program);
    EncodeMetrics(w, a.metrics);
  }
  w.U32(static_cast<uint32_t>(state.round_stats.size()));
  for (const auto& round : state.round_stats) {
    w.U32(static_cast<uint32_t>(round.size()));
    for (const core::SearchStats& s : round) EncodeSearchStats(w, s);
  }
  return w.Take();
}

CampaignState DecodeCampaign(std::string_view payload) {
  serde::Reader r(payload);
  CampaignState state;
  const int64_t rounds_done = r.I64();
  if (rounds_done < 0 || rounds_done > (1 << 20)) {
    throw serde::Error("checkpoint: campaign round count out of range");
  }
  state.rounds_done = static_cast<int>(rounds_done);
  state.wall_seconds = r.F64();
  const size_t n_accepted = r.Count(r.U32(), 4 + 3 * 4 + 2 + 8 * 8 + 2 * 4);
  state.accepted.reserve(n_accepted);
  for (size_t i = 0; i < n_accepted; ++i) {
    core::AcceptedAlpha a;
    a.name = r.Str();
    a.program = DecodeProgram(r);
    a.metrics = DecodeMetrics(r);
    state.accepted.push_back(std::move(a));
  }
  const size_t n_rounds = r.Count(r.U32(), 4);
  state.round_stats.reserve(n_rounds);
  for (size_t i = 0; i < n_rounds; ++i) {
    const size_t n_searches = r.Count(r.U32(), 8 * 8);
    std::vector<core::SearchStats> round;
    round.reserve(n_searches);
    for (size_t j = 0; j < n_searches; ++j) {
      round.push_back(DecodeSearchStats(r));
    }
    state.round_stats.push_back(std::move(round));
  }
  r.ExpectEnd();
  return state;
}

// ---------------------------------------------------------------------------
// CheckpointWriter.

CheckpointWriter::CheckpointWriter(std::string dir, std::string stem,
                                   WriterOptions options)
    : dir_(std::move(dir)), stem_(std::move(stem)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // best-effort; writes will report
  const std::vector<int64_t> gens = ListGenerations(dir_, stem_);
  if (!gens.empty()) next_generation_ = gens.back() + 1;
  epoch_ = std::chrono::steady_clock::now();
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (publisher_.joinable()) publisher_.join();
  // The publisher drains a pending snapshot before honoring stop_, so
  // everything handed to WriteCheckpoint is published (or counted failed).
}

void CheckpointWriter::PublisherLoop() {
  for (;;) {
    std::pair<uint32_t, std::string> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      work_cv_.wait(lock, [this] { return pending_.has_value() || stop_; });
      if (!pending_.has_value()) return;  // stop, nothing queued
      job = std::move(*pending_);
      pending_.reset();
      publishing_ = true;
    }
    PublishBlob(job.first, job.second);
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      publishing_ = false;
    }
    idle_cv_.notify_all();
  }
}

void CheckpointWriter::Flush() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock,
                [this] { return !pending_.has_value() && !publishing_; });
}

bool CheckpointWriter::WantCheckpoint(int64_t batches_committed) {
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  const double since_last = now - last_write_seconds_.load();
  const bool batch_due = options_.every_batches > 0 &&
                         batches_committed % options_.every_batches == 0;
  const bool time_due =
      options_.every_seconds > 0 && since_last >= options_.every_seconds;
  return batch_due || time_due;
}

void CheckpointWriter::WriteCheckpoint(
    const core::EvolutionCheckpoint& checkpoint) {
  // Serialization must happen here, on the barrier, while the state is
  // guaranteed quiescent; only the file I/O may move off-thread.
  std::string payload = EncodeSearchSnapshot(checkpoint);
  if (!options_.background) {
    PublishBlob(kSearchSnapshotKind, payload);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // Newest-wins coalescing: an unpublished older snapshot is superseded —
    // bounded memory and no barrier ever blocks on a slow disk.
    pending_ = {kSearchSnapshotKind, std::move(payload)};
    if (!publisher_.joinable()) {
      publisher_ = std::thread([this] { PublisherLoop(); });
    }
  }
  work_cv_.notify_one();
}

bool CheckpointWriter::WriteBlob(uint32_t kind, std::string_view payload) {
  return PublishBlob(kind, payload);
}

bool CheckpointWriter::PublishBlob(uint32_t kind, std::string_view payload) {
  std::lock_guard<std::mutex> io_lock(io_mu_);
  if (PublishBlobOnce(kind, payload)) return true;
  // One bounded retry: a transient hiccup (brief EIO, a racing unlink, an
  // interrupted syscall) should not cost the stream a generation. A
  // persistent failure (full disk) fails both attempts and degrades to the
  // warning + failure counter below — never more than one extra attempt, so
  // the search barrier is never held hostage by a dead disk.
  ++publish_retries_;
  if (obs::Enabled()) CkptCounters::Get().publish_retries.Add(1);
  if (PublishBlobOnce(kind, payload)) return true;
  ++write_failures_;
  if (obs::Enabled()) CkptCounters::Get().write_failures.Add(1);
  return false;
}

bool PublishFile(const std::string& dir, const std::string& name,
                 std::string_view bytes) {
  if (fault::InjectDelay()) {
    std::fprintf(stderr, "[ckpt] fault: injected %dms slow I/O on publish\n",
                 fault::kDelayMillis);
  }
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "[ckpt] WARNING: %s for %s (%s); not published\n",
                 what, final_path.c_str(), std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return false;
  };

  const bool inject_write_error =
      fault::Fire(fault::Kind::kEnospc) || fault::Fire(fault::Kind::kEio);
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return fail("open failed");
  if (inject_write_error || !WriteAll(fd, bytes)) {
    if (inject_write_error) {
      errno = fault::Active() == fault::Kind::kEnospc ? ENOSPC : EIO;
    }
    ::close(fd);
    return fail("write failed");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("fsync failed");
  }
  if (::close(fd) != 0) return fail("close failed");
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return fail("rename failed");
  }
  FsyncDir(dir);  // best-effort: the rename itself is already atomic
  return true;
}

bool CheckpointWriter::PublishBlobOnce(uint32_t kind,
                                       std::string_view payload) {
  AE_SPAN("checkpoint.write");
  const auto t0 = std::chrono::steady_clock::now();
  const std::string image = serde::Seal(kind, payload);
  const int64_t generation = next_generation_;
  const std::string name = GenerationFileName(stem_, generation);
  std::string_view bytes = image;
  if (fault::Fire(fault::Kind::kTornWrite)) {
    // Injected torn write: publish a file whose tail never hit the disk.
    // The envelope's size/CRC checks must catch this on read.
    bytes = bytes.substr(0, image.size() / 2);
    std::fprintf(stderr, "[ckpt] fault: torn write injected into %s/%s\n",
                 dir_.c_str(), name.c_str());
  }
  if (!PublishFile(dir_, name, bytes)) return false;

  ++next_generation_;
  ++generations_written_;
  last_snapshot_bytes_ = image.size();
  const auto now = std::chrono::steady_clock::now();
  last_write_seconds_ =
      std::chrono::duration<double>(now - epoch_).count();
  total_write_seconds_ = total_write_seconds_.load() +
                         std::chrono::duration<double>(now - t0).count();
  if (obs::Enabled()) {
    CkptCounters& c = CkptCounters::Get();
    c.writes.Add(1);
    c.bytes_written.Add(static_cast<int64_t>(image.size()));
  }

  if (options_.keep > 0) {
    const std::vector<int64_t> gens = ListGenerations(dir_, stem_);
    if (static_cast<int>(gens.size()) > options_.keep) {
      for (size_t i = 0; i + static_cast<size_t>(options_.keep) < gens.size();
           ++i) {
        ::unlink((dir_ + "/" + GenerationFileName(stem_, gens[i])).c_str());
      }
    }
  }

  if (fault::Fire(fault::Kind::kCrashAfterWrite)) {
    std::fprintf(stderr,
                 "[ckpt] fault: simulated crash after publishing %s/%s\n",
                 dir_.c_str(), name.c_str());
    std::fflush(stderr);
    std::_Exit(fault::kCrashExitCode);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reading back.

std::optional<LoadedCheckpoint> LoadNewest(const std::string& dir,
                                           const std::string& stem) {
  std::vector<int64_t> gens = ListGenerations(dir, stem);
  // Newest first; fall back generation by generation on anything suspect.
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = dir + "/" + GenerationFileName(stem, *it);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "[ckpt] WARNING: cannot read %s; trying older\n",
                   path.c_str());
      if (obs::Enabled()) CkptCounters::Get().fallback_generations.Add(1);
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    try {
      serde::Envelope env = serde::Open(bytes);
      return LoadedCheckpoint{*it, env.kind, std::move(env.payload)};
    } catch (const serde::Error& e) {
      std::fprintf(stderr,
                   "[ckpt] WARNING: %s is invalid (%s); falling back to "
                   "previous generation\n",
                   path.c_str(), e.what());
      if (obs::Enabled()) CkptCounters::Get().fallback_generations.Add(1);
    }
  }
  return std::nullopt;
}

int RemoveCheckpoints(const std::string& dir, const std::string& stem) {
  int removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    // Also sweep `.tmp` leftovers of interrupted writes.
    const std::string tmp_suffix = ".tmp";
    if (name.size() > tmp_suffix.size() &&
        name.compare(name.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0) {
      name.resize(name.size() - tmp_suffix.size());
    }
    if (ParseGeneration(stem, name) < 0) continue;
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec)) ++removed;
  }
  return removed;
}

}  // namespace alphaevolve::ckpt
