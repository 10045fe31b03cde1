#ifndef ALPHAEVOLVE_CKPT_CHECKPOINT_H_
#define ALPHAEVOLVE_CKPT_CHECKPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/evolution.h"
#include "core/mining.h"
#include "util/serde.h"

namespace alphaevolve::ckpt {

/// Envelope `kind` values (see serde::Seal). A reader that meets an unknown
/// kind refuses it with a clear error instead of mis-decoding.
inline constexpr uint32_t kSearchSnapshotKind = 1;   ///< EvolutionCheckpoint
inline constexpr uint32_t kCampaignSnapshotKind = 2; ///< CampaignState

// ---------------------------------------------------------------------------
// Codecs. Every Encode*/Decode* pair round-trips bitwise (doubles are stored
// as raw IEEE-754 bit patterns); every Decode* validates what it reads and
// throws serde::Error on anything out of range, so a corrupt payload always
// surfaces as a catchable parse failure.

void EncodeProgram(serde::Writer& w, const core::AlphaProgram& program);
core::AlphaProgram DecodeProgram(serde::Reader& r);

void EncodeMetrics(serde::Writer& w, const core::AlphaMetrics& metrics);
core::AlphaMetrics DecodeMetrics(serde::Reader& r);

void EncodeEvolutionStats(serde::Writer& w, const core::EvolutionStats& s);
core::EvolutionStats DecodeEvolutionStats(serde::Reader& r);

void EncodeSearchStats(serde::Writer& w, const core::SearchStats& s);
core::SearchStats DecodeSearchStats(serde::Reader& r);

/// Serializes one search's committed barrier state (kSearchSnapshotKind
/// payload). DecodeSearchSnapshot consumes a full payload (ExpectEnd).
std::string EncodeSearchSnapshot(const core::EvolutionCheckpoint& ckpt);
core::EvolutionCheckpoint DecodeSearchSnapshot(std::string_view payload);

/// Campaign-level progress of a mining run (examples/mine_alpha_set,
/// examples/stress_alpha_set): which rounds are complete, the accepted alpha
/// set so far (with full metrics, so the correlation cutoff resumes
/// exactly), and the per-round search stats needed to rebuild the final
/// report bit-identically.
struct CampaignState {
  int rounds_done = 0;
  /// Wall-clock spent by prior processes; resume provenance only.
  double wall_seconds = 0.0;
  std::vector<core::AcceptedAlpha> accepted;
  std::vector<std::vector<core::SearchStats>> round_stats;
};

/// kCampaignSnapshotKind payload.
std::string EncodeCampaign(const CampaignState& state);
CampaignState DecodeCampaign(std::string_view payload);

// ---------------------------------------------------------------------------
// Durable snapshot files.

/// Replaces `<dir>/<name>` with `bytes` through the crash-consistency dance:
/// write all of it to `<name>.tmp`, fsync, rename over the final name, fsync
/// the directory. A reader sees the previous file or the new one, never a
/// mix. On any failure — real, or ENOSPC/EIO injected via AE_FAULT — it
/// warns on stderr, removes the temp file, leaves any previous `<name>` in
/// place and returns false. AE_FAULT=delay slows every call. The
/// CheckpointWriter's generations and the service's per-job records are both
/// published through it.
bool PublishFile(const std::string& dir, const std::string& name,
                 std::string_view bytes);

/// fsyncs directory `dir` so its entries (a new file or subdirectory, a
/// rename) survive power loss; false on failure. PublishFile ends with it.
bool FsyncDir(const std::string& dir);

/// Cadence/retention policy for a CheckpointWriter.
struct WriterOptions {
  /// Snapshot every N committed batches (<= 0 disables the batch cadence).
  int every_batches = 8;
  /// Also snapshot when this much wall-clock passed since the last write
  /// (<= 0 disables). Time-based snapshots land at whatever batch barrier
  /// the deadline falls on, so *which* generations exist varies run to run —
  /// but every snapshot is committed-barrier state, so resuming from any of
  /// them is still bit-exact.
  double every_seconds = 0.0;
  /// Retain the newest K generation files; older ones are unlinked after
  /// each successful publish (<= 0 keeps everything).
  int keep = 3;
  /// Publish sink snapshots (WriteCheckpoint) on a background thread: the
  /// search barrier only pays the serialization (microseconds), while the
  /// write + fsync + rename run concurrently with the next batches. At most
  /// one snapshot is queued — a newer barrier supersedes a still-waiting
  /// older one (snapshots are cumulative, so the stream stays a valid
  /// resume source; only intermediate generations thin out under I/O
  /// pressure). `false` publishes synchronously at the barrier. Direct
  /// WriteBlob calls are always synchronous either way.
  bool background = true;
};

/// Writes generation-numbered snapshot files
/// (`<dir>/<stem>.g<00000001>.ckpt`) with the crash-consistency dance:
/// serialize to `<file>.tmp`, write + fsync, rename over the final name,
/// fsync the directory. A reader therefore only ever sees complete sealed
/// files under the final name; a crash mid-write leaves at worst a stale
/// `.tmp` plus the intact previous generations.
///
/// Write failures (ENOSPC, EIO — real or injected via AE_FAULT) degrade to a
/// stderr warning and a counter; the search continues uncheckpointed.
/// Numbering continues from the newest generation already in the directory,
/// so a resumed process extends the stream instead of overwriting it.
///
/// One writer per search stream; Evolution calls the sink interface only
/// from its driving thread. With WriterOptions::background (the default),
/// file I/O happens on an internal publisher thread — the counters below are
/// exact only after Flush() (or destruction) has drained it.
class CheckpointWriter : public core::CheckpointSink {
 public:
  CheckpointWriter(std::string dir, std::string stem, WriterOptions options);
  /// Drains any queued snapshot, then joins the publisher thread.
  ~CheckpointWriter() override;

  /// core::CheckpointSink: due every `every_batches` commits or
  /// `every_seconds` of wall-clock.
  bool WantCheckpoint(int64_t batches_committed) override;
  void WriteCheckpoint(const core::EvolutionCheckpoint& checkpoint) override;

  /// Seals `payload` under `kind` and publishes it as the next generation,
  /// synchronously on the calling thread. Returns false (after warning +
  /// counting) on write failure. Used directly for campaign-level snapshots.
  bool WriteBlob(uint32_t kind, std::string_view payload);

  /// Blocks until every snapshot handed to WriteCheckpoint so far is either
  /// durably published or has failed (and been counted). Call before reading
  /// counters or the stream's files while the writer is still alive.
  void Flush();

  const std::string& dir() const { return dir_; }
  const std::string& stem() const { return stem_; }
  int64_t generations_written() const { return generations_written_; }
  int64_t write_failures() const { return write_failures_; }
  /// Publishes that needed the one bounded retry (see PublishBlob). A retry
  /// that succeeds never shows up in write_failures().
  int64_t publish_retries() const { return publish_retries_; }
  /// Newest generation this writer published (0 before the first).
  int64_t last_generation() const { return next_generation_ - 1; }
  size_t last_snapshot_bytes() const { return last_snapshot_bytes_; }
  double total_write_seconds() const { return total_write_seconds_; }

 private:
  /// One publish attempt, retried once by PublishBlob (which holds io_mu_
  /// so a direct WriteBlob and the publisher thread never interleave).
  bool PublishBlob(uint32_t kind, std::string_view payload);
  /// Seals and publishes one generation (PublishFile), then applies
  /// retention. Warns on failure but leaves failure counting to
  /// PublishBlob's retry wrapper — one counted failure per publish, not per
  /// attempt.
  bool PublishBlobOnce(uint32_t kind, std::string_view payload);
  void PublisherLoop();

  std::string dir_;
  std::string stem_;
  WriterOptions options_;
  std::atomic<int64_t> next_generation_{1};
  std::atomic<int64_t> generations_written_{0};
  std::atomic<int64_t> write_failures_{0};
  std::atomic<int64_t> publish_retries_{0};
  std::atomic<size_t> last_snapshot_bytes_{0};
  std::atomic<double> total_write_seconds_{0.0};
  /// Seconds since construction of the last publish (read by WantCheckpoint
  /// on the driving thread, written by whichever thread publishes).
  std::atomic<double> last_write_seconds_{0.0};
  std::chrono::steady_clock::time_point epoch_;

  std::mutex io_mu_;  ///< serializes PublishBlob bodies
  // Background publisher state (untouched when background is off).
  std::mutex queue_mu_;
  std::condition_variable work_cv_;   ///< publisher: work or stop
  std::condition_variable idle_cv_;   ///< Flush: queue empty + not writing
  std::optional<std::pair<uint32_t, std::string>> pending_;
  bool publishing_ = false;
  bool stop_ = false;
  std::thread publisher_;
};

/// A validated snapshot pulled back off disk.
struct LoadedCheckpoint {
  int64_t generation = 0;
  uint32_t kind = 0;
  std::string payload;
};

/// Loads the newest generation of `<dir>/<stem>.g*.ckpt` that validates
/// (magic + version + size + CRC). A torn or corrupt newest file is warned
/// about on stderr and skipped in favor of the next older generation — the
/// crash-recovery contract. nullopt when no generation validates (or the
/// directory does not exist).
std::optional<LoadedCheckpoint> LoadNewest(const std::string& dir,
                                           const std::string& stem);

/// Unlinks every `<dir>/<stem>.g*.ckpt` (and stray `.tmp`); returns how many
/// files went away. Used when a stream is complete — e.g. a mining round's
/// per-search snapshots once the round's campaign snapshot is durable.
int RemoveCheckpoints(const std::string& dir, const std::string& stem);

}  // namespace alphaevolve::ckpt

#endif  // ALPHAEVOLVE_CKPT_CHECKPOINT_H_
