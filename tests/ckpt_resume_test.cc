// The tentpole determinism contract: a search resumed from any batch-barrier
// snapshot finishes bit-identical to the uninterrupted run — same best
// program, fitness, stats counters (except wall-clock), trajectory, and
// fingerprint-cache contents — at pipeline depth 0 (lockstep) and deeper,
// and across thread counts. Covers the in-memory sink path (every snapshot
// the driver captures is a valid resume point), the on-disk
// CheckpointWriter -> LoadNewest -> DecodeSearchSnapshot path, and recovery
// when the newest on-disk generation is torn.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "market/simulator.h"
#include "obs/telemetry.h"
#include "util/fault.h"

namespace alphaevolve::core {
namespace {

/// In-memory CheckpointSink that deep-copies every snapshot the driver
/// offers at the given batch cadence.
class RecordingSink : public CheckpointSink {
 public:
  explicit RecordingSink(int every_batches) : every_(every_batches) {}
  bool WantCheckpoint(int64_t batches_committed) override {
    return every_ > 0 && batches_committed % every_ == 0;
  }
  void WriteCheckpoint(const EvolutionCheckpoint& checkpoint) override {
    snapshots.push_back(checkpoint);
  }
  std::vector<EvolutionCheckpoint> snapshots;

 private:
  int every_;
};

class CkptResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  void SetUp() override { fault::SetForTesting(fault::Kind::kNone); }
  void TearDown() override { fault::ClearForTesting(); }

  static EvolutionConfig BaseConfig() {
    EvolutionConfig cfg;
    cfg.max_candidates = 300;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    return cfg;
  }

  /// Bitwise result parity, wall-clock excluded (the one field a resumed
  /// run can never reproduce; it accumulates prior + current time instead).
  static void ExpectIdentical(const EvolutionResult& a,
                              const EvolutionResult& b) {
    ASSERT_EQ(a.has_alpha, b.has_alpha);
    EXPECT_EQ(a.best, b.best);
    EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.stats.candidates, b.stats.candidates);
    EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
    EXPECT_EQ(a.stats.pruned_redundant, b.stats.pruned_redundant);
    EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
    EXPECT_EQ(a.stats.cutoff_discarded, b.stats.cutoff_discarded);
    EXPECT_EQ(a.stats.eval_timeouts, b.stats.eval_timeouts);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
      EXPECT_EQ(a.trajectory[i].first, b.trajectory[i].first);
      EXPECT_DOUBLE_EQ(a.trajectory[i].second, b.trajectory[i].second);
    }
  }

  static market::Dataset* dataset_;
};

market::Dataset* CkptResumeTest::dataset_ = nullptr;

TEST_F(CkptResumeTest, EverySnapshotIsABitIdenticalResumePoint) {
  // Serial depth-0 search: the uninterrupted reference, then a
  // checkpointed run (which must itself be unperturbed), then a fresh
  // search resumed from EVERY recorded snapshot.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  Evolution reference_evo(evaluator, cfg);
  const EvolutionResult reference = reference_evo.Run(init);
  ASSERT_TRUE(reference.has_alpha);
  const auto reference_cache = reference_evo.CacheSnapshot();

  RecordingSink sink(/*every_batches=*/4);
  Evolution recorded_evo(evaluator, cfg);
  recorded_evo.UseCheckpointSink(&sink);
  const EvolutionResult recorded = recorded_evo.Run(init);
  ExpectIdentical(reference, recorded);  // checkpointing never perturbs
  ASSERT_GE(sink.snapshots.size(), 5u);

  int64_t prev_batches = 0;
  for (size_t i = 0; i < sink.snapshots.size(); ++i) {
    const EvolutionCheckpoint& snap = sink.snapshots[i];
    SCOPED_TRACE(::testing::Message()
                 << "snapshot " << i << " @ batch " << snap.batches_committed);
    EXPECT_GT(snap.batches_committed, prev_batches);
    prev_batches = snap.batches_committed;
    EXPECT_EQ(snap.config_seed, cfg.seed);
    // Batches are at most batch_size candidates wide (shorter ones occur —
    // e.g. the driver clips against the candidate budget).
    EXPECT_GT(snap.stats.candidates, 0);
    EXPECT_LE(snap.stats.candidates,
              snap.batches_committed * cfg.batch_size);

    Evolution resumed_evo(evaluator, cfg);
    resumed_evo.ResumeFrom(snap);
    const EvolutionResult resumed = resumed_evo.Run(init);
    ExpectIdentical(reference, resumed);
    EXPECT_EQ(resumed_evo.CacheSnapshot(), reference_cache);
  }
}

TEST_F(CkptResumeTest, ResumeParityAcrossThreadsAndDepths) {
  // The acceptance matrix: threads {1, 8} x pipeline depths {0, 2}. One
  // shared serial reference; each cell records its own snapshots (captures
  // happen at drained barriers, so depth-2 snapshots are the depth-0
  // states) and resumes from first, middle, and last.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  Evolution reference_evo(evaluator, cfg);
  const EvolutionResult reference = reference_evo.Run(init);
  ASSERT_TRUE(reference.has_alpha);
  const auto reference_cache = reference_evo.CacheSnapshot();

  for (const int threads : {1, 8}) {
    for (const int depth : {0, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " depth=" << depth);
      cfg.pipeline_depth = depth;
      EvaluatorPool pool(*dataset_, EvaluatorConfig{}, threads);

      RecordingSink sink(/*every_batches=*/4);
      Evolution recorded_evo(pool, cfg);
      recorded_evo.UseCheckpointSink(&sink);
      ExpectIdentical(reference, recorded_evo.Run(init));
      ASSERT_GE(sink.snapshots.size(), 3u);

      const size_t picks[] = {0, sink.snapshots.size() / 2,
                              sink.snapshots.size() - 1};
      for (const size_t pick : picks) {
        SCOPED_TRACE(::testing::Message() << "resume from snapshot " << pick);
        Evolution resumed_evo(pool, cfg);
        resumed_evo.ResumeFrom(sink.snapshots[pick]);
        const EvolutionResult resumed = resumed_evo.Run(init);
        ExpectIdentical(reference, resumed);
        EXPECT_EQ(resumed_evo.CacheSnapshot(), reference_cache);
      }
    }
  }
}

TEST_F(CkptResumeTest, SnapshotSurvivesTheWireBitIdentically) {
  // Serialize -> deserialize between capture and resume: the decoded
  // snapshot must drive the same continuation as the in-memory one.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 2;
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  Evolution reference_evo(pool, cfg);
  const EvolutionResult reference = reference_evo.Run(init);

  RecordingSink sink(/*every_batches=*/8);
  Evolution recorded_evo(pool, cfg);
  recorded_evo.UseCheckpointSink(&sink);
  recorded_evo.Run(init);
  ASSERT_FALSE(sink.snapshots.empty());

  const EvolutionCheckpoint& mid =
      sink.snapshots[sink.snapshots.size() / 2];
  const EvolutionCheckpoint decoded =
      ckpt::DecodeSearchSnapshot(ckpt::EncodeSearchSnapshot(mid));
  Evolution resumed_evo(pool, cfg);
  resumed_evo.ResumeFrom(decoded);
  ExpectIdentical(reference, resumed_evo.Run(init));
}

class CkptResumeFileTest : public CkptResumeTest {
 protected:
  void SetUp() override {
    CkptResumeTest::SetUp();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ae_resume_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    CkptResumeTest::TearDown();
  }
  std::string dir_;
};

TEST_F(CkptResumeFileTest, DiskRoundTripResumeMatchesUninterrupted) {
  // The full production path: CheckpointWriter publishes generations during
  // the run; a "new process" loads the newest with LoadNewest, decodes, and
  // resumes to the identical final result.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  Evolution reference_evo(evaluator, cfg);
  const EvolutionResult reference = reference_evo.Run(init);

  ckpt::WriterOptions options;
  options.every_batches = 4;
  options.keep = 10;
  // Synchronous publishes: every due barrier becomes a generation, so the
  // counts below are deterministic (background mode coalesces under load;
  // checkpoint_test covers it).
  options.background = false;
  ckpt::CheckpointWriter writer(dir_, "search", options);
  Evolution recorded_evo(evaluator, cfg);
  recorded_evo.UseCheckpointSink(&writer);
  ExpectIdentical(reference, recorded_evo.Run(init));
  ASSERT_GE(writer.generations_written(), 3);

  const auto loaded = ckpt::LoadNewest(dir_, "search");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->kind, ckpt::kSearchSnapshotKind);
  Evolution resumed_evo(evaluator, cfg);
  resumed_evo.ResumeFrom(ckpt::DecodeSearchSnapshot(loaded->payload));
  ExpectIdentical(reference, resumed_evo.Run(init));
}

TEST_F(CkptResumeFileTest, TornNewestGenerationFallsBackAndResumes) {
  // Corrupting the newest on-disk snapshot must cost at most one generation
  // of progress, never correctness: LoadNewest warns, falls back, and the
  // resumed run still finishes bit-identical.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  Evolution reference_evo(evaluator, cfg);
  const EvolutionResult reference = reference_evo.Run(init);

  ckpt::WriterOptions options;
  options.every_batches = 4;
  options.keep = 10;
  // Synchronous publishes: every due barrier becomes a generation, so the
  // counts below are deterministic (background mode coalesces under load;
  // checkpoint_test covers it).
  options.background = false;
  ckpt::CheckpointWriter writer(dir_, "search", options);
  Evolution recorded_evo(evaluator, cfg);
  recorded_evo.UseCheckpointSink(&writer);
  recorded_evo.Run(init);
  const int64_t newest = writer.last_generation();
  ASSERT_GE(newest, 2);

  // Tear the newest generation in half, as a crash mid-page-writeback would.
  char name[64];
  std::snprintf(name, sizeof(name), "/search.g%08lld.ckpt",
                static_cast<long long>(newest));
  const std::string path = dir_ + name;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(bytes.empty());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  // The fallback is observable: ckpt.fallback_generations counts each
  // generation LoadNewest had to skip past.
  obs::Configure(obs::TelemetryConfig{.enabled = true});
  obs::Counter& fallbacks =
      obs::MetricsRegistry::Default().GetCounter("ckpt.fallback_generations");
  const int64_t fallbacks_before = fallbacks.Value();
  const auto loaded = ckpt::LoadNewest(dir_, "search");
  obs::Configure(obs::TelemetryConfig{.enabled = false});
  EXPECT_EQ(fallbacks.Value(), fallbacks_before + 1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, newest - 1);
  Evolution resumed_evo(evaluator, cfg);
  resumed_evo.ResumeFrom(ckpt::DecodeSearchSnapshot(loaded->payload));
  ExpectIdentical(reference, resumed_evo.Run(init));
}

TEST_F(CkptResumeFileTest, PublishRetryIsCountedPerFailedPublish) {
  // A failed publish is retried once before degrading to a warning; each
  // retry shows up on the writer accessor and the ckpt.publish_retries
  // counter. With a persistent EIO fault both the attempt and its retry
  // fail, so one publish -> one retry -> one write failure.
  obs::Configure(obs::TelemetryConfig{.enabled = true});
  obs::Counter& retries =
      obs::MetricsRegistry::Default().GetCounter("ckpt.publish_retries");
  const int64_t retries_before = retries.Value();

  fault::SetForTesting(fault::Kind::kEio);
  ckpt::WriterOptions options;
  options.background = false;
  ckpt::CheckpointWriter writer(dir_, "search", options);
  EXPECT_FALSE(writer.WriteBlob(ckpt::kSearchSnapshotKind, "doomed"));
  EXPECT_EQ(writer.publish_retries(), 1);
  EXPECT_EQ(writer.write_failures(), 1);
  EXPECT_EQ(retries.Value(), retries_before + 1);

  EXPECT_FALSE(writer.WriteBlob(ckpt::kSearchSnapshotKind, "doomed again"));
  EXPECT_EQ(writer.publish_retries(), 2);
  EXPECT_EQ(retries.Value(), retries_before + 2);

  // Once the fault clears, the next publish lands without further retries.
  fault::SetForTesting(fault::Kind::kNone);
  EXPECT_TRUE(writer.WriteBlob(ckpt::kSearchSnapshotKind, "healed"));
  EXPECT_EQ(writer.publish_retries(), 2);
  EXPECT_EQ(retries.Value(), retries_before + 2);
  obs::Configure(obs::TelemetryConfig{.enabled = false});

  const auto loaded = ckpt::LoadNewest(dir_, "search");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "healed");
}

}  // namespace
}  // namespace alphaevolve::core
