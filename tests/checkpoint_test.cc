// The ckpt layer's contracts: every codec round-trips bitwise and rejects
// corrupt payloads as serde::Error (every truncation, and a 0xff byte at
// every offset, of a snapshot and a campaign payload); CheckpointWriter
// publishes atomically with generation numbering, retention, and cadence;
// LoadNewest degrades from a torn/corrupt newest generation to the previous
// one; injected ENOSPC/EIO/torn-write faults (util/fault.h) degrade exactly
// as a real full disk would. Tests neutralize AE_FAULT in SetUp so the CI
// fault matrix cannot perturb them — except FaultMatrixFromEnv, which is
// the test the matrix drives.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "core/evolution.h"
#include "core/mining.h"
#include "util/fault.h"
#include "util/serde.h"

namespace alphaevolve::ckpt {
namespace {

core::AlphaProgram SampleProgram() {
  core::AlphaProgram p;
  core::Instruction a;
  a.op = static_cast<core::Op>(1);
  a.out = 3;
  a.in1 = 4;
  a.in2 = 5;
  a.idx0 = 6;
  a.idx1 = 7;
  a.imm0 = 0.125;
  a.imm1 = -3.5e300;
  core::Instruction b;
  b.op = static_cast<core::Op>(2);
  b.out = 1;
  b.imm0 = -0.0;
  p.setup = {a};
  p.predict = {a, b};
  p.update = {b};
  return p;
}

core::AlphaMetrics SampleMetrics() {
  core::AlphaMetrics m;
  m.valid = true;
  m.timed_out = false;
  m.ic_valid = 0.0123456789;
  m.ic_test = -0.004;
  m.sharpe_valid = 1.5;
  m.sharpe_test = 0.75;
  m.sharpe_valid_net = 1.25;
  m.sharpe_test_net = 0.5;
  m.mean_turnover_valid = 0.31;
  m.mean_turnover_test = 0.29;
  m.valid_portfolio_returns = {0.01, -0.02, 0.003};
  m.test_portfolio_returns = {-0.005, 0.007};
  return m;
}

core::EvolutionCheckpoint SampleSnapshot() {
  core::EvolutionCheckpoint c;
  c.config_seed = 42;
  c.batches_committed = 17;
  c.stats.candidates = 136;
  c.stats.evaluated = 90;
  c.stats.pruned_redundant = 16;
  c.stats.cache_hits = 30;
  c.stats.cutoff_discarded = 4;
  c.stats.eval_timeouts = 2;
  c.stats.elapsed_seconds = 1.75;
  c.rng_state = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
  c.best_so_far = 0.08;
  c.trajectory = {{50, 0.01}, {100, 0.05}};
  c.population.push_back({SampleProgram(), 0.05});
  c.population.push_back({SampleProgram(), -1.0});
  c.cache_entries = {{11, 0.01}, {22, -1.0}, {33, 0.02}};
  return c;
}

CampaignState SampleCampaign() {
  CampaignState state;
  state.rounds_done = 2;
  state.wall_seconds = 12.5;
  state.accepted.push_back({"alpha_0", SampleProgram(), SampleMetrics()});
  state.accepted.push_back({"alpha_1", SampleProgram(), SampleMetrics()});
  core::SearchStats s;
  s.seed = 5;
  s.candidates = 10;
  state.round_stats = {{s, s}, {s}};
  return state;
}

/// Deterministic fuzzing of one payload decoder, the pattern of the service's
/// record test: every strict prefix of `payload` is refused with
/// serde::Error, and the payload with a 0xff byte at each offset either
/// decodes, to a value that re-encodes to exactly those bytes, or is
/// refused with serde::Error. Nothing else may escape. Returns how many
/// overwritten variants decoded.
template <typename Decode, typename Encode>
size_t FuzzPayload(const std::string& payload, Decode decode, Encode encode) {
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_THROW(decode(std::string_view(payload).substr(0, n)), serde::Error)
        << "prefix " << n;
  }
  size_t decoded = 0;
  for (size_t n = 0; n < payload.size(); ++n) {
    std::string mangled = payload;
    mangled[n] = static_cast<char>(0xff);
    try {
      EXPECT_EQ(encode(decode(mangled)), mangled) << "offset " << n;
      ++decoded;
    } catch (const serde::Error&) {
      // Refused: the one error a decoder raises.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "offset " << n << " escaped: " << e.what();
    }
  }
  return decoded;
}

void ExpectSnapshotEqual(const core::EvolutionCheckpoint& a,
                         const core::EvolutionCheckpoint& b) {
  EXPECT_EQ(a.config_seed, b.config_seed);
  EXPECT_EQ(a.batches_committed, b.batches_committed);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.eval_timeouts, b.stats.eval_timeouts);
  EXPECT_DOUBLE_EQ(a.stats.elapsed_seconds, b.stats.elapsed_seconds);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_DOUBLE_EQ(a.best_so_far, b.best_so_far);
  EXPECT_EQ(a.trajectory, b.trajectory);
  ASSERT_EQ(a.population.size(), b.population.size());
  for (size_t i = 0; i < a.population.size(); ++i) {
    EXPECT_EQ(a.population[i].program, b.population[i].program);
    EXPECT_DOUBLE_EQ(a.population[i].fitness, b.population[i].fitness);
  }
  EXPECT_EQ(a.cache_entries, b.cache_entries);
}

TEST(CheckpointCodecTest, ProgramRoundTripsBitwise) {
  const core::AlphaProgram p = SampleProgram();
  serde::Writer w;
  EncodeProgram(w, p);
  serde::Reader r(w.data());
  const core::AlphaProgram back = DecodeProgram(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, p);
  // Re-encoding the decoded program reproduces the byte stream exactly.
  serde::Writer again;
  EncodeProgram(again, back);
  EXPECT_EQ(again.data(), w.data());
}

TEST(CheckpointCodecTest, ProgramRejectsOutOfRangeOpcode) {
  serde::Writer w;
  EncodeProgram(w, SampleProgram());
  std::string bytes = w.data();
  bytes[4] = static_cast<char>(0xFE);  // first instruction's opcode byte
  serde::Reader r(bytes);
  EXPECT_THROW(DecodeProgram(r), serde::Error);
}

TEST(CheckpointCodecTest, MetricsRoundTrip) {
  const core::AlphaMetrics m = SampleMetrics();
  serde::Writer w;
  EncodeMetrics(w, m);
  serde::Reader r(w.data());
  const core::AlphaMetrics back = DecodeMetrics(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.valid, m.valid);
  EXPECT_EQ(back.timed_out, m.timed_out);
  EXPECT_DOUBLE_EQ(back.ic_valid, m.ic_valid);
  EXPECT_DOUBLE_EQ(back.sharpe_test_net, m.sharpe_test_net);
  EXPECT_EQ(back.valid_portfolio_returns, m.valid_portfolio_returns);
  EXPECT_EQ(back.test_portfolio_returns, m.test_portfolio_returns);
}

TEST(CheckpointCodecTest, SearchStatsRoundTrip) {
  core::SearchStats s;
  s.seed = 99;
  s.candidates = 300;
  s.cache_hits = 100;
  s.evaluated = 150;
  s.pruned_redundant = 50;
  s.screened_out = 7;
  s.scenario_evals = 21;
  s.eval_timeouts = 3;
  serde::Writer w;
  EncodeSearchStats(w, s);
  serde::Reader r(w.data());
  const core::SearchStats back = DecodeSearchStats(r);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.candidates, s.candidates);
  EXPECT_EQ(back.eval_timeouts, s.eval_timeouts);
}

TEST(CheckpointCodecTest, SearchSnapshotRoundTripsBitwise) {
  const core::EvolutionCheckpoint c = SampleSnapshot();
  const std::string payload = EncodeSearchSnapshot(c);
  const core::EvolutionCheckpoint back = DecodeSearchSnapshot(payload);
  ExpectSnapshotEqual(c, back);
  EXPECT_EQ(EncodeSearchSnapshot(back), payload);
}

TEST(CheckpointCodecTest, SearchSnapshotSurvivesEveryTruncationOrOverwrite) {
  const std::string payload = EncodeSearchSnapshot(SampleSnapshot());
  const size_t decoded = FuzzPayload(
      payload,
      [](std::string_view bytes) { return DecodeSearchSnapshot(bytes); },
      [](const core::EvolutionCheckpoint& c) {
        return EncodeSearchSnapshot(c);
      });
  // Both outcomes occur: overwritten doubles decode, counts and register
  // operands do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, payload.size());
  EXPECT_THROW(DecodeSearchSnapshot(payload + "x"), serde::Error);
}

TEST(CheckpointCodecTest, SearchSnapshotRejectsZeroRngState) {
  core::EvolutionCheckpoint c = SampleSnapshot();
  c.rng_state = {0, 0, 0, 0};
  EXPECT_THROW(DecodeSearchSnapshot(EncodeSearchSnapshot(c)), serde::Error);
}

TEST(CheckpointCodecTest, CampaignRoundTrip) {
  const CampaignState state = SampleCampaign();
  const std::string payload = EncodeCampaign(state);
  const CampaignState back = DecodeCampaign(payload);
  EXPECT_EQ(back.rounds_done, state.rounds_done);
  EXPECT_DOUBLE_EQ(back.wall_seconds, state.wall_seconds);
  ASSERT_EQ(back.accepted.size(), 2u);
  EXPECT_EQ(back.accepted[0].name, "alpha_0");
  EXPECT_EQ(back.accepted[1].program, state.accepted[1].program);
  EXPECT_EQ(back.accepted[0].metrics.valid_portfolio_returns,
            state.accepted[0].metrics.valid_portfolio_returns);
  ASSERT_EQ(back.round_stats.size(), 2u);
  EXPECT_EQ(back.round_stats[0].size(), 2u);
  EXPECT_EQ(back.round_stats[1][0].candidates, 10);
  EXPECT_EQ(EncodeCampaign(back), payload);
}

TEST(CheckpointCodecTest, CampaignSurvivesEveryTruncationOrOverwrite) {
  const std::string payload = EncodeCampaign(SampleCampaign());
  const size_t decoded = FuzzPayload(
      payload, [](std::string_view bytes) { return DecodeCampaign(bytes); },
      [](const CampaignState& state) { return EncodeCampaign(state); });
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, payload.size());
  EXPECT_THROW(DecodeCampaign(payload + "x"), serde::Error);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A CI-wide AE_FAULT matrix variable must not perturb file tests; the
    // env-driven scenarios live in FaultMatrixFromEnv.
    fault::SetForTesting(fault::Kind::kNone);
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ae_ckpt_" + std::to_string(::getpid()) + "_" + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    fault::ClearForTesting();
  }

  std::string dir_;
};

TEST_F(CheckpointFileTest, WriteThenLoadNewestRoundTrips) {
  CheckpointWriter writer(dir_, "search", WriterOptions{});
  const std::string payload = EncodeSearchSnapshot(SampleSnapshot());
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, payload));
  EXPECT_EQ(writer.generations_written(), 1);
  EXPECT_EQ(writer.last_generation(), 1);
  EXPECT_GT(writer.last_snapshot_bytes(), payload.size());  // + envelope

  const auto loaded = LoadNewest(dir_, "search");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(loaded->kind, kSearchSnapshotKind);
  EXPECT_EQ(loaded->payload, payload);
  // No stray temp files survive a successful publish.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".ckpt");
  }
}

TEST_F(CheckpointFileTest, GenerationNumberingContinuesAcrossWriters) {
  {
    CheckpointWriter writer(dir_, "s", WriterOptions{});
    ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "one"));
    ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "two"));
  }
  CheckpointWriter resumed(dir_, "s", WriterOptions{});
  ASSERT_TRUE(resumed.WriteBlob(kSearchSnapshotKind, "three"));
  EXPECT_EQ(resumed.last_generation(), 3);
  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 3);
  EXPECT_EQ(loaded->payload, "three");
}

TEST_F(CheckpointFileTest, RetentionKeepsNewestK) {
  WriterOptions options;
  options.keep = 2;
  CheckpointWriter writer(dir_, "s", options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind,
                                 "gen" + std::to_string(i + 1)));
  }
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2);
  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5);
  EXPECT_EQ(loaded->payload, "gen5");
}

TEST_F(CheckpointFileTest, CorruptNewestFallsBackToPreviousGeneration) {
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "good"));
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "newest"));
  // Tear the newest file: keep only the first half of its bytes.
  const std::string newest = dir_ + "/s.g00000002.ckpt";
  std::ifstream in(newest, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(newest, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(loaded->payload, "good");
}

TEST_F(CheckpointFileTest, NothingValidReturnsNullopt) {
  EXPECT_FALSE(LoadNewest(dir_, "s").has_value());  // no directory at all
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "x"));
  std::ofstream(dir_ + "/s.g00000001.ckpt",
                std::ios::binary | std::ios::trunc)
      << "garbage";
  EXPECT_FALSE(LoadNewest(dir_, "s").has_value());
  // Other stems are invisible.
  EXPECT_FALSE(LoadNewest(dir_, "other").has_value());
}

TEST_F(CheckpointFileTest, RemoveCheckpointsSweepsOnlyItsStem) {
  CheckpointWriter a(dir_, "a", WriterOptions{});
  CheckpointWriter b(dir_, "b", WriterOptions{});
  ASSERT_TRUE(a.WriteBlob(kSearchSnapshotKind, "1"));
  ASSERT_TRUE(a.WriteBlob(kSearchSnapshotKind, "2"));
  ASSERT_TRUE(b.WriteBlob(kSearchSnapshotKind, "1"));
  std::ofstream(dir_ + "/a.g00000009.ckpt.tmp") << "torn leftover";
  EXPECT_EQ(RemoveCheckpoints(dir_, "a"), 3);
  EXPECT_FALSE(LoadNewest(dir_, "a").has_value());
  ASSERT_TRUE(LoadNewest(dir_, "b").has_value());
}

TEST_F(CheckpointFileTest, WantCheckpointFollowsBatchCadence) {
  WriterOptions options;
  options.every_batches = 4;
  CheckpointWriter writer(dir_, "s", options);
  EXPECT_FALSE(writer.WantCheckpoint(1));
  EXPECT_FALSE(writer.WantCheckpoint(3));
  EXPECT_TRUE(writer.WantCheckpoint(4));
  EXPECT_FALSE(writer.WantCheckpoint(5));
  EXPECT_TRUE(writer.WantCheckpoint(8));
}

TEST_F(CheckpointFileTest, BackgroundSinkPublishesNewestAfterFlush) {
  // The default sink mode: WriteCheckpoint only serializes on the caller
  // and hands the blob to the publisher thread. After Flush, the newest
  // on-disk generation must be the last snapshot handed over (older queued
  // ones may coalesce away; order is never violated).
  CheckpointWriter writer(dir_, "bg", WriterOptions{});
  core::EvolutionCheckpoint snap = SampleSnapshot();
  for (int i = 1; i <= 3; ++i) {
    snap.batches_committed = i * 4;
    writer.WriteCheckpoint(snap);
  }
  writer.Flush();
  EXPECT_GE(writer.generations_written(), 1);
  const auto loaded = LoadNewest(dir_, "bg");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->kind, kSearchSnapshotKind);
  const core::EvolutionCheckpoint back =
      DecodeSearchSnapshot(loaded->payload);
  EXPECT_EQ(back.batches_committed, 12);
}

TEST_F(CheckpointFileTest, EnospcFaultDegradesToWarningAndCounter) {
  fault::SetForTesting(fault::Kind::kEnospc);
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  EXPECT_FALSE(writer.WriteBlob(kSearchSnapshotKind, "doomed"));
  EXPECT_FALSE(writer.WriteBlob(kSearchSnapshotKind, "doomed"));  // persists
  EXPECT_EQ(writer.write_failures(), 2);
  EXPECT_EQ(writer.generations_written(), 0);
  EXPECT_FALSE(LoadNewest(dir_, "s").has_value());
  // No temp litter either.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 0);
}

TEST_F(CheckpointFileTest, EioFaultFromNthWrite) {
  fault::SetForTesting(fault::Kind::kEio, /*trigger_at=*/2);
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  EXPECT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "survives"));
  EXPECT_FALSE(writer.WriteBlob(kSearchSnapshotKind, "doomed"));
  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "survives");
}

TEST_F(CheckpointFileTest, TornWriteFaultIsCaughtByReader) {
  fault::SetForTesting(fault::Kind::kTornWrite, /*trigger_at=*/2);
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "good"));
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "torn payload bytes"));
  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(loaded->payload, "good");
}

TEST_F(CheckpointFileTest, DelayFaultSlowsPublishButSucceeds) {
  // AE_FAULT=delay models a slow disk, not a broken one: every publish
  // sleeps ~100ms inside the I/O path but still lands durably.
  fault::SetForTesting(fault::Kind::kDelay);
  CheckpointWriter writer(dir_, "s", WriterOptions{});
  EXPECT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "slow but sure"));
  EXPECT_EQ(writer.write_failures(), 0);
  EXPECT_GE(writer.total_write_seconds(), 0.09);
  const auto loaded = LoadNewest(dir_, "s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(loaded->payload, "slow but sure");
}

TEST_F(CheckpointFileTest, FaultMatrixFromEnv) {
  // The CI fault-injection matrix runs this suite with AE_FAULT set; this
  // test re-arms the env-configured kind (SetUp neutralized it) on the
  // second write and asserts the recovery contract end to end.
  const auto [kind, trigger] = fault::FromEnv();
  if (kind == fault::Kind::kNone) {
    GTEST_SKIP() << "AE_FAULT not set";
  }
  if (kind == fault::Kind::kCrashAfterWrite) {
    GTEST_SKIP() << "crash_after_write is exercised by the kill-resume smoke";
  }
  fault::SetForTesting(kind, /*trigger_at=*/2);
  CheckpointWriter writer(dir_, "matrix", WriterOptions{});
  ASSERT_TRUE(writer.WriteBlob(kSearchSnapshotKind, "good"));
  const bool second_ok =
      writer.WriteBlob(kSearchSnapshotKind, "under " +
                           std::string(fault::KindName(kind)));
  const auto loaded = LoadNewest(dir_, "matrix");
  ASSERT_TRUE(loaded.has_value()) << "generation 1 must always survive";
  if (kind == fault::Kind::kTornWrite) {
    // The torn generation 2 was published but must be rejected on read.
    EXPECT_TRUE(second_ok);
    EXPECT_EQ(loaded->generation, 1);
  } else if (kind == fault::Kind::kDelay) {
    // Latency injection: slow, but both generations land intact.
    EXPECT_TRUE(second_ok);
    EXPECT_EQ(writer.write_failures(), 0);
    EXPECT_EQ(loaded->generation, 2);
    EXPECT_EQ(loaded->payload, "under delay");
    EXPECT_GE(writer.total_write_seconds(), 0.09);
    return;
  } else {
    // ENOSPC/EIO: the write itself degrades gracefully.
    EXPECT_FALSE(second_ok);
    EXPECT_EQ(writer.write_failures(), 1);
    EXPECT_EQ(loaded->generation, 1);
  }
  EXPECT_EQ(loaded->payload, "good");
}

}  // namespace
}  // namespace alphaevolve::ckpt
