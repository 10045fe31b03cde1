// Functional fingerprints (Evaluator::ProbeFingerprint), the keys of a
// search's fitness memo. The memo itself is checked entry for entry against
// the reference search's (ExpectSameCache) in the driver parity suites.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/generators.h"
#include "test_util.h"

namespace alphaevolve::core {
namespace {

TEST(ProbeFingerprintTest, DeterministicAndBehaviourSensitive) {
  const auto ds = testutil::MakeDataset(8, 90);
  Evaluator evaluator(ds, EvaluatorConfig{});
  const AlphaProgram expert = MakeExpertAlpha(ds.window());

  const uint64_t a = evaluator.ProbeFingerprint(expert, 1);
  const uint64_t b = evaluator.ProbeFingerprint(expert, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);

  // A behaviour-identical program with extra dead code probes equal.
  AlphaProgram padded = expert;
  Instruction dead;
  dead.op = Op::kScalarAdd;
  dead.out = 9;
  dead.in1 = 3;
  dead.in2 = 4;
  padded.predict.insert(padded.predict.begin() + 2, dead);
  EXPECT_EQ(evaluator.ProbeFingerprint(padded, 1), a);

  // A behaviour-changing edit probes different.
  AlphaProgram changed = expert;
  changed.predict.back().op = Op::kScalarMul;  // s1 = s5 * s9, not /
  EXPECT_NE(evaluator.ProbeFingerprint(changed, 1), a);

  // An invalid (divergent) program maps to the shared zero bucket.
  AlphaProgram divergent = MakeNoOpAlpha();
  Instruction zero;
  zero.op = Op::kScalarConst;
  zero.out = 2;
  zero.imm0 = 0.0;
  Instruction recip;
  recip.op = Op::kScalarReciprocal;
  recip.out = kPredictionScalar;
  recip.in1 = 2;
  divergent.predict = {zero, recip};
  EXPECT_EQ(evaluator.ProbeFingerprint(divergent, 1), 0u);
}

Instruction I(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}

TEST(ProbeFingerprintTest, InterleavedWithEvaluateMatchesFreshEvaluators) {
  // Probe and full evaluation share one executor. Every Run resets the seed,
  // draw counter, task state and ts_rank ring, so interleaving the two on one
  // evaluator gives what fresh evaluators give, bit for bit, for programs
  // that draw random numbers and read the ts_rank history.
  const auto ds = testutil::MakeDataset(8, 90);
  const int w = ds.window();

  AlphaProgram noisy_rank;  // random setup and update, predict ts_rank
  Instruction gauss = I(Op::kVectorGaussian, 2);
  gauss.imm0 = 0.0;
  gauss.imm1 = 1.0;
  noisy_rank.setup.push_back(gauss);
  Instruction close = I(Op::kGetScalar, 3);
  close.idx0 = market::kClose;
  close.idx1 = static_cast<uint8_t>(w - 1);
  noisy_rank.predict.push_back(close);
  Instruction ts = I(Op::kTsRank, 4, 3);
  ts.idx0 = 9;
  noisy_rank.predict.push_back(ts);
  noisy_rank.predict.push_back(I(Op::kVectorMean, 5, 2));
  noisy_rank.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  Instruction uniform = I(Op::kVectorUniform, 2);
  uniform.imm0 = -0.1;
  uniform.imm1 = 0.1;
  noisy_rank.update.push_back(uniform);

  AlphaProgram label_rank;  // update ts_rank feeds the next prediction
  Instruction ma5 = I(Op::kGetScalar, 3);
  ma5.idx0 = market::kMa5;
  ma5.idx1 = static_cast<uint8_t>(w - 2);
  label_rank.predict.push_back(ma5);
  label_rank.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 3));
  Instruction ts_label = I(Op::kTsRank, 5, kLabelScalar);
  ts_label.idx0 = 16;
  label_rank.update.push_back(ts_label);

  const AlphaProgram expert = MakeExpertAlpha(w);
  const std::vector<const AlphaProgram*> programs = {
      &noisy_rank, &label_rank, &expert, &noisy_rank, &label_rank};

  Evaluator shared(ds, EvaluatorConfig{});
  for (size_t i = 0; i < programs.size(); ++i) {
    SCOPED_TRACE(i);
    const AlphaProgram& program = *programs[i];
    const uint64_t seed = 11 + i % 2;
    uint64_t probe = 0;
    AlphaMetrics metrics;
    if (i % 2 == 0) {
      probe = shared.ProbeFingerprint(program, seed);
      metrics = shared.Evaluate(program, seed);
    } else {
      metrics = shared.Evaluate(program, seed);
      probe = shared.ProbeFingerprint(program, seed);
    }

    Evaluator fresh_probe(ds, EvaluatorConfig{});
    EXPECT_EQ(probe, fresh_probe.ProbeFingerprint(program, seed));
    Evaluator fresh_eval(ds, EvaluatorConfig{});
    const AlphaMetrics expected = fresh_eval.Evaluate(program, seed);
    ASSERT_TRUE(expected.valid);
    testutil::ExpectSameMetrics(metrics, expected);
  }
}

}  // namespace
}  // namespace alphaevolve::core
