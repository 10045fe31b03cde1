#include "core/generators.h"

#include "market/features.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

Instruction Make(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}

Instruction MakeConst(int out, double value) {
  Instruction ins;
  ins.op = Op::kScalarConst;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = value;
  return ins;
}

Instruction MakeGetScalar(int out, int feature, int day) {
  Instruction ins;
  ins.op = Op::kGetScalar;
  ins.out = static_cast<uint8_t>(out);
  ins.idx0 = static_cast<uint8_t>(feature);
  ins.idx1 = static_cast<uint8_t>(day);
  return ins;
}

Instruction MakeGetColumn(int out, int day) {
  Instruction ins;
  ins.op = Op::kGetColumn;
  ins.out = static_cast<uint8_t>(out);
  ins.idx0 = static_cast<uint8_t>(day);
  return ins;
}

Instruction MakeRandomInit(Op op, int out, double mean, double stddev) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = mean;
  ins.imm1 = stddev;
  return ins;
}

}  // namespace

const char* InitKindName(InitKind kind) {
  switch (kind) {
    case InitKind::kExpert:
      return "D";
    case InitKind::kNoOp:
      return "NOOP";
    case InitKind::kRandom:
      return "R";
    case InitKind::kNeuralNet:
      return "NN";
  }
  AE_CHECK(false);
  return "";
}

AlphaProgram MakeNoOpAlpha() {
  AlphaProgram prog;
  prog.setup.push_back(Make(Op::kNoOp, 0));
  prog.predict.push_back(Make(Op::kNoOp, 0));
  prog.update.push_back(Make(Op::kNoOp, 0));
  return prog;
}

AlphaProgram MakeExpertAlpha(int input_dim) {
  AE_CHECK(input_dim == market::kNumFeatures);
  const int last_day = input_dim - 1;
  AlphaProgram prog;
  prog.setup.push_back(MakeConst(2, 0.001));  // s2: epsilon
  prog.predict.push_back(MakeGetScalar(3, market::kClose, last_day));
  prog.predict.push_back(MakeGetScalar(4, market::kOpen, last_day));
  prog.predict.push_back(Make(Op::kScalarSub, 5, 4, 3));  // s5 = open - close
  prog.predict.push_back(MakeGetScalar(6, market::kHigh, last_day));
  prog.predict.push_back(MakeGetScalar(7, market::kLow, last_day));
  prog.predict.push_back(Make(Op::kScalarSub, 8, 6, 7));  // s8 = high - low
  prog.predict.push_back(Make(Op::kScalarAdd, 9, 8, 2));  // s9 = s8 + eps
  prog.predict.push_back(
      Make(Op::kScalarDiv, kPredictionScalar, 5, 9));     // s1 = s5 / s9
  prog.update.push_back(Make(Op::kNoOp, 0));
  return prog;
}

AlphaProgram MakeNeuralNetAlpha(int input_dim) {
  AE_CHECK(input_dim >= 2);
  const int last_day = input_dim - 1;
  // Brace lists, not push_back: GCC 12's -Wstringop-overflow misreads the
  // push_back reallocations here as an overflow.
  AlphaProgram prog;
  // Setup: m1 = W1, v1 = w2, s2 = learning rate.
  prog.setup = {MakeRandomInit(Op::kMatrixGaussian, 1, 0.0, 0.1),
                MakeRandomInit(Op::kVectorGaussian, 1, 0.0, 0.1),
                MakeConst(2, 0.01)};
  // Predict: v0 = x (today's features), v2 = W1·x, v3 = relu mask,
  // v4 = relu(v2), s1 = w2·v4.
  prog.predict = {MakeGetColumn(0, last_day),
                  Make(Op::kMatrixVectorProduct, 2, 1, 0),
                  Make(Op::kVectorHeaviside, 3, 2),
                  Make(Op::kVectorMul, 4, 2, 3),
                  Make(Op::kVectorDot, kPredictionScalar, 1, 4)};
  // Update: s3 = y - s1, s4 = lr*err, w2 += s4*v4,
  // backprop: v6 = s4*w2, v7 = v6 ⊙ mask, W1 += v7 ⊗ x.
  prog.update = {Make(Op::kScalarSub, 3, kLabelScalar, kPredictionScalar),
                 Make(Op::kScalarMul, 4, 3, 2),
                 Make(Op::kVectorScale, 5, 4, 4),   // v5 = s4 * v4
                 Make(Op::kVectorAdd, 1, 1, 5),     // w2 update
                 Make(Op::kVectorScale, 6, 1, 4),   // v6 = s4 * w2
                 Make(Op::kVectorMul, 7, 6, 3),     // ⊙ relu mask
                 Make(Op::kVectorOuter, 2, 7, 0),   // m2 = v7 ⊗ x
                 Make(Op::kMatrixAdd, 1, 1, 2)};    // W1 update
  return prog;
}

AlphaProgram MakeRandomAlpha(const Mutator& mutator, Rng& rng) {
  return mutator.RandomProgram(rng);
}

AlphaProgram MakeInitialAlpha(InitKind kind, const Mutator& mutator,
                              Rng& rng) {
  switch (kind) {
    case InitKind::kExpert:
      return MakeExpertAlpha(mutator.config().input_dim);
    case InitKind::kNoOp:
      return MakeNoOpAlpha();
    case InitKind::kRandom:
      return MakeRandomAlpha(mutator, rng);
    case InitKind::kNeuralNet:
      return MakeNeuralNetAlpha(mutator.config().input_dim);
  }
  AE_CHECK(false);
  return MakeNoOpAlpha();
}

}  // namespace alphaevolve::core
