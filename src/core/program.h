#ifndef ALPHAEVOLVE_CORE_PROGRAM_H_
#define ALPHAEVOLVE_CORE_PROGRAM_H_

#include <string>
#include <vector>

#include "core/instruction.h"
#include "core/opcode.h"

namespace alphaevolve::core {

/// Search-space bounds (paper §5.2): per-component instruction counts and
/// the number of addressable scalar/vector/matrix operands.
struct ProgramLimits {
  int min_instructions[kNumComponents] = {1, 1, 1};
  int max_instructions[kNumComponents] = {21, 21, 45};
  int num_scalars = 10;
  int num_vectors = 16;
  int num_matrices = 4;

  /// Number of addresses for the given operand type.
  int NumAddresses(OperandType type) const;
};

/// Empty if `ins` addresses only registers that `limits` provides and its
/// immediates lie in their ImmKind's range: extraction indexes below
/// market::kNumFeatures, axis and group in {0, 1}, a ts_rank window in
/// [2, market::kNumFeatures]. Else a description of the violation. The
/// checkpoint decoders run it on every instruction they read; op legality
/// per component and instruction counts are AlphaProgram::Validate's.
std::string ValidateInstruction(const Instruction& ins,
                                const ProgramLimits& limits);

/// An alpha: three instruction lists (paper §2).
///  - Setup: runs once per task before any date.
///  - Predict: runs every date; its final write to s1 is the prediction.
///  - Update: runs after Predict on training dates only, with the label in
///    s0. Operands it writes that survive into inference are the alpha's
///    *parameters*.
struct AlphaProgram {
  std::vector<Instruction> setup;
  std::vector<Instruction> predict;
  std::vector<Instruction> update;

  const std::vector<Instruction>& component(ComponentId c) const;
  std::vector<Instruction>& mutable_component(ComponentId c);

  int TotalInstructions() const {
    return static_cast<int>(setup.size() + predict.size() + update.size());
  }

  bool operator==(const AlphaProgram&) const = default;

  /// Validates instruction counts, per-component op legality and every
  /// instruction's operands and immediates (ValidateInstruction) against
  /// `limits`. Returns an empty string if OK, else a description of the
  /// violation.
  std::string Validate(const ProgramLimits& limits,
                       bool allow_relation_ops = true) const;

  /// Multi-line listing in the paper's Figure-2 style:
  ///   def Setup():
  ///     s2 = s_const(0.001)
  ///   ...
  std::string ToString() const;

  /// Parses the `ToString` format (round-trips exactly).
  static AlphaProgram FromString(const std::string& text);
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_PROGRAM_H_
