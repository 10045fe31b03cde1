#include "core/program.h"

#include <sstream>

#include "market/features.h"
#include "util/check.h"

namespace alphaevolve::core {

int ProgramLimits::NumAddresses(OperandType type) const {
  switch (type) {
    case OperandType::kScalar:
      return num_scalars;
    case OperandType::kVector:
      return num_vectors;
    case OperandType::kMatrix:
      return num_matrices;
    case OperandType::kNone:
      return 0;
  }
  return 0;
}

std::string ValidateInstruction(const Instruction& ins,
                                const ProgramLimits& limits) {
  const OpInfo& info = GetOpInfo(ins.op);
  auto check_addr = [&](OperandType type, int addr) {
    return type == OperandType::kNone || addr < limits.NumAddresses(type);
  };
  if (!check_addr(info.out, ins.out) || !check_addr(info.in1, ins.in1) ||
      !check_addr(info.in2, ins.in2)) {
    return "operand address out of range in '" + ins.ToString() + "'";
  }
  constexpr int n = market::kNumFeatures;
  bool imm_ok = true;
  switch (info.imm) {
    case ImmKind::kIndex2:
      imm_ok = ins.idx0 < n && ins.idx1 < n;
      break;
    case ImmKind::kIndex:
      imm_ok = ins.idx0 < n;
      break;
    case ImmKind::kAxis:
    case ImmKind::kGroup:
      imm_ok = ins.idx0 <= 1;
      break;
    case ImmKind::kWindow:
      imm_ok = ins.idx0 >= 2 && ins.idx0 <= n;
      break;
    case ImmKind::kNone:
    case ImmKind::kConst:
    case ImmKind::kConst2:
      break;
  }
  if (!imm_ok) {
    return std::string("immediate out of range for ") + info.name + " (idx0 " +
           std::to_string(ins.idx0) + ", idx1 " + std::to_string(ins.idx1) +
           ")";
  }
  return "";
}

const std::vector<Instruction>& AlphaProgram::component(ComponentId c) const {
  switch (c) {
    case ComponentId::kSetup:
      return setup;
    case ComponentId::kPredict:
      return predict;
    case ComponentId::kUpdate:
      return update;
  }
  AE_CHECK(false);
  return setup;  // unreachable
}

std::vector<Instruction>& AlphaProgram::mutable_component(ComponentId c) {
  switch (c) {
    case ComponentId::kSetup:
      return setup;
    case ComponentId::kPredict:
      return predict;
    case ComponentId::kUpdate:
      return update;
  }
  AE_CHECK(false);
  return setup;  // unreachable
}

std::string AlphaProgram::Validate(const ProgramLimits& limits,
                                   bool allow_relation_ops) const {
  std::ostringstream err;
  for (int ci = 0; ci < kNumComponents; ++ci) {
    const auto c = static_cast<ComponentId>(ci);
    const auto& instrs = component(c);
    const int n = static_cast<int>(instrs.size());
    if (n < limits.min_instructions[ci] || n > limits.max_instructions[ci]) {
      err << ComponentName(c) << " has " << n << " instructions, outside ["
          << limits.min_instructions[ci] << ", " << limits.max_instructions[ci]
          << "]";
      return err.str();
    }
    for (const Instruction& ins : instrs) {
      if (!OpAllowedIn(ins.op, c, allow_relation_ops)) {
        err << GetOpInfo(ins.op).name << " not allowed in "
            << ComponentName(c);
        return err.str();
      }
      const std::string bad = ValidateInstruction(ins, limits);
      if (!bad.empty()) return bad;
    }
  }
  return "";
}

std::string AlphaProgram::ToString() const {
  std::ostringstream os;
  static const char* kHeaders[kNumComponents] = {
      "def Setup():", "def Predict():", "def Update():"};
  for (int ci = 0; ci < kNumComponents; ++ci) {
    os << kHeaders[ci] << "\n";
    for (const Instruction& ins :
         component(static_cast<ComponentId>(ci))) {
      os << "  " << ins.ToString() << "\n";
    }
  }
  return os.str();
}

AlphaProgram AlphaProgram::FromString(const std::string& text) {
  AlphaProgram prog;
  std::istringstream is(text);
  std::string line;
  std::vector<Instruction>* current = nullptr;
  while (std::getline(is, line)) {
    // Trim.
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(b, e - b + 1);
    if (body == "def Setup():") {
      current = &prog.setup;
    } else if (body == "def Predict():") {
      current = &prog.predict;
    } else if (body == "def Update():") {
      current = &prog.update;
    } else {
      AE_CHECK_MSG(current != nullptr, "instruction before header: " << body);
      current->push_back(Instruction::FromString(body));
    }
  }
  return prog;
}

}  // namespace alphaevolve::core
