#ifndef ALPHAEVOLVE_CORE_KERNEL_TABLE_H_
#define ALPHAEVOLVE_CORE_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>

namespace alphaevolve::core {

/// Everything a micro-op kernel needs to address one task's state: base
/// pointers into the executor's task-major arrays plus per-task strides (in
/// doubles). Built per segment execution — `scratch` is the executor's n×n
/// temporary, reused task by task, and the history fields advance every
/// date (they are only read by kTsRank, whose programs record the ring).
struct MicroCtx {
  double* scalars = nullptr;
  double* vectors = nullptr;
  double* matrices = nullptr;
  const double* history = nullptr;
  double* scratch = nullptr;
  size_t scalar_stride = 0;  ///< num_scalars
  size_t vec_stride = 0;     ///< num_vectors * n
  size_t mat_stride = 0;     ///< num_matrices * n * n
  size_t hist_stride = 0;    ///< hist_cap * num_scalars
  int num_scalars = 0;
  int hist_cap = 0;
  int hist_size = 0;
  int hist_head = 0;
  int n = 0;
  uint64_t run_seed = 0;
  /// Tape extraction (the kGet*Tape kernels): per-task pointers to the
  /// task's day-0 feature row in the shared, date-major PanelStorage (n
  /// contiguous floats, in the dataset view's row order), the floats
  /// between one day and the next (storage rows × n), and the first date of
  /// the current input window —
  /// m0[f][j] == feature_rows[task][(date0 + j) * day_stride + f].
  const float* const* feature_rows = nullptr;
  size_t day_stride = 0;
  int date0 = 0;
};

struct MicroOp;

/// A micro-op kernel executes its op for every task in [t0, t1) — one
/// indirect call per (op, block), no per-task dispatch of any kind.
using MicroKernelFn = void (*)(const MicroCtx&, const MicroOp&, int t0,
                               int t1);

/// One lowered element-wise instruction. Operand slots are pre-resolved to
/// element offsets within a task's region of the owning array (which array
/// each slot indexes is baked into the kernel: e.g. v_scale reads `in1`
/// from the vector array and `in2` from the scalar array, exactly like its
/// reference-executor case). Immediates are copied and indices pre-clamped
/// (extraction `% n`, ts-rank window), so the kernels branch only on data.
/// `draw_id` is stamped serially before each execution of the enclosing
/// segment (random ops only), keeping the (seed, draw id, task, element)
/// CounterRng key independent of how the segment walks its tasks.
struct MicroOp {
  MicroKernelFn fn = nullptr;
  int32_t out = 0;
  int32_t in1 = 0;
  int32_t in2 = 0;
  int32_t idx0 = 0;
  int32_t idx1 = 0;
  double imm0 = 0.0;
  double imm1 = 0.0;
  uint64_t draw_id = 0;
};

/// One slot per micro-op kernel the lowerer can select (core/fused.cc maps
/// Op → MicroKernelId once, at compile time). Every kernel variant fills
/// every slot, so a compiled program can be pointed at any variant's table.
enum class MicroKernelId : int32_t {
  // -- scalar ---------------------------------------------------------------
  kSConst = 0,
  kSAdd, kSSub, kSMul, kSDiv, kSMin, kSMax,
  kSAbs, kSRecip, kSSin, kSCos, kSTan,
  kSArcSin, kSArcCos, kSArcTan, kSExp, kSLog, kSStep,
  // -- vector ---------------------------------------------------------------
  kVConst, kVScale, kVBroadcast,
  kVRecip, kVAbs, kVStep,
  kVAdd, kVSub, kVMul, kVDiv, kVMin, kVMax,
  kVDot, kVOuter, kVNorm, kVMean, kVStd,
  kVUniform, kVGaussian,
  // -- matrix ---------------------------------------------------------------
  kMConst, kMScale,
  kMRecip, kMAbs, kMStep,
  kMAdd, kMSub, kMMul, kMDiv, kMMin, kMMax,
  kMMatMulDirect, kMMatMulScratch,
  kMMatVecDirect, kMMatVecScratch,
  kMTransposeDirect, kMTransposeScratch,
  kMNorm, kMMean, kMStd,
  kMNormAxisCol, kMNormAxisRow,
  kMMeanAxisCol, kMMeanAxisRow,
  kMBroadcastRows, kMBroadcastCols,
  kMUniform, kMGaussian,
  // -- extraction / time series --------------------------------------------
  kGetScalar, kGetRow, kGetColumn,
  kGetScalarTape, kGetRowTape, kGetColumnTape,
  kTsRank,
  kNumMicroKernels,  // sentinel
};

inline constexpr int kNumMicroKernels =
    static_cast<int>(MicroKernelId::kNumMicroKernels);

/// The per-ISA kernel variants this build knows about. A variant is
/// compiled in whenever the target arch matches and the compiler accepts
/// its per-file arch flags (see CMakeLists and core/dispatch.h) —
/// `GetKernelTable` returns nullptr for the rest. Executors use the widest
/// one the CPU supports.
enum class KernelVariant : int32_t {
  kScalar = 0,  ///< portable reference build, always compiled
  kAvx2,        ///< x86-64, -mavx2
  kAvx512,      ///< x86-64, -mavx512{f,dq,bw,vl}
  kNeon,        ///< aarch64 (NEON is architecturally mandatory there)
  kNumKernelVariants,  // sentinel
};

inline constexpr int kNumKernelVariants =
    static_cast<int>(KernelVariant::kNumKernelVariants);

/// One ISA variant's complete kernel set. All variants are compiled from
/// the same source (core/kernels_impl.inc) under different per-file arch
/// flags, and every kernel vectorizes only across independent output
/// elements while preserving each element's accumulation order — so every
/// table produces bit-identical results; only throughput differs. The
/// fused-parity fuzz suite enforces that claim against the test-only
/// reference executor (tests/reference_executor.h).
struct KernelTable {
  KernelVariant variant = KernelVariant::kScalar;
  const char* name = "scalar";

  /// Fused micro-op kernels, indexed by MicroKernelId.
  MicroKernelFn micro[kNumMicroKernels] = {};

  /// Dense double kernels (the contracts of the reference copies in
  /// tests/reference_executor.h).
  void (*matmul)(const double* a, const double* b, double* out, int n) =
      nullptr;
  void (*matvec)(const double* a, const double* x, double* out, int n) =
      nullptr;
  void (*transpose)(const double* a, double* out, int n) = nullptr;

  /// Fused RefreshInputs fill: widen the n float feature columns of one
  /// task's window (column j, the n features of one day, at
  /// `col0 + j * day_stride`) into the row-major n×n input matrix
  /// `out[f * n + j]`. Pure convert/copy — bitwise exact by construction.
  /// Only the input-matrix path calls it: when no predict or update
  /// instruction names m0 as a matrix operand, the extraction ops lower to
  /// the kGet*Tape kernels, which widen just the floats they read straight
  /// from the tape, and m0 is never filled (see Executor).
  void (*fill_input)(const float* col0, size_t day_stride, int n,
                     double* out) = nullptr;

  /// Float kernels for the nn baselines (row-major rows×cols weight `w`).
  /// Same accumulation contracts as src/nn/tensor.h: matvec keeps each row
  /// dot sequential; mattvec and addouter are per-element independent.
  void (*nn_matvec)(const float* w, int rows, int cols, const float* x,
                    float* out, bool accumulate) = nullptr;
  void (*nn_mattvec)(const float* w, int rows, int cols, const float* x,
                     float* out, bool accumulate) = nullptr;
  void (*nn_addouter)(float* g, int rows, int cols, const float* a,
                      const float* b) = nullptr;
};

/// Per-variant table accessors, defined by the variant translation units
/// (core/kernels_<variant>.cc). Only reference these through
/// core/dispatch.h — a disabled variant's accessor does not exist and the
/// dispatch layer guards every call site with AE_HAVE_KERNELS_* macros.
namespace kernels_scalar { const KernelTable& Table(); }
namespace kernels_avx2 { const KernelTable& Table(); }
namespace kernels_avx512 { const KernelTable& Table(); }
namespace kernels_neon { const KernelTable& Table(); }

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_KERNEL_TABLE_H_
