// AVX2 kernel variant. Compiled with per-file `-mavx2 -ffp-contract=off`
// (see CMakeLists: ae_kernel_variant); when the compiler cannot build the
// variant the AE_HAVE_KERNELS_AVX2 definition is absent and this TU
// compiles empty, so the recursive source glob can always include it.
#if defined(AE_HAVE_KERNELS_AVX2) && defined(__AVX2__)
#define AE_KERNEL_NS kernels_avx2
#define AE_KERNEL_NAME "avx2"
#define AE_KERNEL_ENUM KernelVariant::kAvx2
#include "core/kernels_impl.inc"
#endif
