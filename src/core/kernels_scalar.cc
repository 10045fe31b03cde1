// Scalar reference kernel variant: baseline target flags (whatever the
// toolchain defaults to for this build), always compiled. Every other
// variant must match this one bit-for-bit — it is the anchor the
// fused-parity fuzz suite compares against.
#define AE_KERNEL_NS kernels_scalar
#define AE_KERNEL_NAME "scalar"
#define AE_KERNEL_ENUM KernelVariant::kScalar
#include "core/kernels_impl.inc"
