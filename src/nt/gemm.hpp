#pragma once
// SGEMM kernel layer for the neural-network library. One entry point
// (`sgemm`, a strided-batched C (+)= op(A)·op(B) with a fused bias
// epilogue) backs Conv2d, Linear and their backward passes; two
// implementations sit behind it:
//
//  * kBlocked — cache-blocked, panel-packed kernels with a fixed
//    MR x NR register micro-tile, parallelized over row-block tasks on
//    util::ThreadPool::shared(). The block schedule depends only on
//    the problem shape, never on the thread count, and every C element
//    has exactly one writer, so results are bit-identical at any
//    parallelism level (enforced by tests/test_gemm.cpp).
//  * kNaive — the reference loops the layers historically ran
//    (dot-product order for A·Bᵀ, saxpy order for the backward
//    variants). Selected with RLMUL_GEMM=naive; the tests use it as
//    the oracle the blocked kernels are checked against.
//
// The two modes legitimately differ in float rounding (blocked
// accumulation reorders sums), so checkpoint replays are bit-exact
// only within a fixed mode — see docs/architecture.md.

#include <cstddef>
#include <cstdint>

namespace rlmul::nt {

enum class GemmMode { kBlocked, kNaive };

/// Active implementation. Initialized from the RLMUL_GEMM environment
/// variable ("naive" or "0" selects the reference loops; anything
/// else, or unset, the blocked kernels).
GemmMode gemm_mode();
void set_gemm_mode(GemmMode mode);

/// Caps the number of concurrent tasks the blocked path fans out
/// (0 = derive from util::ThreadPool::shared(); 1 = run inline).
/// Results are independent of this setting by construction.
int gemm_max_threads();
void set_gemm_max_threads(int n);

enum class BiasKind {
  kNone,    ///< initialize C to zero (when not accumulating)
  kPerRow,  ///< C[i,:] starts from bias[i]  (conv: one bias per out channel)
  kPerCol,  ///< C[:,j] starts from bias[j]  (linear: one bias per out feature)
};

/// Strided-batched SGEMM. For each item g in [0, batch):
///
///   C_g = (accumulate ? C_g : bias) + op(A_g) · op(B_g)
///
/// where op(A) is the logical [m x k] operand (stored [k x m] with
/// leading dimension `lda` when `trans_a`), op(B) is [k x n] (stored
/// [n x k] with `ldb` when `trans_b`), and X_g = X + g * stride_X.
/// A zero stride shares the operand across the batch; `stride_c == 0`
/// with `batch > 1` additionally means the per-item products are
/// *summed* into one C (in batch order — the reduction is sequential
/// per row block, keeping results thread-count independent).
/// `bias` must be null iff `bias_kind == kNone`, and bias requires
/// `accumulate == false`. trans_a && trans_b is unsupported (no caller
/// needs it).
void sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
           int lda, std::ptrdiff_t stride_a, const float* b, int ldb,
           std::ptrdiff_t stride_b, float* c, int ldc, std::ptrdiff_t stride_c,
           int batch, bool accumulate, const float* bias, BiasKind bias_kind);

}  // namespace rlmul::nt
