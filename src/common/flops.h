#pragma once

// FLOP accounting.
//
// The paper (Sec. 6) determines performance by canonical FLOP counts of the
// dominant kernels: Eq. 7 for the GPP diagonal kernel
// (alpha * N_Sigma * N_b * N_G^2 * N_E) and Eq. 8 for the off-diagonal
// ZGEMM recast (2 N_b N_E * 8 (N_Sigma N_G^2 + N_G N_Sigma^2)). xgw carries
// both an *estimated* count (those closed forms) and a *measured* count
// (kernels attribute their FLOPs to obs spans as they execute — see
// obs/span.h), so Table 3's Est./Meas. accuracy comparison can be
// reproduced directly.

#include "common/types.h"

namespace xgw {

/// Canonical FLOP-count estimates from the paper.
namespace flop_model {

/// Eq. 7: FLOP count of the GPP diagonal kernel. `alpha` is the
/// architecture- and compiler-dependent prefactor (83.50 on Frontier,
/// 94.27 on Aurora per the paper; xgw calibrates its own for the CPU
/// implementation in bench_table3_flops).
inline double gpp_diag(double alpha, idx n_sigma, idx n_b, idx n_g, idx n_e) {
  return alpha * static_cast<double>(n_sigma) * static_cast<double>(n_b) *
         static_cast<double>(n_g) * static_cast<double>(n_g) *
         static_cast<double>(n_e);
}

/// Eq. 8: ZGEMM-only FLOP count of the GPP off-diagonal kernel:
/// 2 N_b N_E ZGEMMs of shapes (N_Sigma x N_G x N_G) and
/// (N_Sigma x N_G x N_Sigma), 8 FLOPs per complex multiply-add.
inline double gpp_offdiag_zgemm(idx n_sigma, idx n_b, idx n_g, idx n_e) {
  const double s = static_cast<double>(n_sigma);
  const double g = static_cast<double>(n_g);
  return 2.0 * static_cast<double>(n_b) * static_cast<double>(n_e) *
         (8.0 * (s * g * g + g * s * s));
}

/// Standard complex GEMM count: C (m x n) += A (m x k) B (k x n).
inline double zgemm(idx m, idx n, idx k) {
  return 8.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Hermitian rank-k update count: C (n x n) += A^H (n x k) B (k x n) with
/// only the n*(n+1)/2 upper-triangle entries computed — the FLOP halving
/// the CHI-Freq chi(omega) += M^H diag(Delta) M update exploits.
inline double zherk(idx n, idx k) {
  return 4.0 * static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}

/// Complex GEMV count: y (m) += A (m x k) x (k).
inline double zgemv(idx m, idx k) {
  return 8.0 * static_cast<double>(m) * static_cast<double>(k);
}

}  // namespace flop_model

}  // namespace xgw
