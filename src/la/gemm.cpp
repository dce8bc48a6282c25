#include "la/gemm.h"

#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/concurrency.h"
#include "common/flops.h"
#include "la/autotune.h"
#include "la/microkernel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace xgw {

namespace {

const char* variant_name(GemmVariant v) {
  switch (v) {
    case GemmVariant::kReference: return "reference";
    case GemmVariant::kSimd: return "simd";
    case GemmVariant::kParallel: return "parallel";
    case GemmVariant::kAuto: return "auto";
  }
  return "?";
}

// Engine configuration args of a GEMM dispatch span: the micro-kernel and
// cache tiles that actually ran.
void engine_args(obs::Span& span, const GemmV3Config& cfg) {
  span.arg("isa", la::simd_isa_name(cfg.isa));
  span.arg("mr", static_cast<long long>(cfg.mr));
  span.arg("nr", static_cast<long long>(cfg.nr));
  span.arg("kc", static_cast<long long>(cfg.kc));
  span.arg("nc", static_cast<long long>(cfg.nc));
}

}  // namespace

std::pair<idx, idx> op_shape(Op op, const ZMatrix& a) {
  if (op == Op::kNone) return {a.rows(), a.cols()};
  return {a.cols(), a.rows()};
}

bool in_parallel_region() {
  if (in_worker_team()) return true;
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

int xgw_num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

namespace {

// Element of op(A) at logical position (i, j).
inline cplx op_elem(Op op, const ZMatrix& a, idx i, idx j) {
  switch (op) {
    case Op::kNone: return a(i, j);
    case Op::kTrans: return a(j, i);
    default: return std::conj(a(j, i));
  }
}

void gemm_reference(Op opa, Op opb, cplx alpha, const ZMatrix& a,
                    const ZMatrix& b, cplx beta, ZMatrix& c) {
  const auto [m, k] = op_shape(opa, a);
  const idx n = op_shape(opb, b).second;
  for (idx i = 0; i < m; ++i) {
    for (idx j = 0; j < n; ++j) {
      cplx acc{};
      for (idx l = 0; l < k; ++l)
        acc += op_elem(opa, a, i, l) * op_elem(opb, b, l, j);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

// kAuto cutoffs, in m*n*k complex multiply-adds: below kAutoTiny the
// packing overhead dominates and the reference loop wins; above
// kAutoParallel the problem amortizes spawning an OpenMP team.
constexpr double kAutoTiny = 4096.0;        // 16^3
constexpr double kAutoParallel = 262144.0;  // 64^3

/// Whether a kernel asked to parallelize should actually spawn a team:
/// never without a real OpenMP runtime (xgw_num_threads() == 1), never from
/// inside an active parallel region (nested-call safety: the caller already
/// owns the cores), and never when there are too few panels to share.
bool should_parallelize(bool requested, idx n_panels) {
  if (!requested || n_panels <= 1) return false;
  if (in_parallel_region()) return false;
  return xgw_num_threads() > 1;
}

/// beta-scale C up front so tiles can pure-accumulate.
void scale_c(cplx beta, ZMatrix& c) {
  if (beta == cplx{0.0, 0.0}) {
    c.fill(cplx{});
  } else if (beta != cplx{1.0, 0.0}) {
    cplx* p = c.data();
    for (idx i = 0; i < c.size(); ++i) p[i] *= beta;
  }
}

// ---------------------------------------------------------------------------
// Gen-3 engine (kSimd / kParallel / zgemm_batch): operands are packed into
// split-complex (planar re/im) zero-padded MR/NR strips and each C tile is
// computed by an explicit register-blocked micro-kernel
// (la/microkernel.*) that keeps the tile FMA-resident across the whole KC
// block instead of streaming the accumulator through memory. Kernel + tile
// sizes come from the GemmV3Config (cpuid dispatch + disk-cached autotune).

/// Per-thread strip-packed workspace of the gen-3 engine. Capacities are
/// CLAMPED to the actual problem dimensions: a block never exceeds
/// min(tile, dim), so small products (the GWPT/GPP perturbed chains, tiny
/// batch members) allocate and zero only what one block can touch instead
/// of the full autotuned-tile footprint. Clamping changes capacity only —
/// block boundaries, loop order, and therefore results are untouched.
struct V3Buffers {
  std::vector<double> are, aim, cre, cim;
  V3Buffers(const GemmV3Config& cfg, idx m, idx n, idx k)
      : are(padded_a(cfg, m, k)),
        aim(padded_a(cfg, m, k)),
        cre(static_cast<std::size_t>(std::min(cfg.mc, m) *
                                     std::min(cfg.nc, n))),
        cim(static_cast<std::size_t>(std::min(cfg.mc, m) *
                                     std::min(cfg.nc, n))) {}
  static std::size_t padded_a(const GemmV3Config& cfg, idx m, idx k) {
    const idx strips = (std::min(cfg.mc, m) + cfg.mr - 1) / cfg.mr;
    return static_cast<std::size_t>(strips * cfg.mr * std::min(cfg.kc, k));
  }
  static std::size_t padded_b(const GemmV3Config& cfg, idx n, idx k) {
    const idx strips = (std::min(cfg.nc, n) + cfg.nr - 1) / cfg.nr;
    return static_cast<std::size_t>(strips * cfg.nr * std::min(cfg.kc, k));
  }
};

// One row panel of one output against the current shared B panel: pack the
// A strips, run the micro-kernel over the tile grid (masked stores handle
// the n edge; zero-padded strips handle the m/k edges), convert-add the
// planar accumulator into interleaved C with alpha.
void v3_panel_work(const GemmV3Config& cfg, la::MicroKernelFn kern, Op opa,
                   const ZMatrix& a, ZMatrix& c, idx crow0, double alr,
                   double ali, idx m, idx panel, idx l0, idx kb, idx j0,
                   idx nb, const double* bre, const double* bim,
                   V3Buffers& w) {
  const idx i0 = panel * cfg.mc;
  const idx mb = std::min(cfg.mc, m - i0);
  la::pack_a_strips(opa, a, i0, mb, l0, kb, cfg.mr, w.are.data(),
                    w.aim.data());
  const idx smb = (mb + cfg.mr - 1) / cfg.mr;
  const idx snb = (nb + cfg.nr - 1) / cfg.nr;
  for (idx t = 0; t < snb; ++t) {
    const int nrem = static_cast<int>(std::min<idx>(cfg.nr, nb - t * cfg.nr));
    const double* btr = bre + t * kb * cfg.nr;
    const double* bti = bim + t * kb * cfg.nr;
    for (idx s = 0; s < smb; ++s) {
      const int mrem =
          static_cast<int>(std::min<idx>(cfg.mr, mb - s * cfg.mr));
      kern(kb, w.are.data() + s * kb * cfg.mr, w.aim.data() + s * kb * cfg.mr,
           btr, bti, w.cre.data() + (s * cfg.mr) * nb + t * cfg.nr,
           w.cim.data() + (s * cfg.mr) * nb + t * cfg.nr, nb, mrem, nrem);
    }
  }
  for (idx i = 0; i < mb; ++i) {
    cplx* crow = c.row(crow0 + i0 + i) + j0;
    const double* rr = w.cre.data() + i * nb;
    const double* ri = w.cim.data() + i * nb;
    for (idx j = 0; j < nb; ++j)
      crow[j] += cplx{alr * rr[j] - ali * ri[j], alr * ri[j] + ali * rr[j]};
  }
}

// Gen-3 blocked engine. Loop order (l0, j0, i0): the packed-B panel for one
// (l0, j0) is built ONCE and shared by every row panel — and, in the
// parallel variant, by the whole OpenMP team. Every C tile receives its
// k-blocks in fixed l0 order regardless of thread count, so serial and
// parallel runs are bitwise identical.
void gemm_v3(const GemmV3Config& cfg, Op opa, Op opb, cplx alpha,
             const ZMatrix& a, const ZMatrix& b, cplx beta, ZMatrix& c,
             bool parallel) {
  la::MicroKernelFn kern = la::select_microkernel(cfg.isa, cfg.mr, cfg.nr);
  XGW_REQUIRE(kern != nullptr,
              "gemm_v3: no compiled micro-kernel for this (isa, mr, nr)");
  const auto [m, k] = op_shape(opa, a);
  const idx n = op_shape(opb, b).second;
  scale_c(beta, c);

  const idx n_row_panels = (m + cfg.mc - 1) / cfg.mc;
  std::vector<double> bre(V3Buffers::padded_b(cfg, n, k));
  std::vector<double> bim(V3Buffers::padded_b(cfg, n, k));
  const double alr = alpha.real(), ali = alpha.imag();

  if (should_parallelize(parallel, n_row_panels)) {
#ifdef _OPENMP
#pragma omp parallel num_threads(xgw_num_threads())
    {
      V3Buffers w(cfg, m, n, k);
      for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
        const idx kb = std::min(cfg.kc, k - l0);
        for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
          const idx nb = std::min(cfg.nc, n - j0);
#pragma omp for schedule(static)
          for (idx l = 0; l < kb; ++l)
            la::pack_b_strips_row(opb, b, l0, l, j0, nb, cfg.nr, kb,
                                  bre.data(), bim.data());
          // implicit barrier: the B panel is complete before any tile reads
          // it, and fully consumed before the next re-pack.
#pragma omp for schedule(dynamic)
          for (idx panel = 0; panel < n_row_panels; ++panel)
            v3_panel_work(cfg, kern, opa, a, c, 0, alr, ali, m, panel, l0,
                          kb, j0, nb, bre.data(), bim.data(), w);
        }
      }
    }
#endif
  } else {
    V3Buffers w(cfg, m, n, k);
    for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
      const idx kb = std::min(cfg.kc, k - l0);
      for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
        const idx nb = std::min(cfg.nc, n - j0);
        for (idx l = 0; l < kb; ++l)
          la::pack_b_strips_row(opb, b, l0, l, j0, nb, cfg.nr, kb, bre.data(),
                                bim.data());
        for (idx panel = 0; panel < n_row_panels; ++panel)
          v3_panel_work(cfg, kern, opa, a, c, 0, alr, ali, m, panel, l0, kb,
                        j0, nb, bre.data(), bim.data(), w);
      }
    }
  }
}

// Gen-3 Hermitian rank-k: C(upper) += A^H B, panels entirely below the
// diagonal skipped, partial tiles masked at write-back (the micro-kernel
// computes the full tile into the planar scratch; only the upper-triangle
// part is added to C).
void herk_v3(const GemmV3Config& cfg, const ZMatrix& a, const ZMatrix& b,
             ZMatrix& c, bool parallel) {
  la::MicroKernelFn kern = la::select_microkernel(cfg.isa, cfg.mr, cfg.nr);
  XGW_REQUIRE(kern != nullptr,
              "herk_v3: no compiled micro-kernel for this (isa, mr, nr)");
  const idx p = a.rows();  // contraction length
  const idx n = a.cols();  // C dimension
  const idx n_row_panels = (n + cfg.mc - 1) / cfg.mc;

  std::vector<double> bre(V3Buffers::padded_b(cfg, n, p));
  std::vector<double> bim(V3Buffers::padded_b(cfg, n, p));

  auto panel_work = [&](idx panel, idx l0, idx kb, idx j0, idx nb,
                        V3Buffers& w) {
    const idx i0 = panel * cfg.mc;
    if (j0 + nb <= i0) return;  // tile entirely below the diagonal
    const idx mb = std::min(cfg.mc, n - i0);
    la::pack_a_strips(Op::kConjTrans, a, i0, mb, l0, kb, cfg.mr,
                      w.are.data(), w.aim.data());
    const idx smb = (mb + cfg.mr - 1) / cfg.mr;
    const idx snb = (nb + cfg.nr - 1) / cfg.nr;
    for (idx t = 0; t < snb; ++t) {
      const int nrem =
          static_cast<int>(std::min<idx>(cfg.nr, nb - t * cfg.nr));
      const double* btr = bre.data() + t * kb * cfg.nr;
      const double* bti = bim.data() + t * kb * cfg.nr;
      for (idx s = 0; s < smb; ++s) {
        const int mrem =
            static_cast<int>(std::min<idx>(cfg.mr, mb - s * cfg.mr));
        kern(kb, w.are.data() + s * kb * cfg.mr,
             w.aim.data() + s * kb * cfg.mr, btr, bti,
             w.cre.data() + (s * cfg.mr) * nb + t * cfg.nr,
             w.cim.data() + (s * cfg.mr) * nb + t * cfg.nr, nb, mrem, nrem);
      }
    }
    for (idx i = 0; i < mb; ++i) {
      // Upper triangle only: global column >= global row.
      const idx jstart = std::max<idx>(0, (i0 + i) - j0);
      cplx* crow = c.row(i0 + i) + j0;
      const double* rr = w.cre.data() + i * nb;
      const double* ri = w.cim.data() + i * nb;
      for (idx j = jstart; j < nb; ++j) crow[j] += cplx{rr[j], ri[j]};
    }
  };

  if (should_parallelize(parallel, n_row_panels)) {
#ifdef _OPENMP
#pragma omp parallel num_threads(xgw_num_threads())
    {
      V3Buffers w(cfg, n, n, p);
      for (idx l0 = 0; l0 < p; l0 += cfg.kc) {
        const idx kb = std::min(cfg.kc, p - l0);
        for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
          const idx nb = std::min(cfg.nc, n - j0);
#pragma omp for schedule(static)
          for (idx l = 0; l < kb; ++l)
            la::pack_b_strips_row(Op::kNone, b, l0, l, j0, nb, cfg.nr, kb,
                                  bre.data(), bim.data());
#pragma omp for schedule(dynamic)
          for (idx panel = 0; panel < n_row_panels; ++panel)
            panel_work(panel, l0, kb, j0, nb, w);
        }
      }
    }
#endif
  } else {
    V3Buffers w(cfg, n, n, p);
    for (idx l0 = 0; l0 < p; l0 += cfg.kc) {
      const idx kb = std::min(cfg.kc, p - l0);
      for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
        const idx nb = std::min(cfg.nc, n - j0);
        for (idx l = 0; l < kb; ++l)
          la::pack_b_strips_row(Op::kNone, b, l0, l, j0, nb, cfg.nr, kb,
                                bre.data(), bim.data());
        for (idx panel = 0; panel < n_row_panels; ++panel)
          panel_work(panel, l0, kb, j0, nb, w);
      }
    }
  }
}

void herk_reference(const ZMatrix& a, const ZMatrix& b, ZMatrix& c) {
  const idx p = a.rows();
  const idx n = a.cols();
  for (idx i = 0; i < n; ++i)
    for (idx j = i; j < n; ++j) {
      cplx acc{};
      for (idx l = 0; l < p; ++l) acc += std::conj(a(l, i)) * b(l, j);
      c(i, j) += acc;
    }
}

}  // namespace

const GemmV3Config& gemm_v3_active_config() {
  static const GemmV3Config cfg = [] {
    const la::AutotuneResult& r = la::autotune_result();
    return GemmV3Config{r.isa, r.mr, r.nr, r.mc, r.kc, r.nc};
  }();
  return cfg;
}

GemmVariant resolved_gemm_variant(GemmVariant requested, idx m, idx n,
                                  idx k) {
  if (requested == GemmVariant::kAuto) {
    const double work = static_cast<double>(m) * static_cast<double>(n) *
                        static_cast<double>(k);
    if (work <= kAutoTiny) return GemmVariant::kReference;
    if (work < kAutoParallel || in_parallel_region() ||
        xgw_num_threads() <= 1)
      return GemmVariant::kSimd;
    return GemmVariant::kParallel;
  }
  // Nested-call guard at the DISPATCH point (not only inside the kernel):
  // an explicit kParallel issued from inside an active parallel region, or
  // without an OpenMP team to spawn, runs (and is trace-attributed as) the
  // serial gen-3 engine — the caller already owns the cores.
  if (requested == GemmVariant::kParallel &&
      (in_parallel_region() || xgw_num_threads() <= 1))
    return GemmVariant::kSimd;
  return requested;
}

void zgemm_v3_explicit(const GemmV3Config& cfg, Op opa, Op opb, cplx alpha,
                       const ZMatrix& a, const ZMatrix& b, cplx beta,
                       ZMatrix& c, bool parallel) {
  const auto [m, ka] = op_shape(opa, a);
  const auto [kb, n] = op_shape(opb, b);
  XGW_REQUIRE(ka == kb,
              "zgemm_v3_explicit: inner dimensions of op(A), op(B) must "
              "match");
  XGW_REQUIRE(c.rows() == m && c.cols() == n,
              "zgemm_v3_explicit: C shape must be op(A).rows x op(B).cols");
  gemm_v3(cfg, opa, opb, alpha, a, b, beta, c, parallel);
}

void zgemm(Op opa, Op opb, cplx alpha, const ZMatrix& a, const ZMatrix& b,
           cplx beta, ZMatrix& c, GemmVariant variant) {
  const auto [m, ka] = op_shape(opa, a);
  const auto [kb, n] = op_shape(opb, b);
  XGW_REQUIRE(ka == kb, "zgemm: inner dimensions of op(A), op(B) must match");
  XGW_REQUIRE(c.rows() == m && c.cols() == n,
              "zgemm: C shape must be op(A).rows x op(B).cols");

  variant = resolved_gemm_variant(variant, m, n, ka);

  obs::Span span("zgemm", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("m", static_cast<long long>(m));
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(ka));
    span.arg("variant", variant_name(variant));
    if (variant != GemmVariant::kReference) {
      const GemmV3Config& cfg = gemm_v3_active_config();
      // Packed-panel reuse: each of the m/MC row panels is repacked once
      // per (KC x NC) B tile it meets, so this is the engine's A-reuse.
      span.arg("row_panels",
               static_cast<long long>((m + cfg.mc - 1) / cfg.mc));
      engine_args(span, cfg);
    }
  }

  if (variant == GemmVariant::kReference) {
    gemm_reference(opa, opb, alpha, a, b, beta, c);
  } else {
    gemm_v3(gemm_v3_active_config(), opa, opb, alpha, a, b, beta, c,
            /*parallel=*/variant == GemmVariant::kParallel);
  }

  const auto counted = static_cast<std::uint64_t>(flop_model::zgemm(m, n, ka));
  obs::attribute_flops(counted);
  obs::attribute_bytes(16u * static_cast<std::uint64_t>(m * ka + ka * n +
                                                        2 * m * n));
}

void zgemm_batch(Op opa, Op opb, cplx alpha,
                 const std::vector<GemmBatchItem>& items, const ZMatrix& b,
                 cplx beta) {
  if (items.empty()) return;
  const auto [k, n] = op_shape(opb, b);

  std::uint64_t counted = 0;
  for (const GemmBatchItem& it : items) {
    XGW_REQUIRE(it.a != nullptr && it.c != nullptr,
                "zgemm_batch: null item operand");
    const auto [mi, ki] = op_shape(opa, *it.a);
    XGW_REQUIRE(ki == k,
                "zgemm_batch: every op(A_i) must share k = op(B).rows");
    XGW_REQUIRE(it.c_row0 >= 0 && it.c->rows() >= it.c_row0 + mi &&
                    it.c->cols() == n,
                "zgemm_batch: C_i row window [c_row0, c_row0 + op(A_i).rows) "
                "out of bounds or cols != op(B).cols");
    counted += static_cast<std::uint64_t>(flop_model::zgemm(mi, n, k));
  }

  // Tiny-batch dispatch mirrors kAuto's small-matrix cutoff: when the
  // AVERAGE item sits below the reference crossover, packing the shared B
  // panel and zeroing planar scratch cost more than they save (the GWPT
  // perturbed chain hits this with n_sigma x N_G blocks at toy N_G), so run
  // the canonical loops instead. Results follow gemm_reference exactly and
  // row windows are honoured; the path is serial, hence trivially
  // thread-count-invariant.
  double batch_work = 0.0;
  for (const GemmBatchItem& it : items)
    batch_work += static_cast<double>(op_shape(opa, *it.a).first) *
                  static_cast<double>(n) * static_cast<double>(k);
  if (batch_work <=
      kAutoTiny * static_cast<double>(items.size())) {
    obs::Span tiny_span("zgemm_batch", "la", obs::detail_level::kFine);
    if (tiny_span.active()) {
      tiny_span.arg("items", static_cast<long long>(items.size()));
      tiny_span.arg("n", static_cast<long long>(n));
      tiny_span.arg("k", static_cast<long long>(k));
      tiny_span.arg("variant", "reference");
    }
    std::uint64_t tiny_bytes = 16u * static_cast<std::uint64_t>(k * n);
    for (const GemmBatchItem& it : items) {
      const idx mi = op_shape(opa, *it.a).first;
      for (idx i = 0; i < mi; ++i) {
        cplx* row = it.c->row(it.c_row0 + i);
        for (idx j = 0; j < n; ++j) {
          cplx acc{};
          for (idx l = 0; l < k; ++l)
            acc += op_elem(opa, *it.a, i, l) * op_elem(opb, b, l, j);
          row[j] = alpha * acc + beta * row[j];
        }
      }
      tiny_bytes += 16u * static_cast<std::uint64_t>(mi * k + 2 * mi * n);
    }
    obs::attribute_flops(counted);
    obs::attribute_bytes(tiny_bytes);
    return;
  }

  const GemmV3Config& cfg = gemm_v3_active_config();
  la::MicroKernelFn kern = la::select_microkernel(cfg.isa, cfg.mr, cfg.nr);
  XGW_REQUIRE(kern != nullptr,
              "zgemm_batch: no compiled micro-kernel for this (isa, mr, nr)");

  // Flatten to (item, row-panel) pairs: the parallel unit. Each pair owns
  // disjoint C rows, and the serial outer l0 loop fixes each C tile's
  // accumulation order, so results are bitwise thread-count-invariant.
  struct Pair {
    int item;
    idx panel;
  };
  std::vector<Pair> pairs;
  std::uint64_t total_bytes = 0;
  for (std::size_t ii = 0; ii < items.size(); ++ii) {
    const auto [mi, ki] = op_shape(opa, *items[ii].a);
    (void)ki;
    const idx n_panels = (mi + cfg.mc - 1) / cfg.mc;
    for (idx p = 0; p < n_panels; ++p)
      pairs.push_back({static_cast<int>(ii), p});
    total_bytes += 16u * static_cast<std::uint64_t>(mi * k + 2 * mi * n);
  }
  total_bytes += 16u * static_cast<std::uint64_t>(k * n);  // shared B, once

  obs::Span span("zgemm_batch", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("items", static_cast<long long>(items.size()));
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(k));
    span.arg("pairs", static_cast<long long>(pairs.size()));
    engine_args(span, cfg);
  }

  // beta-scale each item's row window up front so tiles pure-accumulate.
  for (const GemmBatchItem& it : items) {
    if (beta == cplx{1.0, 0.0}) continue;
    const idx mi = op_shape(opa, *it.a).first;
    for (idx i = 0; i < mi; ++i) {
      cplx* row = it.c->row(it.c_row0 + i);
      if (beta == cplx{0.0, 0.0})
        std::fill(row, row + n, cplx{});
      else
        for (idx j = 0; j < n; ++j) row[j] *= beta;
    }
  }

  const idx n_pairs = static_cast<idx>(pairs.size());
  idx m_max = 0;
  for (const GemmBatchItem& it : items)
    m_max = std::max(m_max, op_shape(opa, *it.a).first);
  std::vector<double> bre(V3Buffers::padded_b(cfg, n, k));
  std::vector<double> bim(V3Buffers::padded_b(cfg, n, k));
  const double alr = alpha.real(), ali = alpha.imag();

  auto pair_work = [&](const Pair& pr, idx l0, idx kb, idx j0, idx nb,
                       V3Buffers& w) {
    const ZMatrix& a = *items[static_cast<std::size_t>(pr.item)].a;
    ZMatrix& c = *items[static_cast<std::size_t>(pr.item)].c;
    const idx mi = op_shape(opa, a).first;
    v3_panel_work(cfg, kern, opa, a, c,
                  items[static_cast<std::size_t>(pr.item)].c_row0, alr, ali,
                  mi, pr.panel, l0, kb, j0, nb, bre.data(), bim.data(), w);
  };

  if (should_parallelize(true, n_pairs)) {
#ifdef _OPENMP
#pragma omp parallel num_threads(xgw_num_threads())
    {
      V3Buffers w(cfg, m_max, n, k);
      for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
        const idx kb = std::min(cfg.kc, k - l0);
        for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
          const idx nb = std::min(cfg.nc, n - j0);
#pragma omp for schedule(static)
          for (idx l = 0; l < kb; ++l)
            la::pack_b_strips_row(opb, b, l0, l, j0, nb, cfg.nr, kb,
                                  bre.data(), bim.data());
          // implicit barrier: B panel complete before any pair reads it.
#pragma omp for schedule(dynamic)
          for (idx p = 0; p < n_pairs; ++p)
            pair_work(pairs[static_cast<std::size_t>(p)], l0, kb, j0, nb, w);
        }
      }
    }
#endif
  } else {
    V3Buffers w(cfg, m_max, n, k);
    for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
      const idx kb = std::min(cfg.kc, k - l0);
      for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
        const idx nb = std::min(cfg.nc, n - j0);
        for (idx l = 0; l < kb; ++l)
          la::pack_b_strips_row(opb, b, l0, l, j0, nb, cfg.nr, kb, bre.data(),
                                bim.data());
        for (idx p = 0; p < n_pairs; ++p)
          pair_work(pairs[static_cast<std::size_t>(p)], l0, kb, j0, nb, w);
      }
    }
  }

  obs::attribute_flops(counted);
  obs::attribute_bytes(total_bytes);
}

void zherk_update(const ZMatrix& a, const ZMatrix& b, ZMatrix& c,
                  GemmVariant variant) {
  const idx p = a.rows();
  const idx n = a.cols();
  XGW_REQUIRE(b.rows() == p && b.cols() == n,
              "zherk_update: A and B must have identical shape");
  XGW_REQUIRE(c.rows() == n && c.cols() == n,
              "zherk_update: C must be n x n");

  variant = resolved_gemm_variant(variant, n, n, p);

  obs::Span span("zherk_update", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(p));
    span.arg("variant", variant_name(variant));
    if (variant != GemmVariant::kReference) {
      const GemmV3Config& cfg = gemm_v3_active_config();
      span.arg("row_panels",
               static_cast<long long>((n + cfg.mc - 1) / cfg.mc));
      engine_args(span, cfg);
    }
  }

  if (variant == GemmVariant::kReference) {
    herk_reference(a, b, c);
  } else {
    herk_v3(gemm_v3_active_config(), a, b, c,
            /*parallel=*/variant == GemmVariant::kParallel);
  }

  // Mirror: the product is Hermitian by contract, so the lower triangle is
  // the conjugate of the accumulated upper one and the diagonal is real.
  for (idx i = 0; i < n; ++i) {
    c(i, i) = cplx{c(i, i).real(), 0.0};
    for (idx j = i + 1; j < n; ++j) c(j, i) = std::conj(c(i, j));
  }

  const auto counted = static_cast<std::uint64_t>(flop_model::zherk(n, p));
  obs::attribute_flops(counted);
  obs::attribute_bytes(16u *
                       static_cast<std::uint64_t>(2 * p * n + 2 * n * n));
}

void zgemv(Op opa, cplx alpha, const ZMatrix& a, const std::vector<cplx>& x,
           cplx beta, std::vector<cplx>& y) {
  const auto [m, k] = op_shape(opa, a);
  XGW_REQUIRE(static_cast<idx>(x.size()) == k, "zgemv: x size mismatch");
  XGW_REQUIRE(static_cast<idx>(y.size()) == m, "zgemv: y size mismatch");

  obs::Span span("zgemv", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("m", static_cast<long long>(m));
    span.arg("k", static_cast<long long>(k));
  }

  if (opa == Op::kNone) {
    auto row_dot = [&](idx i) {
      cplx acc{};
      const cplx* arow = a.row(i);
      for (idx l = 0; l < k; ++l) acc += arow[l] * x[static_cast<std::size_t>(l)];
      y[static_cast<std::size_t>(i)] =
          alpha * acc + beta * y[static_cast<std::size_t>(i)];
    };
    // Rows are independent: parallelize when the matrix is large enough to
    // amortize the team (m*k complex MACs, 8 FLOPs each).
    constexpr idx kGemvParallelWork = 1 << 15;
    if (should_parallelize(m * k >= kGemvParallelWork, m)) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(xgw_num_threads())
      for (idx i = 0; i < m; ++i) row_dot(i);
#endif
    } else {
      for (idx i = 0; i < m; ++i) row_dot(i);
    }
  } else {
    // Transposed cases: accumulate columns to keep row-major access
    // contiguous.
    std::vector<cplx> acc(static_cast<std::size_t>(m), cplx{});
    for (idx l = 0; l < k; ++l) {
      const cplx* arow = a.row(l);
      const cplx xl = x[static_cast<std::size_t>(l)];
      if (opa == Op::kTrans) {
        for (idx i = 0; i < m; ++i)
          acc[static_cast<std::size_t>(i)] += arow[i] * xl;
      } else {
        for (idx i = 0; i < m; ++i)
          acc[static_cast<std::size_t>(i)] += std::conj(arow[i]) * xl;
      }
    }
    for (idx i = 0; i < m; ++i) {
      auto& yi = y[static_cast<std::size_t>(i)];
      yi = alpha * acc[static_cast<std::size_t>(i)] + beta * yi;
    }
  }
  const auto counted = static_cast<std::uint64_t>(flop_model::zgemv(m, k));
  obs::attribute_flops(counted);
  obs::attribute_bytes(16u * static_cast<std::uint64_t>(m * k + k + 2 * m));
}

}  // namespace xgw
