// Low-scaling space-time GW (ROADMAP item 3), MEASURED: the minimax route
// pays N_tau chi builds where full-frequency pays N_omega >> N_tau, with
// QP energies agreeing to the quadrature tolerance. The FLOP/grid/batch
// counters below are deterministic (canonical kernel counts over fixed
// shapes) and exact-gated by the CI perf gate; wall times are advisory.

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/sigma_ff.h"
#include "core/sigma_st.h"
#include "mf/epm.h"
#include "obs/trace.h"

using namespace xgw;
using namespace xgw::bench;

int main() {
  std::printf("xgw — space-time GW vs full-frequency crossover, measured\n");

  const EpmModel model = EpmModel::silicon(1);
  GwParameters params;
  params.eps_cutoff = 0.9;
  GwCalculation gw(model, params);
  const std::vector<idx> bands = {gw.n_valence() - 1, gw.n_valence()};

  const idx nv = gw.n_valence();
  const idx nc = gw.n_bands() - nv;
  const idx ng = gw.n_g();
  std::printf("\nsystem: Si2, N_v=%lld, N_c=%lld, N_G=%lld\n",
              static_cast<long long>(nv), static_cast<long long>(nc),
              static_cast<long long>(ng));

  Suite suite("spacetime");
  suite.series("problem/si2")
      .counter("nv", static_cast<double>(nv))
      .counter("nc", static_cast<double>(nc))
      .counter("ng", static_cast<double>(ng));

  // Canonical per-point chi cost: one Hermitian rank-k accumulation over
  // all N_v x N_c pairs, 4 * N_G * (N_G + 1) * (N_v N_c) FLOPs. Both
  // routes pay exactly this per grid point, so the route cost ratio is the
  // grid-size ratio — the whole point of the space-time method.
  //
  // measured_flops is every FLOP the kernels attribute through obs while a
  // route runs (recorder totals include worker-thread orphans, so the count
  // is exact at any thread or worker count). Only chi's rank-k updates and,
  // on the space-time route, the Sigma(i tau) batched GEMMs attribute; the
  // LU-based eps^{-1}, MTXEL and transforms do not.
  auto& rec = obs::recorder();
  const double chi_point_flops = 4.0 * static_cast<double>(ng) *
                                 static_cast<double>(ng + 1) *
                                 static_cast<double>(nv) *
                                 static_cast<double>(nc);

  section("space-time route (minimax i tau / i omega)");
  const idx n_tau = 14;
  StOptions so;
  so.n_tau = n_tau;
  rec.enable();
  Stopwatch sw;
  const StScreening scr = build_st_screening(gw, so);
  const double t_st_screen = sw.elapsed();
  sw.reset();
  const auto st = sigma_st_diag(gw, scr, bands, so);
  const double t_st_sigma = sw.elapsed();
  rec.disable();
  const std::uint64_t st_flops = rec.total_flops();
  const double t_st = t_st_screen + t_st_sigma;
  std::printf(
      "n_tau=%lld  tau_batches=%lld  fit_err=%.2e  screen=%.3f s  "
      "sigma=%.3f s\n",
      static_cast<long long>(scr.n_tau),
      static_cast<long long>(scr.tau_batches), scr.sigma_fit_err,
      t_st_screen, t_st_sigma);

  suite.series("spacetime/si2")
      .counter("n_tau", static_cast<double>(scr.n_tau))
      .counter("tau_batches", static_cast<double>(scr.tau_batches))
      .counter("chi_grid_points", static_cast<double>(scr.n_tau))
      .counter("chi_model_flops",
               chi_point_flops * static_cast<double>(scr.n_tau))
      .counter("measured_flops", static_cast<double>(st_flops))
      .value("seconds", t_st)
      .value("screen_seconds", t_st_screen)
      .value("sigma_seconds", t_st_sigma)
      .value("sigma_fit_err", scr.sigma_fit_err);

  section("full-frequency sweeps (crossover scan)");
  Table t({"n_freq", "time (s)", "t_FF / t_ST", "chi-FLOP ratio",
           "max |dE_QP| (eV)"});
  double crossover_nfreq = 0.0;
  for (idx nf : {idx{24}, idx{48}, idx{96}}) {
    FfOptions fo;
    fo.n_freq = nf;
    rec.enable();
    sw.reset();
    const FfScreening fscr = build_ff_screening(gw, fo);
    rec.disable();
    const auto ff = sigma_ff_diag(gw, fscr, bands);
    const double t_ff = sw.elapsed();
    const std::uint64_t ff_flops = rec.total_flops();

    double dqp = 0.0;
    for (std::size_t i = 0; i < ff.size(); ++i)
      dqp = std::max(dqp, std::abs(ff[i].e_qp - st[i].e_qp));
    const double flop_ratio =
        static_cast<double>(nf) / static_cast<double>(scr.n_tau);
    t.row({fmt_int(nf), fmt(t_ff, 3), fmt(t_ff / t_st, 2) + "x",
           fmt(flop_ratio, 2) + "x", fmt(dqp * kHartreeToEv, 4)});
    if (crossover_nfreq == 0.0 && t_ff > t_st)
      crossover_nfreq = static_cast<double>(nf);

    suite.series("ff/n_freq=" + std::to_string(nf))
        .counter("n_freq", static_cast<double>(nf))
        .counter("chi_grid_points", static_cast<double>(nf))
        .counter("chi_model_flops",
                 chi_point_flops * static_cast<double>(nf))
        .counter("measured_flops", static_cast<double>(ff_flops))
        .value("seconds", t_ff)
        .value("slowdown_vs_spacetime", t_ff / t_st)
        .value("max_qp_diff_ev", dqp * kHartreeToEv);
  }
  t.print();

  suite.series("crossover")
      .value("t_spacetime_s", t_st)
      .value("crossover_n_freq", crossover_nfreq);

  std::printf(
      "\nThe space-time route holds the chi cost at N_tau=%lld grid points\n"
      "while full-frequency scales with N_omega, and the QP gap between the\n"
      "two routes shrinks as the FF grid refines (the FF broadened\n"
      "quadrature carries the larger error at matched cost) — the\n"
      "low-scaling trade of the paper's GW-FF alternative, cross-validated\n"
      "on the same mean field.\n",
      static_cast<long long>(scr.n_tau));

  suite.write("BENCH_spacetime.json");
  return 0;
}
