// Sec. 5.1 GWPT, MEASURED + SIMULATED: electron-phonon coupling at the GW
// level for a LiH-like defect analogue with N_p = 6 displacement
// perturbations (the paper's LiH998 GWPT workload), DFPT vs GWPT coupling
// comparison, N_p parallel independence, and the full-machine projection.

#include "bench_util.h"
#include "common/timer.h"
#include "gwpt/gwpt.h"
#include "mf/epm.h"
#include "obs/trace.h"
#include "perf/scaling.h"

using namespace xgw;
using namespace xgw::bench;

int main() {
  std::printf("xgw — GWPT electron-phonon coupling (Sec. 5.1)\n");

  GwParameters p;
  p.eps_cutoff = 1.5;
  GwCalculation gw(EpmModel::lih(1), p);
  // Window around the gap. Note: at Gamma of an inversion-symmetric
  // rocksalt cell, dV is parity-odd, so same-parity pairs (e.g. VBM-CBM
  // here) have exactly zero coupling — we report the largest |g| over the
  // window, which picks the symmetry-allowed channel.
  const std::vector<idx> bands{gw.n_valence() - 1, gw.n_valence(),
                               gw.n_valence() + 1, gw.n_valence() + 2};

  GwptOptions go;
  go.n_e_points = 2;
  GwptCalculation gwpt(gw, go);

  // N_p = 6: both atoms, all three axes (the paper's six displacements).
  std::vector<Perturbation> ps;
  for (idx a = 0; a < 2; ++a)
    for (int ax = 0; ax < 3; ++ax) ps.push_back({a, ax});

  Suite suite("gwpt");
  suite.series("problem/lih")
      .counter("n_p", static_cast<double>(ps.size()))
      .counter("n_bands", static_cast<double>(bands.size()))
      .counter("n_e_points", static_cast<double>(go.n_e_points))
      .counter("ng", static_cast<double>(gw.n_g()));

  section("DFPT vs GWPT coupling, LiH analogue, N_p = 6 (measured)");
  Stopwatch sw;
  std::vector<double> per_pert_time;
  Table t({"perturbation", "max |g_DFPT| (eV/Bohr)", "max |g_GW| (eV/Bohr)",
           "GW/DFPT", "time (s)"});
  const idx nb = static_cast<idx>(bands.size());
  std::uint64_t flops_total = 0;
  for (const Perturbation& pert : ps) {
    // FLOPs of the Eq. 5 contraction alone: the obs aggregate of its stage
    // span (the DFPT stage's own GEMMs attribute elsewhere).
    obs::recorder().enable();
    Stopwatch sp;
    const GwptResult r = gwpt.run_perturbation(pert, bands);
    const double tp = sp.elapsed();
    obs::recorder().disable();
    const std::uint64_t flops =
        obs::recorder().aggregate().at("kernel/gwpt_gpp_kernel").flops;
    per_pert_time.push_back(tp);
    flops_total += flops;
    suite.series("pert/atom=" + fmt_int(pert.atom) +
                 "/axis=" + fmt_int(pert.axis))
        .counter("flops", static_cast<double>(flops))
        .value("seconds", tp);
    // Largest symmetry-allowed valence-conduction coupling in the window.
    double g_d = 0.0, g_g = 0.0;
    for (idx i = 0; i < nb; ++i)
      for (idx j = 0; j < nb; ++j) {
        if (i == j) continue;
        if (std::abs(r.g_dfpt(i, j)) > g_d) {
          g_d = std::abs(r.g_dfpt(i, j));
          g_g = std::abs(r.g_gw(i, j));
        }
      }
    g_d *= kHartreeToEv;
    g_g *= kHartreeToEv;
    suite.series("pert/atom=" + fmt_int(pert.atom) +
                 "/axis=" + fmt_int(pert.axis))
        .value("g_dfpt_ev_bohr", g_d)
        .value("g_gw_ev_bohr", g_g);
    t.row({"atom " + fmt_int(pert.atom) + " axis " + fmt_int(pert.axis),
           fmt(g_d, 4), fmt(g_g, 4),
           g_d > 1e-12 ? fmt(g_g / g_d, 3) : "n/a", fmt(tp, 2)});
  }
  const double t_all = sw.elapsed();
  t.print();
  std::printf(
      "\nGWPT renormalizes the off-diagonal (v,c) coupling relative to\n"
      "DFPT — the correlation enhancement the method was built to capture\n"
      "(paper refs [6, 7]).\n");

  section("N_p independence (trivial parallelism, measured)");
  double tmax = 0.0, tsum = 0.0;
  for (double tp : per_pert_time) {
    tmax = std::max(tmax, tp);
    tsum += tp;
  }
  std::printf(
      "serial total for N_p=6: %.2f s; slowest single perturbation %.2f s\n"
      "-> ideal N_p-parallel time-to-solution = max = %.2f s (%.1fx)\n"
      "The perturbations share all screening state and never communicate —\n"
      "'massively parallelized to full scale with minimal communications'.\n",
      t_all, tmax, tmax, tsum / tmax);

  suite.series("campaign/np6")
      .counter("flops_total", static_cast<double>(flops_total))
      .value("serial_seconds", t_all)
      .value("ideal_parallel_seconds", tmax)
      .value("np_speedup", tsum / tmax);

  section("Full-machine GWPT projection (simulated, LiH998 workload)");
  ScalingSimulator sim(frontier());
  const auto w = paper_workloads(MachineKind::kFrontier);
  for (const auto& wl : w) {
    if (wl.system != "LiH998-GWPT" && wl.system != "LiH998-GWPT-offdiag")
      continue;
    const auto pt = sim.sigma_kernel(wl, 9408, ProgModel::kHip);
    std::printf("%-22s 9408 nodes: %8.2f s, %8.2f PF/s (%4.1f%% of peak)\n",
                wl.system.c_str(), pt.seconds, pt.pflops, pt.pct_peak);
    suite.series("projection/" + wl.system)
        .counter("nodes", 9408)
        .value("seconds", pt.seconds)
        .value("pflops", pt.pflops)
        .value("pct_peak", pt.pct_peak);
  }
  std::printf(
      "(paper Table 5: LiH998 GWPT diag 92.91 s / 479.27 PF/s / 26.64%%;\n"
      " off-diag 30.13 s / 691.10 PF/s / 38.42%%)\n");
  suite.write("BENCH_gwpt.json");
  return 0;
}
