#include "stages.h"

#include <sys/resource.h>

#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "cli/driver.h"
#include "common/flops.h"
#include "core/minimax.h"
#include "core/sigma_ff.h"
#include "core/sigma_st.h"

namespace e2e {

using xgw::idx;

namespace {

// Eq. 7 prefactor: the paper's Frontier value. sigma.flops_model is a model
// count that moves only with the problem sizes, not with the kernel.
constexpr double kGppAlpha = 83.50;

struct Row {
  idx band;
  std::vector<double> cols;
};

// Formats rows exactly as run_job's QP tables (fixed, 4 decimals).
void finish(const std::vector<Row>& rows, Replay& r) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  for (const Row& row : rows) {
    os << row.band;
    r.values.push_back(static_cast<double>(row.band));
    for (double c : row.cols) {
      os << "  " << c;
      r.values.push_back(c);
    }
    os << "\n";
  }
  r.table = os.str();
}

std::vector<idx> sigma_bands(const xgw::InputFile& in,
                             const xgw::GwCalculation& gw) {
  std::vector<idx> bands = in.get_int_list("sigma_bands");
  if (bands.empty()) bands = {gw.n_valence() - 1, gw.n_valence()};
  return bands;
}

std::vector<idx> range(idx lo, idx hi) {
  std::vector<idx> v;
  for (idx i = lo; i < hi; ++i) v.push_back(i);
  return v;
}

// MTXEL of one chi pass as chi_multi / chi_itau_multi compute it: M_{vc}
// for every valence v against the conduction bands. `cold` runs on a fresh
// Mtxel, as a request's first pass does; `warm` repeats the pass on the
// now-primed Mtxel, as every later pass of the request does (taken only
// when the request makes more than one pass).
struct ChiMtxel {
  Cost cold, warm;
};

ChiMtxel chi_mtxel_cost(const xgw::GwCalculation& gw, idx passes) {
  xgw::Mtxel m(gw.psi_sphere(), gw.eps_sphere(), gw.wavefunctions(),
               gw.params().mtxel_cache);
  const std::vector<idx> cond = range(gw.n_valence(), gw.n_bands());
  xgw::ZMatrix out(static_cast<idx>(cond.size()), gw.n_g());
  const auto pass = [&] {
    for (idx v = 0; v < gw.n_valence(); ++v) m.compute_left_fixed(v, cond, out);
  };
  ChiMtxel c;
  c.cold = measure(pass);
  if (passes > 1) c.warm = measure(pass);
  return c;
}

constexpr double kEv = xgw::kHartreeToEv;

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

Replay replay_job(Route route, const xgw::InputFile& in, Layers& L) {
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<xgw::GwCalculation> gw;
  const Cost mf = measure([&] {
    gw = std::make_unique<xgw::GwCalculation>(
        xgw::build_material_from_input(in), xgw::build_params_from_input(in));
    gw->wavefunctions();
  });
  const std::vector<idx> bands = sigma_bands(in, *gw);
  const idx nv = gw->n_valence(), nb = gw->n_bands(), ng = gw->n_g();
  std::vector<Row> rows;
  double spans = mf.wall_s;
  idx chi_passes = 1;
  Cost screen, sigma;

  if (route == Route::kGpp) {
    const Cost chi = measure([&] { gw->chi0(); });
    const Cost eps = measure([&] { gw->epsinv0(); });
    const Cost model = measure([&] { gw->gpp(); });
    const idx n_e = in.get_int("n_e_points", 3);
    std::vector<xgw::QpResult> qp;
    sigma = measure([&] {
      qp = gw->sigma_diag(bands, n_e, in.get_double("e_step", 0.02));
    });
    for (const xgw::QpResult& q : qp)
      rows.push_back({q.band,
                      {q.e_mf * kEv, q.sigma.sx.real() * kEv,
                       q.sigma.ch.real() * kEv, q.z, q.e_qp * kEv}});
    screen = chi;
    spans += chi.wall_s + eps.wall_s + model.wall_s + sigma.wall_s;
    L["epsilon.self_s"] += eps.wall_s;
    L["gpp.model_s"] += model.wall_s;
    L["chi.flops_model"] +=
        xgw::flop_model::zherk(ng, nv * (nb - nv));
    L["sigma.flops_model"] += xgw::flop_model::gpp_diag(
        kGppAlpha, static_cast<idx>(bands.size()), nb, ng, n_e);
  } else if (route == Route::kFf) {
    xgw::FfOptions fo;
    fo.n_freq = in.get_int("n_freq", 24);
    fo.subspace_fraction = in.get_double("subspace_fraction", 0.0);
    fo.chi.nv_block = in.get_int("nv_block", fo.chi.nv_block);
    fo.memory_budget_mb = xgw::resolve_memory_budget_mb(in);
    fo.spill_dir = in.get_string("spill_dir", "xgw_spill");
    std::optional<xgw::FfScreening> scr;
    screen = measure([&] { scr.emplace(xgw::build_ff_screening(*gw, fo)); });
    std::vector<xgw::FfResult> res;
    sigma = measure([&] { res = xgw::sigma_ff_diag(*gw, *scr, bands); });
    for (const xgw::FfResult& r : res)
      rows.push_back({r.band,
                      {r.e_mf * kEv, r.sigma_x.real() * kEv,
                       r.sigma_c.real() * kEv, r.e_qp * kEv}});
    if (const xgw::mem::SpillPool* pool = scr->bv.pool()) {
      L["spill.bytes_written"] += static_cast<double>(pool->bytes_written());
      L["spill.bytes_read"] += static_cast<double>(pool->bytes_read());
      L["spill.page_ins"] += static_cast<double>(pool->page_ins());
    }
    chi_passes = gw->timers().calls("ff_chi_freq(full_pw)");
    spans += screen.wall_s + sigma.wall_s;
  } else {
    xgw::StOptions so;
    so.n_tau = in.get_int("n_tau", 14);
    so.eta = gw->params().eta;
    so.chi.nv_block = gw->params().nv_block;
    so.memory_budget_mb = xgw::resolve_memory_budget_mb(in);
    so.spill_dir = in.get_string("spill_dir", "xgw_spill");
    std::optional<xgw::StScreening> scr;
    screen = measure([&] { scr.emplace(xgw::build_st_screening(*gw, so)); });
    std::vector<xgw::StResult> res;
    sigma = measure([&] { res = xgw::sigma_st_diag(*gw, *scr, bands, so); });
    for (const xgw::StResult& r : res)
      rows.push_back({r.band,
                      {r.e_mf * kEv, r.sigma_x.real() * kEv,
                       r.sigma_c.real() * kEv, r.z, r.e_qp * kEv}});
    L["st.n_tau"] += static_cast<double>(scr->n_tau);
    L["st.tau_batches"] += static_cast<double>(scr->tau_batches);
    chi_passes = scr->tau_batches;
    spans += screen.wall_s + sigma.wall_s;
  }

  Replay r;
  finish(rows, r);
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Inner layers, re-run on the same arguments outside the request. The
  // Sigma-side M_ln come from the request's own GwCalculation, whose
  // real-space cache is as Sigma left it.
  const ChiMtxel cm = chi_mtxel_cost(*gw, chi_passes);
  const double more = static_cast<double>(chi_passes - 1);
  const Cost chi_mtxel{cm.cold.wall_s + more * cm.warm.wall_s,
                       cm.cold.cpu_s + more * cm.warm.cpu_s};
  const Cost mx_sig = measure([&] {
    for (idx l : bands) (void)gw->m_matrix_left(l);
  });
  // Cross-check against the program's own timer around the same calls
  // (GPP route only; reported on stderr by the traced run).
  L["xcheck.sigma_mtxel_timer_s"] += gw->timers().seconds("sigma_mtxel");
  L["xcheck.sigma_mtxel_rerun_s"] +=
      route == Route::kGpp ? mx_sig.wall_s : 0.0;
  double fit_s = 0.0;
  if (route == Route::kSpaceTime) {
    const auto& e = gw->wavefunctions().energy;
    const double e_min = e[static_cast<std::size_t>(nv)] -
                         e[static_cast<std::size_t>(nv - 1)];
    fit_s = measure([&] {
              xgw::minimax_grid(in.get_int("n_tau", 14), e_min,
                                e.back() - e.front());
            }).wall_s;
    L["minimax.self_s"] += fit_s;
  }

  L["mf.self_s"] += mf.wall_s;
  L["mf.cpu_s"] += mf.cpu_s;
  L["mtxel.self_s"] += chi_mtxel.wall_s + mx_sig.wall_s;
  L["mtxel.pairs"] += static_cast<double>(nv * (nb - nv) * chi_passes +
                                          static_cast<idx>(bands.size()) * nb);
  const char* screen_row = route == Route::kGpp  ? "chi.self_s"
                           : route == Route::kFf ? "ff.screen_s"
                                                 : "st.screen_s";
  const char* sigma_row = route == Route::kGpp  ? "sigma.self_s"
                          : route == Route::kFf ? "ff.sigma_s"
                                                : "st.sigma_s";
  L[screen_row] += screen.wall_s - chi_mtxel.wall_s - fit_s;
  L[sigma_row] += sigma.wall_s - mx_sig.wall_s;
  if (route == Route::kGpp) {
    L["chi.cpu_s"] += screen.cpu_s - chi_mtxel.cpu_s;
    L["sigma.cpu_s"] += sigma.cpu_s - mx_sig.cpu_s;
  }
  L["other.self_s"] += r.wall_s - spans;
  return r;
}

}  // namespace e2e
