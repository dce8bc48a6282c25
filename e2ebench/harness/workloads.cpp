#include "workloads.h"

#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace e2e {
namespace {

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t x) {  // [0, 1)
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

// Si 2x2x2 supercell with one vacancy (15 atoms, 30 valence bands): the
// paper's defect workload, reduced. Seed picks the 4-band window around the
// gap and the Sigma energy step.
Workload gpp_defect() {
  Workload w;
  w.name = "gpp_defect";
  w.route = Route::kGpp;
  w.warmup_requests = 1;
  w.traced_request_s = 5.0;
  for (int b : {27, 28, 29})
    for (double e : {0.010, 0.015, 0.020, 0.025}) {
      Spec s;
      s.key = "gpp_defect/b" + std::to_string(b) + "/e" + fmt(e);
      s.text = "job sigma\nmaterial silicon\nsupercell 2\nvacancy 0\n"
               "psi_cutoff 1.6\nn_bands 96\neps_cutoff 1.0\n"
               "sigma_bands " + std::to_string(b) + " " +
               std::to_string(b + 1) + " " + std::to_string(b + 2) + " " +
               std::to_string(b + 3) + "\ne_step " + fmt(e) + "\n";
      w.catalog.push_back(std::move(s));
    }
  return w;
}

// Full-frequency Sigma on Si16 under a 1 MB budget, so the B(omega)v
// screening set pages through the spill pool. Seed picks the band pair.
Workload ff_ooc() {
  Workload w;
  w.name = "ff_ooc";
  w.route = Route::kFf;
  w.warmup_requests = 2;
  w.traced_request_s = 2.0;
  const int pairs[][2] = {{31, 32}, {30, 33}, {30, 31},
                          {32, 33}, {29, 32}, {31, 34}};
  for (const auto& p : pairs) {
    Spec s;
    s.key = "ff_ooc/b" + std::to_string(p[0]) + "-" + std::to_string(p[1]);
    s.text = "job ff\nmaterial silicon\nsupercell 2\npsi_cutoff 1.6\n"
             "n_bands 64\nn_freq 12\nmemory_budget_mb 1\n"
             "spill_dir @TMP@/spill\nsigma_bands " +
             std::to_string(p[0]) + " " + std::to_string(p[1]) + "\n";
    w.catalog.push_back(std::move(s));
  }
  return w;
}

// Space-time Sigma on primitive cells, n_tau in {10..20}: the same
// (material, n_tau) recurs, as in a grid-convergence study.
Workload st_sweep() {
  Workload w;
  w.name = "st_sweep";
  w.route = Route::kSpaceTime;
  w.warmup_requests = 4;
  w.traced_request_s = 1.0;
  for (const char* m : {"silicon", "lih", "bn"})
    for (int n = 10; n <= 20; ++n) {
      Spec s;
      s.key = std::string("st_sweep/") + m + "/t" + std::to_string(n);
      s.text = std::string("job sigma\nsigma_method space_time\nmaterial ") +
               m + "\nsupercell 1\neps_cutoff 0.9\nn_tau " +
               std::to_string(n) + "\n";
      w.catalog.push_back(std::move(s));
    }
  return w;
}

}  // namespace

int Workload::request(std::uint64_t seed, std::uint64_t i) const {
  // Request i is entry i mod n of the (i / n)-th seeded shuffle of the
  // n-spec catalog, so every spec recurs and each run sees nearly the same
  // mix.
  const std::uint64_t n = catalog.size();
  std::vector<int> block(n);
  std::iota(block.begin(), block.end(), 0);
  std::uint64_t s = mix64(mix64(seed) ^ ((i / n) * 0xd1b54a32d192ed03ULL));
  for (std::size_t k = block.size() - 1; k > 0; --k) {  // Fisher-Yates
    s = mix64(s);
    std::swap(block[k], block[static_cast<std::size_t>(unit(s) * (k + 1))]);
  }
  return block[i % n];
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all{gpp_defect(), ff_ooc(), st_sweep()};
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (w.name == name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string instantiate(const Spec& spec, const std::string& tmp_dir) {
  std::string t = spec.text;
  const std::string token = "@TMP@";
  for (std::size_t p = t.find(token); p != std::string::npos;
       p = t.find(token, p + tmp_dir.size()))
    t.replace(p, token.size(), tmp_dir);
  return t;
}

}  // namespace e2e
