// xgw end-to-end benchmark harness.
//
//   xgw_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                [--bench-dir e2ebench] [--tmp-root .bench_build/tmp]
//   xgw_e2ebench --workload NAME --setup-only 1
//   xgw_e2ebench --write-references e2ebench/references.txt
//
// One process, one client, closed loop, 4-thread budget. --trace 0 sets up
// once (set-up time runs from process entry to the first timed request),
// then issues requests for S seconds and prints the end-to-end metrics.
// --setup-only 1 sets up once and prints only {"setup_s": ...}, so set-up
// can be repeated in fresh processes (run.py reports the median). --trace 1
// replays a fixed number of the same requests stage by stage with harness
// spans (and, on gpp_defect, through serve::run_batch) and prints the
// per-layer metrics. Every output is checked against references.txt;
// the last stdout line is the JSON result, and the exit code is 1 when any
// check fails. All files go under a per-run temp dir that is removed on
// exit.

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/driver.h"
#include "la/autotune.h"
#include "mem/tracker.h"
#include "refs.h"
#include "serve/batch.h"
#include "stages.h"
#include "workloads.h"

namespace fs = std::filesystem;
using e2e::Layers;
using e2e::Route;
using e2e::Values;
using e2e::Workload;

namespace {

constexpr int kThreadBudget = 4;
// CAS disk budget of the traced run's serve phase (gpp_defect): below the
// footprint of its distinct sub-results, so the store evicts as well as
// hits and commits.
constexpr double kStoreBudgetMb = 1.2;
// Warm-up requests come from this fixed stream, so set-up does the same
// work at every seed; timed and traced requests come from the run's seed.
constexpr std::uint64_t kWarmupSeed = 0;

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  std::string bench_dir = "e2ebench";
  std::string tmp_root = ".bench_build/tmp";
  std::string write_refs;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--setup-only") a.setup_only = std::stoi(v) != 0;
    else if (k == "--bench-dir") a.bench_dir = v;
    else if (k == "--tmp-root") a.tmp_root = v;
    else if (k == "--write-references") a.write_refs = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.write_refs.empty() && a.workload.empty())
    throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
    throw std::runtime_error("--seconds must be > 0 and --trace 0 or 1");
  return a;
}

/// Removes the per-run temp dir on every exit path.
class TempRoot {
 public:
  explicit TempRoot(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempRoot(const TempRoot&) = delete;
  TempRoot& operator=(const TempRoot&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Writes the pinned GEMM tiles for this ISA as the autotune cache in
/// `dir`, points the engine at it, and checks the engine loaded it, so the
/// tile choice (and with it the summation order) never comes from a probe.
void install_pinned_autotune(const fs::path& pinned, const fs::path& dir) {
  using namespace xgw::la;
  const SimdIsa isa = detected_simd_isa();
  AutotuneResult want = default_autotune(isa);
  std::ifstream in(pinned);
  if (!in) throw std::runtime_error("cannot read " + pinned.string());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string name;
    if (!(row >> name) || name != simd_isa_name(isa)) continue;
    row >> want.mr >> want.nr >> want.mc >> want.kc >> want.nc;
  }
  const std::string cache = (dir / "autotune.json").string();
  save_autotune_cache(cache, want);
  setenv("XGW_AUTOTUNE_CACHE", cache.c_str(), 1);
  AutotuneResult loaded;
  const AutotuneResult& used = autotune_result();
  if (!load_autotune_cache(cache, isa, &loaded) || !used.from_cache ||
      used.mr != want.mr || used.nr != want.nr || used.mc != want.mc ||
      used.kc != want.kc || used.nc != want.nc)
    throw std::runtime_error("GEMM engine did not take the pinned tiles");
}

/// One finished request.
struct Done {
  double wall_s = 0.0;
  bool ok = false;
  Values values;                ///< full precision where available
  std::string table;            ///< run_job's QP table
  std::uint64_t allocs = 0;     ///< tracked heap allocations
  std::uint64_t peak_bytes = 0; ///< tracked high-water of this request
};

class Bench {
 public:
  Bench(const Workload& wl, const Args& a, const e2e::References& refs,
        fs::path tmp)
      : wl_(wl), args_(a), refs_(refs), tmp_(std::move(tmp)) {}

  /// Fresh temp dir (and with it an empty CAS store), pinned autotune cache
  /// and the warm-up requests. Returns its duration counted from `t0`.
  double setup(Clock::time_point t0) {
    std::error_code ec;
    fs::remove_all(tmp_, ec);
    fs::create_directories(tmp_);
    install_pinned_autotune(fs::path(args_.bench_dir) / "autotune_pinned.txt",
                            tmp_);
    for (int i = 0; i < wl_.warmup_requests; ++i)
      if (!run(wl_.request(kWarmupSeed, static_cast<std::uint64_t>(i))).ok)
        throw std::runtime_error("warm-up request failed its check");
    return since(t0);
  }

  /// Untraced request of catalog spec `pick` through run_job.
  Done run(int pick) {
    Done d;
    const e2e::Spec& spec = wl_.catalog[static_cast<std::size_t>(pick)];
    const std::string text = e2e::instantiate(spec, tmp_.string());
    std::ostringstream os;
    int rc = 1;
    xgw::mem::tracker().reset_peak();
    const std::uint64_t a0 = xgw::mem::tracker().alloc_calls();
    const auto t0 = Clock::now();
    try {
      rc = xgw::run_job(
          xgw::InputFile::parse(text, xgw::known_input_keys()), os);
    } catch (const std::exception& e) {
      std::cerr << "request " << spec.key << ": " << e.what() << "\n";
    }
    d.wall_s = since(t0);
    d.allocs = xgw::mem::tracker().alloc_calls() - a0;
    d.peak_bytes = xgw::mem::tracker().peak_bytes();
    d.ok = rc == 0 && e2e::extract_table(os.str(), &d.table, &d.values) &&
           e2e::within(d.values, refs_.at(spec.key), e2e::kPrintedTol);
    return d;
  }

  /// Traced request of `pick`: stage-by-stage replay, adding to `layers`.
  Done traced(int pick, Layers& layers) {
    Done d;
    const e2e::Spec& spec = wl_.catalog[static_cast<std::size_t>(pick)];
    const auto t0 = Clock::now();
    const xgw::InputFile in = xgw::InputFile::parse(
        e2e::instantiate(spec, tmp_.string()), xgw::known_input_keys());
    const double parse_s = since(t0);
    e2e::Replay r = e2e::replay_job(wl_.route, in, layers);
    layers["other.self_s"] += parse_s;
    d.wall_s = parse_s + r.wall_s;
    d.ok = e2e::within(r.values, refs_.at(spec.key), e2e::kExactTol);
    d.values = std::move(r.values);
    d.table = std::move(r.table);
    return d;
  }

  /// `pick` as a one-job serve::run_batch against the run's persistent,
  /// budget-limited CAS store, then replayed against the now-warm store;
  /// both outcomes are checked. Adds the serve and CAS rows to `layers`.
  Done served(int pick, Layers& layers) {
    const e2e::Spec& spec = wl_.catalog[static_cast<std::size_t>(pick)];
    std::vector<xgw::serve::JobSpec> jobs(1);
    jobs[0].name = spec.key;
    jobs[0].path = spec.key + ".inp";
    jobs[0].input = xgw::InputFile::parse(
        e2e::instantiate(spec, tmp_.string()), xgw::known_input_keys());
    xgw::serve::ServeOptions o;
    o.store_dir = (tmp_ / "cas").string();
    o.store_budget_mb = kStoreBudgetMb;
    std::ostringstream os;
    Done d;
    const auto t0 = Clock::now();
    const xgw::serve::BatchReport rep = xgw::serve::run_batch(jobs, o, os);
    d.wall_s = since(t0);
    const auto w0 = Clock::now();
    const xgw::serve::BatchReport warm = xgw::serve::run_batch(jobs, o, os);
    const double warm_s = since(w0);
    d.ok = check_served(spec, rep, &d.values) && check_served(spec, warm, nullptr);

    const xgw::serve::CasStats& c = rep.cas;
    layers["serve.batch_s"] += d.wall_s;
    layers["serve.warm_batch_s"] += warm_s;
    layers["serve.builds"] += static_cast<double>(rep.total_builds());
    layers["serve.shared_nodes"] += static_cast<double>(rep.shared_nodes);
    layers["cas.hits"] += static_cast<double>(c.hits);
    layers["cas.misses"] += static_cast<double>(c.misses);
    layers["cas.puts"] += static_cast<double>(c.puts);
    layers["cas.evictions"] += static_cast<double>(c.evictions);
    layers["cas.bytes_written"] += static_cast<double>(c.bytes_written);
    layers["cas.bytes_read"] += static_cast<double>(c.bytes_read);
    layers["cas.failed_ops"] +=
        static_cast<double>(c.put_failures + c.corrupt + c.rewrites);
    return d;
  }

 private:
  bool check_served(const e2e::Spec& spec, const xgw::serve::BatchReport& rep,
                    Values* out) const {
    Values v;
    const double ev = xgw::kHartreeToEv;
    bool ok = rep.jobs.size() == 1 && rep.jobs[0].rc == 0;
    if (ok)
      for (const xgw::QpResult& q : rep.jobs[0].qp)
        v.insert(v.end(), {static_cast<double>(q.band), q.e_mf * ev,
                           q.sigma.sx.real() * ev, q.sigma.ch.real() * ev, q.z,
                           q.e_qp * ev});
    ok = ok && e2e::within(v, refs_.at(spec.key), e2e::kExactTol);
    if (!ok)
      std::cerr << "served " << spec.key << ": output differs from reference"
                << (rep.jobs.empty() ? "" : " (" + rep.jobs[0].error + ")")
                << "\n";
    if (out) *out = std::move(v);
    return ok;
  }

  const Workload& wl_;
  const Args& args_;
  const e2e::References& refs_;
  fs::path tmp_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-24s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so it would report the launching interpreter's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (status >> key)
    if (key == "VmHWM:" && status >> kb) break;
  return kb / 1024.0;
}

/// --trace 0: one set-up from process entry, then the closed loop for
/// `seconds`.
int untraced(Bench& b, const Workload& wl, const Args& a,
             Clock::time_point entry) {
  const double setup_s = b.setup(entry);

  const double cpu0 = e2e::process_cpu_s();
  std::vector<double> walls, peaks;
  long ok = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; since(t0) < a.seconds; ++i) {
    const Done d = b.run(wl.request(a.seed, i));
    walls.push_back(d.wall_s);
    peaks.push_back(static_cast<double>(d.peak_bytes));
    ok += d.ok ? 1 : 0;
  }
  const double elapsed = since(t0);
  const double cpu = e2e::process_cpu_s() - cpu0;
  const long n = static_cast<long>(walls.size());

  // Tail: the highest order statistic with at least 10 samples above it.
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  const long k = std::max(0L, n - 11);
  std::fprintf(stderr,
               "%s seed %llu: %ld requests in %.3f s; request_s_tail is "
               "p%.1f of %ld samples\n",
               wl.name.c_str(), static_cast<unsigned long long>(a.seed), n,
               elapsed, 100.0 * static_cast<double>(k + 1) / n, n);

  const double mb = 1024.0 * 1024.0;
  print_result(ok == n, n, n - ok,
               {{"request_s_p50", median(walls), "s"},
                {"request_s_tail", sorted[static_cast<std::size_t>(k)], "s"},
                {"jobs_per_s", ok / elapsed, "1/s"},
                {"cpu_s_per_job", cpu / static_cast<double>(n), "s"},
                {"setup_s", setup_s, "s"},
                {"peak_mem_mb", mean(peaks) / mb, "MB"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"ok_frac", static_cast<double>(ok) / n, "frac"}});
  return ok == n ? 0 : 1;
}

// Per-layer metrics in BENCHMARK.json order, with units. Sums over the
// traced requests are reported per request.
const std::vector<std::pair<std::string, std::string>>& layer_rows() {
  static const std::vector<std::pair<std::string, std::string>> rows{
      {"mf.self_s", "s"},           {"mf.cpu_s", "s"},
      {"mtxel.self_s", "s"},        {"mtxel.pairs", "count"},
      {"chi.self_s", "s"},          {"chi.cpu_s", "s"},
      {"chi.flops_model", "flop"},  {"chi.gflops", "GFLOP/s"},
      {"epsilon.self_s", "s"},      {"gpp.model_s", "s"},
      {"sigma.self_s", "s"},        {"sigma.cpu_s", "s"},
      {"sigma.flops_model", "flop"}, {"sigma.gflops", "GFLOP/s"},
      {"ff.screen_s", "s"},         {"ff.sigma_s", "s"},
      {"spill.bytes_written", "B"}, {"spill.bytes_read", "B"},
      {"spill.page_ins", "count"},  {"minimax.self_s", "s"},
      {"st.screen_s", "s"},         {"st.sigma_s", "s"},
      {"st.n_tau", "count"},        {"st.tau_batches", "count"},
      {"serve.batch_s", "s"},       {"serve.warm_batch_s", "s"},
      {"serve.builds", "count"},    {"serve.shared_nodes", "count"},
      {"cas.hits", "count"},        {"cas.misses", "count"},
      {"cas.hit_frac", "frac"},     {"cas.puts", "count"},
      {"cas.evictions", "count"},   {"cas.bytes_written", "B"},
      {"cas.bytes_read", "B"},      {"cas.failed_ops", "count"},
      {"mem.alloc_calls_per_job", "count"},
      {"sched.speedup_1t", "ratio"}, {"sched.stall_count", "count"},
      {"obs.trace_overhead", "ratio"}, {"other.self_s", "s"}};
  return rows;
}

/// --trace 1: the same requests traced (A), untraced through run_job (B),
/// at one thread (C) and, on gpp_defect, served through run_batch (S).
/// Each phase starts from a fresh set-up.
int traced(Bench& b, const Workload& wl, const Args& a) {
  const int n = std::max(4, static_cast<int>(a.seconds / wl.traced_request_s));
  const int n1 = std::max(2, n / 4);
  // The serve path takes GPP sigma specs; gpp_defect's recur with shared
  // mf/chi/eps^{-1} and overlapping Sigma bands, as served traffic does.
  const bool serve = wl.route == Route::kGpp;

  Layers L;
  std::vector<Done> A, B;
  std::vector<double> wa, wb, wc;
  b.setup(Clock::now());
  for (int i = 0; i < n; ++i) {
    A.push_back(b.traced(wl.request(a.seed, i), L));
    wa.push_back(A.back().wall_s);
  }
  b.setup(Clock::now());
  std::uint64_t allocs = 0;
  for (int i = 0; i < n; ++i) {
    B.push_back(b.run(wl.request(a.seed, i)));
    wb.push_back(B.back().wall_s);
    allocs += B.back().allocs;
  }
  b.setup(Clock::now());
  omp_set_num_threads(1);
  long ok_c = 0;
  for (int i = 0; i < n1; ++i) {
    const Done d = b.run(wl.request(a.seed, i));
    wc.push_back(d.wall_s);
    ok_c += d.ok ? 1 : 0;
  }
  omp_set_num_threads(kThreadBudget);
  long failed = n1 - ok_c;
  if (serve) {
    b.setup(Clock::now());
    for (int i = 0; i < n; ++i) {
      const Done d = b.served(wl.request(a.seed, i), L);
      if (d.values != A[i].values)
        std::fprintf(stderr, "request %d: served outcome differs from the "
                             "stage replay\n", i);
      failed += d.ok && d.values == A[i].values ? 0 : 1;
    }
  }

  // Self-checks: outputs match the references, the replay reproduces the
  // untraced request bitwise, and the layers under test were exercised.
  for (int i = 0; i < n; ++i) {
    const bool same = A[i].table == B[i].table;
    if (!same)
      std::fprintf(stderr, "request %d: traced replay differs from the "
                           "untraced request\n", i);
    failed += (A[i].ok ? 0 : 1) + (B[i].ok && same ? 0 : 1);
  }
  if (serve && !(L["cas.hits"] > 0 && L["cas.puts"] > 0 &&
                 L["cas.evictions"] > 0)) {
    std::fprintf(stderr, "%s: CAS store not in steady state (hits, puts and "
                         "evictions must all be non-zero)\n", wl.name.c_str());
    ++failed;
  }
  if (wl.route == Route::kFf && !(L["spill.page_ins"] > 0)) {
    std::fprintf(stderr, "ff_ooc: no spill page-ins\n");
    ++failed;
  }

  const double med_b = median(wb);
  const std::vector<double> wb1(wb.begin(), wb.begin() + n1);
  long stalls = 0;
  for (double w : wb) stalls += w > 3.0 * med_b ? 1 : 0;
  const double probes = L["cas.hits"] + L["cas.misses"];
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_rows()) {
    double v = L[name] / n;
    if (name == "chi.gflops")
      v = L["chi.self_s"] > 0 ? L["chi.flops_model"] / L["chi.self_s"] / 1e9 : 0;
    else if (name == "sigma.gflops")
      v = L["sigma.self_s"] > 0
              ? L["sigma.flops_model"] / L["sigma.self_s"] / 1e9
              : 0;
    else if (name == "cas.hit_frac")
      v = probes > 0 ? L["cas.hits"] / probes : 0;
    else if (name == "mem.alloc_calls_per_job")
      v = static_cast<double>(allocs) / n;
    else if (name == "sched.speedup_1t")
      v = median(wc) / median(wb1);
    else if (name == "sched.stall_count")
      v = static_cast<double>(stalls);
    else if (name == "obs.trace_overhead")
      v = median(wa) / med_b - 1.0;
    out.push_back({name, v, unit});
  }
  std::fprintf(stderr, "%s seed %llu: traced %d requests (1-thread: %d)\n",
               wl.name.c_str(), static_cast<unsigned long long>(a.seed), n,
               n1);
  if (wl.route == Route::kGpp)
    std::fprintf(stderr, "Sigma-side MTXEL per request: m_matrix_left re-run "
                         "%.4f s, program's sigma_mtxel timer %.4f s\n",
                 L["xcheck.sigma_mtxel_rerun_s"] / n,
                 L["xcheck.sigma_mtxel_timer_s"] / n);
  const long attempted = (serve ? 3L : 2L) * n + n1;
  print_result(failed == 0, attempted, std::min(failed, attempted), out);
  return failed == 0 ? 0 : 1;
}

/// Computes every catalog spec's reference from the stage replays (and
/// checks run_job prints the same table) and writes references.txt.
int write_references(const Args& a, const fs::path& tmp) {
  fs::create_directories(tmp);
  install_pinned_autotune(fs::path(a.bench_dir) / "autotune_pinned.txt", tmp);
  e2e::References refs;
  for (const Workload& wl : e2e::all_workloads())
    for (const e2e::Spec& s : wl.catalog) {
      const xgw::InputFile in = xgw::InputFile::parse(
          e2e::instantiate(s, tmp.string()), xgw::known_input_keys());
      Layers unused;
      e2e::Replay r = e2e::replay_job(wl.route, in, unused);
      std::ostringstream os;
      std::string table;
      Values printed;
      if (xgw::run_job(in, os) != 0 ||
          !e2e::extract_table(os.str(), &table, &printed) ||
          table != r.table)
        throw std::runtime_error("run_job table differs from the stage "
                                 "replay for " + s.key);
      std::fprintf(stderr, "reference %s (%zu values)\n", s.key.c_str(),
                   r.values.size());
      refs.set(s.key, std::move(r.values));
    }
  refs.save(a.write_refs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto entry = Clock::now();
  try {
    const Args a = parse_args(argc, argv);
    omp_set_num_threads(kThreadBudget);
    const std::string tag =
        (a.workload.empty() ? std::string("refs") : a.workload) + "-" +
        std::to_string(getpid());
    TempRoot root(fs::path(a.tmp_root) / tag);
    if (!a.write_refs.empty()) return write_references(a, root.path() / "w");

    const Workload& wl = e2e::find_workload(a.workload);
    e2e::References refs;
    refs.load((fs::path(a.bench_dir) / "references.txt").string());
    for (const e2e::Spec& s : wl.catalog) refs.at(s.key);
    Bench b(wl, a, refs, root.path() / "run");
    if (a.setup_only) {
      std::printf("{\"setup_s\": %.17g}\n", b.setup(entry));
      return 0;
    }
    return a.trace ? traced(b, wl, a) : untraced(b, wl, a, entry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xgw_e2ebench: %s\n", e.what());
    return 2;
  }
}
