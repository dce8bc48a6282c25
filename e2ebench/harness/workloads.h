#pragma once

// Workload catalogs and the seeded request stream.
//
// Every workload draws its requests from a small, fixed catalog of distinct
// job specs, so each spec has a committed reference (references.txt) and
// the program only ever sees generated .inp text. Request i of the stream
// for a seed is a pure function of (seed, i): the traced run replays
// exactly the requests the untraced run issued.

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Route { kGpp, kFf, kSpaceTime };

/// One distinct job spec. `text` is the .inp the program receives; the
/// token @TMP@ stands for the run's temp dir (spill files).
struct Spec {
  std::string key;       ///< reference key, e.g. "gpp_defect/b28/e0.015"
  std::string text;
};

struct Workload {
  std::string name;
  Route route = Route::kGpp;
  std::vector<Spec> catalog;
  int warmup_requests = 1;    ///< untimed requests per set-up
  double traced_request_s = 1.0;  ///< nominal traced-run cost, sizes its count

  /// Catalog index of request `i` of the stream for `seed`.
  int request(std::uint64_t seed, std::uint64_t i) const;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& all_workloads();

/// The named workload; throws std::runtime_error for an unknown name.
const Workload& find_workload(const std::string& name);

/// `spec.text` with @TMP@ replaced by `tmp_dir`.
std::string instantiate(const Spec& spec, const std::string& tmp_dir);

}  // namespace e2e
