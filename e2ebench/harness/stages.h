#pragma once

// Stage-by-stage replays of single jobs through the program's public stage
// functions, with a harness span around each call. They reproduce what
// xgw::run_job computes for the same input, and attribute the request's
// wall time to layers from outside the program.

#include <chrono>
#include <map>
#include <string>

#include "cli/input.h"
#include "refs.h"
#include "workloads.h"

namespace e2e {

/// Wall and process CPU (user + sys, all threads) of one span.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

double process_cpu_s();

template <class F>
Cost measure(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = process_cpu_s();
  f();
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          process_cpu_s() - c0};
}

/// Per-layer sums over the traced requests, keyed by per_layer metric name.
using Layers = std::map<std::string, double>;

struct Replay {
  Values values;       ///< full precision, in run_job's table order
  std::string table;   ///< the QP table formatted exactly as run_job prints
  double wall_s = 0.0; ///< request wall time: stage spans plus the glue
};

/// Replays one gpp/ff/space-time job and adds its layer costs to `layers`.
/// Inner layers (MTXEL inside chi and Sigma, the minimax fit inside the
/// space-time screening) are re-run through their own public functions on
/// the same arguments after the request (chi-side MTXEL as one cold pass
/// plus warm passes, Sigma-side GwCalculation::m_matrix_left on the
/// request's own calculation); their time is moved from the enclosing span
/// to their own row, so the rows still add up to the request's wall time.
Replay replay_job(Route route, const xgw::InputFile& in, Layers& layers);

}  // namespace e2e
