#pragma once

// Structured trace recorder: the library-wide timeline behind the paper's
// per-kernel performance breakdowns (MTXEL / CHI_SUM / GPP ... of Tables
// 3-5 and Figs. 3-7).
//
// Two kinds of time coexist in one trace:
//
//  * REAL time — RAII spans (obs::Span) opened on live threads. Each
//    registered thread owns an append-only buffer (one uncontended mutex
//    per append), so the enabled hot path is O(100 ns); when the recorder
//    is disabled a span is a single relaxed atomic load and branch.
//
//  * VIRTUAL time — SimCluster emits one track per simulated rank with
//    explicit timestamps in modeled seconds: attempts, crashes, NaN-poison
//    validation failures, stragglers, redistributions. The fault-recovery
//    behaviour of runtime/simcluster becomes visually inspectable next to
//    the real kernel spans that produced the per-item compute times.
//
// Export formats:
//  * Chrome trace_event JSON ("X" complete + "i" instant + "M" metadata
//    events) — load in Perfetto (https://ui.perfetto.dev) or
//    chrome://tracing.
//  * An aggregated per-(category, name) text breakdown with FLOP counts
//    and achieved GFLOP/s — the successor of TimerRegistry::report().
//
// Detail levels gate span cost at the call site:
//   1 = stages (job phases, GW pipeline stages)
//   2 = kernels (MTXEL, CHI_SUM, GPP, eps inversion, ...)   [default]
//   3 = fine (per-GEMM dispatch spans: variant, shape, panel reuse)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xgw::obs {

namespace detail_level {
inline constexpr int kStage = 1;
inline constexpr int kKernel = 2;
inline constexpr int kFine = 3;
}  // namespace detail_level

// Global detail level; 0 = recorder off. Read on every span construction,
// so it lives outside the recorder object and is inlined into callers.
extern std::atomic<int> g_trace_detail;

/// Current detail level (0 when tracing is off). Relaxed: a span racing an
/// enable/disable may be dropped or kept, never torn.
inline int trace_detail() noexcept {
  return g_trace_detail.load(std::memory_order_relaxed);
}

inline bool trace_enabled() noexcept { return trace_detail() > 0; }

/// Counters attached to a completed span.
struct TraceCounters {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;
  /// Tracked-heap high-water mark observed while the span was open (bytes,
  /// from mem::MemTracker). Exact when the span raised the process peak;
  /// otherwise a lower bound. 0 = not sampled.
  std::uint64_t peak_bytes = 0;
};

/// One trace_event. `cat` must point at a string literal (never freed);
/// `args` is a pre-rendered fragment of JSON object members ("" or
/// `"k":v,"k2":v2`) appended into the event's args object.
struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';  ///< 'X' complete, 'i' instant
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  /// Recorder-assigned sequence number, the final sort tie-break in
  /// snapshot(). Each track has one writer at a time (a thread owns its
  /// real-time buffer; a virtual rank track is written by whichever task
  /// simulates that rank, and those writes form a happens-before chain), so
  /// the per-track subsequence of seq values is increasing in program order
  /// no matter how tracks from concurrent scheduler workers interleave in
  /// the shared buffer. Exports are therefore deterministic at any worker
  /// count.
  std::uint64_t seq = 0;
  TraceCounters counters;
  std::string args;
};

class TraceRecorder {
 public:
  /// pid of the real-time (live thread) track group.
  static constexpr std::uint32_t kRealPid = 1;

  /// Resets the epoch and all buffered events, then opens recording at the
  /// given detail level. Not thread-safe against in-flight spans — call it
  /// from quiescent code (CLI startup, test SetUp).
  void enable(int detail = detail_level::kKernel);
  /// Stops recording; buffered events stay available for export.
  void disable();
  bool enabled() const { return trace_enabled(); }

  /// Drops all events and virtual tracks (keeps thread registrations).
  void clear();

  /// Microseconds since the recorder epoch.
  double now_us() const;

  /// Records a completed real-time span on the calling thread's track.
  void record_complete(const char* name, const char* cat, double ts_us,
                       double dur_us, const TraceCounters& counters,
                       std::string args);
  /// Records an instant event on the calling thread's track ("checkpoint
  /// written", "fault injected", ...).
  void record_instant(const char* name, const char* cat, std::string args);

  /// FLOPs attributed while no span was open (e.g. from worker threads of
  /// an OpenMP team whose master holds the span). Kept so that the sum of
  /// span FLOPs + orphans always equals every FLOP the kernels attributed.
  void add_orphan_flops(std::uint64_t n) {
    orphan_flops_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t orphan_flops() const {
    return orphan_flops_.load(std::memory_order_relaxed);
  }

  // --- virtual-time tracks (SimCluster) ---------------------------------

  /// Allocates a new virtual process (one per simulated run) shown as its
  /// own track group. Thread-safe.
  std::uint32_t new_virtual_process(const std::string& name);
  /// Names one track (tid) inside a virtual process, e.g. "rank 3".
  void name_virtual_track(std::uint32_t pid, std::uint32_t tid,
                          const std::string& name);
  /// Complete event at explicit virtual time (seconds).
  void virtual_complete(std::uint32_t pid, std::uint32_t tid,
                        std::string name, const char* cat, double ts_s,
                        double dur_s, std::string args = "");
  /// Instant event at explicit virtual time (seconds).
  void virtual_instant(std::uint32_t pid, std::uint32_t tid, std::string name,
                       const char* cat, double ts_s, std::string args = "");

  // --- export -----------------------------------------------------------

  /// All buffered events, sorted by (pid, tid, ts, -dur, seq) so each track
  /// is monotonic, nested spans appear parent-first, and same-timestamp
  /// events keep their per-track program order regardless of how concurrent
  /// writers interleaved. The result is deterministic at any worker count.
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}).
  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

  /// Per-(category/name) aggregate over complete events.
  struct Aggregate {
    double seconds = 0.0;
    long calls = 0;
    std::uint64_t flops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t items = 0;
    std::uint64_t peak_bytes = 0;  ///< max over calls, not a sum
  };
  std::map<std::string, Aggregate> aggregate() const;

  /// Formatted aggregate breakdown (region, seconds, calls, GFLOP, GF/s) —
  /// subsumes TimerRegistry::report().
  std::string breakdown() const;

  /// Sum of FLOPs over every span plus orphan attributions: every FLOP the
  /// kernels attributed while the recorder was on, exactly once (tested).
  std::uint64_t total_flops() const;

  /// Process-wide recorder.
  static TraceRecorder& global();

 private:
  struct ThreadBuf {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuf& local_buf();

  mutable std::mutex mu_;  // registry of buffers + virtual state
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
  std::uint32_t next_tid_ = 1;

  std::vector<TraceEvent> virtual_events_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
      track_names_;
  std::uint32_t next_vpid_ = 100;
  std::uint64_t next_vseq_ = 0;

  std::atomic<std::uint64_t> orphan_flops_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Shorthand for TraceRecorder::global().
inline TraceRecorder& recorder() { return TraceRecorder::global(); }

}  // namespace xgw::obs
