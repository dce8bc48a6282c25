#pragma once

// Metrics registry: named counters, gauges, and log2-bucketed histograms
// with a lock-free hot path.
//
// Registration (name lookup) takes a mutex and is meant to happen once per
// call site — hold the returned reference (e.g. in a function-local static)
// and increment through it. Increments are single relaxed atomic RMWs, so
// they are safe from any thread, including inside OpenMP regions, and cost
// a few nanoseconds. Snapshots are taken with relaxed loads: values from
// concurrently-running increments may or may not be included, exactly the
// semantics of scraping a live process.
//
// Kernel FLOP/byte totals do not flow through this registry: they are
// attributed to obs::Span records (see span.h), so every kernel invocation
// carries its own achieved-rate numerator instead of one process-wide sum.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace xgw::obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over positive integer observations with power-of-two buckets:
/// bucket b counts observations in [2^b, 2^(b+1)). Good enough to see the
/// shape of e.g. GEMM inner dimensions or span durations in nanoseconds
/// without any configuration.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::uint64_t v) {
    int b = 0;
    while ((v >> (b + 1)) != 0 && b < kBuckets - 1) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. References
  /// stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Counter value by name (0 when absent) — test/report convenience.
  std::uint64_t counter_value(const std::string& name) const;

  /// Snapshot of every instrument as a JSON document:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {"count": N, "sum": S,
  ///                          "buckets": [[upper_bound, count], ...]}}}
  std::string snapshot_json() const;
  bool write_json(const std::string& path) const;

  /// Drops every instrument. Single-threaded use only: a clear() racing a
  /// concurrent increment can lose that count.
  void clear();

  /// Process-wide registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// Publishes the mem::MemTracker state as gauges on the global registry:
/// mem/current_bytes, mem/peak_bytes, mem/alloc_calls, and per-tag
/// mem/<tag>/{current,peak}_bytes for tags that saw traffic. Call before
/// snapshotting metrics (the driver does, ahead of every metrics write).
void record_mem_gauges();

}  // namespace xgw::obs
