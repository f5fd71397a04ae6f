// Named metrics registry: counters, gauges and log2-bucket histograms.
//
// Instruments register a metric once (by name, at namespace scope or via a
// function-local static) and then update it through a plain reference —
// updates are relaxed atomics, never a lock or a map lookup on the hot
// path. The registry owns the metric objects for the process lifetime, so
// references stay valid forever; snapshot_json() renders every registered
// metric sorted by name, which benches embed in their BENCH_*.json output.
//
// Naming scheme: dot-separated "<subsystem>.<quantity>", e.g.
// "flow.builds", "pool.max_queue_depth", "flow.solve_ns". PerfCounters
// is a facade over this registry (see util/perf_counters.hpp); new
// instrumentation should register metrics directly.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/atomic_max.hpp"

namespace ht::obs {

/// Point-in-time copy of one histogram, with quantile estimation. count,
/// sum and max are exact; quantile(q) assumes values spread uniformly
/// within their log2 bucket (lower bound of the bucket at the bottom edge,
/// upper bound at the top), so the estimate is exact at bucket boundaries
/// and never leaves the containing bucket. The top occupied bucket is
/// clamped to the exact recorded max.
struct HistogramSnapshot {
  static constexpr int kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kBuckets] = {};

  /// Value at cumulative fraction q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
};

/// Point-in-time copy of the whole registry, sorted by name (std::map).
/// The exporter (obs/export.hpp) renders this as Prometheus text or
/// versioned JSON.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value; supports set/add and monotone-max updates.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void update_max(std::int64_t value) { atomic_fetch_max(value_, value); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucket histogram over unsigned values: bucket b counts values with
/// bit_width b, i.e. bucket 0 is exactly {0} and bucket b >= 1 covers
/// [2^(b-1), 2^b - 1]. Also tracks count, sum and max exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of a uint64 is 0..64

  void record(std::uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    atomic_fetch_max(max_, value);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket b (0 for b == 0).
  static std::uint64_t bucket_upper_bound(int b) {
    if (b <= 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
  /// Copies the live buckets out. Concurrent record() calls may land
  /// between bucket reads, so count can lag the bucket total by the
  /// records in flight — each bucket value is itself consistent.
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Process-wide name -> metric table. Registration (counter()/gauge()/
/// histogram()) takes a lock; the returned reference is update-path
/// lock-free and valid for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every registered metric out, sorted by name.
  RegistrySnapshot snapshot() const;

  /// One-line JSON object {"version":1,"counters":{...},"gauges":{...},
  /// "histograms":{...}} with names sorted and escaped; histogram buckets
  /// render as [upper_bound, count] pairs for the non-empty buckets only
  /// plus p50/p90/p99 quantile estimates. Equals
  /// export::registry_json(snapshot()); byte-comparable between runs with
  /// identical metric values.
  std::string snapshot_json() const;

  /// Zeroes every registered metric (registration survives). Benches call
  /// this between measured sections via PerfCounters::reset().
  void reset_all();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ht::obs
