// Named metric instruments and the process-wide StatsRegistry.
//
// Instruments are interned by name: the first counter("x") call creates
// the counter, later calls return the same object at a stable address,
// so hot paths look a handle up once (at construction time) and then pay
// one relaxed atomic per bulk charge, on the charging thread's own cache
// line. The snapshot types below are plain data and exist in both
// SEPSP_OBS modes; only the recording machinery compiles away when
// observability is off.
#pragma once

#ifndef SEPSP_OBS_ENABLED
#define SEPSP_OBS_ENABLED 1
#endif

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/cacheline.hpp"

namespace sepsp::obs {

/// Point-in-time copy of every registered instrument, sorted by name.
struct StatsSnapshot {
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< meaningful only when count > 0
    std::uint64_t max = 0;
    /// bucket[i] counts samples with bit_width(sample) == i (bucket 0 is
    /// the sample 0); power-of-two buckets keep record() allocation-free.
    std::array<std::uint64_t, 65> buckets{};
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramData> histograms;

  /// Approximate q-quantile (q in [0, 1]) of a histogram,
  /// reconstructed from its power-of-two buckets: the rank-q sample is
  /// located in its bucket and linearly interpolated across the
  /// bucket's value range [2^(i-1), 2^i). Within a factor of two of the
  /// true quantile by construction; 0 when the histogram is empty.
  static double quantile(const HistogramData& h, double q);

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name, or 0 when absent.
  std::uint64_t counter_or_zero(std::string_view name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }
};

/// True when the library was compiled with observability support.
constexpr bool compiled_in() { return SEPSP_OBS_ENABLED != 0; }

#if SEPSP_OBS_ENABLED

/// Monotonically increasing event count, striped per thread
/// (util/cacheline.hpp): the kernel counters are charged by every pool
/// participant on every node step, and one shared line would make each
/// charge a cross-core round trip. value() sums the stripes.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.add(n); }
  std::uint64_t value() const { return v_.load(); }
  void reset() { v_.reset(); }

 private:
  StripedCounter v_;
};

/// Last-write-wins instantaneous value (pool width, queue depth, ...).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Lock-free power-of-two histogram: record() is a handful of relaxed
/// atomics, suitable for per-phase (not per-edge) call sites.
class Histogram {
 public:
  void record(std::uint64_t sample) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
    update_min(sample);
    update_max(sample);
  }
  void snapshot_into(StatsSnapshot::HistogramData* out) const {
    out->count = count_.load(std::memory_order_relaxed);
    out->sum = sum_.load(std::memory_order_relaxed);
    out->min = min_.load(std::memory_order_relaxed);
    out->max = max_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      out->buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  void update_min(std::uint64_t sample) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (sample < cur &&
           !min_.compare_exchange_weak(cur, sample,
                                       std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t sample) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (sample > cur &&
           !max_.compare_exchange_weak(cur, sample,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, 65> buckets_{};
};

/// Process-wide instrument registry. Lookup takes a mutex (do it once,
/// outside hot loops); the returned references stay valid for the
/// process lifetime.
class StatsRegistry {
 public:
  static StatsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  StatsSnapshot snapshot() const;

  /// Zeroes every instrument's value; names and addresses persist.
  /// Intended for tests and bench repetitions.
  void reset_values();

 private:
  StatsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Counter& counter(std::string_view name) {
  return StatsRegistry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return StatsRegistry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return StatsRegistry::instance().histogram(name);
}

#else  // !SEPSP_OBS_ENABLED — header-only no-op mirrors of the API above.

class Counter {
 public:
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(std::int64_t) {}
  void add(std::int64_t) {}
  std::int64_t value() const { return 0; }
  void reset() {}
};

class Histogram {
 public:
  void record(std::uint64_t) {}
  void snapshot_into(StatsSnapshot::HistogramData*) const {}
  void reset() {}
};

class StatsRegistry {
 public:
  static StatsRegistry& instance() {
    static StatsRegistry registry;
    return registry;
  }
  Counter& counter(std::string_view) { return dummy_counter_; }
  Gauge& gauge(std::string_view) { return dummy_gauge_; }
  Histogram& histogram(std::string_view) { return dummy_histogram_; }
  StatsSnapshot snapshot() const { return {}; }
  void reset_values() {}

 private:
  Counter dummy_counter_;
  Gauge dummy_gauge_;
  Histogram dummy_histogram_;
};

inline Counter& counter(std::string_view name) {
  return StatsRegistry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return StatsRegistry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return StatsRegistry::instance().histogram(name);
}

#endif  // SEPSP_OBS_ENABLED

}  // namespace sepsp::obs
