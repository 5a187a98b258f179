// Shared pieces of perfbench: clocks, order statistics, the
// Zipf sampler, the in-memory span recorder, the run-environment record
// and the result every workload hands back to main().
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "util/random.hpp"

namespace perfbench {

using sepsp::Rng;
using sepsp::Vertex;

// --- time -------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// --- order statistics --------------------------------------------------

/// Nearest-rank q-quantile (q in (0, 1]) of an unsorted sample; 0 when
/// empty. For the tail, q = 1 - 10/N leaves exactly ten samples above.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median with the even-count midpoint (used across rounds and runs).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Relative error of `got` against an oracle value; exact infinities
/// compare equal, anything else against an infinity is an error of 1.
inline double rel_error(double got, double want) {
  if (std::isinf(want) || std::isinf(got)) return got == want ? 0.0 : 1.0;
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

// --- Zipf sampler --------------------------------------------------------

/// Zipf(theta) over n items: rank r (0-based) has weight 1/(r+1)^theta.
/// Ranks map to items through a seeded permutation, so the hot items
/// are spread over the graph instead of clustering at low vertex ids.
class Zipf {
 public:
  Zipf(std::size_t n, double theta, Rng& rng) : cdf_(n), item_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(item_.begin(), item_.end(), Vertex{0});
    for (std::size_t i = n; i > 1; --i) {
      std::swap(item_[i - 1], item_[rng.next_below(i)]);
    }
  }

  Vertex operator()(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto r = static_cast<std::size_t>(it - cdf_.begin());
    return item_[std::min(r, item_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<Vertex> item_;
};

// --- spans ---------------------------------------------------------------

/// One recorded interval. `parent` is 1 + the index of the enclosing
/// span in the same thread's buffer (0 = root); `op` is the workload's
/// op id the span belongs to.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  std::uint64_t op = 0;

  double ms() const { return ms_between(start_ns, end_ns); }
};

/// In-memory span recorder. Each thread appends to its own buffer
/// without locking; buffers are merged only when read, after the
/// recording threads are joined. Recording is off unless enabled, and a
/// disabled SpanScope costs one relaxed load.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::size_t open(const char* name, std::uint64_t op) {
    Buffer& b = buffer();
    const std::uint32_t parent =
        b.stack.empty() ? 0 : static_cast<std::uint32_t>(b.stack.back() + 1);
    b.spans.push_back({name, now_ns(), 0, parent, b.thread, op});
    b.stack.push_back(b.spans.size() - 1);
    return b.spans.size() - 1;
  }

  /// Records an interval timed outside a scope, such as a request from
  /// submit until its reply was seen.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t op) {
    Buffer& b = buffer();
    const std::uint32_t parent =
        b.stack.empty() ? 0 : static_cast<std::uint32_t>(b.stack.back() + 1);
    b.spans.push_back({name, start_ns, end_ns, parent, b.thread, op});
  }

  void close(std::size_t index) {
    Buffer& b = buffer();
    b.spans[index].end_ns = now_ns();
    b.stack.pop_back();
  }

  /// Every closed span, all threads.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) {
        if (s.end_ns != 0) all.push_back(s);
      }
    }
    return all;
  }

  /// Median duration in milliseconds of the spans called `name`.
  double median_ms(const std::string& name) const {
    return median(durations_ms(name));
  }

  /// Durations in milliseconds of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans()) {
      if (name == s.name) out.push_back(s.ms());
    }
    return out;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::size_t> stack;
    std::uint32_t thread = 0;
  };

  Buffer& buffer() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
      mine->spans.reserve(1 << 16);
    }
    return *mine;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call into a layer; records only while tracing.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t op) {
    if (Tracer::get().enabled()) index_ = Tracer::get().open(name, op);
  }
  ~SpanScope() {
    if (index_ != kNone) Tracer::get().close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t index_ = kNone;
};

/// Tracer::record() when tracing is on.
inline void trace_interval(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns, std::uint64_t op) {
  if (Tracer::get().enabled()) Tracer::get().record(name, start_ns, end_ns, op);
}

// --- results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One key of the run-environment record; numbers are kept as text.
struct EnvEntry {
  std::string key;
  std::string value;
  bool quoted = false;
};

/// Per-round end-to-end figures; a run reports their medians.
struct RoundFigures {
  double throughput_per_s = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_tail = 0.0;
};

/// Splits rounds by whether they ran traced (trace runs alternate).
struct RoundLog {
  std::vector<RoundFigures> plain;
  std::vector<RoundFigures> traced;

  void add(const RoundFigures& f, bool was_traced) {
    (was_traced ? traced : plain).push_back(f);
  }
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Per-layer metrics by name; their units are fixed by main.cpp.
  std::vector<std::pair<std::string, double>> per_layer;
  std::vector<EnvEntry> env;

  void fail(std::uint64_t count = 1) {
    failed += count;
    if (count > 0) correct = false;
  }
  void env_num(const std::string& key, double value) {
    env.push_back({key, std::to_string(value), false});
  }
  void env_int(const std::string& key, std::uint64_t value) {
    env.push_back({key, std::to_string(value), false});
  }
  void layer(const std::string& name, double value) {
    per_layer.emplace_back(name, value);
  }
};

/// What main() hands every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// Runs a fixed number of rounds, each a fixed, pre-generated set of
/// ops: `--seconds` divided by the round's nominal duration on the
/// reference machine (at least three), so the op count depends on the
/// arguments alone and never on how fast the rounds run. A trace run
/// traces up to kMaxTracedRounds rounds spread evenly between untraced
/// ones, so it measures its own tracing overhead with bounded span
/// memory; `round(i, traced)` does one round.
template <class RoundFn>
RoundLog run_rounds(const RunConfig& cfg, double nominal_round_s,
                    RoundFn&& round) {
  constexpr std::size_t kMaxTracedRounds = 8;
  RoundLog log;
  const auto rounds = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(cfg.seconds / nominal_round_s)));
  const std::size_t stride =
      std::max<std::size_t>(2, rounds / kMaxTracedRounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool traced = cfg.trace && i % stride == 1 &&
                        log.traced.size() < kMaxTracedRounds;
    Tracer::get().set_enabled(traced);
    log.add(round(i, traced), traced);
    Tracer::get().set_enabled(false);
  }
  return log;
}

/// Median setup time over `reps` complete set-ups; `setup()` builds one
/// instance anew and returns its seconds.
template <class SetupFn>
double median_setup_s(std::size_t reps, SetupFn&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < reps; ++i) times.push_back(setup());
  return median(times);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Per-core L2 size in bytes from sysfs (0 when unavailable).
std::uint64_t l2_bytes_per_core();

/// Adds the end-to-end metrics and, for trace runs, the tracing
/// overhead ratios, from a run's round log.
void report_rounds(Result& result, const RoundLog& log, double setup_s);

}  // namespace perfbench
