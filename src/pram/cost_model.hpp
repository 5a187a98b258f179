// EREW-PRAM-style work/depth accounting.
//
// The paper states its bounds as (time, work) pairs on an EREW PRAM.
// Real machines are not PRAMs, so the reproduction *executes* on a
// fork-join thread pool (thread_pool.hpp) and *accounts* cost in this
// model: `work` counts elementary operations (edge scans, min-plus
// updates, matrix-cell updates) and `depth` counts the longest chain of
// dependent parallel phases. Table-1 benches compare the growth of these
// counters against the paper's claimed bounds.
//
// The counters are two process-wide StripedCounters
// (util/cacheline.hpp): each charge is one relaxed fetch_add on the
// charging thread's own cache line, kept out of innermost loops by
// charging in bulk (e.g. once per node step or query run), so pool
// participants charging concurrently never write a shared line.
// `snapshot()` sums the stripes of both.
#pragma once

#include <cstdint>
#include <string>

#include "util/cacheline.hpp"

namespace sepsp::pram {

/// Aggregated cost counters at a point in time.
struct Cost {
  std::uint64_t work = 0;   ///< elementary operations charged
  std::uint64_t depth = 0;  ///< parallel phases (longest dependence chain)

  Cost operator-(const Cost& rhs) const {
    return Cost{work - rhs.work, depth - rhs.depth};
  }
  Cost& operator+=(const Cost& rhs) {
    work += rhs.work;
    depth += rhs.depth;
    return *this;
  }
  bool operator==(const Cost&) const = default;
};

/// Process-wide cost meter. All library algorithms charge into this;
/// benches snapshot around the region of interest.
class CostMeter {
 public:
  /// Charges `units` of work (bulk charge; call once per inner loop).
  static void charge_work(std::uint64_t units) { work_.add(units); }

  /// Charges one unit of depth: one synchronous parallel phase.
  static void charge_depth(std::uint64_t phases = 1) { depth_.add(phases); }

  static Cost snapshot() { return Cost{work_.load(), depth_.load()}; }

  /// Resets both counters to zero (single-threaded contexts only).
  static void reset() {
    work_.reset();
    depth_.reset();
  }

 private:
  static StripedCounter work_;
  static StripedCounter depth_;
};

/// RAII scope that measures the cost of a region.
class CostScope {
 public:
  CostScope() : start_(CostMeter::snapshot()) {}
  Cost cost() const { return CostMeter::snapshot() - start_; }

 private:
  Cost start_;
};

/// Human-readable rendering, e.g. "work=1,234,567 depth=42".
std::string to_string(const Cost& c);

}  // namespace sepsp::pram
