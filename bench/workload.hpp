// Production-shaped workload generation for the serving benches:
// Zipf-skewed popularity and Poisson open-loop arrivals.
//
// Closed-loop load (bench_x_service's run_load) self-adjusts offered
// load to service capacity — good for measuring *capacity*, useless for
// measuring *latency at a given rate*: a slow reply just slows the
// clients down, and the latency distribution silently loses exactly the
// samples that hurt (coordinated omission). Production traffic does
// neither thing: request arrivals are an external process that does not
// care how the last request fared, and source popularity is skewed, not
// uniform. This header supplies both halves:
//
//  * ZipfGenerator — ranks drawn with P(rank k) proportional to
//    1/(k+1)^theta, via the Gray et al. zeta-normalized closed form
//    (the YCSB/zipfc construction): O(n) zeta precompute once, O(1) per
//    sample. theta ~0.99 is the customary "production skew" where the
//    hottest handful of keys absorb most of the traffic.
//
//  * ZipfVertexPool — maps ranks onto a shuffled vertex permutation so
//    popularity is uncorrelated with vertex numbering.
//
//  * run_open_loop — Poisson arrivals at a fixed offered rate against
//    anything with submit(SingleSource): each injector precomputes its
//    next *scheduled* arrival time (exponential inter-arrival gaps,
//    advanced independently of service behaviour) and measures latency
//    as completion minus scheduled arrival. When the service falls
//    behind, arrivals keep their timestamps and the backlog shows up in
//    the tail — the coordinated-omission-corrected measurement (wrk2's
//    "intended arrival time" technique).
//
// The SLO search in bench_x_service ladders run_open_loop over rates to
// find the highest offered qps whose corrected p99 stays under budget.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/digraph.hpp"
#include "service/reply.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace sepsp::bench {

/// Zipf-distributed ranks in [0, n): P(k) ~ 1/(k+1)^theta. Gray et al.
/// ("Quickly generating billion-record synthetic databases", SIGMOD
/// '94) closed form — constant work per sample after an O(n) zeta
/// precompute.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double theta, std::uint64_t seed)
      : n_(n), theta_(theta), rng_(seed) {
    SEPSP_CHECK_MSG(n > 0, "ZipfGenerator needs a non-empty domain");
    SEPSP_CHECK_MSG(theta > 0.0 && theta < 1.0,
                    "ZipfGenerator: theta must be in (0, 1)");
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  /// Next rank; 0 is the most popular.
  std::size_t next() {
    const double u = rng_.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto k = static_cast<std::size_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(k, n_ - 1);
  }

  std::size_t domain() const { return n_; }

 private:
  static double zeta(std::size_t n, double theta) {
    double sum = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  std::size_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  Rng rng_;
};

/// Zipf popularity over a vertex universe: rank r maps through a
/// shuffled permutation so popularity is independent of vertex ids.
class ZipfVertexPool {
 public:
  /// Popularity over `universe` vertices of an n-vertex graph with
  /// skew `theta`.
  ZipfVertexPool(std::size_t n, std::size_t universe, double theta,
                 std::uint64_t seed)
      : zipf_(universe, theta, splitmix64(seed)), by_rank_(universe) {
    SEPSP_CHECK_MSG(universe <= n,
                    "ZipfVertexPool: universe larger than the graph");
    std::vector<Vertex> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<Vertex>(v);
    Rng rng(splitmix64(seed ^ 0x9e3779b97f4a7c15ULL));
    shuffle(all, rng);
    std::copy(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(universe),
              by_rank_.begin());
  }

  Vertex next() { return by_rank_[zipf_.next()]; }

  const std::vector<Vertex>& by_rank() const { return by_rank_; }

 private:
  ZipfGenerator zipf_;
  std::vector<Vertex> by_rank_;  ///< by_rank_[r] = r-th most popular vertex
};

/// One open-loop run: offered vs achieved rate, and the
/// coordinated-omission-corrected latency sample (completion minus
/// *scheduled* arrival, so backlog shows up in the tail instead of
/// silently thinning the sample).
struct OpenLoopResult {
  double offered_qps = 0;
  double seconds = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;       ///< shed or stopped replies
  std::uint64_t cache_hits = 0;
  std::vector<std::uint64_t> latencies_ns;  ///< of ok replies, unsorted

  double achieved_qps() const {
    return seconds == 0 ? 0 : static_cast<double>(ok) / seconds;
  }
  double hit_rate() const {
    return ok == 0 ? 0
                   : static_cast<double>(cache_hits) / static_cast<double>(ok);
  }
  /// q-quantile of the corrected latencies, in microseconds.
  double latency_us(double q) {
    if (latencies_ns.empty()) return 0;
    std::sort(latencies_ns.begin(), latencies_ns.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ns.size() - 1));
    return static_cast<double>(latencies_ns[idx]) / 1e3;
  }
};

/// Drives `injectors` Poisson streams (rate_qps split evenly) of
/// Zipf-distributed single-source requests against `service` for
/// `duration`. Service is anything with submit(SingleSource) ->
/// future<Reply> (a QueryService). Each injector owns
/// an independent popularity stream over the same rank->vertex map, so
/// the aggregate keeps the configured skew.
template <typename Service>
OpenLoopResult run_open_loop(Service& service, double rate_qps,
                             std::size_t injectors,
                             const ZipfVertexPool& pool, double theta,
                             std::uint64_t seed,
                             std::chrono::milliseconds duration) {
  using Clock = std::chrono::steady_clock;
  std::atomic<std::uint64_t> ok{0}, failed{0}, hits{0};
  std::vector<std::vector<std::uint64_t>> lat(injectors);
  std::vector<std::thread> fleet;
  fleet.reserve(injectors);
  const double per_injector_rate = rate_qps / static_cast<double>(injectors);
  const auto start = Clock::now();
  const auto deadline = start + duration;
  for (std::size_t c = 0; c < injectors; ++c) {
    fleet.emplace_back([&, c] {
      Rng rng(splitmix64(seed + 7919 * c));
      ZipfGenerator zipf(pool.by_rank().size(), theta,
                         splitmix64(seed ^ (c + 1)));
      const auto& by_rank = pool.by_rank();
      // Scheduled arrival times advance by exponential gaps regardless
      // of how long each request takes — the open-loop invariant. The
      // wall-clock break bounds the run when offered rate exceeds
      // capacity (the backlog would otherwise extend it by its full
      // depth): arrivals past the wall deadline are dropped, which
      // under-reports a tail the in-window lateness already exposes.
      auto scheduled = start;
      while (true) {
        const double gap_s =
            -std::log(1.0 - rng.next_double()) / per_injector_rate;
        scheduled += std::chrono::nanoseconds(
            static_cast<std::uint64_t>(gap_s * 1e9));
        if (scheduled >= deadline || Clock::now() >= deadline) break;
        std::this_thread::sleep_until(scheduled);
        const service::Reply r =
            service.submit(service::SingleSource{by_rank[zipf.next()]}).get();
        const auto done = Clock::now();
        if (!r.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok.fetch_add(1, std::memory_order_relaxed);
        if (r.cache_hit) hits.fetch_add(1, std::memory_order_relaxed);
        lat[c].push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(done -
                                                                 scheduled)
                .count()));
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  OpenLoopResult result;
  result.offered_qps = rate_qps;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.ok = ok.load();
  result.failed = failed.load();
  result.cache_hits = hits.load();
  for (const auto& v : lat) {
    result.latencies_ns.insert(result.latencies_ns.end(), v.begin(), v.end());
  }
  return result;
}

}  // namespace sepsp::bench
