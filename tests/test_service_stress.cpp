// Concurrency soak for the query-serving runtime, designed to run
// under ThreadSanitizer (see .github/workflows/ci.yml): concurrent
// submitters race epoch swaps, a tiny cache churns, and the service is
// stopped under load. Correctness bar: zero lost responses (every
// future resolves) and zero stale-epoch responses (every kOk reply's
// distances equal the Dijkstra oracle of exactly the epoch it names).
//
// Weights are integer-valued doubles throughout, so path sums are
// exact regardless of association and oracle comparisons can demand
// bitwise equality — a reply computed against a half-swapped weighting
// cannot sneak past as "close enough".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"

namespace sepsp {
namespace {

using service::EdgeUpdate;
using service::QueryService;
using service::Reply;
using service::ReplyStatus;
using service::RequestKind;
using service::ServiceOptions;
using service::SingleSource;
using service::StDistance;
using service::StPath;

struct Fixture {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Fixture make_fixture(std::size_t side, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{make_grid({side, side}, WeightModel::uniform(1, 9), rng), {}};
  // Floor the generated weights to integers (see file comment): exact
  // path sums make the Dijkstra-vs-kernel comparison bitwise.
  GraphBuilder b(f.gg.graph.num_vertices());
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    b.add_edge(e.from, e.to, std::floor(e.weight));
  }
  f.gg.graph = std::move(b).build(/*dedup_min=*/false);
  f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                make_grid_finder({side, side}));
  return f;
}

/// Per-epoch ground truth for a fixed source pool. The updater thread
/// registers each epoch's oracle BEFORE the service starts serving that
/// epoch, so a reader holding a kOk reply can always resolve its epoch.
class EpochOracle {
 public:
  EpochOracle(const Digraph& g, std::vector<Vertex> pool)
      : g_(&g), pool_(std::move(pool)) {
    weights_.reserve(g.edge_list().size());
    for (const EdgeTriple& e : g.edge_list()) weights_.push_back(e.weight);
    publish(0);
  }

  const std::vector<Vertex>& pool() const { return pool_; }

  /// Applies `u` to the shadow weights and publishes the oracle for
  /// `epoch`. Call before QueryService::apply_updates.
  void advance(const EdgeUpdate& u, std::uint64_t epoch) {
    const auto edges = g_->edge_list();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].from == u.from && edges[i].to == u.to) {
        weights_[i] = u.weight;
      }
    }
    publish(epoch);
  }

  /// Batch variant: applies every update, then publishes one oracle for
  /// `epoch` — mirroring the all-or-nothing epoch semantics of
  /// QueryService::apply_updates on a multi-edge batch.
  void advance(const std::vector<EdgeUpdate>& batch, std::uint64_t epoch) {
    const auto edges = g_->edge_list();
    for (const EdgeUpdate& u : batch) {
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].from == u.from && edges[i].to == u.to) {
          weights_[i] = u.weight;
        }
      }
    }
    publish(epoch);
  }

  /// Exact expected distances for pool[i] at `epoch`; fails the test if
  /// the epoch was never published (a stale- or future-epoch reply).
  const std::vector<double>* expected(std::uint64_t epoch,
                                      std::size_t pool_index) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_epoch_.find(epoch);
    if (it == by_epoch_.end()) return nullptr;
    return &it->second[pool_index];
  }

 private:
  void publish(std::uint64_t epoch) {
    GraphBuilder b(g_->num_vertices());
    const auto edges = g_->edge_list();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      b.add_edge(edges[i].from, edges[i].to, weights_[i]);
    }
    const Digraph shadow = std::move(b).build(/*dedup_min=*/false);
    std::vector<std::vector<double>> dists;
    dists.reserve(pool_.size());
    for (const Vertex s : pool_) dists.push_back(dijkstra(shadow, s).dist);
    std::lock_guard<std::mutex> lock(mutex_);
    by_epoch_[epoch] = std::move(dists);
    weights_by_epoch_[epoch] = weights_;
  }

 public:
  /// Sum of `epoch`'s weights along `path` (min over parallel arcs).
  /// Infinity if the epoch was never published or some consecutive pair
  /// is not an arc — either way the caller's distance comparison fails.
  double path_weight(std::uint64_t epoch,
                     const std::vector<Vertex>& path) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> w;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = weights_by_epoch_.find(epoch);
      if (it == weights_by_epoch_.end()) return kInf;
      w = it->second;
    }
    const auto edges = g_->edge_list();
    double total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      double best = kInf;
      for (std::size_t j = 0; j < edges.size(); ++j) {
        if (edges[j].from == path[i] && edges[j].to == path[i + 1]) {
          best = std::min(best, w[j]);
        }
      }
      if (best == kInf) return kInf;
      total += best;
    }
    return total;
  }

 private:
  const Digraph* g_;
  std::vector<Vertex> pool_;
  std::vector<double> weights_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::vector<std::vector<double>>> by_epoch_;
  std::map<std::uint64_t, std::vector<double>> weights_by_epoch_;
};

/// Bitwise equality — integer weights make the oracle exact.
bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Blocks a reader until `svc` has published its first update epoch:
/// a reader that calls it halfway runs the rest of its requests after
/// at least one swap, so every run races one however the threads are
/// scheduled. Fails the test after 60 s instead of hanging when the
/// updater never publishes.
void await_first_epoch(const QueryService& svc) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (svc.epoch() == 0) {
    ASSERT_TRUE(std::chrono::steady_clock::now() < deadline)
        << "no epoch published";
    std::this_thread::yield();
  }
}

TEST(ServiceStress, ConcurrentSubmittersMatchOracle) {
  const Fixture f = make_fixture(9, 1);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  const EpochOracle oracle(f.gg.graph, {0, 11, 27, 40, 66, 80});

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 150;
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(50 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t idx = pick.next_below(oracle.pool().size());
        const Reply r = svc.query(oracle.pool()[idx]);
        ASSERT_TRUE(r.ok());
        const auto* want = oracle.expected(r.epoch, idx);
        ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
        EXPECT_TRUE(bit_equal(r.dist(), *want));
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(checked.load(), kThreads * kPerThread);  // zero lost
  EXPECT_EQ(svc.stats().completed, kThreads * kPerThread);
}

TEST(ServiceStress, SwapsUnderLoadNeverServeStaleEpochs) {
  const Fixture f = make_fixture(9, 2);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  // Tiny cache: constant churn between hits, evictions, and
  // invalidations while epochs move underneath.
  opts.cache_capacity_bytes = 2 * (81 * sizeof(double) + 128);
  opts.cache_shards = 1;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EpochOracle oracle(f.gg.graph, {0, 13, 40, 67, 80});

  // Readers do a fixed amount of verified work; the updater keeps
  // swapping epochs underneath them for the whole time (it stops only
  // after every reader finished, so each run interleaves by schedule).
  std::atomic<std::uint64_t> checked{0};
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 120;
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(80 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (i == kPerThread / 2) await_first_epoch(svc);
        const std::size_t idx = pick.next_below(oracle.pool().size());
        const Reply r = svc.query(oracle.pool()[idx]);
        ASSERT_TRUE(r.ok());
        const auto* want = oracle.expected(r.epoch, idx);
        ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
        EXPECT_TRUE(bit_equal(r.dist(), *want)) << "epoch " << r.epoch;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Updater: integer weights only; oracle published BEFORE the swap.
  std::atomic<bool> readers_done{false};
  std::uint64_t epochs_applied = 0;
  std::thread updater([&] {
    const auto edges = f.gg.graph.edge_list();
    Rng pick(7);
    while (!readers_done.load(std::memory_order_acquire)) {
      const EdgeTriple& edge = edges[pick.next_below(edges.size())];
      const EdgeUpdate u{edge.from, edge.to,
                         static_cast<double>(1 + pick.next_below(9))};
      const std::uint64_t e = epochs_applied + 1;
      oracle.advance(u, e);
      ASSERT_EQ(svc.apply_updates(std::vector<EdgeUpdate>{u}), e);
      epochs_applied = e;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (auto& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  updater.join();

  EXPECT_EQ(checked.load(), kThreads * kPerThread);  // zero lost
  EXPECT_GT(epochs_applied, 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.epoch_swaps, epochs_applied);
  EXPECT_EQ(stats.epoch, epochs_applied);
  EXPECT_EQ(stats.completed, checked.load());
}

TEST(ServiceStress, BatchedUpdatesRaceBatchedQueryGroups) {
  // The proportional-swap path under maximum contention: multi-edge
  // update batches (parallel dirty recompute + structural snapshot
  // fork) race groups of in-flight futures whose lanes read the
  // copy-on-write slabs of whichever epoch they captured. Every reply
  // must still be bitwise-exact for the epoch it names.
  const Fixture f = make_fixture(9, 4);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.cache_capacity_bytes = 2 * (81 * sizeof(double) + 128);
  opts.cache_shards = 1;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EpochOracle oracle(f.gg.graph, {0, 17, 36, 59, 80});

  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> groups_run{0};
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kGroups = 40;
  // Readers run at least kGroups groups each, then keep going until an
  // update has landed, so every run races at least one swap. The
  // deadline fails a run whose updater never publishes instead of
  // letting it hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (std::size_t g = 0; g < kGroups || svc.epoch() == 0; ++g) {
        ASSERT_TRUE(std::chrono::steady_clock::now() < deadline)
            << "no epoch published after " << g << " groups";
        // One future per pool source, submitted before any resolves:
        // the whole group is in flight at once and typically coalesces
        // into shared lane batches that straddle epoch swaps.
        std::vector<std::future<Reply>> group;
        group.reserve(oracle.pool().size());
        for (const Vertex s : oracle.pool()) group.push_back(svc.submit(s));
        for (std::size_t idx = 0; idx < group.size(); ++idx) {
          const Reply r = group[idx].get();
          ASSERT_TRUE(r.ok());
          const auto* want = oracle.expected(r.epoch, idx);
          ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
          EXPECT_TRUE(bit_equal(r.dist(), *want)) << "epoch " << r.epoch;
          checked.fetch_add(1, std::memory_order_relaxed);
        }
        groups_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<bool> readers_done{false};
  std::uint64_t epochs_applied = 0;
  std::thread updater([&] {
    const auto edges = f.gg.graph.edge_list();
    Rng pick(9);
    std::vector<EdgeUpdate> batch(3);
    while (!readers_done.load(std::memory_order_acquire)) {
      for (EdgeUpdate& u : batch) {
        const EdgeTriple& edge = edges[pick.next_below(edges.size())];
        u = {edge.from, edge.to, static_cast<double>(1 + pick.next_below(9))};
      }
      const std::uint64_t e = epochs_applied + 1;
      oracle.advance(batch, e);
      ASSERT_EQ(svc.apply_updates(batch), e);
      epochs_applied = e;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (auto& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  updater.join();

  EXPECT_GE(groups_run.load(), kThreads * kGroups);
  EXPECT_EQ(checked.load(), groups_run.load() * oracle.pool().size());
  EXPECT_GT(epochs_applied, 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.epoch_swaps, epochs_applied);
  EXPECT_EQ(stats.epoch, epochs_applied);
}

TEST(ServiceStress, MixedKindsRaceSwapsNeverServeStaleEpochs) {
  // The ISSUE-7 acceptance soak: SingleSource, StDistance, and StPath
  // traffic race apply_updates() (which rebuilds labels + routing per
  // epoch) and both caches churn. Every kOk reply — vector, scalar, or
  // path — must be exact for the epoch it names; integer weights make
  // the comparisons bitwise.
  const Fixture f = make_fixture(9, 5);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.cache_capacity_bytes = 2 * (81 * sizeof(double) + 128);
  opts.cache_shards = 1;
  // A handful of st entries: hits, evictions, and epoch sweeps all
  // happen under the race.
  opts.st_cache_capacity_bytes = 4 * 256;
  opts.st_cache_shards = 1;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EpochOracle oracle(f.gg.graph, {0, 13, 40, 67, 80});
  const std::vector<Vertex> targets{5, 22, 44, 71, 80};

  std::atomic<std::uint64_t> checked{0};
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 120;
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(140 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (i == kPerThread / 2) await_first_epoch(svc);
        const std::size_t idx = pick.next_below(oracle.pool().size());
        const Vertex s = oracle.pool()[idx];
        const Vertex target = targets[pick.next_below(targets.size())];
        switch (i % 3) {
          case 0: {
            const Reply r = svc.query(s);
            ASSERT_TRUE(r.ok());
            const auto* want = oracle.expected(r.epoch, idx);
            ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
            EXPECT_TRUE(bit_equal(r.dist(), *want)) << "epoch " << r.epoch;
            break;
          }
          case 1: {
            const Reply r = svc.query(StDistance{s, target});
            ASSERT_TRUE(r.ok());
            ASSERT_EQ(r.kind, RequestKind::kStDistance);
            const auto* want = oracle.expected(r.epoch, idx);
            ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
            // Integer weights: the label merge's sum is bitwise equal
            // to the oracle's — a stale-epoch scalar cannot pass.
            EXPECT_EQ(r.distance(), (*want)[target])
                << s << "->" << target << " epoch " << r.epoch;
            break;
          }
          case 2: {
            const Reply r = svc.query(StPath{s, target});
            ASSERT_TRUE(r.ok());
            ASSERT_EQ(r.kind, RequestKind::kStPath);
            const auto* want = oracle.expected(r.epoch, idx);
            ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
            EXPECT_EQ(r.distance(), (*want)[target]) << "epoch " << r.epoch;
            const std::vector<Vertex>& path = r.path();
            ASSERT_FALSE(path.empty());
            EXPECT_EQ(path.front(), s);
            EXPECT_EQ(path.back(), target);
            // The path must realize its scalar under the weights of
            // exactly the reply's epoch.
            EXPECT_EQ(oracle.path_weight(r.epoch, path), r.distance())
                << "epoch " << r.epoch;
            break;
          }
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<bool> readers_done{false};
  std::uint64_t epochs_applied = 0;
  std::thread updater([&] {
    const auto edges = f.gg.graph.edge_list();
    Rng pick(11);
    while (!readers_done.load(std::memory_order_acquire)) {
      const EdgeTriple& edge = edges[pick.next_below(edges.size())];
      const EdgeUpdate u{edge.from, edge.to,
                         static_cast<double>(1 + pick.next_below(9))};
      const std::uint64_t e = epochs_applied + 1;
      oracle.advance(u, e);
      ASSERT_EQ(svc.apply_updates(std::vector<EdgeUpdate>{u}), e);
      epochs_applied = e;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (auto& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  updater.join();

  EXPECT_EQ(checked.load(), kThreads * kPerThread);  // zero lost
  EXPECT_GT(epochs_applied, 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.epoch_swaps, epochs_applied);
  EXPECT_EQ(stats.completed, checked.load());
  EXPECT_GT(stats.st_distance, 0u);
  EXPECT_GT(stats.st_path, 0u);
  EXPECT_EQ(stats.single_source + stats.st_distance + stats.st_path,
            stats.submitted);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.st_cache_hits +
                stats.st_cache_misses,
            stats.completed);
}

TEST(ServiceStress, HitHeavyRaceOnOneShardMatchesOracle) {
  // The cache-hit path under contention: warm caches big enough for
  // every answer, one shard each, so all hits of a kind fight over one
  // shard lock while they probe at the published epoch with no
  // snapshot load. Submitters share the same hot keys and send all
  // four request shapes (exact and approximate single-source, exact
  // and approximate st-distance, st-path) as an updater swaps integer
  // weightings. Every reply must be right for the epoch it names, and
  // no submitter may see its reply epochs go backwards.
  const Fixture f = make_fixture(9, 6);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.cache_shards = 1;
  opts.st_cache_shards = 1;
  opts.approx.enabled = true;
  opts.approx.eps = 0.25;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EpochOracle oracle(f.gg.graph, {0, 13, 40, 67, 80});
  const std::vector<Vertex> targets{5, 44, 80};

  // dist <= got <= (1 + bound) * dist, up to rounding.
  const auto within = [](double got, double want, double bound) {
    return std::isinf(want) ? std::isinf(got)
                            : got >= want - 1e-9 &&
                                  got <= (1 + bound) * want + 1e-9;
  };

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 1500;
  constexpr std::size_t kShapes = 5;
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(170 + t);
      std::uint64_t last_epoch = 0;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (i == kPerThread / 2) await_first_epoch(svc);
        const std::size_t idx = pick.next_below(oracle.pool().size());
        const Vertex s = oracle.pool()[idx];
        const Vertex target = targets[pick.next_below(targets.size())];
        const std::size_t shape = (i + t) % kShapes;
        const bool approx = shape == 1 || shape == 3;
        Reply r;
        switch (shape) {
          case 0:
          case 1:
            r = svc.query(SingleSource{s, approx});
            break;
          case 2:
          case 3:
            r = svc.query(StDistance{s, target, approx});
            break;
          default:
            r = svc.query(StPath{s, target});
            break;
        }
        ASSERT_TRUE(r.ok());
        EXPECT_GE(r.epoch, last_epoch) << "reply epochs went backwards";
        last_epoch = r.epoch;
        const auto* want = oracle.expected(r.epoch, idx);
        ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
        EXPECT_EQ(r.error_bound, approx ? opts.approx.eps : 0.0);
        switch (shape) {
          case 0:
            EXPECT_TRUE(bit_equal(r.dist(), *want)) << "epoch " << r.epoch;
            break;
          case 1:
            for (std::size_t v = 0; v < want->size(); ++v) {
              EXPECT_TRUE(within(r.dist()[v], (*want)[v], r.error_bound))
                  << s << "->" << v << " epoch " << r.epoch;
            }
            break;
          case 2:
            EXPECT_EQ(r.distance(), (*want)[target]) << "epoch " << r.epoch;
            break;
          case 3:
            EXPECT_TRUE(within(r.distance(), (*want)[target], r.error_bound))
                << s << "->" << target << " epoch " << r.epoch;
            break;
          default:
            EXPECT_EQ(r.distance(), (*want)[target]) << "epoch " << r.epoch;
            EXPECT_EQ(oracle.path_weight(r.epoch, r.path()), r.distance())
                << "epoch " << r.epoch;
            break;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Swaps are spaced so most requests hit between them.
  std::atomic<bool> readers_done{false};
  std::uint64_t epochs_applied = 0;
  std::thread updater([&] {
    const auto edges = f.gg.graph.edge_list();
    Rng pick(13);
    while (!readers_done.load(std::memory_order_acquire)) {
      const EdgeTriple& edge = edges[pick.next_below(edges.size())];
      const EdgeUpdate u{edge.from, edge.to,
                         static_cast<double>(1 + pick.next_below(9))};
      const std::uint64_t e = epochs_applied + 1;
      oracle.advance(u, e);
      ASSERT_EQ(svc.apply_updates(std::vector<EdgeUpdate>{u}), e);
      epochs_applied = e;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  updater.join();

  EXPECT_EQ(checked.load(), kThreads * kPerThread);  // zero lost
  EXPECT_GT(epochs_applied, 0u);
  // Each thread sends the five shapes round-robin: per shape,
  // kPerThread / kShapes requests per thread.
  constexpr std::uint64_t kPerShape = kThreads * kPerThread / kShapes;
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.stopped +
                                 stats.invalid + stats.failed);
  EXPECT_EQ(stats.completed, checked.load());
  EXPECT_EQ(stats.single_source, 2 * kPerShape);
  EXPECT_EQ(stats.st_distance, 2 * kPerShape);
  EXPECT_EQ(stats.st_path, kPerShape);
  EXPECT_EQ(stats.approx_requests, 2 * kPerShape);
  EXPECT_EQ(stats.single_source + stats.st_distance + stats.st_path,
            stats.submitted);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.st_cache_hits +
                stats.st_cache_misses + stats.approx_cache_hits +
                stats.approx_cache_misses + stats.approx_st_hits +
                stats.approx_st_misses,
            stats.completed);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.approx_cache_hits +
                stats.approx_cache_misses,
            stats.single_source);
  EXPECT_EQ(stats.st_cache_hits + stats.st_cache_misses +
                stats.approx_st_hits + stats.approx_st_misses,
            stats.st_distance + stats.st_path);
  EXPECT_GT(stats.cache_hits + stats.st_cache_hits + stats.approx_cache_hits +
                stats.approx_st_hits,
            0u);
}

TEST(ServiceStress, RacingHitsThenMissBurstKeepLedgerExact) {
  // The ledger's sums are striped per thread: each client and the
  // dispatcher add on their own cache lines, and stats() sums the
  // lines. Two clients race hits of all five request shapes on
  // one-shard caches, then each sends a burst of misses. Every warm-up
  // request misses and every later one of the same key hits, so each
  // hit/miss count and each per-kind count is known exactly.
  const Fixture f = make_fixture(9, 8);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 1;
  opts.cache_shards = 1;
  opts.st_cache_shards = 1;
  opts.approx.enabled = true;
  opts.approx.eps = 0.25;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  const std::vector<Vertex> hot{0, 13, 40, 67};
  const std::vector<Vertex> targets{5, 44, 80};
  const std::uint64_t keys = hot.size() * targets.size();

  // Warm-up, one miss per key: an st-distance entry carries no path,
  // so the st-path request after it misses too and adds the path.
  for (const Vertex s : hot) {
    ASSERT_TRUE(svc.query(SingleSource{s}).ok());
    ASSERT_TRUE(svc.query(SingleSource{s, /*approx=*/true}).ok());
    for (const Vertex t : targets) {
      ASSERT_TRUE(svc.query(StDistance{s, t}).ok());
      ASSERT_TRUE(svc.query(StDistance{s, t, /*approx=*/true}).ok());
      ASSERT_TRUE(svc.query(StPath{s, t}).ok());
    }
  }

  constexpr std::size_t kClients = 2;
  constexpr std::size_t kShapes = 5;
  constexpr std::size_t kHitsPerClient = 10000;  // a multiple of kShapes
  constexpr std::uint64_t kPerShape = kClients * kHitsPerClient / kShapes;
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
      }
      Rng pick(300 + c);
      for (std::size_t i = 0; i < kHitsPerClient; ++i) {
        const Vertex s = hot[pick.next_below(hot.size())];
        const Vertex t = targets[pick.next_below(targets.size())];
        Reply r;
        switch (i % kShapes) {
          case 0:
            r = svc.query(SingleSource{s});
            break;
          case 1:
            r = svc.query(SingleSource{s, /*approx=*/true});
            break;
          case 2:
            r = svc.query(StDistance{s, t});
            break;
          case 3:
            r = svc.query(StDistance{s, t, /*approx=*/true});
            break;
          default:
            r = svc.query(StPath{s, t});
            break;
        }
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(r.cache_hit);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  // The miss burst: each client submits every cold source of its
  // parity at once, so the dispatcher coalesces them into lane blocks.
  std::vector<Vertex> cold;
  for (Vertex v = 0; v < f.gg.graph.num_vertices(); ++v) {
    if (std::find(hot.begin(), hot.end(), v) == hot.end()) cold.push_back(v);
  }
  clients.clear();
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Reply>> futures;
      for (std::size_t i = c; i < cold.size(); i += kClients) {
        futures.push_back(svc.submit(SingleSource{cold[i]}));
      }
      for (auto& fut : futures) {
        const Reply r = fut.get();
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.cache_hit);
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.shed + stats.stopped + stats.invalid + stats.failed, 0u);
  EXPECT_EQ(stats.single_source, 2 * hot.size() + 2 * kPerShape + cold.size());
  EXPECT_EQ(stats.st_distance, 2 * keys + 2 * kPerShape);
  EXPECT_EQ(stats.st_path, keys + kPerShape);
  EXPECT_EQ(stats.approx_requests, hot.size() + keys + 2 * kPerShape);
  EXPECT_EQ(stats.cache_hits, kPerShape);
  EXPECT_EQ(stats.cache_misses, hot.size() + cold.size());
  EXPECT_EQ(stats.approx_cache_hits, kPerShape);
  EXPECT_EQ(stats.approx_cache_misses, hot.size());
  EXPECT_EQ(stats.st_cache_hits, 2 * kPerShape);
  EXPECT_EQ(stats.st_cache_misses, 2 * keys);
  EXPECT_EQ(stats.approx_st_hits, kPerShape);
  EXPECT_EQ(stats.approx_st_misses, keys);
  EXPECT_EQ(stats.batch_lanes_used, hot.size() * 2 + cold.size());
}

TEST(ServiceStress, StopUnderLoadResolvesEveryFuture) {
  const Fixture f = make_fixture(8, 3);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.max_queue = 64;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> resolved{0};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 100;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      Rng pick(30 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto source =
            static_cast<Vertex>(pick.next_below(f.gg.graph.num_vertices()));
        // get() must return for every submission — ok, shed, or
        // stopped; a hung or broken future fails the test by timeout
        // or thrown std::future_error.
        const Reply r = svc.submit(source).get();
        EXPECT_TRUE(r.status == ReplyStatus::kOk ||
                    r.status == ReplyStatus::kShed ||
                    r.status == ReplyStatus::kStopped);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  svc.stop();  // races the submitters by design
  for (auto& t : submitters) t.join();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.stopped + stats.invalid);
}

}  // namespace
}  // namespace sepsp
