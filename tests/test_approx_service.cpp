// Approximate serving through QueryService: approx requests resolve
// against the snapshot's (1 + eps)-approximate engine, live in their
// own (epoch, mode)-keyed caches with bit-identical hit/miss parity,
// carry the certified error bound, and stay epoch-consistent while
// racing apply_updates() (the stress half runs under ThreadSanitizer —
// see .github/workflows/ci.yml).
//
// Exact-mode weights are integer-valued doubles so exact replies can be
// compared bitwise against a per-epoch Dijkstra oracle; approximate
// replies are checked against the same oracle through their replied
// error bound: dist <= approx <= (1 + error_bound) * dist.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
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
using service::ServiceOptions;
using service::ServiceStats;
using service::SingleSource;
using service::StDistance;

struct Fixture {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Fixture make_fixture(std::size_t side, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{make_grid({side, side}, WeightModel::uniform(1, 9), rng), {}};
  // Integer weights: exact replies compare bitwise against Dijkstra.
  GraphBuilder b(f.gg.graph.num_vertices());
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    b.add_edge(e.from, e.to, std::floor(e.weight));
  }
  f.gg.graph = std::move(b).build(/*dedup_min=*/false);
  f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                make_grid_finder({side, side}));
  return f;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// dist <= got <= (1 + bound) * dist against the exact oracle `want`.
void expect_within_bound(const std::vector<double>& got,
                         const std::vector<double>& want, double bound) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << "v=" << v;
      continue;
    }
    EXPECT_GE(got[v], want[v] - 1e-9) << "v=" << v;
    EXPECT_LE(got[v], (1 + bound) * want[v] + 1e-9) << "v=" << v;
  }
}

/// completed must equal the sum of the four disjoint hit/miss ledgers.
void expect_ledger_balance(const ServiceStats& s) {
  EXPECT_EQ(s.completed, s.cache_hits + s.cache_misses + s.st_cache_hits +
                             s.st_cache_misses + s.approx_cache_hits +
                             s.approx_cache_misses + s.approx_st_hits +
                             s.approx_st_misses);
}

TEST(ApproxService, ServesBothModesWithErrorTags) {
  const Fixture f = make_fixture(9, 1);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 1;
  opts.point_to_point = false;
  opts.approx.enabled = true;
  opts.approx.eps = 0.3;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);

  for (const Vertex src : {Vertex{0}, Vertex{40}, Vertex{80}}) {
    const std::vector<double> want = dijkstra(f.gg.graph, src).dist;

    const Reply exact = svc.query(SingleSource{src});
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(exact.error_bound, 0.0);
    EXPECT_TRUE(bit_equal(exact.dist(), want));

    const Reply approx = svc.query(SingleSource{src, /*approx=*/true});
    ASSERT_TRUE(approx.ok());
    EXPECT_GT(approx.error_bound, 0.0);
    EXPECT_LE(approx.error_bound, opts.approx.eps + 1e-12);
    expect_within_bound(approx.dist(), want, approx.error_bound);
  }
  expect_ledger_balance(svc.stats());
  EXPECT_EQ(svc.stats().approx_requests, 3u);
}

TEST(ApproxService, CacheParityPerEpochAndMode) {
  const Fixture f = make_fixture(8, 2);
  ServiceOptions opts;
  opts.dispatchers = 1;
  opts.point_to_point = false;
  opts.approx.enabled = true;
  opts.approx.eps = 0.2;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);

  // Same source, both modes: four requests, one kernel run per mode,
  // and the repeat in each mode hands out the *same* immutable object.
  const Reply e1 = svc.query(SingleSource{17});
  const Reply a1 = svc.query(SingleSource{17, /*approx=*/true});
  const Reply e2 = svc.query(SingleSource{17});
  const Reply a2 = svc.query(SingleSource{17, /*approx=*/true});
  EXPECT_TRUE(e2.cache_hit);
  EXPECT_TRUE(a2.cache_hit);
  EXPECT_EQ(e1.value, e2.value);  // bit-identical by construction
  EXPECT_EQ(a1.value, a2.value);
  EXPECT_NE(e1.value, a1.value);  // modes never share an answer

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.approx_cache_hits, 1u);
  EXPECT_EQ(s.approx_cache_misses, 1u);
  expect_ledger_balance(s);
}

TEST(ApproxService, StDistanceWorksWithoutPointToPoint) {
  const Fixture f = make_fixture(8, 3);
  ServiceOptions opts;
  opts.dispatchers = 1;
  opts.point_to_point = false;  // approx st must not need labels
  opts.approx.enabled = true;
  opts.approx.eps = 0.25;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);

  const std::vector<double> want = dijkstra(f.gg.graph, 5).dist;
  const Reply r = svc.query(StDistance{5, 60, /*approx=*/true});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.error_bound, 0.0);
  EXPECT_GE(r.distance(), want[60] - 1e-9);
  EXPECT_LE(r.distance(), (1 + r.error_bound) * want[60] + 1e-9);

  // The repeat is an st-cache hit; the miss also populated the approx
  // distance cache, so a SingleSource follow-up for the same source
  // hits too.
  const Reply again = svc.query(StDistance{5, 60, /*approx=*/true});
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.distance(), r.distance());
  const Reply sweep = svc.query(SingleSource{5, /*approx=*/true});
  EXPECT_TRUE(sweep.cache_hit);
  EXPECT_EQ(sweep.dist()[60], r.distance());

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.approx_st_hits, 1u);
  EXPECT_EQ(s.approx_st_misses, 1u);
  expect_ledger_balance(s);
}

TEST(ApproxService, ApplyUpdatesRebuildsTheApproxEngine) {
  const Fixture f = make_fixture(8, 4);
  ServiceOptions opts;
  opts.dispatchers = 1;
  opts.point_to_point = false;
  opts.approx.enabled = true;
  opts.approx.eps = 0.3;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EXPECT_EQ(svc.stats().approx_builds, 1u);  // the constructor's

  const Reply before = svc.query(SingleSource{0, /*approx=*/true});

  // Reweight one arc heavily and check the new epoch's approximate
  // answers track the new exact oracle.
  const EdgeTriple e0 = f.gg.graph.edge_list()[0];
  const std::vector<EdgeUpdate> batch = {{e0.from, e0.to, e0.weight + 50.0}};
  const std::uint64_t epoch = svc.apply_updates(batch);
  EXPECT_GT(epoch, before.epoch);
  EXPECT_EQ(svc.stats().approx_builds, 2u);

  GraphBuilder b(f.gg.graph.num_vertices());
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    const bool bumped = e.from == e0.from && e.to == e0.to;
    b.add_edge(e.from, e.to, bumped ? e0.weight + 50.0 : e.weight);
  }
  const Digraph reweighted = std::move(b).build(/*dedup_min=*/false);

  const Reply after = svc.query(SingleSource{0, /*approx=*/true});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.epoch, epoch);
  EXPECT_FALSE(after.cache_hit);  // the swap invalidated the approx cache
  expect_within_bound(after.dist(), dijkstra(reweighted, 0).dist,
                      after.error_bound);
}

/// Per-epoch exact ground truth for a fixed source pool (same pattern
/// as test_service_stress.cpp): the updater publishes each epoch's
/// oracle before the service can serve it.
class EpochOracle {
 public:
  EpochOracle(const Digraph& g, std::vector<Vertex> pool)
      : g_(&g), pool_(std::move(pool)) {
    weights_.reserve(g.edge_list().size());
    for (const EdgeTriple& e : g.edge_list()) weights_.push_back(e.weight);
    publish(0);
  }

  const std::vector<Vertex>& pool() const { return pool_; }

  void advance(const EdgeUpdate& u, std::uint64_t epoch) {
    const auto edges = g_->edge_list();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].from == u.from && edges[i].to == u.to) {
        weights_[i] = u.weight;
      }
    }
    publish(epoch);
  }

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
  }

  const Digraph* g_;
  std::vector<Vertex> pool_;
  std::vector<double> weights_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::vector<std::vector<double>>> by_epoch_;
};

TEST(ApproxServiceStress, MixedModeQueriesRaceSwaps) {
  const Fixture f = make_fixture(9, 6);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 2;
  opts.point_to_point = false;
  opts.approx.enabled = true;
  opts.approx.eps = 0.25;
  // Tiny caches: constant churn between hits, evictions, and
  // invalidations while epochs move underneath.
  opts.cache_capacity_bytes = 2 * (81 * sizeof(double) + 128);
  opts.cache_shards = 1;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EpochOracle oracle(f.gg.graph, {0, 13, 40, 67, 80});

  std::atomic<bool> stop_updates{false};
  std::thread updater([&] {
    Rng pick(99);
    std::uint64_t epoch = 0;
    while (!stop_updates.load(std::memory_order_acquire)) {
      const auto edges = f.gg.graph.edge_list();
      const EdgeTriple& e = edges[pick.next_below(edges.size())];
      const EdgeUpdate u{e.from, e.to,
                         std::floor(pick.next_double(1, 9))};
      oracle.advance(u, epoch + 1);  // oracle first, then the service
      epoch = svc.apply_updates({&u, 1});
    }
  });

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 80;
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(70 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t idx = pick.next_below(oracle.pool().size());
        const Vertex src = oracle.pool()[idx];
        const bool approx = pick.next_bool(0.5);
        const Reply r = svc.query(SingleSource{src, approx});
        ASSERT_TRUE(r.ok());
        const auto* want = oracle.expected(r.epoch, idx);
        ASSERT_NE(want, nullptr) << "unpublished epoch " << r.epoch;
        if (approx) {
          EXPECT_GT(r.error_bound, 0.0);
          EXPECT_LE(r.error_bound, opts.approx.eps + 1e-12);
          expect_within_bound(r.dist(), *want, r.error_bound);
        } else {
          EXPECT_EQ(r.error_bound, 0.0);
          EXPECT_TRUE(bit_equal(r.dist(), *want));
        }
        // A sprinkle of approximate st traffic through the same caches.
        if (i % 8 == 0) {
          const Reply st = svc.query(StDistance{src, 44, /*approx=*/true});
          ASSERT_TRUE(st.ok());
          if (const auto* w = oracle.expected(st.epoch, idx)) {
            EXPECT_GE(st.distance(), (*w)[44] - 1e-9);
            EXPECT_LE(st.distance(),
                      (1 + st.error_bound) * (*w)[44] + 1e-9);
          }
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop_updates.store(true, std::memory_order_release);
  updater.join();

  EXPECT_EQ(checked.load(), kThreads * kPerThread);  // zero lost
  expect_ledger_balance(svc.stats());
}

}  // namespace
}  // namespace sepsp
