// The query-serving runtime (src/service/): the submit queue's pop
// rule, coalescing, cache semantics, shedding, epoch swaps —
// single-threaded or lightly threaded determinism tests. The
// concurrency soak lives in test_service_stress.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <utility>
#include <vector>

#include "approx/approx.hpp"
#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "pram/thread_pool.hpp"
#include "separator/finders.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"

namespace sepsp {
namespace {

using service::CachedDistances;
using service::CachedStAnswer;
using service::DistanceCache;
using service::EdgeUpdate;
using service::Pending;
using service::QueryService;
using service::Reply;
using service::ReplyStatus;
using service::RequestKind;
using service::ServiceOptions;
using service::SingleSource;
using service::StCache;
using service::StDistance;
using service::StPath;
using service::SubmitQueue;

struct Fixture {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Fixture make_grid_fixture(std::size_t side, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{make_grid({side, side}, WeightModel::uniform(1, 9), rng), {}};
  f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                make_grid_finder({side, side}));
  return f;
}

void expect_matches_dijkstra(const std::vector<double>& got,
                             const Digraph& reference, Vertex source) {
  const DijkstraResult want = dijkstra(reference, source);
  ASSERT_EQ(got.size(), reference.num_vertices());
  for (Vertex v = 0; v < reference.num_vertices(); ++v) {
    if (std::isinf(want.dist[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << v;
    } else {
      EXPECT_NEAR(got[v], want.dist[v], 1e-8) << v;
    }
  }
}

Digraph reweighted(const Digraph& g, const std::vector<EdgeUpdate>& updates) {
  GraphBuilder b(g.num_vertices());
  for (EdgeTriple e : g.edge_list()) {
    for (const EdgeUpdate& u : updates) {
      if (u.from == e.from && u.to == e.to) e.weight = u.weight;
    }
    b.add_edge(e.from, e.to, e.weight);
  }
  return std::move(b).build(/*dedup_min=*/false);
}

// --- SubmitQueue's pop rule (single-threaded: every pop below finds
// its requests already queued, or the queue closed, so none blocks) ---

constexpr std::size_t kPopMax = 8;

void push_sources(SubmitQueue& q, Vertex first, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Pending p;
    p.source = first + static_cast<Vertex>(i);
    p.enqueued = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.push(std::move(p)));
  }
}

std::vector<Vertex> popped_sources(const std::vector<Pending>& out) {
  std::vector<Vertex> sources;
  for (const Pending& p : out) sources.push_back(p.source);
  return sources;
}

TEST(SubmitQueue, OneQueuedRequestPopsAlone) {
  SubmitQueue q(64);
  push_sources(q, 3, 1);
  std::vector<Pending> out;
  ASSERT_TRUE(q.pop_batch(out, kPopMax));
  EXPECT_EQ(popped_sources(out), (std::vector<Vertex>{3}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SubmitQueue, QueuedRequestsPopTogetherInFifoOrder) {
  SubmitQueue q(64);
  push_sources(q, 10, 5);
  std::vector<Pending> out;
  ASSERT_TRUE(q.pop_batch(out, kPopMax));
  EXPECT_EQ(popped_sources(out), (std::vector<Vertex>{10, 11, 12, 13, 14}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SubmitQueue, BacklogPopsAtMostMaxPerBatch) {
  SubmitQueue q(64);
  push_sources(q, 100, kPopMax + 3);
  std::vector<Pending> out;
  ASSERT_TRUE(q.pop_batch(out, kPopMax));
  EXPECT_EQ(popped_sources(out),
            (std::vector<Vertex>{100, 101, 102, 103, 104, 105, 106, 107}));
  ASSERT_TRUE(q.pop_batch(out, kPopMax));
  EXPECT_EQ(popped_sources(out), (std::vector<Vertex>{108, 109, 110}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SubmitQueue, ClosedQueueDrainsThenReturnsFalse) {
  SubmitQueue q(64);
  push_sources(q, 20, 2);
  q.close();
  Pending late;
  EXPECT_FALSE(q.push(std::move(late)));  // closed: admits nothing
  std::vector<Pending> out;
  ASSERT_TRUE(q.pop_batch(out, kPopMax));  // queued before close()
  EXPECT_EQ(popped_sources(out), (std::vector<Vertex>{20, 21}));
  EXPECT_FALSE(q.pop_batch(out, kPopMax));  // closed and drained
  EXPECT_TRUE(out.empty());
}

TEST(Service, ParityWithDijkstra) {
  const Fixture f = make_grid_fixture(9, 1);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  for (const Vertex s : {0u, 17u, 40u, 80u}) {
    const Reply r = svc.query(s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.epoch, 0u);
    expect_matches_dijkstra(r.dist(), f.gg.graph, s);
  }
}

TEST(Service, CacheHitIsBitIdenticalAndShared) {
  const Fixture f = make_grid_fixture(8, 2);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Reply cold = svc.query(11);
  const Reply warm = svc.query(11);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // Hit and miss share one immutable object — parity is structural,
  // not merely numeric.
  EXPECT_EQ(cold.value.get(), warm.value.get());
  EXPECT_EQ(std::memcmp(cold.dist().data(), warm.dist().data(),
                        cold.dist().size() * sizeof(double)),
            0);
  EXPECT_GE(svc.stats().cache_hits, 1u);
}

TEST(Service, CacheDisabledNeverHits) {
  const Fixture f = make_grid_fixture(8, 3);
  ServiceOptions opts;
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  const Reply a = svc.query(5);
  const Reply b = svc.query(5);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  for (std::size_t v = 0; v < a.dist().size(); ++v) {
    EXPECT_EQ(a.dist()[v], b.dist()[v]) << v;  // still identical values
  }
}

TEST(Service, CoalescesQueuedRequestsIntoFullLaneGroups) {
  const Fixture f = make_grid_fixture(8, 4);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 0;  // queue everything; stop() drains
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  std::vector<std::future<Reply>> futures;
  for (Vertex s = 0; s < 8; ++s) futures.push_back(svc.submit(s));
  svc.stop();
  for (Vertex s = 0; s < 8; ++s) {
    const Reply r = futures[s].get();
    ASSERT_TRUE(r.ok());
    expect_matches_dijkstra(r.dist(), f.gg.graph, s);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches, 2u);  // 8 requests / 4 lanes
  EXPECT_EQ(stats.batch_lanes_used, 8u);
  EXPECT_DOUBLE_EQ(stats.batch_occupancy(), 1.0);
  EXPECT_EQ(stats.queue_peak, 8u);
}

TEST(Service, DeduplicatesRepeatedSourcesWithinAGroup) {
  const Fixture f = make_grid_fixture(8, 5);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 0;
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(svc.submit(7));
  svc.stop();
  Reply first = futures[0].get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);  // the request that ran the kernel
  for (int i = 1; i < 4; ++i) {
    const Reply r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value.get(), first.value.get());  // one kernel run shared
    EXPECT_TRUE(r.cache_hit) << i;                // followers are hits
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Service, OneDispatchFansABacklogAcrossThePool) {
  // A queued backlog leaves in dispatches of one full lane group per
  // pool participant, each dispatch running its blocks in parallel.
  constexpr std::size_t kLanes = 4;
  const std::size_t participants = pram::ThreadPool::global().concurrency();
  const std::size_t requests = 2 * kLanes * participants;
  std::size_t side = 8;
  while (side * side < requests) ++side;
  const Fixture f = make_grid_fixture(side, 12);
  ServiceOptions opts;
  opts.lanes = kLanes;
  opts.dispatchers = 0;  // queue everything; stop() drains
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  opts.max_queue = requests;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  std::vector<std::future<Reply>> futures;
  for (Vertex s = 0; s < requests; ++s) futures.push_back(svc.submit(s));
  svc.stop();
  for (Vertex s = 0; s < requests; ++s) {
    const Reply r = futures[s].get();
    ASSERT_TRUE(r.ok()) << s;
    expect_matches_dijkstra(r.dist(), f.gg.graph, s);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.dispatches, 2u);
  EXPECT_EQ(stats.batches, 2 * participants);
  EXPECT_EQ(stats.batch_lanes_used, requests);
  EXPECT_DOUBLE_EQ(stats.batch_occupancy(), 1.0);
}

TEST(Service, ShedsOnOverloadAndDrainsAdmittedOnStop) {
  const Fixture f = make_grid_fixture(8, 6);
  ServiceOptions opts;
  opts.lanes = 4;
  opts.dispatchers = 0;
  opts.max_queue = 4;
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  std::vector<std::future<Reply>> futures;
  for (Vertex s = 0; s < 6; ++s) futures.push_back(svc.submit(s));
  // The first 4 were admitted; 5 and 6 exceeded max_queue and must be
  // shed immediately (future already resolved, pre-stop).
  EXPECT_EQ(futures[4].get().status, ReplyStatus::kShed);
  EXPECT_EQ(futures[5].get().status, ReplyStatus::kShed);
  svc.stop();
  for (Vertex s = 0; s < 4; ++s) {
    const Reply r = futures[s].get();
    ASSERT_TRUE(r.ok()) << s;
    expect_matches_dijkstra(r.dist(), f.gg.graph, s);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.submitted, 6u);
}

TEST(Service, RejectsSubmissionsAfterStop) {
  const Fixture f = make_grid_fixture(8, 7);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  svc.stop();
  const Reply r = svc.query(0);
  EXPECT_EQ(r.status, ReplyStatus::kStopped);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(svc.stats().stopped, 1u);
}

TEST(Service, CachedAnswersStillResolveStoppedAfterStop) {
  // A hit takes no queue lock, yet stop() is still observable on it:
  // sources and pairs the caches could answer resolve kStopped too.
  const Fixture f = make_grid_fixture(8, 7);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  ASSERT_TRUE(svc.query(9).ok());
  ASSERT_TRUE(svc.query(9).cache_hit);
  ASSERT_TRUE(svc.query(StPath{9, 50}).ok());
  ASSERT_TRUE(svc.query(StPath{9, 50}).cache_hit);
  svc.stop();
  EXPECT_EQ(svc.query(9).status, ReplyStatus::kStopped);
  EXPECT_EQ(svc.query(StDistance{9, 50}).status, ReplyStatus::kStopped);
  EXPECT_EQ(svc.query(StPath{9, 50}).status, ReplyStatus::kStopped);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.stopped, 3u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.stopped);
}

TEST(Service, ApproxHitErrorBoundEqualsItsMissCertifiedError) {
  // A hit names the bound without loading the epoch's snapshot; it must
  // be the very bound the miss read off the approximate engine.
  const Fixture f = make_grid_fixture(8, 14);
  ServiceOptions opts;
  opts.point_to_point = false;
  opts.approx.enabled = true;
  opts.approx.eps = 0.3;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  const double certified = svc.current_snapshot().approx->certified_error();

  const Reply miss = svc.query(SingleSource{21, /*approx=*/true});
  const Reply hit = svc.query(SingleSource{21, /*approx=*/true});
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.error_bound, certified);
  EXPECT_EQ(hit.error_bound, miss.error_bound);

  const Reply st_miss = svc.query(StDistance{21, 60, /*approx=*/true});
  const Reply st_hit = svc.query(StDistance{21, 60, /*approx=*/true});
  EXPECT_FALSE(st_miss.cache_hit);
  EXPECT_TRUE(st_hit.cache_hit);
  EXPECT_EQ(st_miss.error_bound, certified);
  EXPECT_EQ(st_hit.error_bound, st_miss.error_bound);
}

TEST(Service, FlushesPartialGroupWithoutWaiting) {
  const Fixture f = make_grid_fixture(8, 8);
  ServiceOptions opts;
  opts.lanes = 8;
  opts.cache_capacity_bytes = 0;  // caches off
  opts.st_cache_capacity_bytes = 0;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  // 3 requests never fill an 8-lane group; the dispatcher runs them
  // as they come, in as many dispatches as it finds them queued.
  std::vector<std::future<Reply>> futures;
  for (Vertex s = 0; s < 3; ++s) futures.push_back(svc.submit(s));
  for (auto& fut : futures) EXPECT_TRUE(fut.get().ok());
  const auto stats = svc.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batch_lanes_used, 3u);
}

TEST(Service, EpochSwapServesNewWeightsAndKeepsOldRepliesAlive) {
  const Fixture f = make_grid_fixture(9, 9);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Vertex source = 0;
  const Reply before = svc.query(source);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.epoch, 0u);

  const std::vector<EdgeUpdate> updates{{0, 1, 0.125}, {1, 2, 0.125}};
  const std::uint64_t epoch = svc.apply_updates(updates);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(svc.epoch(), 1u);

  const Reply after = svc.query(source);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_FALSE(after.cache_hit);  // epoch-0 entry is stale, not served
  expect_matches_dijkstra(after.dist(), reweighted(f.gg.graph, updates),
                          source);
  // The pre-swap reply is untouched — still the epoch-0 answer.
  expect_matches_dijkstra(before.dist(), f.gg.graph, source);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.epoch_swaps, 1u);
  EXPECT_GE(stats.cache_invalidations, 1u);
}

TEST(Service, EmptyUpdateBatchIsANoOp) {
  const Fixture f = make_grid_fixture(8, 10);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  EXPECT_EQ(svc.apply_updates({}), 0u);
  EXPECT_EQ(svc.stats().epoch_swaps, 0u);
}

TEST(Service, OldSnapshotStaysValidAcrossSwaps) {
  const Fixture f = make_grid_fixture(8, 11);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const auto old_snapshot = svc.current_snapshot();
  const std::vector<EdgeUpdate> updates{{3, 4, 0.5}};
  svc.apply_updates(updates);
  // RCU contract: a holder of the superseded snapshot keeps getting
  // the old weighting's answers.
  EXPECT_EQ(old_snapshot.epoch, 0u);
  const auto result = old_snapshot.engine->distances(2);
  expect_matches_dijkstra(result.dist, f.gg.graph, 2);
}

TEST(Service, TinyCacheEvictsInsteadOfGrowing) {
  const Fixture f = make_grid_fixture(8, 12);
  ServiceOptions opts;
  // Room for roughly one 64-vertex distance vector in one shard.
  opts.cache_capacity_bytes = 64 * sizeof(double) + 256;
  opts.cache_shards = 1;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  for (Vertex s = 0; s < 6; ++s) EXPECT_TRUE(svc.query(s).ok());
  const auto stats = svc.stats();
  EXPECT_GE(stats.cache_evictions, 4u);
  EXPECT_LE(stats.cache_bytes, opts.cache_capacity_bytes);
  EXPECT_LE(stats.cache_entries, 1u);
}

TEST(Service, StatsLedgerBalances) {
  const Fixture f = make_grid_fixture(8, 13);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  for (Vertex s = 0; s < 5; ++s) EXPECT_TRUE(svc.query(s % 3).ok());
  svc.stop();
  const Reply late = svc.query(0);
  EXPECT_EQ(late.status, ReplyStatus::kStopped);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.stopped + stats.invalid);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.completed);
}

TEST(ServiceOptionsTest, ValidationRejectsBadKnobs) {
  ServiceOptions lanes_bad;
  lanes_bad.lanes = 3;
  EXPECT_DEATH((void)lanes_bad.validated(), "lanes");
  ServiceOptions queue_bad;
  queue_bad.max_queue = 0;
  EXPECT_DEATH((void)queue_bad.validated(), "max_queue");
}

TEST(ServiceOptionsTest, ShardCountRoundsUpToPowerOfTwo) {
  ServiceOptions opts;
  opts.cache_shards = 5;
  EXPECT_EQ(opts.validated().cache_shards, 8u);
}

double walk_weight(const Digraph& g, const std::vector<Vertex>& path) {
  double total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    double w = 0;
    EXPECT_TRUE(g.find_arc(path[i], path[i + 1], &w))
        << path[i] << "->" << path[i + 1] << " is not an arc";
    total += w;
  }
  return total;
}

TEST(ServiceSt, StDistanceResolvesAtSubmitTimeAndMatchesDijkstra) {
  const Fixture f = make_grid_fixture(9, 20);
  ServiceOptions opts;
  opts.dispatchers = 0;  // nothing drains the queue ...
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  for (const auto& [s, t] : {std::pair<Vertex, Vertex>{0, 80},
                             {17, 3},
                             {44, 44},
                             {80, 0}}) {
    std::future<Reply> fut = svc.submit(StDistance{s, t});
    // ... so a ready future proves submit-time resolution, no queue hop.
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Reply r = fut.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.kind, RequestKind::kStDistance);
    EXPECT_EQ(r.epoch, 0u);
    const double want = dijkstra(f.gg.graph, s).dist[t];
    EXPECT_NEAR(r.distance(), want, 1e-9) << s << "->" << t;
  }
  EXPECT_EQ(svc.stats().st_distance, 4u);
  EXPECT_EQ(svc.stats().queue_depth, 0u);
}

TEST(ServiceSt, StPathIsDijkstraExact) {
  const Fixture f = make_grid_fixture(8, 21);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  for (const auto& [s, t] :
       {std::pair<Vertex, Vertex>{0, 63}, {9, 41}, {55, 2}}) {
    const Reply r = svc.query(StPath{s, t});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.kind, RequestKind::kStPath);
    const double want = dijkstra(f.gg.graph, s).dist[t];
    EXPECT_NEAR(r.distance(), want, 1e-9);
    const std::vector<Vertex>& path = r.path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    EXPECT_NEAR(walk_weight(f.gg.graph, path), want, 1e-9);
  }
}

TEST(ServiceSt, UnreachablePairReportsInfinityAndEmptyPath) {
  // Two-vertex graph with a single arc 0 -> 1: nothing reaches 0.
  GraphBuilder b(2);
  b.add_edge(0, 1, 2.5);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree = build_separator_tree(Skeleton(g), make_bfs_finder());
  QueryService svc(IncrementalEngine::build(g, tree));
  const Reply d = svc.query(StDistance{1, 0});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isinf(d.distance()));
  const Reply p = svc.query(StPath{1, 0});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(std::isinf(p.distance()));
  EXPECT_TRUE(p.path().empty());
}

TEST(ServiceSt, StCacheHitIsBitIdenticalAndShared) {
  const Fixture f = make_grid_fixture(8, 22);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Reply cold = svc.query(StPath{5, 60});
  const Reply warm = svc.query(StPath{5, 60});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // Hit and miss share one immutable object — parity is structural.
  EXPECT_EQ(cold.st.get(), warm.st.get());
  EXPECT_EQ(std::memcmp(&cold.st->distance, &warm.st->distance,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(cold.path().data(), warm.path().data(),
                        cold.path().size() * sizeof(Vertex)),
            0);
  EXPECT_EQ(svc.stats().st_cache_hits, 1u);
}

TEST(ServiceSt, StPathUpgradesDistanceOnlyCacheEntry) {
  const Fixture f = make_grid_fixture(8, 23);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Reply scalar = svc.query(StDistance{3, 48});
  ASSERT_TRUE(scalar.ok());
  EXPECT_FALSE(scalar.cache_hit);
  // A path request must not serve the path-less entry: it recomputes
  // and upgrades the slot in place.
  const Reply path = svc.query(StPath{3, 48});
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(path.cache_hit);
  EXPECT_EQ(path.path().front(), 3u);
  EXPECT_DOUBLE_EQ(path.distance(), scalar.distance());
  // Both kinds now hit the upgraded entry — the very same object.
  const Reply scalar_again = svc.query(StDistance{3, 48});
  const Reply path_again = svc.query(StPath{3, 48});
  EXPECT_TRUE(scalar_again.cache_hit);
  EXPECT_TRUE(path_again.cache_hit);
  EXPECT_EQ(scalar_again.st.get(), path.st.get());
  EXPECT_EQ(path_again.st.get(), path.st.get());
}

TEST(ServiceSt, EpochSwapInvalidatesStCacheAndServesNewWeights) {
  const Fixture f = make_grid_fixture(9, 24);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Reply before = svc.query(StPath{0, 80});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.epoch, 0u);

  const std::vector<EdgeUpdate> updates{{0, 1, 0.125}, {1, 2, 0.125}};
  ASSERT_EQ(svc.apply_updates(updates), 1u);

  const Reply after = svc.query(StPath{0, 80});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_FALSE(after.cache_hit);  // epoch-0 entry swept, not served
  const Digraph shadow = reweighted(f.gg.graph, updates);
  EXPECT_NEAR(after.distance(), dijkstra(shadow, 0).dist[80], 1e-9);
  EXPECT_NEAR(walk_weight(shadow, after.path()), after.distance(), 1e-9);
  // The pre-swap reply still holds the epoch-0 answer.
  EXPECT_NEAR(before.distance(), dijkstra(f.gg.graph, 0).dist[80], 1e-9);
  EXPECT_GE(svc.stats().st_cache_invalidations, 1u);
  EXPECT_GE(svc.stats().label_builds, 2u);  // constructor + swap
}

TEST(ServiceSt, MixedKindLedgerBalances) {
  const Fixture f = make_grid_fixture(8, 25);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  EXPECT_TRUE(svc.query(SingleSource{4}).ok());
  EXPECT_TRUE(svc.query(4).ok());  // bare-vertex alias, cache hit
  EXPECT_TRUE(svc.query(StDistance{1, 9}).ok());
  EXPECT_TRUE(svc.query(StPath{1, 9}).ok());
  EXPECT_TRUE(svc.query(StPath{1, 9}).ok());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.single_source, 2u);
  EXPECT_EQ(stats.st_distance, 1u);
  EXPECT_EQ(stats.st_path, 2u);
  EXPECT_EQ(stats.single_source + stats.st_distance + stats.st_path,
            stats.submitted);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.stopped + stats.invalid);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.st_cache_hits +
                stats.st_cache_misses,
            stats.completed);
}

TEST(ServiceSt, NegativeCycleEpochFailsStRequestsUntilAnUpdateRemovesIt) {
  // An update that plants a negative cycle must not abort the service:
  // that epoch carries no hub labels, its st requests resolve kFailed,
  // and the next update that removes the cycle restores exact answers.
  const Fixture f = make_grid_fixture(8, 27);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  ASSERT_TRUE(svc.query(StDistance{0, 63}).ok());

  const std::vector<EdgeUpdate> plant{{0, 1, -20.0}};  // 0 -> 1 -> 0 < 0
  ASSERT_EQ(svc.apply_updates(plant), 1u);
  for (const Reply& r :
       {svc.query(StDistance{0, 63}), svc.query(StPath{9, 2})}) {
    EXPECT_EQ(r.status, ReplyStatus::kFailed);
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_EQ(r.st, nullptr);
  }
  EXPECT_EQ(svc.query(StDistance{0, 63}).kind, RequestKind::kStDistance);
  EXPECT_EQ(svc.query(StPath{0, 63}).kind, RequestKind::kStPath);
  // Single-source requests keep being answered, with the pass's verdict.
  const Reply ss = svc.query(SingleSource{0});
  ASSERT_TRUE(ss.ok());
  EXPECT_TRUE(ss.value->negative_cycle);

  const std::vector<EdgeUpdate> heal{{0, 1, 4.0}};
  ASSERT_EQ(svc.apply_updates(heal), 2u);
  const Digraph shadow = reweighted(f.gg.graph, heal);
  for (const auto& [s, t] : {std::pair<Vertex, Vertex>{0, 63}, {9, 2}}) {
    const Reply dist = svc.query(StDistance{s, t});
    const Reply path = svc.query(StPath{s, t});
    ASSERT_TRUE(dist.ok());
    ASSERT_TRUE(path.ok());
    EXPECT_EQ(dist.epoch, 2u);
    const double want = dijkstra(shadow, s).dist[t];
    EXPECT_NEAR(dist.distance(), want, 1e-9) << s << "->" << t;
    EXPECT_NEAR(path.distance(), want, 1e-9) << s << "->" << t;
    EXPECT_NEAR(walk_weight(shadow, path.path()), want, 1e-9);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.stopped +
                                 stats.invalid + stats.failed);
}

TEST(ServiceSt, StoppedServiceRejectsStRequests) {
  const Fixture f = make_grid_fixture(8, 26);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  svc.stop();
  const Reply r = svc.query(StDistance{0, 1});
  EXPECT_EQ(r.status, ReplyStatus::kStopped);
  EXPECT_EQ(r.kind, RequestKind::kStDistance);
}

// Client input the service cannot serve resolves kInvalid — it never
// aborts the process — and the ledger keeps balancing:
// submitted == completed + shed + stopped + invalid + failed.
void expect_ledger_balances(const QueryService& svc) {
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.stopped +
                                 stats.invalid + stats.failed);
  EXPECT_EQ(stats.single_source + stats.st_distance + stats.st_path,
            stats.submitted);
}

TEST(ServiceInvalid, StRequestWithoutPointToPoint) {
  const Fixture f = make_grid_fixture(8, 27);
  ServiceOptions opts;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  EXPECT_TRUE(svc.query(7).ok());  // single-source still serves
  const Reply d = svc.query(StDistance{0, 1});
  EXPECT_EQ(d.status, ReplyStatus::kInvalid);
  EXPECT_EQ(d.kind, RequestKind::kStDistance);
  const Reply p = svc.query(StPath{0, 1});
  EXPECT_EQ(p.status, ReplyStatus::kInvalid);
  EXPECT_EQ(p.kind, RequestKind::kStPath);
  EXPECT_EQ(svc.stats().invalid, 2u);
  expect_ledger_balances(svc);
}

TEST(ServiceInvalid, SourceOutOfRange) {
  const Fixture f = make_grid_fixture(8, 28);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  const Reply r = svc.query(SingleSource{64});  // n == 64
  EXPECT_EQ(r.status, ReplyStatus::kInvalid);
  EXPECT_EQ(r.kind, RequestKind::kSingleSource);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(svc.query(63).ok());  // the service keeps serving
  const auto stats = svc.stats();
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the invalid request never queued
  expect_ledger_balances(svc);
}

TEST(ServiceInvalid, StEndpointOutOfRange) {
  const Fixture f = make_grid_fixture(8, 29);
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree));
  EXPECT_EQ(svc.query(StDistance{64, 0}).status, ReplyStatus::kInvalid);
  EXPECT_EQ(svc.query(StDistance{0, 64}).status, ReplyStatus::kInvalid);
  EXPECT_EQ(svc.query(StPath{0, 1000}).status, ReplyStatus::kInvalid);
  EXPECT_TRUE(svc.query(StPath{0, 63}).ok());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.st_cache_hits + stats.st_cache_misses, stats.completed);
  expect_ledger_balances(svc);
}

TEST(ServiceInvalid, ApproxRequestWithoutApproxEngine) {
  const Fixture f = make_grid_fixture(5, 30);
  ServiceOptions opts;
  opts.dispatchers = 0;
  opts.point_to_point = false;
  QueryService svc(IncrementalEngine::build(f.gg.graph, f.tree), opts);
  const Reply ss = svc.submit(SingleSource{0, /*approx=*/true}).get();
  EXPECT_EQ(ss.status, ReplyStatus::kInvalid);
  EXPECT_EQ(ss.kind, RequestKind::kSingleSource);
  const Reply st = svc.submit(StDistance{0, 1, /*approx=*/true}).get();
  EXPECT_EQ(st.status, ReplyStatus::kInvalid);
  EXPECT_EQ(st.kind, RequestKind::kStDistance);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);  // resolved at submit, never queued
  expect_ledger_balances(svc);
}

TEST(StCacheTest, EpochInvalidationAndPairKeying) {
  StCache cache({/*capacity_bytes=*/4096, /*shards=*/1});
  const auto value = [](double d) {
    return std::make_shared<const CachedStAnswer>(
        CachedStAnswer{d, false, {}});
  };
  cache.insert(0, 1, 2, value(5.0));
  cache.insert(0, 2, 1, value(7.0));  // reversed pair is a distinct key
  ASSERT_NE(cache.lookup(0, 1, 2), nullptr);
  EXPECT_DOUBLE_EQ(cache.lookup(0, 1, 2)->distance, 5.0);
  EXPECT_DOUBLE_EQ(cache.lookup(0, 2, 1)->distance, 7.0);
  // Stale-on-contact at another epoch.
  EXPECT_EQ(cache.lookup(1, 1, 2), nullptr);
  EXPECT_EQ(cache.lookup(0, 1, 2), nullptr);
  // Sweep: the remaining epoch-0 entry dies, a fresh one survives.
  cache.insert(1, 3, 4, value(1.0));
  EXPECT_EQ(cache.invalidate_older_than(1), 1u);
  EXPECT_NE(cache.lookup(1, 3, 4), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(DistanceCacheTest, LruEvictionAndEpochInvalidation) {
  DistanceCache cache({/*capacity_bytes=*/3 * (4 * sizeof(double) + 128),
                       /*shards=*/1});
  const auto value = [] {
    return std::make_shared<const CachedDistances>(
        CachedDistances{{1.0, 2.0, 3.0, 4.0}, false});
  };
  cache.insert(0, 1, value());
  cache.insert(0, 2, value());
  cache.insert(0, 3, value());
  EXPECT_NE(cache.lookup(0, 1), nullptr);  // refresh 1's recency
  cache.insert(0, 4, value());             // evicts 2 (LRU tail)
  EXPECT_EQ(cache.lookup(0, 2), nullptr);
  EXPECT_NE(cache.lookup(0, 1), nullptr);
  // A lookup at another epoch kills the entry on contact.
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(cache.lookup(0, 1), nullptr);
  // Sweep removes everything older than the new epoch (3 and 4 remain
  // at epoch 0; the fresh entry at epoch 1 survives).
  cache.insert(1, 5, value());
  EXPECT_EQ(cache.invalidate_older_than(1), 2u);
  EXPECT_NE(cache.lookup(1, 5), nullptr);
}

}  // namespace
}  // namespace sepsp
