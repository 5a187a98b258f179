// The sepsp::obs subsystem: interned instruments, snapshots, resets,
// nested trace spans, and the sinks. Recording assertions are gated on
// SEPSP_OBS_ENABLED so the suite also passes (trivially) in an
// observability-off build, where the same calls must compile to no-ops.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "obs/sink.hpp"
#include "pram/cost_model.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "util/cacheline.hpp"

namespace sepsp::obs {
namespace {

TEST(Stats, CounterInternedByName) {
  Counter& a = counter("test.obs.interned");
  Counter& b = counter("test.obs.interned");
  EXPECT_EQ(&a, &b);  // stable address: hot paths may cache the handle
  a.reset();
  a.add(3);
  b.add(4);
  if constexpr (compiled_in()) {
    EXPECT_EQ(a.value(), 7u);
  } else {
    EXPECT_EQ(a.value(), 0u);
  }
}

TEST(Stats, GaugeLastWriteWins) {
  Gauge& g = gauge("test.obs.gauge");
  g.set(42);
  g.add(-2);
  if constexpr (compiled_in()) {
    EXPECT_EQ(g.value(), 40);
  }
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Stats, HistogramBucketsByBitWidth) {
  Histogram& h = histogram("test.obs.hist");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(5);   // bit_width 3
  h.record(5);
  StatsSnapshot::HistogramData d;
  h.snapshot_into(&d);
  if constexpr (compiled_in()) {
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.sum, 11u);
    EXPECT_EQ(d.min, 0u);
    EXPECT_EQ(d.max, 5u);
    EXPECT_EQ(d.buckets[0], 1u);  // the sample 0
    EXPECT_EQ(d.buckets[1], 1u);  // 1
    EXPECT_EQ(d.buckets[3], 2u);  // 4..7
  }
}

TEST(Stats, SnapshotFindsCounterByName) {
  counter("test.obs.snap").reset();
  counter("test.obs.snap").add(9);
  const StatsSnapshot snap = StatsRegistry::instance().snapshot();
  if constexpr (compiled_in()) {
    EXPECT_EQ(snap.counter_or_zero("test.obs.snap"), 9u);
  }
  EXPECT_EQ(snap.counter_or_zero("test.obs.does_not_exist"), 0u);
}

TEST(Stats, ResetValuesKeepsAddresses) {
  Counter& c = counter("test.obs.reset");
  c.add(5);
  StatsRegistry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &counter("test.obs.reset"));
}

TEST(Stats, CountersAreThreadSafe) {
  Counter& c = counter("test.obs.mt");
  c.reset();
  constexpr int kThreads = 4, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  if constexpr (compiled_in()) {
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
  }
}

TEST(Trace, NestedSpansFormTree) {
  trace_reset();
  {
    SEPSP_TRACE_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) {
      SEPSP_TRACE_SPAN("test.inner");
    }
  }
  const TraceSnapshotNode root = trace_snapshot();
#if SEPSP_OBS_ENABLED
  const TraceSnapshotNode* outer = find_trace_node(root, "test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].name, "test.inner");
  EXPECT_EQ(outer->children[0].calls, 3u);  // aggregated, not 3 nodes
#else
  EXPECT_TRUE(root.children.empty());
#endif
}

TEST(Trace, IncrementalApplySpansOnePerPhase) {
  Rng rng(8);
  const auto gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const auto tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  IncrementalEngine engine = IncrementalEngine::build(gg.graph, tree);
  const Arc& arc = gg.graph.arcs()[0];
  engine.update_edge(gg.graph.arc_sources()[0], arc.to, arc.weight + 3);
  trace_reset();
  engine.apply();
  const TraceSnapshotNode root = trace_snapshot();
#if SEPSP_OBS_ENABLED
  const TraceSnapshotNode* apply = find_trace_node(root, "incremental.apply");
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->calls, 1u);
  std::vector<std::string> phases;
  for (const TraceSnapshotNode& child : apply->children) {
    phases.push_back(child.name);
    EXPECT_EQ(child.calls, 1u) << child.name;
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"incremental.recompute",
                                              "incremental.reminimize",
                                              "incremental.refresh"}));
#else
  EXPECT_TRUE(root.children.empty());
#endif
}

TEST(Trace, ResetClearsRecordedSpans) {
  {
    SEPSP_TRACE_SPAN("test.cleared");
  }
  trace_reset();
  EXPECT_EQ(find_trace_node(trace_snapshot(), "test.cleared"), nullptr);
}

TEST(Trace, SpansMergeAcrossThreads) {
  trace_reset();
  std::thread worker([] {
    SEPSP_TRACE_SPAN("test.cross_thread");
  });
  worker.join();
  {
    SEPSP_TRACE_SPAN("test.cross_thread");
  }
  const TraceSnapshotNode root = trace_snapshot();
#if SEPSP_OBS_ENABLED
  const TraceSnapshotNode* node = find_trace_node(root, "test.cross_thread");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->calls, 2u);  // same name, two arenas, one merged node
#endif
}

TEST(Sink, HumanTablesPrintWithoutCrashing) {
  counter("test.obs.sink").add(1);
  {
    SEPSP_TRACE_SPAN("test.sink_span");
  }
  std::ostringstream os;
  print_all(os);
  if constexpr (compiled_in()) {
    EXPECT_NE(os.str().find("test.obs.sink"), std::string::npos);
  }
}

TEST(Sink, JsonRecordsAreTyped) {
  StatsRegistry::instance().reset_values();
  trace_reset();
  counter("test.obs.json").add(2);
  {
    SEPSP_TRACE_SPAN("test.json_span");
  }
  std::ostringstream os;
  write_json(os, StatsRegistry::instance().snapshot(), trace_snapshot());
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  if constexpr (compiled_in()) {
    EXPECT_NE(out.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(out.find("\"test.obs.json\""), std::string::npos);
    EXPECT_NE(out.find("\"kind\": \"span\""), std::string::npos);
  }
}

// A striped counter's cell is one whole cache line, so no two threads'
// cells share one.
static_assert(sizeof(StripedCounter::Cell) == kCacheLineBytes);
static_assert(alignof(StripedCounter::Cell) == kCacheLineBytes);

TEST(Obs, StripedCounterSumsExactlyAcrossThreads) {
  // Every summed counter adds on the charging thread's own cell: a
  // bare StripedCounter, a registry counter and the PRAM cost meter.
  // Their totals must be exact however the threads fall on cells, and
  // each reset, run on this thread, must zero the other threads' cells.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAdds = 100000;
  constexpr std::uint64_t kTotal = kThreads * kAdds;
  StripedCounter striped;
  Counter& c = counter("test.obs.striped");
  const auto charge_from_threads = [&] {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < kAdds; ++i) {
          striped.add();
          c.add();
          pram::CostMeter::charge_work(1);
          pram::CostMeter::charge_depth(2);
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  c.reset();
  pram::CostMeter::reset();
  charge_from_threads();
  EXPECT_EQ(striped.load(), kTotal);
  if constexpr (compiled_in()) {
    EXPECT_EQ(c.value(), kTotal);
  }
  EXPECT_EQ(pram::CostMeter::snapshot(), (pram::Cost{kTotal, 2 * kTotal}));

  striped.reset();
  c.reset();
  pram::CostMeter::reset();
  EXPECT_EQ(striped.load(), 0u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(pram::CostMeter::snapshot(), pram::Cost{});

  charge_from_threads();
  StatsRegistry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  pram::CostMeter::reset();
}

/// Every instrument name the registry holds, of any kind.
std::set<std::string> registry_names() {
  const StatsSnapshot snap = StatsRegistry::instance().snapshot();
  std::set<std::string> names;
  for (const auto& c : snap.counters) names.insert(c.first);
  for (const auto& g : snap.gauges) names.insert(g.first);
  for (const auto& h : snap.histograms) names.insert(h.name);
  return names;
}

TEST(Obs, InstanceMetricsStayOutOfRegistry) {
  // Per-instance metrics live in their owner's ledger (EngineStats,
  // ServiceStats, ApplyStats, BufferPool::Stats); the registry holds
  // only process-wide instruments. Drive every owner, then check that
  // no instance-scoped name was registered along the way.
  StatsRegistry::instance().reset_values();
  const std::set<std::string> before = registry_names();

  Rng rng(3);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  {
    service::ServiceOptions opts;
    opts.lanes = 4;
    opts.dispatchers = 1;
    opts.point_to_point = true;
    opts.approx.enabled = true;
    opts.approx.eps = 0.3;
    service::QueryService svc(IncrementalEngine::build(gg.graph, tree), opts);
    EXPECT_TRUE(svc.query(service::SingleSource{0}).ok());
    EXPECT_TRUE(svc.query(service::SingleSource{0}).ok());  // cache hit
    EXPECT_TRUE(svc.query(service::SingleSource{40, /*approx=*/true}).ok());
    EXPECT_TRUE(svc.query(service::StDistance{0, 80}).ok());
    EXPECT_TRUE(svc.query(service::StPath{0, 80}).ok());
    const Arc arc = gg.graph.out(0)[0];
    svc.apply_updates(
        std::vector<service::EdgeUpdate>{{0, arc.to, arc.weight + 1}});
    EXPECT_TRUE(svc.query(service::SingleSource{0}).ok());
    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.completed, 6u);
    EXPECT_EQ(st.epoch_swaps, 1u);
  }

  const std::string path = testing::TempDir() + "sepsp_obs_registry.sep3";
  std::string error;
  ASSERT_TRUE(store::write_engine_image(path, engine, &error)) << error;
  {
    auto stored = store::StoredEngine<TropicalD>::open(path, {}, &error);
    ASSERT_TRUE(stored.has_value()) << error;
    (void)stored->engine().distances(0);
    EXPECT_GT(stored->pool().stats().faults, 0u);
  }
  std::remove(path.c_str());

  constexpr std::string_view kInstancePrefixes[] = {
      "service.", "query.", "incr.", "store.", "build.", "engine.", "approx."};
  for (const std::string& name : registry_names()) {
    if (before.count(name) != 0) continue;
    for (const std::string_view prefix : kInstancePrefixes) {
      EXPECT_FALSE(name.starts_with(prefix)) << name << " was registered";
    }
  }
}

}  // namespace
}  // namespace sepsp::obs
