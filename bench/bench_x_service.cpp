// X — the query-serving runtime under closed-loop load.
//
// What the serving stack (src/service/) is supposed to buy over calling
// the engine directly, measured:
//   * coalescing: C concurrent clients are micro-batched into lane
//     groups, so served throughput should reach a multiple of the
//     single-lane capacity at high mean lane occupancy;
//   * caching: a skewed source pool is answered from the epoch-tagged
//     distance cache at a fraction of the kernel cost, bit-identically;
//   * epoch swaps: weight updates applied mid-load never fail or block
//     a request.
//
// Closed-loop harness: each client thread submits its next request only
// after the previous reply resolves, so offered load self-adjusts to
// service capacity (C in-flight requests at all times) — with C = 2x
// the lane width the coalescer always has a full group's worth of
// demand queued, and with a pool of two or more participants one
// dispatch runs both groups in parallel.
//
// A hit-scaling row drives 1, 2 and 4 clients of pure cache hits (all
// request shapes, warm caches) to show what concurrent hits cost.
//
// The scaling scenarios run one instance under a production-shaped
// workload (workload.hpp): a dispatcher-scaling row (1 vs one
// dispatcher per hardware thread under miss-heavy load — the knob that
// spends more cores on one shared E+), and Poisson open-loop SLO rows
// (sustained qps at coordinated-omission-corrected p99 < 1 ms) with a
// concurrent update stream, per dispatcher count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/incremental.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "workload.hpp"

using namespace sepsp;
using namespace sepsp::bench;
using service::QueryService;
using service::Reply;
using service::ServiceOptions;
using service::StDistance;
using service::StPath;

namespace {

std::vector<Vertex> pick_sources(std::size_t n, std::size_t count,
                                 std::uint64_t seed) {
  std::vector<Vertex> sources(count);
  Rng pick(seed);
  for (Vertex& s : sources) s = static_cast<Vertex>(pick.next_below(n));
  return sources;
}

struct LoadResult {
  double seconds = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::vector<std::uint64_t> latencies_ns;  ///< of ok replies, unsorted

  double qps() const { return static_cast<double>(ok) / seconds; }
  /// q-quantile of the ok latencies, in microseconds.
  double latency_us(double q) {
    if (latencies_ns.empty()) return 0;
    std::sort(latencies_ns.begin(), latencies_ns.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ns.size() - 1));
    return static_cast<double>(latencies_ns[idx]) / 1e3;
  }
};

/// Drives `clients` closed-loop threads for `duration`: each sends its
/// next request (`ask(rng)`, with a per-client Rng seeded `seed + c`)
/// only after the previous reply resolved.
template <typename Ask>
LoadResult run_closed_loop(std::size_t clients, std::uint64_t seed,
                           std::chrono::milliseconds duration,
                           const Ask& ask) {
  std::atomic<std::uint64_t> ok{0}, failed{0}, hits{0};
  std::vector<std::vector<std::uint64_t>> lat(clients);
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  WallTimer timer;
  const auto deadline = std::chrono::steady_clock::now() + duration;
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      Rng pick(seed + c);
      while (std::chrono::steady_clock::now() < deadline) {
        const Reply r = ask(pick);
        if (!r.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok.fetch_add(1, std::memory_order_relaxed);
        if (r.cache_hit) hits.fetch_add(1, std::memory_order_relaxed);
        lat[c].push_back(r.latency_ns);
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  LoadResult result;
  result.seconds = timer.seconds();
  result.ok = ok.load();
  result.failed = failed.load();
  result.cache_hits = hits.load();
  for (const auto& v : lat) {
    result.latencies_ns.insert(result.latencies_ns.end(), v.begin(), v.end());
  }
  return result;
}

/// Closed-loop single-source load, each client querying uniformly from
/// `pool`.
LoadResult run_load(QueryService& service, std::size_t clients,
                    const std::vector<Vertex>& pool,
                    std::chrono::milliseconds duration) {
  return run_closed_loop(clients, 1000, duration, [&](Rng& pick) {
    return service.query(pool[pick.next_below(pool.size())]);
  });
}

ServiceOptions make_options(std::size_t lanes, bool cache) {
  ServiceOptions opts;
  opts.lanes = lanes;
  // A zero budget stores nothing: the cache-off rows take every miss.
  opts.cache_capacity_bytes = cache ? std::size_t{32} << 20 : 0;
  if (!cache) opts.st_cache_capacity_bytes = 0;
  // The single-source scenarios skip the per-epoch label/routing build;
  // the point-to-point scenario opts back in.
  opts.point_to_point = false;
  return opts;
}

std::vector<std::pair<Vertex, Vertex>> pick_pairs(std::size_t n,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  std::vector<std::pair<Vertex, Vertex>> pairs(count);
  Rng pick(seed);
  for (auto& p : pairs) {
    p.first = static_cast<Vertex>(pick.next_below(n));
    p.second = static_cast<Vertex>(pick.next_below(n));
  }
  return pairs;
}

/// Closed-loop point-to-point load: every request resolves at submit
/// time, so this measures label-merge (+ path-unpack) cost plus
/// st-cache behaviour, not queueing.
LoadResult run_st_load(QueryService& service, std::size_t clients,
                       const std::vector<std::pair<Vertex, Vertex>>& pairs,
                       bool want_path, std::chrono::milliseconds duration) {
  return run_closed_loop(clients, 3000, duration, [&](Rng& pick) {
    const auto& [s, t] = pairs[pick.next_below(pairs.size())];
    return want_path ? service.query(StPath{s, t})
                     : service.query(StDistance{s, t});
  });
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "x_service");
  const int sc = scale();
  const std::chrono::milliseconds duration(sc == 0 ? 200 : sc * 1000);
  Rng rng(1);
  const Instance inst = grid2d(sc == 0 ? 33 : 65, WeightModel::uniform(1, 10),
                               rng);
  const std::vector<Vertex> wide_pool = pick_sources(inst.n(), 256, 11);
  const std::vector<Vertex> hot_pool = pick_sources(inst.n(), 8, 12);
  // Point-to-point scenarios run on a smaller instance: every service
  // construction (and every epoch swap) pays a full label+routing
  // build, which takes tens of seconds at the single-source scale.
  Rng st_rng(2);
  const Instance st_inst =
      grid2d(sc == 0 ? 17 : 33, WeightModel::uniform(1, 10), st_rng);

  Table table("X — query service under closed-loop load");
  table.set_header({"scenario", "lanes", "clients", "qps", "p50 us", "p99 us",
                    "p999 us", "occupancy", "hit rate", "shed", "swaps"});
  const auto report = [&](const std::string& scenario, std::size_t lanes,
                          std::size_t clients, LoadResult r,
                          const service::ServiceStats& s) {
    const double p50 = r.latency_us(0.50);
    const double p99 = r.latency_us(0.99);
    const double p999 = r.latency_us(0.999);
    table.add_row()
        .cell(scenario)
        .cell(static_cast<std::uint64_t>(lanes))
        .cell(static_cast<std::uint64_t>(clients))
        .cell(r.qps(), 0)
        .cell(p50, 0)
        .cell(p99, 0)
        .cell(p999, 0)
        .cell(s.batch_occupancy(), 3)
        .cell(s.hit_rate(), 3)
        .cell(s.shed)
        .cell(s.epoch_swaps);
    json()
        .row("service_load")
        .field("scenario", scenario)
        .field("lanes", static_cast<std::uint64_t>(lanes))
        .field("clients", static_cast<std::uint64_t>(clients))
        .field("qps", r.qps())
        .field("p50_us", p50)
        .field("p99_us", p99)
        .field("p999_us", p999)
        .field("occupancy", s.batch_occupancy())
        .field("mean_coalesce_us", s.mean_coalesce_us())
        .field("hit_rate", s.hit_rate())
        .field("shed", s.shed)
        .field("swaps", s.epoch_swaps)
        .field("completed", s.completed)
        .field("failed", r.failed)
        .field("mean_swap_us", s.mean_swap_us())
        .field("max_swap_us", static_cast<double>(s.swap_ns_max) / 1e3);
  };

  // --- single-lane capacity: the coalescing baseline ---------------------
  double single_lane_qps = 0;
  {
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(1, /*cache=*/false));
    LoadResult r = run_load(svc, 2, wide_pool, duration);
    single_lane_qps = r.qps();
    report("single-lane", 1, 2, std::move(r), svc.stats());
  }

  // --- coalesced throughput: C = 2x lanes, cache off ---------------------
  double coalesced_qps = 0;
  double occupancy = 0;
  {
    const std::size_t lanes = 8;
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(lanes, /*cache=*/false));
    LoadResult r = run_load(svc, 2 * lanes, wide_pool, duration);
    const auto s = svc.stats();
    coalesced_qps = r.qps();
    occupancy = s.batch_occupancy();
    report("coalesced", lanes, 2 * lanes, std::move(r), s);
  }

  // --- cached: hot pool, cache on -----------------------------------------
  {
    const std::size_t lanes = 8;
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(lanes, /*cache=*/true));
    LoadResult r = run_load(svc, 2 * lanes, hot_pool, duration);
    const auto s = svc.stats();  // after the load (evaluation order!)
    report("cached", lanes, 2 * lanes, std::move(r), s);
  }

  // --- swaps mid-load: an updater thread changes the weighting -----------
  {
    const std::size_t lanes = 8;
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(lanes, /*cache=*/true));
    const auto edges = inst.gg.graph.edge_list();
    std::atomic<bool> stop_updates{false};
    std::thread updater([&] {
      Rng pick(21);
      while (!stop_updates.load(std::memory_order_relaxed)) {
        const EdgeTriple& e = edges[pick.next_below(edges.size())];
        svc.apply_updates(std::vector<service::EdgeUpdate>{
            {e.from, e.to, pick.next_double(0.5, 20.0)}});
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    LoadResult r = run_load(svc, 2 * lanes, hot_pool, duration);
    stop_updates.store(true, std::memory_order_relaxed);
    updater.join();
    const auto s = svc.stats();
    const std::uint64_t failed = r.failed;
    report("swapping", lanes, 2 * lanes, std::move(r), s);
    if (failed != 0) {
      std::cerr << "FAIL: " << failed << " requests failed during swaps\n";
      return 1;
    }
  }

  // --- sustained update stream: swap latency under churn ------------------
  // An updater thread pushes multi-edge batches as fast as the engine
  // absorbs them (1 ms pacing) while clients keep querying: the row's
  // p99 is the query latency *during* continuous epoch swaps, and the
  // swap columns show the proportional snapshot+publish cost (mean and
  // max over hundreds of swaps, vs a handful in the "swapping" row).
  {
    const std::size_t lanes = 8;
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(lanes, /*cache=*/true));
    const auto edges = inst.gg.graph.edge_list();
    std::atomic<bool> stop_updates{false};
    std::atomic<std::uint64_t> batches_applied{0};
    std::thread updater([&] {
      Rng pick(23);
      std::vector<service::EdgeUpdate> batch(4);
      while (!stop_updates.load(std::memory_order_relaxed)) {
        for (auto& u : batch) {
          const EdgeTriple& e = edges[pick.next_below(edges.size())];
          u = {e.from, e.to, pick.next_double(0.5, 20.0)};
        }
        svc.apply_updates(batch);
        batches_applied.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    LoadResult r = run_load(svc, 2 * lanes, hot_pool, duration);
    stop_updates.store(true, std::memory_order_relaxed);
    updater.join();
    const auto s = svc.stats();
    const std::uint64_t failed = r.failed;
    report("update-stream", lanes, 2 * lanes, std::move(r), s);
    std::cout << "update-stream: " << batches_applied.load()
              << " swaps, mean swap " << s.mean_swap_us() << " us, max "
              << static_cast<double>(s.swap_ns_max) / 1e3 << " us\n";
    if (failed != 0) {
      std::cerr << "FAIL: " << failed
                << " requests failed during the update stream\n";
      return 1;
    }
  }

  // --- point-to-point: hub-labeled st serving ------------------------------
  // St requests resolve at submit time (no lane hop): the per-request
  // cost is a sorted label merge for StDistance plus a hop-by-hop
  // routing-table unpack for StPath. The miss-heavy rows shrink the st
  // cache to a few entries so the merge/unpack cost dominates; the hot
  // row uses the default capacity to measure the cached fast path.
  {
    const auto st_report = [&](const std::string& scenario, LoadResult r,
                               const service::ServiceStats& s) {
      const double p50 = r.latency_us(0.50);
      const double p99 = r.latency_us(0.99);
      table.add_row()
          .cell(scenario)
          .cell(std::uint64_t{0})
          .cell(std::uint64_t{8})
          .cell(r.qps(), 0)
          .cell(p50, 2)
          .cell(p99, 2)
          .cell(r.latency_us(0.999), 2)
          .cell(0.0, 3)
          .cell(s.st_hit_rate(), 3)
          .cell(s.shed)
          .cell(s.epoch_swaps);
      json()
          .row("st_load")
          .field("scenario", scenario)
          .field("clients", std::uint64_t{8})
          .field("qps", r.qps())
          .field("p50_us", p50)
          .field("p99_us", p99)
          .field("st_hit_rate", s.st_hit_rate())
          .field("st_cache_hits", s.st_cache_hits)
          .field("st_cache_misses", s.st_cache_misses)
          .field("mean_merge_ns", s.mean_st_merge_ns())
          .field("label_builds", s.label_builds)
          .field("mean_label_build_ms", s.mean_label_build_ms())
          .field("completed", s.completed)
          .field("failed", r.failed);
    };
    ServiceOptions opts = make_options(8, /*cache=*/true);
    opts.point_to_point = true;
    const std::vector<std::pair<Vertex, Vertex>> wide_pairs =
        pick_pairs(st_inst.n(), 4096, 31);
    const std::vector<std::pair<Vertex, Vertex>> hot_pairs =
        pick_pairs(st_inst.n(), 16, 32);
    ServiceOptions miss_opts = opts;
    miss_opts.st_cache_capacity_bytes = 2048;  // a handful of entries
    miss_opts.st_cache_shards = 1;
    {
      QueryService svc(IncrementalEngine::build(st_inst.gg.graph, st_inst.tree),
                       miss_opts);
      LoadResult r = run_st_load(svc, 8, wide_pairs, /*want_path=*/false,
                                 duration);
      st_report("st-distance", std::move(r), svc.stats());
    }
    {
      QueryService svc(IncrementalEngine::build(st_inst.gg.graph, st_inst.tree),
                       miss_opts);
      LoadResult r = run_st_load(svc, 8, wide_pairs, /*want_path=*/true,
                                 duration);
      st_report("st-path", std::move(r), svc.stats());
    }
    {
      QueryService svc(IncrementalEngine::build(st_inst.gg.graph, st_inst.tree),
                       opts);
      LoadResult r = run_st_load(svc, 8, hot_pairs, /*want_path=*/true,
                                 duration);
      st_report("st-hot", std::move(r), svc.stats());
    }
  }

  // --- st cache parity: an st hit must be bit-identical to its miss -------
  {
    ServiceOptions opts = make_options(8, /*cache=*/true);
    opts.point_to_point = true;
    QueryService svc(IncrementalEngine::build(st_inst.gg.graph, st_inst.tree),
                     opts);
    const Vertex s = static_cast<Vertex>(1);
    const Vertex t = static_cast<Vertex>(st_inst.n() - 2);
    const Reply cold = svc.query(StPath{s, t});
    const Reply warm = svc.query(StPath{s, t});
    const bool identical =
        warm.cache_hit &&
        std::memcmp(&cold.st->distance, &warm.st->distance,
                    sizeof(double)) == 0 &&
        cold.st->path == warm.st->path;
    json().row("st_parity").field(
        "bit_identical", static_cast<std::uint64_t>(identical ? 1 : 0));
    if (!identical) {
      std::cerr << "FAIL: cached st reply is not bit-identical\n";
      return 1;
    }
  }

  // --- cache parity: a hit must be bit-identical to its miss --------------
  {
    QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                     make_options(8, /*cache=*/true));
    const Reply cold = svc.query(wide_pool[0]);
    const Reply warm = svc.query(wide_pool[0]);
    const bool identical =
        warm.cache_hit && cold.dist().size() == warm.dist().size() &&
        std::memcmp(cold.dist().data(), warm.dist().data(),
                    cold.dist().size() * sizeof(double)) == 0;
    json().row("cache_parity").field(
        "bit_identical", static_cast<std::uint64_t>(identical ? 1 : 0));
    if (!identical) {
      std::cerr << "FAIL: cached reply is not bit-identical\n";
      return 1;
    }
  }

  // --- hit scaling: pure cache hits from 1, 2 and 4 clients --------------
  // A warm cache answers every request of every shape at submit time,
  // so this measures the hit path alone: what concurrent clients pay
  // when they hit the same hot keys at once.
  {
    ServiceOptions opts = make_options(8, /*cache=*/true);
    opts.point_to_point = true;
    opts.approx.enabled = true;
    QueryService svc(IncrementalEngine::build(st_inst.gg.graph, st_inst.tree),
                     opts);
    const std::vector<std::pair<Vertex, Vertex>> hot =
        pick_pairs(st_inst.n(), 16, 33);
    constexpr std::size_t kShapes = 5;
    const auto ask = [&](std::size_t shape, std::pair<Vertex, Vertex> p) {
      const auto [s, t] = p;
      switch (shape) {
        case 0:
          return svc.query(service::SingleSource{s});
        case 1:
          return svc.query(service::SingleSource{s, /*approx=*/true});
        case 2:
          return svc.query(StDistance{s, t});
        case 3:
          return svc.query(StDistance{s, t, /*approx=*/true});
        default:
          return svc.query(StPath{s, t});
      }
    };
    for (const auto& p : hot) {
      for (std::size_t shape = 0; shape < kShapes; ++shape) ask(shape, p);
    }
    for (const std::size_t clients : {1, 2, 4}) {
      LoadResult r = run_closed_loop(clients, 5000, duration, [&](Rng& pick) {
        return ask(pick.next_below(kShapes), hot[pick.next_below(hot.size())]);
      });
      const double hit_rate =
          r.ok == 0 ? 0
                    : static_cast<double>(r.cache_hits) /
                          static_cast<double>(r.ok);
      const double p50 = r.latency_us(0.50);
      const double p999 = r.latency_us(0.999);
      std::cout << "hit scaling: " << clients << " clients, " << r.qps()
                << " qps, p50 " << p50 << " us, p99.9 " << p999
                << " us, hit rate " << hit_rate << "\n";
      json()
          .row("hit_scaling")
          .field("clients", static_cast<std::uint64_t>(clients))
          .field("qps", r.qps())
          .field("p50_us", p50)
          .field("p999_us", p999)
          .field("hit_rate", hit_rate)
          .field("failed", r.failed)
          .field("obs", static_cast<std::uint64_t>(obs::compiled_in()));
    }
  }

  // --- dispatcher scaling: one instance, more cores ----------------------
  // Miss-heavy lean load (cache off, 2 clients per dispatcher) against
  // one dispatcher, then one dispatcher per hardware thread: every
  // dispatcher runs its own batch kernel over the one shared snapshot.
  // The row carries hardware_threads so CI gates the expected gain on
  // hardware that can express it (a 1-thread runner reports ~1x).
  const std::size_t hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t max_dispatchers = std::max<std::size_t>(2, hw_threads);
  {
    const std::size_t clients = 2 * max_dispatchers;
    std::uint64_t failed = 0;
    struct Served {
      double qps;
      double mean_coalesce_us;
    };
    const auto serve = [&](std::size_t dispatchers) {
      ServiceOptions lean = make_options(8, /*cache=*/false);
      lean.dispatchers = static_cast<unsigned>(dispatchers);
      QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                       lean);
      const LoadResult r = run_load(svc, clients, wide_pool, duration);
      failed += r.failed;
      return Served{r.qps(), svc.stats().mean_coalesce_us()};
    };
    const Served single = serve(1);
    const Served scaled = serve(max_dispatchers);
    const double speedup = single.qps == 0 ? 0 : scaled.qps / single.qps;
    std::cout << "dispatcher scaling: " << scaled.qps << " qps at "
              << max_dispatchers << " dispatchers vs " << single.qps
              << " qps at 1 (" << speedup << "x) on " << hw_threads
              << " hardware threads\n";
    json()
        .row("dispatcher_scaling")
        .field("dispatchers", static_cast<std::uint64_t>(max_dispatchers))
        .field("hardware_threads", static_cast<std::uint64_t>(hw_threads))
        .field("clients", static_cast<std::uint64_t>(clients))
        .field("single_qps", single.qps)
        .field("scaled_qps", scaled.qps)
        .field("single_coalesce_us", single.mean_coalesce_us)
        .field("scaled_coalesce_us", scaled.mean_coalesce_us)
        .field("speedup", speedup)
        .field("failed", failed);
  }

  // --- SLO: Poisson open-loop arrivals + concurrent update stream --------
  // Ladders offered rate (fractions of a closed-loop calibration) and
  // reports the highest rate whose coordinated-omission-corrected p99
  // stays under the 1 ms budget, per dispatcher count, while an updater
  // thread swaps epochs throughout.
  {
    const double theta = 0.99;  // YCSB-style production skew
    ZipfVertexPool pool(inst.n(), 256, theta, 79);
    const double kP99BudgetUs = 1000.0;
    const std::size_t kInjectors = 4;
    for (const std::size_t dispatchers :
         {std::size_t{1}, max_dispatchers}) {
      ServiceOptions opts = make_options(8, /*cache=*/true);
      opts.dispatchers = static_cast<unsigned>(dispatchers);
      QueryService svc(IncrementalEngine::build(inst.gg.graph, inst.tree),
                       opts);

      // The update stream runs through calibration AND the rate
      // ladder: churn keeps invalidating cache entries, so the
      // calibrated capacity reflects the same miss mix the open-loop
      // phase will see (calibrating quiescent would set the ladder
      // from a cache-saturated qps the churned service can never
      // meet).
      const auto edges = inst.gg.graph.edge_list();
      std::atomic<bool> stop_updates{false};
      std::thread updater([&] {
        Rng pick(29);
        std::vector<service::EdgeUpdate> batch(4);
        while (!stop_updates.load(std::memory_order_relaxed)) {
          for (auto& u : batch) {
            const EdgeTriple& e = edges[pick.next_below(edges.size())];
            u = {e.from, e.to, pick.next_double(0.5, 20.0)};
          }
          svc.apply_updates(batch);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });

      // Closed-loop calibration at the *injector* concurrency and the
      // same Zipf mix: the rate ladder must scale off what the open
      // loop could actually push, not the wide-concurrency hit-path
      // capacity.
      ZipfGenerator calib_draw(pool.by_rank().size(), theta, 80);
      std::vector<Vertex> calib_sample(4096);
      for (Vertex& v : calib_sample) v = pool.by_rank()[calib_draw.next()];
      const double capacity_qps =
          run_load(svc, kInjectors, calib_sample, duration).qps();

      double sustained_qps = 0;
      for (const double frac : {0.25, 0.5, 0.8}) {
        const double rate = std::max(1.0, frac * capacity_qps);
        OpenLoopResult o = run_open_loop(svc, rate, kInjectors, pool, theta,
                                         /*seed=*/81, duration);
        const double p50 = o.latency_us(0.50);
        const double p99 = o.latency_us(0.99);
        if (o.failed == 0 && p99 < kP99BudgetUs) {
          sustained_qps = std::max(sustained_qps, o.achieved_qps());
        }
        json()
            .row("slo")
            .field("dispatchers", static_cast<std::uint64_t>(dispatchers))
            .field("offered_qps", o.offered_qps)
            .field("achieved_qps", o.achieved_qps())
            .field("p50_us", p50)
            .field("p99_us", p99)
            .field("p999_us", o.latency_us(0.999))
            .field("hit_rate", o.hit_rate())
            .field("ok", o.ok)
            .field("failed", o.failed);
      }
      stop_updates.store(true, std::memory_order_relaxed);
      updater.join();
      const auto st = svc.stats();
      json()
          .row("slo_summary")
          .field("dispatchers", static_cast<std::uint64_t>(dispatchers))
          .field("sustained_qps", sustained_qps)
          .field("p99_budget_us", kP99BudgetUs)
          .field("hit_rate", st.hit_rate())
          .field("mean_coalesce_us", st.mean_coalesce_us())
          .field("swaps", st.epoch_swaps)
          .field("mean_swap_us", st.mean_swap_us())
          .field("max_swap_us", static_cast<double>(st.swap_ns_max) / 1e3);
    }
  }

  table.print(std::cout);
  std::cout << "single-lane capacity " << static_cast<std::uint64_t>(
                   single_lane_qps)
            << " qps; coalesced " << static_cast<std::uint64_t>(coalesced_qps)
            << " qps (" << coalesced_qps / single_lane_qps
            << "x) at occupancy " << occupancy << "\n";
  json()
      .row("summary")
      .field("single_lane_qps", single_lane_qps)
      .field("coalesced_qps", coalesced_qps)
      .field("speedup", coalesced_qps / single_lane_qps)
      .field("occupancy", occupancy);
  json().write();
  return 0;
}
