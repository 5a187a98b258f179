// serve-mixed — read-only, hit-heavy serving: two closed-loop generator
// threads, each keeping eight requests outstanding, send a fixed mix of
// exact and approximate single-source, st-distance and st-path requests
// through QueryService with warm caches.
#include <barrier>
#include <future>
#include <memory>
#include <span>
#include <thread>

#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "graph/skeleton.hpp"
#include "pram/thread_pool.hpp"
#include "separator/decomposition.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "util/cacheline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = sepsp::service;

constexpr std::size_t kSide = 25;
constexpr double kEps = 0.1;
constexpr std::size_t kCacheBytes = std::size_t{16} << 20;
constexpr std::size_t kGenerators = 2;
constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kRequestsPerGenerator = 5000;
// 2 x 5,000 = 10,000 requests per round: p99.9 leaves ten.
constexpr double kTailQuantile = 0.999;
constexpr double kZipfTheta = 0.9;
// Rounds rotate through this many request sets, each with its own hot
// set, so a run's medians do not hinge on one draw of the hot keys.
constexpr std::size_t kRequestSets = 16;
constexpr std::size_t kCheckedPerKind = 16;
constexpr std::size_t kSetups = 3;
// One round takes about this long on the reference machine.
constexpr double kNominalRoundS = 0.014;

enum class Kind : std::uint8_t { kSs, kApproxSs, kStDistance, kStPath };
constexpr const char* kKindSpan[] = {"service.ss", "service.approx_ss",
                                     "service.st_distance", "service.st_path"};

struct Request {
  Kind kind = Kind::kSs;
  Vertex s = 0;
  Vertex t = 0;
};

struct Instance {
  sepsp::GeneratedGraph gg;
  sepsp::SeparatorTree tree;
  std::unique_ptr<svc::QueryService> service;  // declared last: dies first
};

std::unique_ptr<Instance> make_instance(std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  Rng rng(seed);
  inst->gg = sepsp::make_grid({kSide, kSide},
                              sepsp::WeightModel::uniform(1, 10), rng);
  {
    SpanScope span("setup.separator_tree", 0);
    inst->tree = sepsp::build_separator_tree(
        sepsp::Skeleton(inst->gg.graph),
        sepsp::make_grid_finder({kSide, kSide}));
  }
  std::optional<sepsp::IncrementalEngine> engine;
  {
    SpanScope span("build.exact", 0);
    engine.emplace(sepsp::IncrementalEngine::build(inst->gg.graph, inst->tree));
  }
  svc::ServiceOptions opts;
  opts.dispatchers = 1;
  opts.point_to_point = true;
  opts.cache_capacity_bytes = kCacheBytes;
  opts.st_cache_capacity_bytes = kCacheBytes;
  opts.approx.enabled = true;
  opts.approx.eps = kEps;
  SpanScope span("setup.service", 0);
  inst->service =
      std::make_unique<svc::QueryService>(std::move(*engine), opts);
  return inst;
}

/// Each generator's request list: 40% exact single-source, 10%
/// approximate single-source, 40% st-distance, 10% st-path; sources and
/// pair endpoints are Zipf-distributed. Set `k` ranks the vertices by
/// its own random permutation, so the sets differ in which sources and
/// pairs are hot (and so in which cache shards the hot keys share).
std::vector<std::vector<Request>> make_requests(std::size_t n,
                                                std::uint64_t seed,
                                                std::size_t k) {
  Rng rng(seed ^ 0x5e27eULL ^ (0x9e3779b97f4a7c15ULL * (k + 1)));
  const Zipf zipf(n, kZipfTheta, rng);
  std::vector<std::vector<Request>> lists(kGenerators);
  for (auto& list : lists) {
    list.resize(kRequestsPerGenerator);
    for (Request& r : list) {
      const std::uint64_t pick = rng.next_below(10);
      r.kind = pick < 4   ? Kind::kSs
               : pick < 5 ? Kind::kApproxSs
               : pick < 9 ? Kind::kStDistance
                          : Kind::kStPath;
      r.s = zipf(rng);
      r.t = zipf(rng);
    }
  }
  return lists;
}

std::future<svc::Reply> submit(svc::QueryService& service, const Request& r) {
  switch (r.kind) {
    case Kind::kSs:
      return service.submit(svc::SingleSource{r.s, false});
    case Kind::kApproxSs:
      return service.submit(svc::SingleSource{r.s, true});
    case Kind::kStDistance:
      return service.submit(svc::StDistance{r.s, r.t, false});
    case Kind::kStPath:
      break;
  }
  return service.submit(svc::StPath{r.s, r.t});
}

/// Closed loop over `list` with kOutstanding requests in flight (one
/// during the warm-up). Every outstanding future is polled, so a
/// request is timed from submit until its own reply is seen. Returns
/// the failed count; fills `lat_ms` (one entry per request) and the
/// loop's start and end.
///
/// The warm-up sends one request at a time so that every cache miss is
/// a lane group of its own. With requests in flight, how misses
/// coalesce into groups depends on timing, and the group buffers freed
/// between long-lived cache entries leave the heap, and so the peak
/// RSS, differently fragmented from run to run.
std::uint64_t drive(svc::QueryService& service,
                    const std::vector<Request>& list, bool warmup,
                    std::uint64_t op0, std::vector<double>& lat_ms,
                    std::uint64_t& start_ns, std::uint64_t& end_ns) {
  struct Slot {
    std::future<svc::Reply> future;
    std::uint64_t started = 0;
    std::size_t index = 0;
    bool busy = false;
  };
  std::array<Slot, kOutstanding> all_slots;
  const std::span<Slot> slots(all_slots.data(), warmup ? 1 : kOutstanding);
  std::uint64_t failed = 0;
  std::size_t next = 0, busy = 0;
  lat_ms.clear();
  start_ns = now_ns();
  while (next < list.size() || busy > 0) {
    for (Slot& slot : slots) {
      if (!slot.busy && next < list.size()) {
        slot.index = next++;
        slot.started = now_ns();
        slot.future = submit(service, list[slot.index]);
        slot.busy = true;
        ++busy;
        if (!warmup && slot.future.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready) {
          trace_interval("service.submit_ready", slot.started, now_ns(),
                         op0 + slot.index);
        }
      }
      if (slot.busy && slot.future.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready) {
        const std::uint64_t seen = now_ns();
        const svc::Reply reply = slot.future.get();
        slot.busy = false;
        --busy;
        if (!reply.ok()) ++failed;
        lat_ms.push_back(ms_between(slot.started, seen));
        const Request& r = list[slot.index];
        if (!warmup) {
          trace_interval(kKindSpan[static_cast<int>(r.kind)], slot.started,
                         seen, op0 + slot.index);
        } else if (r.kind == Kind::kSs && !reply.cache_hit) {
          trace_interval("service.ss_miss", slot.started, seen,
                         op0 + slot.index);
        }
      }
    }
  }
  end_ns = now_ns();
  return failed;
}

/// Checks one reply against Dijkstra from its source: exact kinds to
/// 1e-9 relative error (st-paths must also re-walk to their distance),
/// approximate ones within dist <= reply <= (1 + eps) dist.
bool matches_oracle(const sepsp::Digraph& g, const Request& r,
                    const svc::Reply& reply) {
  if (!reply.ok()) return false;
  const auto want = sepsp::dijkstra(g, r.s).dist;
  switch (r.kind) {
    case Kind::kSs:
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (rel_error(reply.dist()[v], want[v]) > 1e-9) return false;
      }
      return true;
    case Kind::kApproxSs:
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const double got = reply.dist()[v];
        const double slack = 1e-9 * std::max(1.0, want[v]);
        if (got < want[v] - slack || got > (1.0 + kEps) * want[v] + slack) {
          return false;
        }
      }
      return true;
    case Kind::kStDistance:
      return rel_error(reply.distance(), want[r.t]) <= 1e-9;
    case Kind::kStPath: {
      if (rel_error(reply.distance(), want[r.t]) > 1e-9) return false;
      const auto& path = reply.path();
      if (path.empty() || path.front() != r.s || path.back() != r.t) {
        return false;
      }
      double walked = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        double w = 0.0;
        if (!g.find_arc(path[i], path[i + 1], &w)) return false;
        walked += w;
      }
      return rel_error(walked, want[r.t]) <= 1e-9;
    }
  }
  return false;
}

}  // namespace

Result run_serve_mixed(const RunConfig& cfg) {
  Result result;
  std::unique_ptr<Instance> inst;
  // sets[k][i]: generator i's requests in request set k.
  std::vector<std::vector<std::vector<Request>>> sets;
  std::vector<double> warmup_lat;

  Tracer::get().set_enabled(cfg.trace);
  const double setup_s = median_setup_s(kSetups, [&] {
    inst.reset();
    const std::uint64_t t0 = now_ns();
    inst = make_instance(cfg.seed);
    sets.clear();
    for (std::size_t k = 0; k < kRequestSets; ++k) {
      sets.push_back(
          make_requests(inst->gg.graph.num_vertices(), cfg.seed, k));
    }
    // Warm-up: every list of every set once, so the timed rounds replay
    // them against warm caches.
    std::uint64_t s = 0, e = 0;
    for (const auto& lists : sets) {
      for (const auto& list : lists) {
        result.fail(drive(*inst->service, list, true, 0, warmup_lat, s, e));
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  Tracer::get().set_enabled(false);
  svc::QueryService& service = *inst->service;
  const sepsp::Digraph& g = inst->gg.graph;
  const svc::ServiceStats warm = service.stats();
  const std::uint64_t setup_cells =
      service.current_snapshot().engine->stats().kernel_cells;

  // Persistent generator threads; each round starts and ends on a
  // barrier with the main thread. Every request appends to its
  // generator's latency vector, so each generator's state sits on its
  // own pair of cache lines: sharing one would bounce it between the
  // generators' cores on every request.
  struct alignas(2 * sepsp::kCacheLineBytes) GenState {
    std::vector<double> lat_ms;
    std::uint64_t start_ns = 0, end_ns = 0, failed = 0;
  };
  std::vector<GenState> gens(kGenerators);
  for (GenState& gs : gens) gs.lat_ms.reserve(kRequestsPerGenerator);
  std::barrier sync(static_cast<std::ptrdiff_t>(kGenerators + 1));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> round_op0{0};
  std::atomic<std::size_t> round_set{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kGenerators; ++i) {
    threads.emplace_back([&, i] {
      for (;;) {
        sync.arrive_and_wait();  // round start
        if (stop.load()) return;
        GenState& gs = gens[i];
        gs.failed += drive(service, sets[round_set.load()][i], false,
                           round_op0.load() + i * kRequestsPerGenerator,
                           gs.lat_ms, gs.start_ns, gs.end_ns);
        sync.arrive_and_wait();  // round end
      }
    });
  }

  const auto one_round = [&](std::size_t round, bool) {
    round_op0.store(round * kGenerators * kRequestsPerGenerator);
    round_set.store(round % kRequestSets);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    std::vector<double> lat;
    std::uint64_t start = ~std::uint64_t{0}, end = 0;
    for (GenState& gs : gens) {
      lat.insert(lat.end(), gs.lat_ms.begin(), gs.lat_ms.end());
      start = std::min(start, gs.start_ns);
      end = std::max(end, gs.end_ns);
    }
    result.attempted += lat.size();
    RoundFigures f;
    f.throughput_per_s = static_cast<double>(lat.size()) /
                         (static_cast<double>(end - start) / 1e9);
    f.latency_ms_p50 = quantile(lat, 0.5);
    f.latency_ms_tail = quantile(lat, kTailQuantile);
    return f;
  };
  const RoundLog log = run_rounds(cfg, kNominalRoundS, one_round);
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (const GenState& gs : gens) result.fail(gs.failed);
  const svc::ServiceStats after = service.stats();

  // Oracle: the first requests of each kind in generator 0's list of
  // every set, asked again (cache hits: the very replies the rounds
  // were served).
  for (const auto& lists : sets) {
    std::array<std::size_t, 4> per_kind{};
    for (const Request& r : lists[0]) {
      std::size_t& seen = per_kind[static_cast<int>(r.kind)];
      if (seen == kCheckedPerKind) continue;
      ++seen;
      ++result.attempted;
      if (!matches_oracle(g, r, submit(service, r).get())) result.fail();
    }
  }

  report_rounds(result, log, setup_s);
  const auto snap = service.current_snapshot();
  const sepsp::EngineStats est = snap.engine->stats();
  result.env_int("eplus_edges", est.eplus_edges);
  result.env_int("bucket_entries", est.bucket_edges);
  result.env_int("label_entries", snap.labels->total_label_entries());
  result.env_int("cache_budget_bytes", 4 * kCacheBytes);
  result.env_int("cache_bytes_used", after.cache_bytes + after.st_cache_bytes +
                                         after.approx_cache_bytes);
  result.env_int("generator_threads", kGenerators);
  result.env_int("outstanding_per_generator", kOutstanding);
  result.env_int("request_sets", kRequestSets);
  result.env_int("dispatcher_threads", 1);
  result.env_num("tail_quantile", kTailQuantile);
  result.env_int("latency_samples_per_round",
                 kGenerators * kRequestsPerGenerator);

  if (!cfg.trace) return result;

  const Tracer& tr = Tracer::get();
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  // Hit rates over the timed rounds only; the warm-up did the misses.
  result.layer("service.hit_rate",
               ratio(after.cache_hits - warm.cache_hits,
                     after.cache_misses - warm.cache_misses));
  result.layer("service.st_hit_rate",
               ratio(after.st_cache_hits - warm.st_cache_hits,
                     after.st_cache_misses - warm.st_cache_misses));
  result.layer("service.approx_hit_rate",
               ratio(after.approx_cache_hits + after.approx_st_hits -
                         warm.approx_cache_hits - warm.approx_st_hits,
                     after.approx_cache_misses + after.approx_st_misses -
                         warm.approx_cache_misses - warm.approx_st_misses));
  result.layer("service.submit_ready_us",
               tr.median_ms("service.submit_ready") * 1e3);
  result.layer("service.ss_miss_ms", tr.median_ms("service.ss_miss"));
  result.layer("service.batch_occupancy", after.batch_occupancy());
  result.layer("service.coalesce_us_mean", after.mean_coalesce_us());
  result.layer("service.ss_p50", tr.median_ms("service.ss") * 1e3);
  result.layer("service.approx_ss_p50",
               tr.median_ms("service.approx_ss") * 1e3);
  result.layer("service.st_distance_p50",
               tr.median_ms("service.st_distance") * 1e3);
  result.layer("service.st_path_p50", tr.median_ms("service.st_path") * 1e3);
  result.layer("labels.merge_ns_mean", after.mean_st_merge_ns());
  result.layer("labels.build_ms", after.mean_label_build_ms());
  result.layer("approx.build_ms", after.mean_approx_build_ms());
  result.layer("build.exact_ms", tr.median_ms("build.exact"));
  result.layer("build.eplus_edges", static_cast<double>(est.eplus_edges));
  result.layer("build.kernel_cells",
               static_cast<double>(setup_cells) / kSetups);
  result.layer("pool.participants",
               sepsp::pram::ThreadPool::global().concurrency());
  return result;
}

}  // namespace perfbench
