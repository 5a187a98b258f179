// A dispatch server under live load: one QueryService
// (src/service/service.hpp) over a city grid, with concurrent ETA
// clients and an incident feed swapping weighting epochs underneath
// them.
//
// Scenario: emergency dispatch keeps asking "distances from depot d"
// while traffic incidents keep changing road speeds. The service
// coalesces concurrent requests into source-batched kernel calls on
// its dispatcher threads (one per hardware thread by default;
// --dispatchers overrides), answers repeats from its epoch-tagged
// distance cache, and applies each incident batch as an RCU-style
// snapshot swap — clients are never blocked and never see a
// half-updated weighting.
//
// With --eps > 0 the fleet runs in approximate mode: the service also
// carries the (1 + eps)-approximate engine (src/approx) per epoch,
// distance and st-distance requests resolve against it (paths have no
// approximate spelling and stay exact), each reply is tagged with the
// engine's certified error bound, and the final validation checks the
// one-sided sandwich dist <= approx <= (1 + bound) * dist against
// Dijkstra on the final weights.
//
//   ./dispatch_server [--side=32] [--clients=4] [--requests=200]
//                     [--incidents=8] [--depots=12] [--dispatchers=N]
//                     [--seed=7] [--eps=0]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

using namespace sepsp;
using service::QueryService;
using service::Reply;
using service::ServiceOptions;
using service::SingleSource;
using service::StDistance;
using service::StPath;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto side = args.get_uint("side", 32, 2);
  const auto clients = args.get_uint("clients", 4, 1);
  const auto requests = args.get_uint("requests", 200, 1);
  const auto incidents = args.get_uint("incidents", 8, 0);
  const auto depots = args.get_uint("depots", 12, 1);
  const auto dispatchers = args.get_uint(
      "dispatchers", std::max(1u, std::thread::hardware_concurrency()), 1);
  const double eps = args.get_double("eps", 0.0);
  const bool approx = eps > 0.0;
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));

  const std::vector<std::size_t> dims = {side, side};
  const GeneratedGraph city = make_grid(dims, WeightModel::uniform(1, 6), rng);
  const std::size_t n = city.graph.num_vertices();
  std::printf("city grid %zux%zu: %zu intersections, %zu road segments\n",
              side, side, n, city.graph.num_edges());

  const SeparatorTree tree =
      build_separator_tree(Skeleton(city.graph), make_grid_finder(dims));

  std::vector<Vertex> depot_pool(depots);
  for (Vertex& d : depot_pool) {
    d = static_cast<Vertex>(rng.next_below(n));
  }

  ServiceOptions opts;
  opts.lanes = 8;
  opts.dispatchers = static_cast<unsigned>(dispatchers);
  opts.cache_capacity_bytes = std::size_t{8} << 20;
  if (approx) {
    opts.approx.enabled = true;
    opts.approx.eps = eps;
  }
  QueryService service(IncrementalEngine::build(city.graph, tree), opts);
  std::printf("serving with %zu dispatcher(s)\n", dispatchers);
  if (approx) {
    std::printf("approximate mode: eps = %.3f (ETAs may overshoot by at most "
                "the replies' tagged bound)\n", eps);
  }

  // Clients: closed-loop ETA queries against the depot pool. Most
  // requests want the full distance vector from a depot; every fourth
  // is a point-to-point question ("how far / which way from depot d to
  // incident site t?") answered at submit time from the hub labels.
  std::atomic<std::uint64_t> ok{0}, hits{0}, failures{0};
  // Largest certified error bound tagged on any reply a client saw
  // (always 0 in exact mode; per-client slots, max-reduced after join).
  std::vector<double> bound_seen(clients, 0.0);
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      Rng pick(100 + c);
      for (std::size_t i = 0; i < requests; ++i) {
        const Vertex depot = depot_pool[pick.next_below(depot_pool.size())];
        Reply reply;
        if (i % 4 == 3) {
          const Vertex site = static_cast<Vertex>(pick.next_below(n));
          // Paths have no approximate spelling: the every-8th StPath
          // request stays exact even in --eps mode.
          reply = (i % 8 == 7)
                      ? service.query(StPath{depot, site})
                      : service.query(StDistance{depot, site, approx});
        } else {
          reply = service.query(SingleSource{depot, approx});
        }
        if (!reply.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok.fetch_add(1, std::memory_order_relaxed);
        if (reply.cache_hit) hits.fetch_add(1, std::memory_order_relaxed);
        bound_seen[c] = std::max(bound_seen[c], reply.error_bound);
      }
    });
  }

  // Incident feed: weight updates applied as epoch swaps while the
  // fleet keeps querying. Remember the final weight of every touched
  // road for the Dijkstra validation below.
  const auto edges = city.graph.edge_list();
  std::map<std::pair<Vertex, Vertex>, double> final_weight;
  std::thread incident_feed([&] {
    Rng pick(17);
    for (std::size_t i = 0; i < incidents; ++i) {
      const EdgeTriple& road = edges[pick.next_below(edges.size())];
      const double new_time = pick.next_bool(0.7) ? road.weight * 4.0
                                                  : road.weight * 0.5;
      final_weight[{road.from, road.to}] = new_time;
      const std::uint64_t epoch = service.apply_updates(
          std::vector<service::EdgeUpdate>{{road.from, road.to, new_time}});
      std::printf("incident %2zu: road %4u->%4u now %5.2f min -> epoch %llu\n",
                  i, road.from, road.to, new_time,
                  static_cast<unsigned long long>(epoch));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : fleet) t.join();
  incident_feed.join();

  std::printf("\nfleet done: %llu ok (%llu cache hits), %llu failed\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(hits.load()),
              static_cast<unsigned long long>(failures.load()));
  const auto stats = service.stats();
  stats.print(std::cout);
  std::printf("coalesce wait: mean %.1f us, max %.1f us (%llu batches)\n",
              stats.mean_coalesce_us(),
              static_cast<double>(stats.coalesce_ns_max) / 1e3,
              static_cast<unsigned long long>(stats.batches));

  // Validate the final epoch against Dijkstra on the final weights.
  GraphBuilder b(n);
  for (const EdgeTriple& e : edges) {
    const auto it = final_weight.find({e.from, e.to});
    b.add_edge(e.from, e.to,
               it == final_weight.end() ? e.weight : it->second);
  }
  const Digraph current = std::move(b).build();
  const Reply probe = service.query(depot_pool[0]);
  const auto want = dijkstra(current, depot_pool[0]);
  for (Vertex v = 0; v < n; ++v) {
    if (std::fabs(probe.dist()[v] - want.dist[v]) > 1e-6) {
      std::fprintf(stderr, "FAIL: drift at %u\n", v);
      return 1;
    }
  }
  // And the point-to-point path: exact distance, and a route whose
  // re-walked weight over the final road network equals that distance.
  const Vertex far_site = static_cast<Vertex>(n - 1);
  const Reply st_probe = service.query(StPath{depot_pool[0], far_site});
  if (std::fabs(st_probe.distance() - want.dist[far_site]) > 1e-6) {
    std::fprintf(stderr, "FAIL: st-distance drift at %u\n", far_site);
    return 1;
  }
  double walked = 0;
  const auto& route = st_probe.path();
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    double w = 0;
    if (!current.find_arc(route[i], route[i + 1], &w)) {
      std::fprintf(stderr, "FAIL: st route uses missing road %u->%u\n",
                   route[i], route[i + 1]);
      return 1;
    }
    walked += w;
  }
  if (std::fabs(walked - st_probe.distance()) > 1e-6) {
    std::fprintf(stderr, "FAIL: st route weight %f != distance %f\n", walked,
                 st_probe.distance());
    return 1;
  }
  // In --eps mode, probe the approximate lane too. Every approximate
  // ETA must sandwich one-sidedly against the Dijkstra oracle:
  // dist <= approx <= (1 + bound) * dist, with `bound` taken from the
  // reply's own error tag — the contract every client relied on above.
  if (approx) {
    double fleet_bound = 0.0;
    for (const double bnd : bound_seen) fleet_bound = std::max(fleet_bound, bnd);
    const Reply aprobe = service.query(SingleSource{depot_pool[0], true});
    if (!aprobe.ok() || aprobe.error_bound <= 0.0) {
      std::fprintf(stderr, "FAIL: approx reply lost its error-bound tag\n");
      return 1;
    }
    double max_rel = 0.0;
    for (Vertex v = 0; v < n; ++v) {
      const double got = aprobe.dist()[v];
      const double truth = want.dist[v];
      if (std::isinf(truth)) {
        if (!std::isinf(got)) {
          std::fprintf(stderr, "FAIL: approx ETA reaches unreachable %u\n", v);
          return 1;
        }
        continue;
      }
      if (got < truth - 1e-6 ||
          got > (1.0 + aprobe.error_bound) * truth + 1e-6) {
        std::fprintf(stderr,
                     "FAIL: approx ETA at %u is %f, outside [%f, %f]\n", v,
                     got, truth, (1.0 + aprobe.error_bound) * truth);
        return 1;
      }
      if (truth > 0) max_rel = std::max(max_rel, (got - truth) / truth);
    }
    std::printf("approx lane: replies tagged bound %.4f (fleet saw %.4f); "
                "measured max relative error %.4f\n",
                aprobe.error_bound, fleet_bound, max_rel);
  }
  std::printf(
      "OK (final epoch %llu validated against Dijkstra; st route %zu hops)\n",
      static_cast<unsigned long long>(probe.epoch), route.size());
  return 0;
}
