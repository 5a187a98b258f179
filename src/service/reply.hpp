// The typed request/response surface of the query-serving runtime
// (src/service/).
//
// Requests come in three kinds. SingleSource rides the coalescing queue
// into batched kernel groups; StDistance and StPath resolve at submit
// time against the current snapshot's hub labels / routing tables (no
// queue hop, no lane group — a label merge runs in microseconds, so
// batching would only add latency).
//
// Replies share their payloads: a cache hit and the miss that populated
// it hand out the same immutable object (CachedDistances for
// single-source, CachedStAnswer for point-to-point), so hit/miss parity
// is bit-identical by construction and a reply stays valid after the
// service, the cache entry, and the engine snapshot that computed it
// are gone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "util/check.hpp"

namespace sepsp::service {

/// What a request asks for; every Reply is tagged with the kind that
/// produced it.
enum class RequestKind : std::uint8_t {
  kSingleSource,  ///< full distance vector from one source
  kStDistance,    ///< scalar s -> t distance (label merge)
  kStPath,        ///< s -> t distance + unpacked vertex path (routing walk)
};

/// Full single-source distances — the queued, lane-coalesced kind.
struct SingleSource {
  Vertex source = 0;
  /// Resolve against the snapshot's (1 + eps)-approximate engine
  /// (requires ServiceOptions::approx.enabled). The reply's error_bound
  /// carries the engine's certified bound.
  bool approx = false;
};

/// Point-to-point distance, answered from the snapshot's hub labels.
struct StDistance {
  Vertex s = 0;
  Vertex t = 0;
  /// Resolve against the approximate engine (see SingleSource::approx).
  /// Approximate st answers come from the approx distance cache (filled
  /// on miss), not from hub labels, so they work without point_to_point.
  bool approx = false;
};

/// Point-to-point distance plus the actual vertex path, unpacked by
/// forwarding hop-by-hop through the snapshot's routing tables.
struct StPath {
  Vertex s = 0;
  Vertex t = 0;
};

/// One immutable single-source answer, shared between the cache and
/// every reply that resolves to it.
struct CachedDistances {
  std::vector<double> dist;     ///< dist[v]; +inf = unreachable
  bool negative_cycle = false;  ///< a negative cycle is reachable
};

/// One immutable point-to-point answer. A StDistance miss stores just
/// the scalar; a StPath miss (or an upgraded entry) also carries the
/// unpacked path. Shared between the st-cache and every reply that
/// resolves to it.
struct CachedStAnswer {
  double distance = 0.0;  ///< +inf = unreachable
  bool has_path = false;  ///< path was unpacked (empty = unreachable)
  std::vector<Vertex> path;  ///< s, ..., t when has_path and reachable
};

enum class ReplyStatus : std::uint8_t {
  kOk,       ///< answered; the kind's payload is set
  kShed,     ///< rejected at admission (queue full) — retry or degrade
  kStopped,  ///< the service was stopped before the request was admitted
  /// The request cannot be served as sent — a vertex outside [0, n), or
  /// a kind or mode this service was not configured for (st without
  /// point_to_point, approx without approx.enabled). Do not retry.
  kInvalid,
  /// This epoch's weighting has a negative cycle (st-distance and
  /// st-path: the build could not certify it cycle-free, so the epoch
  /// carries no hub labels). `epoch` names it; retry after the next
  /// update.
  kFailed,
};

/// What a submitted request resolves to. The payload matching `kind` is
/// set when ok(): `value` for kSingleSource, `st` for the two
/// point-to-point kinds.
struct Reply {
  ReplyStatus status = ReplyStatus::kOk;
  RequestKind kind = RequestKind::kSingleSource;
  /// Weighting version the answer was computed against (the snapshot's
  /// epoch at resolution time). Meaningful only when ok() or kFailed.
  std::uint64_t epoch = 0;
  bool cache_hit = false;
  /// Nanoseconds from submit() to resolution (queue wait + coalesce
  /// delay + batch execution for queued misses; ~0 for submit-time
  /// resolutions).
  std::uint64_t latency_ns = 0;
  /// Certified relative error bound of the engine that answered:
  /// 0 for exact replies; for approximate replies the value v satisfies
  /// dist <= v <= (1 + error_bound) * dist.
  double error_bound = 0.0;
  std::shared_ptr<const CachedDistances> value;  ///< kSingleSource payload
  std::shared_ptr<const CachedStAnswer> st;      ///< kStDistance/kStPath

  bool ok() const { return status == ReplyStatus::kOk; }
  const std::vector<double>& dist() const {
    SEPSP_CHECK_MSG(value != nullptr, "Reply::dist(): not a kSingleSource "
                                      "reply (or not ok)");
    return value->dist;
  }
  /// Scalar s -> t distance of a point-to-point reply.
  double distance() const {
    SEPSP_CHECK_MSG(st != nullptr,
                    "Reply::distance(): not a point-to-point reply");
    return st->distance;
  }
  /// Unpacked vertex path of a kStPath reply (empty when unreachable).
  const std::vector<Vertex>& path() const {
    SEPSP_CHECK_MSG(st != nullptr && st->has_path,
                    "Reply::path(): not a kStPath reply");
    return st->path;
  }
};

/// One staged weight change for QueryService::apply_updates().
struct EdgeUpdate {
  Vertex from = 0;
  Vertex to = 0;
  double weight = 0.0;
};

}  // namespace sepsp::service
