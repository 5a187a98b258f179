// Tuning knobs of the query-serving runtime (src/service/service.hpp).
#pragma once

#include <cstddef>

#include "core/engine.hpp"
#include "semiring/semiring.hpp"
#include "util/check.hpp"

namespace sepsp::service {

struct ServiceOptions {
  // --- batch coalescer ------------------------------------------------
  /// Lane-group width B: a dispatch's misses run in blocks of this many
  /// sources (one batched-kernel block each). A dispatcher never waits
  /// for a group to fill: it takes whatever is queued when it comes
  /// free, up to one group per pool participant, into one
  /// distances_batch call, whose blocks run in parallel. Must be a lane
  /// width (is_lane_width): 1, 2, 4, 8, 16, or 32.
  std::size_t lanes = 8;
  /// Admission bound on queued (not yet dispatched) requests; a submit
  /// that would exceed it is shed with ReplyStatus::kShed instead of
  /// growing the queue without bound.
  std::size_t max_queue = 1024;
  /// Dispatcher threads draining the queue into lane groups. One
  /// dispatcher already fans a backlog over the pool; raise it when the
  /// miss traffic arrives as many small groups (every dispatcher runs
  /// its own batch kernel against the shared snapshot). 0 means no
  /// background dispatch: requests queue until stop() drains them —
  /// only useful for tests that need deterministic queue states.
  unsigned dispatchers = 1;

  // --- distance cache -------------------------------------------------
  /// Total byte budget across shards for cached distance vectors
  /// (payload-accounted: n doubles + fixed per-entry overhead). 0 turns
  /// the cache off: an entry larger than its shard's budget is never
  /// stored, so every request takes the miss path.
  std::size_t cache_capacity_bytes = std::size_t{64} << 20;
  /// Lock shards; higher values cut contention at the cost of slightly
  /// ragged per-shard LRU. Rounded up to a power of two.
  std::size_t cache_shards = 8;

  // --- point-to-point serving ------------------------------------------
  /// Builds hub labels with next hops per epoch so StDistance/StPath
  /// requests resolve at submit time. Costs a transpose-engine build at
  /// startup and a label rebuild per apply_updates() (off the
  /// swap critical path, on the work-stealing pool). When false, st
  /// submits resolve kInvalid: a caller that never sends st traffic
  /// pays nothing.
  bool point_to_point = true;
  /// Byte budget of the (epoch, s, t)-keyed answer cache; 0 turns it
  /// off.
  std::size_t st_cache_capacity_bytes = std::size_t{16} << 20;
  /// Lock shards of the st-cache; rounded up to a power of two.
  std::size_t st_cache_shards = 8;

  // --- approximate serving ----------------------------------------------
  struct Approx {
    /// Builds a (1 + eps)-approximate engine (src/approx) beside the
    /// exact one — at construction and again inside every
    /// apply_updates() — so requests submitted with `approx = true`
    /// resolve against it. Approximate answers live in their own
    /// (epoch, mode)-keyed caches and replies carry the engine's
    /// certified error bound. When false, approx submits resolve
    /// kInvalid: a caller that never sends approx traffic pays nothing.
    bool enabled = false;
    /// End-to-end relative-error budget of that engine, in (0, 1].
    double eps = 0.1;
  };
  Approx approx;

  // --- snapshot engines -------------------------------------------------
  /// Query options of the engines frozen at each epoch swap (the
  /// incremental engine already built their E+).
  SeparatorShortestPaths<TropicalD>::Options engine;

  /// Verifies coherence (fatal SEPSP_CHECK on nonsense): a lanes value
  /// that is no lane width, or a zero-shard cache.
  ServiceOptions validated() const {
    ServiceOptions r = *this;
    SEPSP_CHECK_MSG(is_lane_width(r.lanes),
                    "ServiceOptions::lanes must be one of 1, 2, 4, 8, 16, 32");
    SEPSP_CHECK_MSG(r.max_queue > 0,
                    "ServiceOptions::max_queue must admit at least one "
                    "request");
    SEPSP_CHECK_MSG(r.cache_shards > 0,
                    "ServiceOptions::cache_shards must be positive");
    while ((r.cache_shards & (r.cache_shards - 1)) != 0) ++r.cache_shards;
    SEPSP_CHECK_MSG(r.st_cache_shards > 0,
                    "ServiceOptions::st_cache_shards must be positive");
    while ((r.st_cache_shards & (r.st_cache_shards - 1)) != 0) {
      ++r.st_cache_shards;
    }
    SEPSP_CHECK_MSG(!r.approx.enabled ||
                        (r.approx.eps > 0.0 && r.approx.eps <= 1.0),
                    "ServiceOptions::approx.eps must lie in (0, 1]");
    return r;
  }
};

}  // namespace sepsp::service
