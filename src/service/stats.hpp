// Point-in-time counters of one QueryService — the payload of
// QueryService::stats().
//
// Populated in every build mode, like EngineStats: the service's
// counters sit at request/batch/swap granularity (never per edge) and
// are kept as padded relaxed atomics inside the service. This ledger is
// their only record; the process-wide obs registry holds none of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>

namespace sepsp::service {

struct ServiceStats {
  // --- requests ---------------------------------------------------------
  /// submit() calls, all kinds; derived as the per-kind sum below.
  std::uint64_t submitted = 0;
  /// Replies resolved with kOk; derived as the hit/miss sum below.
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;       ///< rejected at admission (queue full)
  std::uint64_t stopped = 0;    ///< rejected because the service stopped
  /// Rejected as unservable client input (ReplyStatus::kInvalid).
  std::uint64_t invalid = 0;
  /// st requests against an epoch with a negative cycle
  /// (ReplyStatus::kFailed);
  /// submitted == completed + shed + stopped + invalid + failed.
  std::uint64_t failed = 0;
  /// Per-kind admission counts; their sum is `submitted`.
  std::uint64_t single_source = 0;
  std::uint64_t st_distance = 0;
  std::uint64_t st_path = 0;

  // --- cache ------------------------------------------------------------
  /// Per-request accounting over single-source requests: a hit is any
  /// completed request answered without running the kernel for it
  /// (cache hits at submit or flush time, plus in-group dedup shares).
  /// With the approximate pairs below: cache_hits + cache_misses +
  /// st_cache_hits + st_cache_misses + approx_cache_hits +
  /// approx_cache_misses + approx_st_hits + approx_st_misses ==
  /// completed.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;      ///< capacity evictions
  std::uint64_t cache_invalidations = 0;  ///< stale-epoch removals
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_capacity_bytes = 0;

  // --- point-to-point -----------------------------------------------------
  /// Per-request st-cache accounting (the submit-time kinds), disjoint
  /// from the single-source pair above.
  std::uint64_t st_cache_hits = 0;
  std::uint64_t st_cache_misses = 0;
  std::uint64_t st_cache_evictions = 0;
  std::uint64_t st_cache_invalidations = 0;
  std::size_t st_cache_entries = 0;
  std::size_t st_cache_bytes = 0;
  std::size_t st_cache_capacity_bytes = 0;
  /// Label-merge latency across st misses, and the routing-walk
  /// (path-unpack) latency of kStPath misses on top of it.
  std::uint64_t st_merge_ns_sum = 0;
  std::uint64_t st_merge_ns_max = 0;
  std::uint64_t st_unpack_ns_sum = 0;
  std::uint64_t st_unpack_ns_max = 0;
  /// Per-epoch hub-label rebuild cost: one build of the labels with
  /// next hops (they answer st-distance and st-path alike) per swap,
  /// plus the constructor's; off the swap critical path.
  std::uint64_t label_builds = 0;
  std::uint64_t label_build_ns_sum = 0;
  std::uint64_t label_build_ns_last = 0;

  // --- approximate serving -------------------------------------------------
  /// Requests submitted with approx = true (a subset of the per-kind
  /// admission counts above) and their per-request hit/miss ledgers.
  /// Approximate answers live in their own (epoch, mode)-keyed caches,
  /// so these pairs are disjoint from the exact ones.
  std::uint64_t approx_requests = 0;
  std::uint64_t approx_cache_hits = 0;
  std::uint64_t approx_cache_misses = 0;
  std::uint64_t approx_st_hits = 0;
  std::uint64_t approx_st_misses = 0;
  std::uint64_t approx_cache_evictions = 0;
  std::uint64_t approx_cache_invalidations = 0;
  std::size_t approx_cache_entries = 0;
  std::size_t approx_cache_bytes = 0;
  /// Per-epoch approximate-engine rebuild cost (one build per swap plus
  /// the constructor's; off the swap critical path, like labels).
  std::uint64_t approx_builds = 0;
  std::uint64_t approx_build_ns_sum = 0;
  std::uint64_t approx_build_ns_last = 0;

  // --- coalescer ----------------------------------------------------------
  /// Batches popped off the queue and flushed: one lane group, or a
  /// backlog of up to one group per pool participant.
  std::uint64_t dispatches = 0;
  /// Lane blocks, ceil(requests / lanes) per dispatch.
  std::uint64_t batches = 0;
  std::uint64_t batch_lanes_used = 0;     ///< requests across those blocks
  std::uint64_t batch_lane_capacity = 0;  ///< blocks * lane width
  std::uint64_t coalesce_ns_sum = 0;  ///< submit -> dispatch wait, summed
  std::uint64_t coalesce_ns_max = 0;
  std::size_t queue_depth = 0;  ///< sampled at stats() time
  std::size_t queue_peak = 0;   ///< high-water mark since start

  // --- epochs -------------------------------------------------------------
  std::uint64_t epoch = 0;        ///< weighting version currently served
  std::uint64_t epoch_swaps = 0;  ///< snapshot replacements so far
  /// Epochs the served snapshot trails the incremental engine by;
  /// nonzero only while a successor snapshot is being built.
  std::uint64_t epoch_lag = 0;
  /// Snapshot+publish latency of apply_updates() (the swap itself,
  /// excluding the dirty-region recompute): structurally-shared
  /// snapshots keep this proportional to the slabs the batch touched.
  std::uint64_t swap_ns_sum = 0;
  std::uint64_t swap_ns_max = 0;
  std::uint64_t swap_ns_last = 0;

  /// Mean fraction of dispatched lane-block slots that carried a
  /// request, in [0, 1] (1.0 = every block full).
  double batch_occupancy() const {
    return batch_lane_capacity == 0
               ? 0.0
               : static_cast<double>(batch_lanes_used) /
                     static_cast<double>(batch_lane_capacity);
  }

  /// Fraction of completed single-source requests answered from the
  /// cache.
  double hit_rate() const {
    const std::uint64_t looked = cache_hits + cache_misses;
    return looked == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(looked);
  }

  /// Fraction of completed point-to-point requests answered from the
  /// st-cache.
  double st_hit_rate() const {
    const std::uint64_t looked = st_cache_hits + st_cache_misses;
    return looked == 0 ? 0.0
                       : static_cast<double>(st_cache_hits) /
                             static_cast<double>(looked);
  }

  /// Fraction of completed approximate requests (both shapes) answered
  /// from the approximate caches.
  double approx_hit_rate() const {
    const std::uint64_t hits = approx_cache_hits + approx_st_hits;
    const std::uint64_t looked = hits + approx_cache_misses + approx_st_misses;
    return looked == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(looked);
  }

  /// Mean per-epoch approximate-engine rebuild cost, in milliseconds.
  double mean_approx_build_ms() const {
    return approx_builds == 0
               ? 0.0
               : static_cast<double>(approx_build_ns_sum) / 1e6 /
                     static_cast<double>(approx_builds);
  }

  /// Mean sorted-label-merge latency of st misses, in nanoseconds.
  double mean_st_merge_ns() const {
    return st_cache_misses == 0
               ? 0.0
               : static_cast<double>(st_merge_ns_sum) /
                     static_cast<double>(st_cache_misses);
  }

  /// Mean per-epoch hub-label build time, in milliseconds.
  double mean_label_build_ms() const {
    return label_builds == 0 ? 0.0
                             : static_cast<double>(label_build_ns_sum) / 1e6 /
                                   static_cast<double>(label_builds);
  }

  /// Mean time a dispatched request spent queued + coalescing, in
  /// microseconds.
  double mean_coalesce_us() const {
    return batch_lanes_used == 0
               ? 0.0
               : static_cast<double>(coalesce_ns_sum) / 1e3 /
                     static_cast<double>(batch_lanes_used);
  }

  /// Mean epoch-swap (snapshot + publish) latency, in microseconds.
  double mean_swap_us() const {
    return epoch_swaps == 0 ? 0.0
                            : static_cast<double>(swap_ns_sum) / 1e3 /
                                  static_cast<double>(epoch_swaps);
  }

  /// Human-readable rendering (one summary table).
  void print(std::ostream& os) const;
};

}  // namespace sepsp::service
