// QueryService — the concurrent query-serving runtime over the
// separator-decomposition engine.
//
// Four cooperating parts (ISSUE 5 / ROADMAP "serve heavy traffic"):
//
//  * Batch coalescer. submit() admits a single-source distance request
//    into a bounded MPMC queue (queue.hpp) and returns a future.
//    A free dispatcher takes every request already queued, up to one
//    lane group of `lanes` sources per pool participant, and starts at
//    once — a lone miss waits for no company; misses that queue while
//    a kernel runs leave together in the next dispatch.
//    Each dispatch resolves with one distances_batch call, which runs
//    its lane blocks in parallel on the pool, so concurrent traffic
//    rides the source-batched kernel (the engine's lane blocks) instead
//    of paying a full E u E+ stream per request. Overload is shed at
//    admission (ReplyStatus::kShed), never by queueing without bound.
//
//  * Distance cache. A sharded byte-accounted LRU (cache.hpp) keyed by
//    source and tagged by epoch. Hits resolve at submit time without
//    touching the queue; hit and miss hand out the same immutable
//    object, so cached responses are bit-identical to computed ones.
//
//  * Epoch-swapped snapshots. Readers resolve against an immutable
//    shared engine snapshot (IncrementalEngine::snapshot()) obtained
//    from one shared_ptr copy. apply_updates() stages weight
//    changes on the incremental engine, recomputes the affected part
//    of E+, builds the successor snapshot in the background, and swaps
//    it in RCU-style: in-flight queries keep the snapshot they
//    captured (the last holder frees it), updates never block reads,
//    and the cache invalidates by epoch. Every reply names the epoch
//    it was computed against.
//
//  * Point-to-point serving (ISSUE 7). StDistance and StPath requests
//    resolve at submit time — no queue hop, no lane group — against the
//    snapshot's epoch-tagged hub labels with next hops (RoutingScheme,
//    core/routing.hpp): one structure answers both kinds. The service
//    owns a second incremental engine over the reversed graph;
//    apply_updates() mirrors every weight change into it and rebuilds
//    the labels once during successor-snapshot construction (off the
//    swap critical path, on the work-stealing pool), so every epoch's
//    st answers are exact under that epoch's weighting. An epoch whose
//    weighting has a negative cycle carries no labels, and its st
//    requests resolve kFailed until an update removes the cycle. A
//    second sharded LRU keyed
//    (epoch, s, t) caches st answers with the same bit-identical
//    hit/miss parity as the distance cache.
//
//  * Approximate serving (ISSUE 10). When ServiceOptions::approx is
//    enabled, every epoch additionally carries a (1 + eps)-approximate
//    engine (src/approx) built beside the exact snapshot inside
//    apply_updates(). Requests submitted with `approx = true` coalesce
//    into their own lane blocks, resolve against that engine, and are
//    cached in separate (epoch, mode)-keyed caches; each approximate
//    reply is tagged with the engine's certified error bound.
//
//  * Observability. Per-stage TraceSpans (flush / batch / swap /
//    label_build / approx_build) under SEPSP_OBS; a request opens no
//    span, its own time is Reply::latency_ns. Plus one ledger of
//    queue depth, batch occupancy, coalesce latency, hit rate, shed
//    count, per-kind traffic, label-merge latency, and epoch lag,
//    surfaced through ServiceStats in every build mode (stats.hpp).
//
// Thread-safety: submit(), query(), stats(), epoch(), and
// apply_updates() may all be called concurrently from any threads.
// apply_updates() serializes against itself; nothing blocks readers.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "service/cache.hpp"
#include "service/options.hpp"
#include "service/queue.hpp"
#include "service/reply.hpp"
#include "service/stats.hpp"
#include "util/cacheline.hpp"

namespace sepsp::service {

class QueryService {
 public:
  /// Takes over `engine` (the caller must not keep driving it — staged
  /// updates would race the service's swaps) and starts the dispatcher
  /// threads. The graph and tree behind the engine must outlive the
  /// service.
  explicit QueryService(IncrementalEngine engine,
                        const ServiceOptions& options = {});

  /// Read-only service over a frozen engine snapshot — the open-from-
  /// file path (store/stored_engine.hpp): the shared_ptr's control
  /// block keeps whatever backs the engine (buffer pool, mapping)
  /// alive, so a service can be constructed over an image larger than
  /// the pool budget. Serves single-source traffic (cache, coalescing,
  /// batched kernel) at a fixed epoch 0; apply_updates() aborts, and
  /// `options.point_to_point` must be false (the hub labels need the
  /// incremental engines).
  explicit QueryService(SeparatorShortestPaths<TropicalD>::Snapshot engine,
                        const ServiceOptions& options = {});

  /// Stops and drains (see stop()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one single-source distance request. Resolution order:
  /// source out of range (or approx without approx.enabled) -> ready
  /// with kInvalid; stopped -> ready with kStopped; cache hit -> ready
  /// on return; queue full -> ready with kShed; otherwise the future
  /// resolves when the request's lane group executes.
  std::future<Reply> submit(SingleSource request);

  /// Bare-vertex spelling of submit(SingleSource{source}) — the pre-
  /// typed-API surface, kept as a convenience alias.
  std::future<Reply> submit(Vertex source) {
    return submit(SingleSource{source});
  }

  /// Submits one point-to-point distance request. Resolves at submit
  /// time (the returned future is always ready): st-cache hit, or one
  /// sorted label merge against the current snapshot's hub labels.
  /// Requires ServiceOptions::point_to_point and both endpoints in
  /// range (kInvalid otherwise); kFailed when the current epoch's
  /// weighting has a negative cycle.
  std::future<Reply> submit(StDistance request);

  /// Submits one point-to-point path request. Resolves at submit time:
  /// st-cache hit carrying a path, or a label merge plus a hop-by-hop
  /// routing-table walk. A cached path-less StDistance answer for the
  /// same (s, t) is upgraded in place. Requires point_to_point and
  /// both endpoints in range (kInvalid otherwise); kFailed like
  /// StDistance.
  std::future<Reply> submit(StPath request);

  /// Convenience synchronous spellings of submit(...).get().
  Reply query(Vertex source) { return submit(source).get(); }
  Reply query(SingleSource request) { return submit(request).get(); }
  Reply query(StDistance request) { return submit(request).get(); }
  Reply query(StPath request) { return submit(request).get(); }

  /// Applies a batch of weight updates as one new epoch: stages them
  /// on the incremental engine, recomputes the affected part of E+,
  /// freezes the successor snapshot, swaps it in, and sweeps stale
  /// cache entries. Readers are never blocked; concurrent
  /// apply_updates() calls serialize. Returns the new epoch (or the
  /// current one when `updates` is empty).
  std::uint64_t apply_updates(std::span<const EdgeUpdate> updates);

  /// Epoch of the snapshot queries are currently resolved against.
  std::uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// The snapshot new queries would use right now (shareable; useful
  /// for oracle comparisons in tests).
  IncrementalEngine::Snapshot current_snapshot() const { return *current(); }

  ServiceStats stats() const;

  /// Closes admission (subsequent submits resolve kStopped), lets the
  /// dispatchers drain every already-admitted request, and joins them.
  /// Idempotent. With dispatchers == 0 the caller's thread drains the
  /// queue here. No admitted request is ever dropped.
  void stop();

 private:
  // Every sum is a StripedCounter (util/cacheline.hpp): each thread
  // adds on its own cache line, so the submitting clients and the
  // dispatchers, which all bump the ledger on every request, do not
  // write each other's lines (up to kCounterStripes threads; past that
  // they share cells round-robin). The maxima and the last-value
  // gauges do not combine per thread and sit alone on one line each.
  //
  // `submitted` and `completed` are not counters: stats() derives them
  // as the sums of the per-kind admission counts and of the eight
  // hit/miss counters, so a request bumps two fewer ledger lines.
  struct Counters {
    StripedCounter shed;
    StripedCounter stopped;
    StripedCounter invalid;
    StripedCounter failed;
    // Per-request hit accounting (a "hit" is any request answered
    // without running the kernel for it — submit-time cache hits,
    // flush-time re-check hits, and in-group dedup shares). The raw
    // DistanceCache counters would double-count the two-phase lookup.
    StripedCounter cache_hits;
    StripedCounter cache_misses;
    StripedCounter dispatches;
    StripedCounter batches;
    StripedCounter lanes_used;
    StripedCounter lane_capacity;
    StripedCounter coalesce_ns_sum;
    PaddedAtomicU64 coalesce_ns_max;
    // Per-kind admission counts (their sum is `submitted`).
    StripedCounter single_source;
    StripedCounter st_distance;
    StripedCounter st_path;
    // Per-request st-cache accounting, disjoint from the single-source
    // hit/miss pair. With the approximate pairs below, their sum is
    // `completed`.
    StripedCounter st_cache_hits;
    StripedCounter st_cache_misses;
    // Approximate-mode traffic (requests submitted with approx = true;
    // a subset of the per-kind admission counts above) and its own
    // per-request hit/miss ledger — approximate answers live in
    // (epoch, mode)-disjoint caches, so these pairs never overlap the
    // exact ones.
    StripedCounter approx_requests;
    StripedCounter approx_cache_hits;
    StripedCounter approx_cache_misses;
    StripedCounter approx_st_hits;
    StripedCounter approx_st_misses;
    // Label-merge latency of st misses (the submit-time kernel), and
    // the routing-walk latency of kStPath misses on top of it.
    StripedCounter st_merge_ns_sum;
    PaddedAtomicU64 st_merge_ns_max;
    StripedCounter st_unpack_ns_sum;
    PaddedAtomicU64 st_unpack_ns_max;
    // Per-epoch hub-label rebuild cost (off the swap critical path;
    // see attach_point_to_point()).
    StripedCounter label_builds;
    StripedCounter label_build_ns_sum;
    PaddedAtomicU64 label_build_ns_last;
    // Per-epoch approximate-engine rebuild cost (like the label rebuild,
    // off the swap critical path; see attach_approx()).
    StripedCounter approx_builds;
    StripedCounter approx_build_ns_sum;
    PaddedAtomicU64 approx_build_ns_last;
    StripedCounter swaps;
    PaddedAtomicU64 epoch_lag;
    // Snapshot+publish latency of apply_updates() — the epoch-swap cost
    // the structurally-shared snapshots keep proportional to the dirty
    // region.
    StripedCounter swap_ns_sum;
    PaddedAtomicU64 swap_ns_max;
    PaddedAtomicU64 swap_ns_last;
  };
  static_assert(alignof(Counters) == kCacheLineBytes,
                "hot ledger counters must be cache-line padded");

  using Snapshot = std::shared_ptr<const IncrementalEngine::Snapshot>;

  // The snapshot cell is a mutex-guarded shared_ptr rather than
  // std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its
  // embedded spin bit with relaxed ordering on the load path, which
  // ThreadSanitizer (correctly, per the formal model) reports as a
  // race against store. The lock is held only for the pointer copy —
  // never while a successor snapshot is built. Only misses, the
  // dispatchers and apply_updates() read the cell: a cache hit needs
  // just the epoch, which publish() also stores in published_epoch_.
  Snapshot current() const {
    std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  // The epoch is stored under the cell's lock: a thread that reads a
  // snapshot through current() (a miss, a dispatcher) happens-after
  // the store, so no later hit can probe an older epoch than the one
  // a reply has already named.
  void publish(Snapshot snap) {
    std::lock_guard<std::mutex> lock(current_mutex_);
    current_ = std::move(snap);
    published_epoch_.store(current_->epoch, std::memory_order_release);
  }

  void dispatcher_loop();
  void flush_group(std::vector<Pending>& group);
  void resolve(Pending& p, const Snapshot& snap,
               std::shared_ptr<const CachedDistances> value, bool hit);
  /// Shared submit-time resolution of the two point-to-point kinds.
  /// `approx` routes kStDistance through the approximate caches (never
  /// set for kStPath — paths have no approximate spelling).
  std::future<Reply> submit_st(Vertex s, Vertex t, RequestKind kind,
                               bool approx);
  /// Builds this epoch's hub labels (with next hops) from the two
  /// incremental engines and hangs them off `snap` — or leaves
  /// snap.labels null when either engine's snapshot is not certified
  /// cycle-free (cycle_certified()). Called inside
  /// apply_updates() between snapshot fork and publish — readers keep
  /// the previous snapshot for the whole build, so the cost shows up as
  /// epoch lag, never as swap latency.
  void attach_point_to_point(IncrementalEngine::Snapshot& snap);
  /// Builds this epoch's (1 + eps)-approximate engine (src/approx) over
  /// the incremental engine's effective weights and hangs it off `snap`.
  /// Same placement as attach_point_to_point: between snapshot fork and
  /// publish, so the build cost shows up as epoch lag, never as swap
  /// latency. Caller holds update_mutex_ (or is the constructor).
  void attach_approx(IncrementalEngine::Snapshot& snap);

  /// Starts the dispatcher threads (tail of both constructors).
  void start_dispatchers();

  ServiceOptions opts_;
  /// Absent on a read-only (snapshot-constructed) service; touched
  /// only under update_mutex_ otherwise.
  std::optional<IncrementalEngine> engine_;
  /// Vertex count of the served graph, cached for the submit-path
  /// bounds checks (valid in both construction modes).
  std::size_t num_vertices_ = 0;
  /// Reversed graph + backward incremental engine behind the labels'
  /// to-hub distances (point_to_point only). The reversed graph bakes
  /// the forward engine's *effective* weights at construction time, so
  /// a handed-over engine with applied history starts consistent;
  /// apply_updates() mirrors every change. The forward epoch is
  /// authoritative everywhere (the backward engine's own counter is
  /// never read).
  std::optional<Digraph> reversed_;
  std::optional<IncrementalEngine> bwd_engine_;  // under update_mutex_
  std::mutex update_mutex_;     // serializes apply_updates()
  mutable std::mutex current_mutex_;  // guards the pointer copy only
  Snapshot current_;            // RCU-style cell readers copy
  /// current_->epoch, readable without the lock: the cache-hit path's
  /// probe key. On its own line: submits load it on every request.
  PaddedAtomicU64 published_epoch_;
  DistanceCache cache_;
  StCache st_cache_;
  /// Approximate-mode answers, keyed by the same (epoch, source) /
  /// (epoch, s, t) shapes but in separate cache instances — (epoch,
  /// mode) keying by construction, so an approximate vector can never
  /// satisfy an exact request or vice versa.
  DistanceCache approx_cache_;
  StCache approx_st_cache_;
  SubmitQueue queue_;
  Counters counters_;
  std::vector<std::thread> dispatchers_;
  std::once_flag stop_once_;
};

}  // namespace sepsp::service
