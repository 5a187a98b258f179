#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "approx/approx.hpp"
#include "core/routing.hpp"
#include "obs/trace.hpp"
#include "pram/thread_pool.hpp"
#include "util/check.hpp"

namespace sepsp::service {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// A future that is already resolved (hit / shed / stopped paths).
std::future<Reply> ready(Reply reply) {
  std::promise<Reply> p;
  p.set_value(std::move(reply));
  return p.get_future();
}

/// A resolved non-ok reply of `kind` (naming `epoch` for kFailed).
std::future<Reply> rejected(ReplyStatus status, RequestKind kind,
                            std::uint64_t epoch = 0) {
  Reply reply;
  reply.status = status;
  reply.kind = kind;
  reply.epoch = epoch;
  return ready(std::move(reply));
}

}  // namespace

QueryService::QueryService(IncrementalEngine engine,
                           const ServiceOptions& options)
    : opts_(options.validated()),
      engine_(std::move(engine)),
      cache_(DistanceCache::Config{opts_.cache_capacity_bytes,
                                   opts_.cache_shards}),
      st_cache_(StCache::Config{opts_.st_cache_capacity_bytes,
                                opts_.st_cache_shards}),
      approx_cache_(DistanceCache::Config{opts_.cache_capacity_bytes,
                                          opts_.cache_shards}),
      approx_st_cache_(StCache::Config{opts_.st_cache_capacity_bytes,
                                       opts_.st_cache_shards}),
      queue_(opts_.max_queue) {
  num_vertices_ = engine_->graph().num_vertices();
  IncrementalEngine::Snapshot snap = engine_->snapshot(opts_.engine);
  if (opts_.approx.enabled) attach_approx(snap);
  if (opts_.point_to_point) {
    // Reverse the graph under the engine's *effective* weights (a
    // handed-over engine may carry applied update history its baked
    // graph weights predate), so forward and backward engines agree
    // from the first epoch served.
    const Digraph& g = engine_->graph();
    const std::span<const Arc> arcs = g.arcs();
    const std::span<const Vertex> arc_src = g.arc_sources();
    const std::span<const double> weights = engine_->weights();
    GraphBuilder builder(g.num_vertices());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      builder.add_edge(arcs[i].to, arc_src[i], weights[i]);
    }
    // No dedup: the routing build checks arc-count parity with g.
    reversed_ = std::move(builder).build(/*dedup_min=*/false);
    bwd_engine_ = IncrementalEngine::build(*reversed_, engine_->tree());
    attach_point_to_point(snap);
  }
  publish(std::make_shared<const IncrementalEngine::Snapshot>(std::move(snap)));
  start_dispatchers();
}

QueryService::QueryService(SeparatorShortestPaths<TropicalD>::Snapshot engine,
                           const ServiceOptions& options)
    : opts_(options.validated()),
      cache_(DistanceCache::Config{opts_.cache_capacity_bytes,
                                   opts_.cache_shards}),
      st_cache_(StCache::Config{opts_.st_cache_capacity_bytes,
                                opts_.st_cache_shards}),
      approx_cache_(DistanceCache::Config{opts_.cache_capacity_bytes,
                                          opts_.cache_shards}),
      approx_st_cache_(StCache::Config{opts_.st_cache_capacity_bytes,
                                       opts_.st_cache_shards}),
      queue_(opts_.max_queue) {
  SEPSP_CHECK_MSG(engine != nullptr,
                  "QueryService: null engine snapshot");
  SEPSP_CHECK_MSG(!opts_.point_to_point,
                  "QueryService: a snapshot-constructed (read-only) service "
                  "cannot serve point-to-point traffic — set "
                  "ServiceOptions::point_to_point = false");
  SEPSP_CHECK_MSG(!opts_.approx.enabled,
                  "QueryService: a snapshot-constructed (read-only) service "
                  "cannot serve approximate traffic — the approx engine is "
                  "built from the incremental engine's effective weights; "
                  "set ServiceOptions::approx.enabled = false");
  num_vertices_ = engine->graph().num_vertices();
  IncrementalEngine::Snapshot snap;
  snap.epoch = 0;
  snap.engine = std::move(engine);
  publish(std::make_shared<const IncrementalEngine::Snapshot>(std::move(snap)));
  start_dispatchers();
}

void QueryService::start_dispatchers() {
  dispatchers_.reserve(opts_.dispatchers);
  for (unsigned i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

QueryService::~QueryService() { stop(); }

std::future<Reply> QueryService::submit(SingleSource request) {
  const auto t0 = Clock::now();
  const Vertex source = request.source;
  counters_.single_source.add();
  if (request.approx) {
    counters_.approx_requests.add();
  }
  if (source >= num_vertices_ || (request.approx && !opts_.approx.enabled)) {
    counters_.invalid.add();
    return rejected(ReplyStatus::kInvalid, RequestKind::kSingleSource);
  }

  if (queue_.closed()) {
    // Stopped services reject uniformly — even sources the cache could
    // still answer — so "stopped" is observable, not load-dependent.
    counters_.stopped.add();
    return rejected(ReplyStatus::kStopped, RequestKind::kSingleSource);
  }

  // A hit needs only the epoch to probe at, not the snapshot: every
  // entry at that epoch was computed under its weighting.
  const std::uint64_t epoch = published_epoch_.load(std::memory_order_acquire);
  DistanceCache& cache = request.approx ? approx_cache_ : cache_;
  if (auto value = cache.lookup(epoch, source)) {
    (request.approx ? counters_.approx_cache_hits : counters_.cache_hits).add();
    Reply reply;
    reply.epoch = epoch;
    reply.cache_hit = true;
    reply.latency_ns = ns_between(t0, Clock::now());
    // The epoch's approximate engine certifies exactly opts_.approx.eps.
    if (request.approx) reply.error_bound = opts_.approx.eps;
    reply.value = std::move(value);
    return ready(std::move(reply));
  }

  Pending pending{source, std::promise<Reply>{}, t0, request.approx};
  std::future<Reply> future = pending.promise.get_future();
  if (!queue_.push(std::move(pending))) {
    // push() leaves `pending` untouched on failure, but the future we
    // already extracted is the one the caller gets — resolve it here.
    Reply reply;
    if (queue_.closed()) {
      counters_.stopped.add();
      reply.status = ReplyStatus::kStopped;
    } else {
      counters_.shed.add();
      reply.status = ReplyStatus::kShed;
    }
    pending.promise.set_value(std::move(reply));
  }
  return future;
}

std::future<Reply> QueryService::submit(StDistance request) {
  return submit_st(request.s, request.t, RequestKind::kStDistance,
                   request.approx);
}

std::future<Reply> QueryService::submit(StPath request) {
  return submit_st(request.s, request.t, RequestKind::kStPath,
                   /*approx=*/false);
}

std::future<Reply> QueryService::submit_st(Vertex s, Vertex t,
                                           RequestKind kind, bool approx) {
  const auto t0 = Clock::now();
  const bool want_path = kind == RequestKind::kStPath;
  (want_path ? counters_.st_path : counters_.st_distance).add();
  if (approx) {
    counters_.approx_requests.add();
  }
  // Approximate st answers come from the approximate distance cache,
  // not from hub labels, so they need approx.enabled but *not*
  // point_to_point.
  const bool served = approx ? opts_.approx.enabled : opts_.point_to_point;
  if (!served || s >= num_vertices_ || t >= num_vertices_) {
    counters_.invalid.add();
    return rejected(ReplyStatus::kInvalid, kind);
  }

  if (queue_.closed()) {
    counters_.stopped.add();
    return rejected(ReplyStatus::kStopped, kind);
  }

  const auto reply_with = [&](std::uint64_t epoch, bool hit,
                              std::shared_ptr<const CachedStAnswer> answer,
                              double error_bound) {
    Reply reply;
    reply.kind = kind;
    reply.epoch = epoch;
    reply.cache_hit = hit;
    reply.latency_ns = ns_between(t0, Clock::now());
    reply.error_bound = error_bound;
    reply.st = std::move(answer);
    return ready(std::move(reply));
  };

  // A hit probes at the published epoch without loading the snapshot.
  // It stays exact for a negative-cycle epoch: no exact st entry is
  // ever inserted for an epoch without labels. A path request treats a
  // distance-only entry as a miss and upgrades it with the
  // path-carrying answer below.
  const std::uint64_t epoch = published_epoch_.load(std::memory_order_acquire);
  StCache& cache = approx ? approx_st_cache_ : st_cache_;
  if (auto answer = cache.lookup(epoch, s, t);
      answer != nullptr && (!want_path || answer->has_path)) {
    (approx ? counters_.approx_st_hits : counters_.st_cache_hits).add();
    return reply_with(epoch, /*hit=*/true, std::move(answer),
                      approx ? opts_.approx.eps : 0.0);
  }

  // One snapshot load answers the whole miss: the epoch its answer is
  // cached at is the epoch the labels belong to, so a reply can never
  // pair an answer with a weighting it was not computed under.
  const Snapshot snap = current();

  if (approx) {
    SEPSP_CHECK(snap->approx != nullptr);
    // Resolve from the approximate single-source vector — cached, or
    // computed here and cached so the next source-s request (either
    // shape) reuses it.
    std::shared_ptr<const CachedDistances> vec =
        approx_cache_.lookup(snap->epoch, s);
    if (vec == nullptr) {
      auto fresh = std::make_shared<const CachedDistances>(
          CachedDistances{snap->approx->distances(s), false});
      approx_cache_.insert(snap->epoch, s, fresh);
      vec = std::move(fresh);
    }
    CachedStAnswer st;
    st.distance = vec->dist[t];
    auto owned = std::make_shared<const CachedStAnswer>(std::move(st));
    approx_st_cache_.insert(snap->epoch, s, t, owned);
    counters_.approx_st_misses.add();
    return reply_with(snap->epoch, /*hit=*/false, std::move(owned),
                      snap->approx->certified_error());
  }

  if (snap->labels == nullptr) {
    // attach_point_to_point() left this epoch without labels: its
    // weighting has a negative cycle, so st distances are undefined.
    counters_.failed.add();
    return rejected(ReplyStatus::kFailed, kind, snap->epoch);
  }

  CachedStAnswer fresh;
  const auto merge_begin = Clock::now();
  fresh.distance = snap->labels->distance(s, t);
  const std::uint64_t merge_ns = ns_between(merge_begin, Clock::now());
  counters_.st_merge_ns_sum.add(merge_ns);
  counters_.st_merge_ns_max.fetch_max(merge_ns);
  if (want_path) {
    const auto unpack_begin = Clock::now();
    fresh.has_path = true;
    if (fresh.distance != std::numeric_limits<double>::infinity()) {
      fresh.path = snap->labels->route(s, t);
    }
    const std::uint64_t unpack_ns = ns_between(unpack_begin, Clock::now());
    counters_.st_unpack_ns_sum.add(unpack_ns);
    counters_.st_unpack_ns_max.fetch_max(unpack_ns);
  }
  auto owned = std::make_shared<const CachedStAnswer>(std::move(fresh));
  st_cache_.insert(snap->epoch, s, t, owned);
  counters_.st_cache_misses.add();
  return reply_with(snap->epoch, /*hit=*/false, std::move(owned), 0.0);
}

void QueryService::dispatcher_loop() {
  // One lane group per pool participant: distances_batch runs a
  // dispatch's blocks in parallel, so a backlog leaves in one dispatch.
  const std::size_t max =
      opts_.lanes * pram::ThreadPool::global().concurrency();
  std::vector<Pending> group;
  group.reserve(max);
  while (queue_.pop_batch(group, max)) {
    flush_group(group);
  }
}

void QueryService::resolve(Pending& p, const Snapshot& snap,
                           std::shared_ptr<const CachedDistances> value,
                           bool hit) {
  if (p.approx) {
    (hit ? counters_.approx_cache_hits : counters_.approx_cache_misses).add();
  } else {
    (hit ? counters_.cache_hits : counters_.cache_misses).add();
  }
  Reply reply;
  reply.epoch = snap->epoch;
  reply.cache_hit = hit;
  reply.latency_ns = ns_between(p.enqueued, Clock::now());
  if (p.approx) reply.error_bound = snap->approx->certified_error();
  reply.value = std::move(value);
  p.promise.set_value(std::move(reply));
}

void QueryService::flush_group(std::vector<Pending>& group) {
  SEPSP_TRACE_SPAN("service.flush");
  const auto dispatched = Clock::now();
  const std::size_t blocks = (group.size() + opts_.lanes - 1) / opts_.lanes;
  counters_.dispatches.add();
  counters_.batches.add(blocks);
  counters_.lanes_used.add(group.size());
  counters_.lane_capacity.add(blocks * opts_.lanes);
  std::uint64_t wait_sum = 0;
  std::uint64_t wait_max = 0;
  for (const Pending& p : group) {
    const std::uint64_t wait = ns_between(p.enqueued, dispatched);
    wait_sum += wait;
    wait_max = std::max(wait_max, wait);
  }
  counters_.coalesce_ns_sum.add(wait_sum);
  counters_.coalesce_ns_max.fetch_max(wait_max);

  // Every request in the group resolves against ONE snapshot load: the
  // group's answers are mutually consistent even mid-swap.
  const Snapshot snap = current();

  // Re-check the cache at the captured epoch (a concurrent miss may
  // have populated it since admission) and dedupe repeated sources so
  // the kernel computes each one once. The mode bit participates in the
  // dedup key: an exact and an approximate request for the same source
  // never share an answer.
  const auto key = [](const Pending& p) {
    return (static_cast<std::uint64_t>(p.source) << 1) |
           static_cast<std::uint64_t>(p.approx);
  };
  struct Answer {
    std::shared_ptr<const CachedDistances> value;
    /// Computed in this flush and not yet charged to a request: the
    /// first request of the key is the miss, its followers are hits.
    bool uncharged = false;
  };
  std::unordered_map<std::uint64_t, Answer> answers;
  std::vector<Vertex> misses;         // exact-mode sources to compute
  std::vector<Vertex> approx_misses;  // approx-mode sources to compute
  misses.reserve(group.size());
  for (const Pending& p : group) {
    const std::uint64_t k = key(p);
    if (answers.count(k) != 0) continue;
    DistanceCache& cache = p.approx ? approx_cache_ : cache_;
    std::shared_ptr<const CachedDistances> value =
        cache.lookup(snap->epoch, p.source);
    const bool miss = value == nullptr;
    if (miss) (p.approx ? approx_misses : misses).push_back(p.source);
    answers.emplace(k, Answer{std::move(value), miss});
  }

  // Each miss's cache entry is allocated here, on the dispatcher that
  // keeps it, and the kernel fills its row in place: no answer vector
  // moves between threads.
  const auto compute = [&](const std::vector<Vertex>& sources, bool approx) {
    if (sources.empty()) return;
    SEPSP_TRACE_SPAN("service.batch");
    std::vector<std::shared_ptr<CachedDistances>> entries;
    std::vector<std::span<double>> rows;
    entries.reserve(sources.size());
    rows.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      auto entry = std::make_shared<CachedDistances>();
      entry->dist.resize(num_vertices_);
      rows.emplace_back(entry->dist);
      entries.push_back(std::move(entry));
    }
    std::vector<QueryStats> stats(sources.size());
    const BatchPolicy policy{.lanes = opts_.lanes};
    if (approx) {
      SEPSP_CHECK(snap->approx != nullptr);
      snap->approx->distances_batch(sources, rows, stats, policy);
    } else {
      snap->engine->distances_batch(sources, rows, stats, policy);
    }
    DistanceCache& cache = approx ? approx_cache_ : cache_;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      entries[i]->negative_cycle = stats[i].negative_cycle;
      std::shared_ptr<const CachedDistances> value = std::move(entries[i]);
      cache.insert(snap->epoch, sources[i], value);
      answers[(static_cast<std::uint64_t>(sources[i]) << 1) |
              static_cast<std::uint64_t>(approx)]
          .value = std::move(value);
    }
  };
  compute(misses, /*approx=*/false);
  compute(approx_misses, /*approx=*/true);

  for (Pending& p : group) {
    Answer& answer = answers[key(p)];
    // `hit` reports whether the request was answered without running
    // the kernel for it — true for dedup winners' followers too.
    const bool hit = !std::exchange(answer.uncharged, false);
    resolve(p, snap, answer.value, hit);
  }
}

std::uint64_t QueryService::apply_updates(std::span<const EdgeUpdate> updates) {
  SEPSP_TRACE_SPAN("service.swap");
  SEPSP_CHECK_MSG(engine_.has_value(),
                  "QueryService::apply_updates: read-only service (built "
                  "over a frozen engine snapshot) cannot be reweighted");
  std::lock_guard<std::mutex> lock(update_mutex_);
  if (updates.empty()) return engine_->epoch();
  for (const EdgeUpdate& u : updates) {
    engine_->update_edge(u.from, u.to, u.weight);
    // Mirror into the backward engine (the reversed arc), so both
    // engines describe the same weighting at every epoch.
    if (bwd_engine_) bwd_engine_->update_edge(u.to, u.from, u.weight);
  }
  engine_->apply();
  if (bwd_engine_) bwd_engine_->apply();
  const std::uint64_t next = engine_->epoch();
  // Readers keep resolving against the old snapshot while the
  // successor is built; the lag gauge is nonzero exactly during that
  // window.
  counters_.epoch_lag.store(next - current()->epoch,
                            std::memory_order_relaxed);
  // The swap itself: freeze a structurally-shared snapshot (O(#slabs)
  // pointer copies — see IncrementalEngine::snapshot()) and publish it.
  // Timed separately from the dirty-region recompute above and from the
  // hub-label rebuild in between (readers ride the old snapshot
  // through that build — it stretches epoch lag, not swap latency).
  const auto fork_begin = Clock::now();
  IncrementalEngine::Snapshot next_snap = engine_->snapshot(opts_.engine);
  std::uint64_t swap_ns = ns_between(fork_begin, Clock::now());
  if (opts_.point_to_point) attach_point_to_point(next_snap);
  if (opts_.approx.enabled) attach_approx(next_snap);
  const auto publish_begin = Clock::now();
  publish(std::make_shared<const IncrementalEngine::Snapshot>(
      std::move(next_snap)));
  swap_ns += ns_between(publish_begin, Clock::now());
  counters_.epoch_lag.store(0, std::memory_order_relaxed);
  counters_.swaps.add();
  counters_.swap_ns_sum.add(swap_ns);
  counters_.swap_ns_last.store(swap_ns, std::memory_order_relaxed);
  counters_.swap_ns_max.fetch_max(swap_ns);
  cache_.invalidate_older_than(next);
  st_cache_.invalidate_older_than(next);
  approx_cache_.invalidate_older_than(next);
  approx_st_cache_.invalidate_older_than(next);
  return next;
}

void QueryService::attach_point_to_point(IncrementalEngine::Snapshot& snap) {
  SEPSP_TRACE_SPAN("service.label_build");
  const auto t0 = Clock::now();
  // The forward engine half is the snapshot just forked; the backward
  // half freezes here, after the mirrored apply(), so both describe the
  // same weighting. engine_->weights() is safe to read: callers hold
  // update_mutex_ (or are the constructor, before any dispatcher runs).
  const IncrementalEngine::Snapshot bwd = bwd_engine_->snapshot(opts_.engine);
  // Hub labels need exact distances, which a negative cycle leaves
  // undefined. An epoch the build could not certify cycle-free is
  // published without labels; its st requests resolve kFailed.
  if (!snap.engine->cycle_certified() || !bwd.engine->cycle_certified()) {
    snap.labels = nullptr;
    return;
  }
  snap.labels = std::make_shared<const RoutingScheme>(
      RoutingScheme::build_from_engines(engine_->graph(), engine_->tree(),
                                        *snap.engine, *bwd.engine, *reversed_,
                                        engine_->weights(),
                                        bwd_engine_->weights()));
  const std::uint64_t build_ns = ns_between(t0, Clock::now());
  counters_.label_builds.add();
  counters_.label_build_ns_sum.add(build_ns);
  counters_.label_build_ns_last.store(build_ns, std::memory_order_relaxed);
}

void QueryService::attach_approx(IncrementalEngine::Snapshot& snap) {
  SEPSP_TRACE_SPAN("service.approx_build");
  const auto t0 = Clock::now();
  // Built from the incremental engine's *effective* weights (like the
  // reversed graph in the constructor), so the approximate snapshot
  // describes exactly the weighting the paired exact snapshot serves.
  ApproxEngine::Options aopts;
  aopts.build.approx_eps = opts_.approx.eps;
  snap.approx = std::make_shared<const ApproxEngine>(
      ApproxEngine::build_with_weights(engine_->graph(), engine_->tree(),
                                       engine_->weights(), aopts));
  const std::uint64_t build_ns = ns_between(t0, Clock::now());
  counters_.approx_builds.add();
  counters_.approx_build_ns_sum.add(build_ns);
  counters_.approx_build_ns_last.store(build_ns, std::memory_order_relaxed);
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  out.shed = counters_.shed.load();
  out.stopped = counters_.stopped.load();
  out.invalid = counters_.invalid.load();
  out.failed = counters_.failed.load();
  out.single_source = counters_.single_source.load();
  out.st_distance = counters_.st_distance.load();
  out.st_path = counters_.st_path.load();
  const DistanceCache::Stats c = cache_.stats();
  out.cache_hits = counters_.cache_hits.load();
  out.cache_misses = counters_.cache_misses.load();
  out.cache_evictions = c.evictions;
  out.cache_invalidations = c.invalidations;
  out.cache_entries = c.entries;
  out.cache_bytes = c.bytes;
  out.cache_capacity_bytes = cache_.capacity_bytes();
  const StCache::Stats sc = st_cache_.stats();
  out.st_cache_hits = counters_.st_cache_hits.load();
  out.st_cache_misses = counters_.st_cache_misses.load();
  out.st_cache_evictions = sc.evictions;
  out.st_cache_invalidations = sc.invalidations;
  out.st_cache_entries = sc.entries;
  out.st_cache_bytes = sc.bytes;
  out.st_cache_capacity_bytes = st_cache_.capacity_bytes();
  out.st_merge_ns_sum = counters_.st_merge_ns_sum.load();
  out.st_merge_ns_max =
      counters_.st_merge_ns_max.load(std::memory_order_relaxed);
  out.st_unpack_ns_sum = counters_.st_unpack_ns_sum.load();
  out.st_unpack_ns_max =
      counters_.st_unpack_ns_max.load(std::memory_order_relaxed);
  out.approx_requests = counters_.approx_requests.load();
  out.approx_cache_hits = counters_.approx_cache_hits.load();
  out.approx_cache_misses = counters_.approx_cache_misses.load();
  out.approx_st_hits = counters_.approx_st_hits.load();
  out.approx_st_misses = counters_.approx_st_misses.load();
  const DistanceCache::Stats ac = approx_cache_.stats();
  out.approx_cache_evictions = ac.evictions;
  out.approx_cache_invalidations = ac.invalidations;
  out.approx_cache_entries = ac.entries;
  out.approx_cache_bytes = ac.bytes;
  out.approx_builds = counters_.approx_builds.load();
  out.approx_build_ns_sum = counters_.approx_build_ns_sum.load();
  out.approx_build_ns_last =
      counters_.approx_build_ns_last.load(std::memory_order_relaxed);
  out.label_builds = counters_.label_builds.load();
  out.label_build_ns_sum = counters_.label_build_ns_sum.load();
  out.label_build_ns_last =
      counters_.label_build_ns_last.load(std::memory_order_relaxed);
  out.dispatches = counters_.dispatches.load();
  out.batches = counters_.batches.load();
  out.batch_lanes_used = counters_.lanes_used.load();
  out.batch_lane_capacity = counters_.lane_capacity.load();
  out.coalesce_ns_sum = counters_.coalesce_ns_sum.load();
  out.coalesce_ns_max =
      counters_.coalesce_ns_max.load(std::memory_order_relaxed);
  out.queue_depth = queue_.depth();
  out.queue_peak = queue_.peak_depth();
  out.epoch = epoch();
  out.epoch_swaps = counters_.swaps.load();
  out.epoch_lag = counters_.epoch_lag.load(std::memory_order_relaxed);
  out.swap_ns_sum = counters_.swap_ns_sum.load();
  out.swap_ns_max = counters_.swap_ns_max.load(std::memory_order_relaxed);
  out.swap_ns_last = counters_.swap_ns_last.load(std::memory_order_relaxed);
  // The two totals are derived, not stored: every request bumps exactly
  // one per-kind admission count and, when it completes, exactly one
  // hit/miss counter.
  out.submitted = out.single_source + out.st_distance + out.st_path;
  out.completed = out.cache_hits + out.cache_misses + out.st_cache_hits +
                  out.st_cache_misses + out.approx_cache_hits +
                  out.approx_cache_misses + out.approx_st_hits +
                  out.approx_st_misses;
  return out;
}

void QueryService::stop() {
  std::call_once(stop_once_, [this] {
    queue_.close();
    // No background dispatch configured: drain on the caller's thread
    // so the no-admitted-request-dropped contract still holds: each
    // pop takes what is queued, up to the dispatch cap, until none is
    // left.
    if (dispatchers_.empty()) dispatcher_loop();
    for (std::thread& t : dispatchers_) t.join();
  });
}

}  // namespace sepsp::service
