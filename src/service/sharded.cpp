#include "service/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/random.hpp"

namespace sepsp::service {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedOptions ShardedOptions::validated(const pram::Topology& topo) const {
  ShardedOptions r = *this;
  if (r.shards == 0) {
    r.shards = static_cast<unsigned>(std::max<std::size_t>(
        1, topo.nodes.size()));
  }
  r.shard = r.shard.validated();
  if (r.divide_cache_budget && r.shards > 1) {
    r.shard.cache_capacity_bytes /= r.shards;
    r.shard.st_cache_capacity_bytes /= r.shards;
  }
  return r;
}

ShardedService::ShardedService(const Digraph& g, const SeparatorTree& tree,
                               const ShardedOptions& options)
    : topo_(pram::Topology::system()),
      opts_(options.validated(topo_)) {
  const std::size_t n = opts_.shards;
  shards_.resize(n);
  home_cpus_.resize(n);
  if (opts_.routing.kind == RoutingPolicy::Kind::kHotReplicated) {
    for (const Vertex v : opts_.routing.hot_sources) {
      if (static_cast<std::size_t>(v) >= hot_.size()) {
        hot_.resize(static_cast<std::size_t>(v) + 1, false);
      }
      hot_[static_cast<std::size_t>(v)] = true;
    }
  }

  // Build every replica on a thread pinned to its home node: the
  // engine build's first-touch faults then land the shard's E+
  // labels, caches, and queue on node-local pages. The builds (the
  // expensive part of construction) run in parallel across shards.
  std::vector<std::thread> builders;
  std::vector<std::exception_ptr> errors(n);
  builders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServiceOptions shard_opts = opts_.shard;
    if (opts_.pin) {
      home_cpus_[i] = topo_.home_of(i).cpus;
      shard_opts.pin_cpus = home_cpus_[i];
    }
    builders.emplace_back([this, i, &g, &tree, &errors,
                           shard_opts = std::move(shard_opts)] {
      try {
        if (!home_cpus_[i].empty()) pram::pin_current_thread(home_cpus_[i]);
        shards_[i] = std::make_unique<QueryService>(
            IncrementalEngine::build(g, tree), shard_opts);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& b : builders) b.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ShardedService::~ShardedService() { stop(); }

std::size_t ShardedService::shard_of_source(Vertex source) {
  if (shards_.size() == 1) return 0;
  const auto v = static_cast<std::size_t>(source);
  if (v < hot_.size() && hot_[v]) {
    // Hot sources round-robin so their (replicated) cache entries and
    // read load spread over every shard.
    return round_robin_.fetch_add(1, std::memory_order_relaxed) %
           shards_.size();
  }
  return splitmix64(static_cast<std::uint64_t>(source)) % shards_.size();
}

std::size_t ShardedService::shard_of_pair(Vertex s, Vertex t) const {
  if (shards_.size() == 1) return 0;
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint64_t>(t);
  return splitmix64(packed) % shards_.size();
}

std::uint64_t ShardedService::apply_updates(
    std::span<const EdgeUpdate> updates) {
  std::lock_guard<std::mutex> lock(fanout_mutex_);
  const std::uint64_t start = now_ns();
  std::vector<std::uint64_t> epochs(shards_.size(), 0);
  std::vector<std::exception_ptr> errors(shards_.size());
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers.emplace_back([this, i, updates, &epochs, &errors] {
      try {
        if (!home_cpus_[i].empty()) pram::pin_current_thread(home_cpus_[i]);
        epochs[i] = shards_[i]->apply_updates(updates);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    SEPSP_CHECK_MSG(epochs[i] == epochs[0],
                    "sharded epoch fan-out must land every shard on the "
                    "same epoch");
  }
  const std::uint64_t wall = now_ns() - start;
  swap_fanouts_.fetch_add(1, std::memory_order_relaxed);
  swap_wall_ns_sum_.fetch_add(wall, std::memory_order_relaxed);
  swap_wall_ns_max_.fetch_max(wall);
  return epochs[0];
}

ShardedStats ShardedService::stats() const {
  ShardedStats out;
  out.shards.reserve(shards_.size());
  for (const auto& s : shards_) out.shards.push_back(s->stats());
  out.total = out.shards.front();
  for (std::size_t i = 1; i < out.shards.size(); ++i) {
    accumulate(out.total, out.shards[i]);
    out.epochs_consistent &= out.shards[i].epoch == out.shards[0].epoch;
  }
  out.swap_fanouts = swap_fanouts_.load(std::memory_order_relaxed);
  out.swap_wall_ns_sum = swap_wall_ns_sum_.load(std::memory_order_relaxed);
  out.swap_wall_ns_max = swap_wall_ns_max_.load(std::memory_order_relaxed);
  return out;
}

void ShardedService::stop() {
  for (auto& s : shards_) {
    if (s) s->stop();
  }
}

double ShardedStats::completed_balance() const {
  if (shards.empty()) return 1.0;
  std::uint64_t lo = shards.front().completed;
  std::uint64_t hi = lo;
  for (const auto& s : shards) {
    lo = std::min(lo, s.completed);
    hi = std::max(hi, s.completed);
  }
  return hi == 0 ? 1.0 : static_cast<double>(lo) / static_cast<double>(hi);
}

}  // namespace sepsp::service
