// Sharded, byte-accounted LRU caches for the serving runtime, tagged
// with the weighting epoch that computed each entry. One generic core
// (detail::ShardedLruCache) instantiated twice:
//
//  * DistanceCache — single-source distance vectors keyed by source.
//  * StCache — point-to-point answers keyed by the (s, t) pair.
//
// Epoch semantics (identical for both): lookups name the epoch they
// want; an entry whose tag differs is *stale* — it is evicted on
// contact and reported as a miss, so a reader can never observe answers
// from a weighting other than the one it asked for. After an epoch swap
// the service also calls invalidate_older_than() to sweep survivors
// eagerly (stale entries would otherwise only die lazily, squatting on
// byte budget).
//
// Sharding: a key hashes to one of 2^k shards, each with its own lock,
// map, and LRU list; concurrent hits on different shards never contend.
// Hits on one hot shard do: the shard lock (SpinThenParkMutex) retries
// a bounded number of times before it parks, because a hit holds it
// for a hash probe and a list splice — far shorter than a futex sleep
// and wake — while a preempted holder still costs a waiter at most the
// bounded spin, never a burnt core.
// Capacity is split evenly across shards (per-shard LRU, like any
// sharded cache, is ragged against a global LRU by at most one shard's
// worth of recency).
//
// Values are shared immutable objects: a hit hands out the very object
// the populating miss inserted, which is what makes hit/miss parity
// bit-identical by construction (test_service).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "service/reply.hpp"
#include "util/check.hpp"

namespace sepsp::service {

namespace detail {

/// A std::mutex whose lock() first makes kSpins try_lock attempts, with
/// a pause between them, and only then blocks.
class SpinThenParkMutex {
 public:
  void lock() {
    for (int i = 0; i < kSpins; ++i) {
      if (mutex_.try_lock()) return;
      pause();
    }
    mutex_.lock();
  }
  void unlock() { mutex_.unlock(); }

 private:
  static constexpr int kSpins = 64;

  static void pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mutex_;
};

/// The sharded LRU core. Key is a cheap integral id; PayloadBytes maps
/// a value to its payload size (the fixed per-entry overhead is charged
/// here on top).
template <typename Key, typename Value, typename PayloadBytes>
class ShardedLruCache {
 public:
  struct Config {
    std::size_t capacity_bytes = std::size_t{64} << 20;
    std::size_t shards = 8;  ///< must be a power of two
  };

  /// Point-in-time counters, summed over shards.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;         ///< includes stale-epoch contacts
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      ///< capacity evictions only
    std::uint64_t invalidations = 0;  ///< stale-epoch removals (lazy + sweep)
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  explicit ShardedLruCache(const Config& config)
      : capacity_bytes_(config.capacity_bytes) {
    SEPSP_CHECK_MSG(config.shards > 0 &&
                        (config.shards & (config.shards - 1)) == 0,
                    "cache shard count must be a power of two");
    shards_ = std::vector<Shard>(config.shards);
    shard_mask_ = config.shards - 1;
    per_shard_capacity_ = capacity_bytes_ / config.shards;
  }

  /// The cached answer for `key` at exactly `epoch`, or null. A hit
  /// refreshes LRU recency; touching an entry of any other epoch
  /// removes it and misses.
  std::shared_ptr<const Value> lookup(std::uint64_t epoch, Key key) {
    Shard& s = shard_of(key);
    std::lock_guard<SpinThenParkMutex> lock(s.mutex);
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return nullptr;
    }
    if (it->second->epoch != epoch) {
      // Stale weighting: remove on contact so the slot cannot be served
      // to anyone else either.
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.index.erase(it);
      ++s.invalidations;
      ++s.misses;
      return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
    ++s.hits;
    return it->second->value;
  }

  /// Publishes an answer (replacing any entry for the same key) and
  /// evicts from the shard's LRU tail until its byte budget holds.
  void insert(std::uint64_t epoch, Key key,
              std::shared_ptr<const Value> value) {
    SEPSP_CHECK(value != nullptr);
    const std::size_t bytes = PayloadBytes{}(*value) + kEntryOverhead;
    Shard& s = shard_of(key);
    std::lock_guard<SpinThenParkMutex> lock(s.mutex);
    const auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.index.erase(it);
    }
    if (bytes > per_shard_capacity_) return;  // would never fit; skip
    s.lru.push_front(Entry{key, epoch, bytes, std::move(value)});
    s.index[key] = s.lru.begin();
    s.bytes += bytes;
    ++s.insertions;
    while (s.bytes > per_shard_capacity_) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      ++s.evictions;
    }
  }

  /// Sweeps out every entry whose epoch predates `epoch`; returns how
  /// many were removed. Called by the service right after a swap.
  std::size_t invalidate_older_than(std::uint64_t epoch) {
    std::size_t removed = 0;
    for (Shard& s : shards_) {
      std::lock_guard<SpinThenParkMutex> lock(s.mutex);
      for (auto it = s.lru.begin(); it != s.lru.end();) {
        if (it->epoch < epoch) {
          s.bytes -= it->bytes;
          s.index.erase(it->key);
          it = s.lru.erase(it);
          ++s.invalidations;
          ++removed;
        } else {
          ++it;
        }
      }
    }
    return removed;
  }

  /// Drops everything (capacity and configuration are kept).
  void clear() {
    for (Shard& s : shards_) {
      std::lock_guard<SpinThenParkMutex> lock(s.mutex);
      s.lru.clear();
      s.index.clear();
      s.bytes = 0;
    }
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }

  Stats stats() const {
    Stats out;
    for (const Shard& s : shards_) {
      std::lock_guard<SpinThenParkMutex> lock(s.mutex);
      out.hits += s.hits;
      out.misses += s.misses;
      out.insertions += s.insertions;
      out.evictions += s.evictions;
      out.invalidations += s.invalidations;
      out.entries += s.index.size();
      out.bytes += s.bytes;
    }
    return out;
  }

 private:
  struct Entry {
    Key key{};
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const Value> value;
  };

  /// Fixed per-entry overhead charged on top of the payload (map node,
  /// list node, control block — a round engineering figure, not an
  /// exact one).
  static constexpr std::size_t kEntryOverhead = 128;

  struct Shard {
    mutable SpinThenParkMutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<Key, typename std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
  };

  Shard& shard_of(Key key) {
    // Multiplicative hash: keys are dense small integers (sources) or
    // packed pairs of them, so the low bits alone would put whole
    // ranges in one shard.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return shards_[(h >> 32) & shard_mask_];
  }

  std::size_t capacity_bytes_;
  std::size_t per_shard_capacity_;
  std::size_t shard_mask_;
  std::vector<Shard> shards_;
};

struct DistancePayloadBytes {
  std::size_t operator()(const CachedDistances& v) const {
    return v.dist.size() * sizeof(double);
  }
};

struct StPayloadBytes {
  std::size_t operator()(const CachedStAnswer& v) const {
    return sizeof(double) + v.path.size() * sizeof(Vertex);
  }
};

}  // namespace detail

/// Single-source distance vectors keyed by source.
class DistanceCache
    : public detail::ShardedLruCache<Vertex, CachedDistances,
                                     detail::DistancePayloadBytes> {
 public:
  using ShardedLruCache::ShardedLruCache;
};

/// Point-to-point answers keyed by the (s, t) pair — the st kinds'
/// cache, with the same epoch/parity contract as DistanceCache. One
/// entry serves both st kinds: StDistance hits any entry for the pair,
/// StPath treats a path-less entry as a miss and upgrades it in place
/// (the service's replacement insert).
class StCache
    : public detail::ShardedLruCache<std::uint64_t, CachedStAnswer,
                                     detail::StPayloadBytes> {
 public:
  using ShardedLruCache::ShardedLruCache;

  std::shared_ptr<const CachedStAnswer> lookup(std::uint64_t epoch, Vertex s,
                                               Vertex t) {
    return ShardedLruCache::lookup(epoch, pack(s, t));
  }
  void insert(std::uint64_t epoch, Vertex s, Vertex t,
              std::shared_ptr<const CachedStAnswer> value) {
    ShardedLruCache::insert(epoch, pack(s, t), std::move(value));
  }

  static std::uint64_t pack(Vertex s, Vertex t) {
    return (static_cast<std::uint64_t>(s) << 32) |
           static_cast<std::uint64_t>(t);
  }
};

}  // namespace sepsp::service
