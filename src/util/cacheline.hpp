// Cache-line-padded atomic counters for hot, concurrently-updated
// ledgers.
//
// A struct of plain adjacent std::atomic<uint64_t> counters puts eight
// unrelated counters on each 64-byte line: every fetch_add from one
// worker invalidates the line under all the others (false sharing), so
// a ledger bumped on every request turns into a cross-core ping-pong
// exactly at the throughputs it exists to measure. PaddedAtomicU64
// gives each counter its own line; the forwarding surface mirrors the
// std::atomic member functions the serving runtime uses, plus the
// fetch_max its latency maxima need.
//
// 64 bytes is hardcoded rather than read from
// std::hardware_destructive_interference_size: GCC warns on ABI
// instability for the latter, and 64 is correct for every x86 and
// most ARM parts this builds on (on 128-byte-line parts the padding is
// merely half as effective, never wrong).
#pragma once

#include <atomic>
#include <cstdint>

namespace sepsp {

inline constexpr std::size_t kCacheLineBytes = 64;

/// One 64-bit atomic counter alone on its cache line.
struct alignas(kCacheLineBytes) PaddedAtomicU64 {
  PaddedAtomicU64() = default;
  explicit PaddedAtomicU64(std::uint64_t init) : value(init) {}

  std::uint64_t fetch_add(std::uint64_t d,
                          std::memory_order order =
                              std::memory_order_seq_cst) {
    return value.fetch_add(d, order);
  }
  std::uint64_t load(std::memory_order order =
                         std::memory_order_seq_cst) const {
    return value.load(order);
  }
  void store(std::uint64_t v,
             std::memory_order order = std::memory_order_seq_cst) {
    value.store(v, order);
  }
  /// Raises the value to at least `v` (relaxed): the ledgers' maxima.
  void fetch_max(std::uint64_t v) {
    std::uint64_t prev = value.load(std::memory_order_relaxed);
    while (prev < v && !value.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> value{0};
};

static_assert(sizeof(PaddedAtomicU64) == kCacheLineBytes,
              "padding must fill exactly one cache line");
static_assert(alignof(PaddedAtomicU64) == kCacheLineBytes,
              "each counter must start on its own cache line");

}  // namespace sepsp
