// Cache-line-padded atomics for hot, concurrently-updated ledgers.
//
// A struct of plain adjacent std::atomic<uint64_t> counters puts eight
// unrelated counters on each 64-byte line: every fetch_add from one
// worker invalidates the line under all the others (false sharing), so
// a ledger bumped on every request turns into a cross-core ping-pong
// exactly at the throughputs it exists to measure. Even alone on its
// line, one counter that several threads add to is still one line
// they all write (true sharing): a contended fetch_add costs several
// times an uncontended one.
//
// StripedCounter removes both for sums: each thread adds into its own
// line, and a read adds the lines up. PaddedAtomicU64 keeps a single
// line for the values that are not sums — maxima (fetch_max) and
// last-value gauges — where a per-thread copy would not combine.
//
// 64 bytes is hardcoded rather than read from
// std::hardware_destructive_interference_size: GCC warns on ABI
// instability for the latter, and 64 is correct for every x86 and
// most ARM parts this builds on (on 128-byte-line parts the padding is
// merely half as effective, never wrong).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sepsp {

inline constexpr std::size_t kCacheLineBytes = 64;

/// One 64-bit atomic counter alone on its cache line.
struct alignas(kCacheLineBytes) PaddedAtomicU64 {
  PaddedAtomicU64() = default;
  explicit PaddedAtomicU64(std::uint64_t init) : value(init) {}

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

/// Cells per StripedCounter. Threads beyond this many share cells
/// round-robin, which stays exact and only brings back some sharing.
inline constexpr std::size_t kCounterStripes = 16;

/// A sum that every thread adds to on its own cache line. add() is one
/// relaxed fetch_add on the caller's cell; load() sums the cells, and a
/// read that races adds may miss the newest of them but never tears.
class StripedCounter {
 public:
  using Cell = PaddedAtomicU64;

  void add(std::uint64_t n = 1) {
    cells_[stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }
  /// Zeroes every cell (quiescent contexts: tests, bench repetitions).
  void reset() {
    for (Cell& c : cells_) c.store(0, std::memory_order_relaxed);
  }

 private:
  /// The calling thread's cell index, the same in every counter: handed
  /// out round-robin on the thread's first add and fixed for its life.
  static std::size_t stripe() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
    return mine;
  }

  std::array<Cell, kCounterStripes> cells_{};
};

}  // namespace sepsp
