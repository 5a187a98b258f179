// vmcache-style buffer manager over an mmapped engine image.
//
// The image is mapped read-only in one shot; what the pool manages is
// *residency*, not address translation — pointers into the mapping are
// always valid, but only pages the pool has admitted count against its
// byte budget, and pages evicted with madvise(MADV_DONTNEED) give their
// frames back to the kernel (RSS drops; the next touch refaults
// identical bytes from the page cache). Each page has one atomic state
// word: a 16-bit pin count, a resident bit, and a reference bit driving
// clock/second-chance eviction. Query kernels pin the byte ranges they
// scan (util/page_source.hpp); pinned pages are never evicted, so the
// budget is a target the unpinned population is trimmed to, not a hard
// wall against the pinned working set.
//
// Correctness never depends on the residency bookkeeping: an eviction
// racing a fresh pin merely costs a refault of the same file bytes.
// That is what makes the whole pool safe with lock-free pins and a
// single mutex confined to the eviction sweep.
//
// Observability: faults, evictions and resident bytes are counted in
// the pool's own ledger, read through stats().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/aligned.hpp"
#include "util/page_source.hpp"

namespace sepsp::store {

struct PoolOptions {
  /// Resident-set target in bytes (rounded up to whole pages, minimum
  /// one page). Eviction trims unpinned resident pages down to this
  /// after every pin that crosses it.
  std::size_t budget_bytes = std::size_t{64} << 20;
  /// MAP_POPULATE the whole image at open (all pages resident and
  /// accounted up front) — for images known to fit the budget.
  bool populate = false;
};

class BufferPool final : public PageSource {
 public:
  /// Maps the file read-only. Returns null and fills `error` on any
  /// failure (missing file, empty file, mmap refusal).
  static std::unique_ptr<BufferPool> open(const std::string& path,
                                          const PoolOptions& options,
                                          std::string* error = nullptr);
  ~BufferPool() override;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Base of the mapping; offsets in the image's directory index it.
  const std::byte* data() const { return base_; }
  std::size_t size() const { return file_bytes_; }
  std::size_t budget_bytes() const { return budget_pages_ * kPageBytes; }

  // PageSource: pin faults the covered pages in, accounts them, and
  // trims back to budget; unpin re-arms their reference bits.
  void pin(std::uint64_t offset, std::uint64_t bytes) override;
  void unpin(std::uint64_t offset, std::uint64_t bytes) override;

  /// Readahead for a hot range (e.g. the top levels' E+ ranges):
  /// madvise(WILLNEED) plus residency accounting, without the per-page
  /// touch of pin(). Prefetched pages are ordinary eviction candidates.
  void prefetch(std::uint64_t offset, std::uint64_t bytes);

  struct Stats {
    std::uint64_t faults = 0;          ///< pages admitted by pin/populate
    std::uint64_t evictions = 0;       ///< pages released to the kernel
    std::uint64_t resident_bytes = 0;  ///< pool ledger, not kernel RSS
    std::uint64_t pinned_pages = 0;    ///< pages with a nonzero pin count
    std::uint64_t budget_bytes = 0;
  };
  /// Accounting snapshot.
  Stats stats() const;

  // --- test hooks -------------------------------------------------------
  bool page_resident(std::size_t page) const;
  std::uint32_t page_pins(std::size_t page) const;
  std::size_t num_pages() const { return num_pages_; }

 private:
  // State-word layout: pins in the low 16 bits so pin/unpin are plain
  // fetch_add/fetch_sub; flags above never carry into the pin field
  // (SEPSP_CHECK guards the 65536-pin overflow).
  static constexpr std::uint32_t kPinMask = 0xFFFF;
  static constexpr std::uint32_t kResidentBit = 1u << 16;
  static constexpr std::uint32_t kRefBit = 1u << 17;

  BufferPool() = default;
  void admit(std::size_t page);
  void evict_to_budget();

  int fd_ = -1;
  std::byte* base_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::size_t map_bytes_ = 0;
  std::size_t num_pages_ = 0;
  std::size_t budget_pages_ = 1;
  bool mapped_ = false;  ///< false on the no-mmap fallback (non-Linux)
  std::unique_ptr<std::atomic<std::uint32_t>[]> state_;
  std::atomic<std::uint64_t> resident_pages_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::mutex evict_mutex_;  ///< serializes the clock sweep only
  std::size_t clock_hand_ = 0;
};

}  // namespace sepsp::store
