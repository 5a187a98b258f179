#include "store/pool.hpp"

#include <cstring>
#include <fstream>
#include <vector>

#include "util/check.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sepsp::store {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::unique_ptr<BufferPool> BufferPool::open(const std::string& path,
                                             const PoolOptions& options,
                                             std::string* error) {
  std::unique_ptr<BufferPool> pool(new BufferPool());
#if defined(__linux__)
  pool->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (pool->fd_ < 0) {
    set_error(error, "BufferPool: cannot open " + path);
    return nullptr;
  }
  struct stat st {};
  if (fstat(pool->fd_, &st) != 0 || st.st_size <= 0) {
    set_error(error, "BufferPool: cannot stat " + path + " (or empty file)");
    return nullptr;
  }
  pool->file_bytes_ = static_cast<std::size_t>(st.st_size);
  pool->map_bytes_ = round_up_to_page(pool->file_bytes_);
  int flags = MAP_SHARED;
  if (options.populate) flags |= MAP_POPULATE;
  void* base =
      mmap(nullptr, pool->map_bytes_, PROT_READ, flags, pool->fd_, 0);
  if (base == MAP_FAILED) {
    set_error(error, "BufferPool: mmap failed for " + path);
    return nullptr;
  }
  // Residency is driven explicitly (pin faults, DONTNEED eviction);
  // kernel readahead would quietly inflate RSS past the ledger.
  madvise(base, pool->map_bytes_, MADV_RANDOM);
  pool->base_ = static_cast<std::byte*>(base);
  pool->mapped_ = true;
#else
  // Portability fallback: no mmap, no eviction — the image is read into
  // one heap block and every page is permanently "resident".
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) {
    set_error(error, "BufferPool: cannot open " + path);
    return nullptr;
  }
  const std::streamoff size = is.tellg();
  if (size <= 0) {
    set_error(error, "BufferPool: empty file " + path);
    return nullptr;
  }
  pool->file_bytes_ = static_cast<std::size_t>(size);
  pool->map_bytes_ = round_up_to_page(pool->file_bytes_);
  pool->base_ = new std::byte[pool->map_bytes_]();
  is.seekg(0);
  is.read(reinterpret_cast<char*>(pool->base_),
          static_cast<std::streamsize>(pool->file_bytes_));
  if (!is) {
    set_error(error, "BufferPool: short read from " + path);
    return nullptr;
  }
#endif
  pool->num_pages_ = pool->map_bytes_ / kPageBytes;
  pool->budget_pages_ =
      std::max<std::size_t>(1, round_up_to_page(options.budget_bytes) /
                                   kPageBytes);
  pool->state_.reset(new std::atomic<std::uint32_t>[pool->num_pages_]());
  if (options.populate) {
    for (std::size_t p = 0; p < pool->num_pages_; ++p) pool->admit(p);
  }
  return pool;
}

BufferPool::~BufferPool() {
#if defined(__linux__)
  if (base_ != nullptr && mapped_) munmap(base_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
#else
  delete[] base_;
#endif
}

void BufferPool::admit(std::size_t page) {
  const std::uint32_t prev =
      state_[page].fetch_or(kResidentBit | kRefBit, std::memory_order_acq_rel);
  if ((prev & kResidentBit) == 0) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    resident_pages_.fetch_add(1, std::memory_order_relaxed);
    // Touch so the fault happens here, under the pin, instead of
    // surprising the kernel mid-sweep.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    volatile std::byte sink = base_[page * kPageBytes];
    (void)sink;
  }
}

void BufferPool::pin(std::uint64_t offset, std::uint64_t bytes) {
  SEPSP_CHECK_MSG(offset + bytes <= map_bytes_,
                  "BufferPool::pin: range beyond the image");
  if (bytes == 0) return;
  const std::size_t first = offset / kPageBytes;
  const std::size_t last = (offset + bytes - 1) / kPageBytes;
  for (std::size_t p = first; p <= last; ++p) {
    const std::uint32_t prev =
        state_[p].fetch_add(1, std::memory_order_acq_rel);
    SEPSP_CHECK_MSG((prev & kPinMask) != kPinMask,
                    "BufferPool::pin: pin count overflow");
    admit(p);
  }
  if (resident_pages_.load(std::memory_order_relaxed) > budget_pages_) {
    evict_to_budget();
  }
}

void BufferPool::unpin(std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::size_t first = offset / kPageBytes;
  const std::size_t last = (offset + bytes - 1) / kPageBytes;
  for (std::size_t p = first; p <= last; ++p) {
    // Re-arm the reference bit: a just-scanned page gets one clock
    // revolution of grace before eviction (second chance).
    state_[p].fetch_or(kRefBit, std::memory_order_relaxed);
    const std::uint32_t prev =
        state_[p].fetch_sub(1, std::memory_order_acq_rel);
    SEPSP_CHECK_MSG((prev & kPinMask) != 0,
                    "BufferPool::unpin: page was not pinned");
  }
}

void BufferPool::prefetch(std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) return;
  SEPSP_CHECK_MSG(offset + bytes <= map_bytes_,
                  "BufferPool::prefetch: range beyond the image");
#if defined(__linux__)
  if (mapped_) {
    const std::uint64_t begin = offset / kPageBytes * kPageBytes;
    const std::uint64_t end = round_up_to_page(offset + bytes);
    madvise(base_ + begin, end - begin, MADV_WILLNEED);
  }
#endif
  const std::size_t first = offset / kPageBytes;
  const std::size_t last = (offset + bytes - 1) / kPageBytes;
  for (std::size_t p = first; p <= last; ++p) admit(p);
  if (resident_pages_.load(std::memory_order_relaxed) > budget_pages_) {
    evict_to_budget();
  }
}

void BufferPool::evict_to_budget() {
#if defined(__linux__)
  if (!mapped_) return;
  std::lock_guard<std::mutex> lock(evict_mutex_);
  // Claimed pages are released in coalesced runs: one madvise per run
  // instead of one syscall per page during an eviction storm.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [first, last]
  auto flush = [&] {
    for (const auto& [first, last] : runs) {
      madvise(base_ + first * kPageBytes, (last - first + 1) * kPageBytes,
              MADV_DONTNEED);
    }
    runs.clear();
  };
  // Two full revolutions with no progress means everything left is
  // pinned or freshly referenced — stop rather than spin; the pinned
  // working set is allowed to exceed the budget.
  std::size_t scanned_without_progress = 0;
  while (resident_pages_.load(std::memory_order_relaxed) > budget_pages_ &&
         scanned_without_progress < 2 * num_pages_) {
    const std::size_t p = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_pages_;
    std::uint32_t s = state_[p].load(std::memory_order_acquire);
    if ((s & kResidentBit) == 0 || (s & kPinMask) != 0) {
      ++scanned_without_progress;
      continue;
    }
    if ((s & kRefBit) != 0) {
      state_[p].fetch_and(~kRefBit, std::memory_order_acq_rel);
      ++scanned_without_progress;
      continue;
    }
    // Claim: clear the resident bit iff still unpinned and unreferenced.
    // A racing pin makes the CAS fail; a pin racing *after* the claim
    // re-admits the page and refaults identical bytes — benign.
    if (!state_[p].compare_exchange_strong(s, s & ~kResidentBit,
                                           std::memory_order_acq_rel)) {
      ++scanned_without_progress;
      continue;
    }
    scanned_without_progress = 0;
    resident_pages_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (!runs.empty() && runs.back().second + 1 == p) {
      runs.back().second = p;
    } else {
      runs.push_back({p, p});
      if (runs.size() >= 64) flush();
    }
  }
  flush();
#endif
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.faults = faults_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.resident_bytes =
      resident_pages_.load(std::memory_order_relaxed) * kPageBytes;
  s.budget_bytes = budget_pages_ * kPageBytes;
  for (std::size_t p = 0; p < num_pages_; ++p) {
    if ((state_[p].load(std::memory_order_relaxed) & kPinMask) != 0) {
      ++s.pinned_pages;
    }
  }
  return s;
}

bool BufferPool::page_resident(std::size_t page) const {
  SEPSP_CHECK(page < num_pages_);
  return (state_[page].load(std::memory_order_relaxed) & kResidentBit) != 0;
}

std::uint32_t BufferPool::page_pins(std::size_t page) const {
  SEPSP_CHECK(page < num_pages_);
  return state_[page].load(std::memory_order_relaxed) & kPinMask;
}

}  // namespace sepsp::store
