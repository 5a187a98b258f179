// Over-aligned contiguous storage for the vector kernels.
//
// The SIMD substrate (semiring/simd.hpp) streams flat arrays — the SoA
// edge buckets of the leveled schedule and the lane-major distance
// matrix of the batched kernel. Allocating them on 64-byte boundaries
// (one cache line, one AVX-512 vector) keeps every full-width lane
// block inside a single line and lets the kernels' unaligned-tolerant
// loads hit the aligned fast path on every row whose stride is a
// multiple of the vector width.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace sepsp {

/// Cache-line / AVX-512 vector alignment of the kernel-facing arrays.
inline constexpr std::size_t kSimdAlign = 64;

/// Granularity of the on-disk engine image (store/format.hpp) and of
/// the buffer pool's residency control. Fixed at the classic 4 KiB —
/// images written on a 4 KiB-page machine stay valid everywhere.
inline constexpr std::size_t kPageBytes = 4096;

/// Rounds a byte count up to a whole number of pages — segment padding
/// in the image writer and budget math in the buffer pool.
constexpr std::size_t round_up_to_page(std::size_t bytes) {
  return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/// Minimal C++17 aligned allocator: storage from the over-aligned
/// operator new. Stateless — all instances are interchangeable.
template <typename T, std::size_t Align = kSimdAlign>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  constexpr AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  constexpr bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// std::vector whose data() is 64-byte aligned. Drop-in for the SoA
/// bucket arrays and the batched kernel's distance matrix.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Rounds an element count up so the allocation covers whole 64-byte
/// blocks — the padding contract of the lane-major distance matrix
/// (padding cells are initialized but never read back) and the row
/// stride of the dense Matrix (semiring/matrix.hpp).
template <typename T>
constexpr std::size_t padded_size(std::size_t count) {
  const std::size_t per_block = kSimdAlign / sizeof(T);
  return (count + per_block - 1) / per_block * per_block;
}

}  // namespace sepsp
