// Slab-chunked value storage with persistent-data-structure sharing.
//
// A SlabVector<T> behaves like a flat array of T split into fixed-size
// slabs, each held through a shared_ptr. fork() produces a new vector
// aliasing every slab of the source (O(#slabs) pointer copies, no value
// copies) and marks the source's slabs as potentially shared; the next
// set() on a shared slab clones just that slab before writing
// (copy-on-write), so an owner can keep mutating while any number of
// forks stay frozen at the values they saw.
//
// This is the storage contract behind structurally-shared query-engine
// snapshots (core/incremental.hpp): the live engine owns the mutable
// vectors, every epoch snapshot is a fork, and an update batch that
// touches k values costs O(k / kSlabEntries + 1) slab copies instead of
// re-copying the whole array per epoch.
//
// Concurrency: a fork is immutable and safe to read from any thread.
// The owner's set() is NOT synchronized against concurrent owner calls
// (one writer), but never writes memory reachable through an
// outstanding fork: sharing is tracked with an explicit per-slab flag
// set at fork() time rather than by inspecting use_count(), so the
// decision to clone is deterministic and does not rely on reference-
// count ordering (ThreadSanitizer-clean by construction; the worst
// case is one extra clone after all forks died).
//
// Layout: slabs hold kSlabEntries values (the last one ragged), each in
// a 64-byte-aligned AlignedVector, and slab boundaries fall on
// multiples of kSlabEntries — so per-run kernel sweeps see aligned,
// cache-line-sized chunks exactly like the flat arrays they replaced.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/aligned.hpp"
#include "util/check.hpp"

namespace sepsp {

template <typename T>
class SlabVector {
 public:
  /// Values per slab. 2048 doubles = 16 KiB: large enough that per-run
  /// kernel dispatch is noise, small enough that a point update copies
  /// a few KiB, not the array. Multiple of 64 so every slab boundary
  /// preserves the 64-byte alignment contract of the SoA bucket arrays.
  static constexpr std::size_t kSlabEntries = 2048;

  SlabVector() = default;

  /// Builds a vector of n value-initialized entries in fresh slabs, to
  /// be filled by init().
  explicit SlabVector(std::size_t n) : size_(n) {
    const std::size_t slabs = (n + kSlabEntries - 1) / kSlabEntries;
    slabs_.reserve(slabs);
    maybe_shared_.assign(slabs, 0);
    for (std::size_t s = 0; s < slabs; ++s) {
      auto slab = std::make_shared<Slab>();
      slab->data.resize(std::min(kSlabEntries, n - s * kSlabEntries));
      slabs_.push_back(std::move(slab));
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    SEPSP_DCHECK(i < size_);
    return slabs_[i / kSlabEntries]->data[i % kSlabEntries];
  }

  /// Writes value `v` at index `i`, cloning the containing slab first
  /// when it may be aliased by a fork (copy-on-write). Returns true
  /// when a clone happened — the unit `ApplyStats::slabs_copied`
  /// accumulates.
  bool set(std::size_t i, T v) {
    SEPSP_DCHECK(i < size_);
    const std::size_t s = i / kSlabEntries;
    bool cloned = false;
    if (maybe_shared_[s]) {
      auto fresh = std::make_shared<Slab>();
      fresh->data = slabs_[s]->data;
      slabs_[s] = std::move(fresh);
      maybe_shared_[s] = 0;
      cloned = true;
    }
    slabs_[s]->data[i % kSlabEntries] = v;
    return cloned;
  }

  /// Construction-time write, before the first fork(): no slab is
  /// shared yet, so nothing is cloned, and calls on distinct indices may
  /// run concurrently.
  void init(std::size_t i, T v) {
    SEPSP_DCHECK(i < size_ && !maybe_shared_[i / kSlabEntries]);
    slabs_[i / kSlabEntries]->data[i % kSlabEntries] = v;
  }

  /// Immutable structural-sharing copy: aliases every slab (pointer
  /// copies only) and marks the source's slabs shared so its next
  /// writes go copy-on-write. The fork must never be set() — it is the
  /// frozen side of the contract.
  SlabVector fork() {
    SlabVector out;
    out.size_ = size_;
    out.slabs_ = slabs_;
    out.maybe_shared_.assign(slabs_.size(), 1);
    maybe_shared_.assign(slabs_.size(), 1);
    return out;
  }

  /// Streams entries [lo, hi) as contiguous runs, split at slab
  /// boundaries: f(begin_index, count, data_pointer). The hot-loop
  /// access path — within a run the values are flat.
  template <typename F>
  void for_each_run(std::size_t lo, std::size_t hi, F&& f) const {
    SEPSP_DCHECK(lo <= hi && hi <= size_);
    while (lo < hi) {
      const std::size_t s = lo / kSlabEntries;
      const std::size_t end = std::min(hi, (s + 1) * kSlabEntries);
      f(lo, end - lo, slabs_[s]->data.data() + lo % kSlabEntries);
      lo = end;
    }
  }
  template <typename F>
  void for_each_run(F&& f) const {
    for_each_run(0, size_, std::forward<F>(f));
  }

  // --- sharing introspection (tests, obs) -----------------------------
  std::size_t slab_count() const { return slabs_.size(); }
  /// Identity of slab `s`: two vectors alias a slab iff the pointers
  /// compare equal. The sharing-invariant tests assert on this.
  const T* slab_data(std::size_t s) const { return slabs_[s]->data.data(); }
  /// How many of this vector's slabs are aliased by (some) other
  /// SlabVector — i.e. pointer-identical to the same slab there.
  std::size_t slabs_shared_with(const SlabVector& other) const {
    std::size_t shared = 0;
    const std::size_t n = std::min(slabs_.size(), other.slabs_.size());
    for (std::size_t s = 0; s < n; ++s) {
      if (slabs_[s] == other.slabs_[s]) ++shared;
    }
    return shared;
  }

 private:
  struct Slab {
    AlignedVector<T> data;
  };

  std::vector<std::shared_ptr<Slab>> slabs_;
  /// Per-slab flag: 1 when a fork may still alias the slab, so writes
  /// must clone first. Sticky-set at fork() time (never cleared by fork
  /// destruction — deliberately conservative, see file comment).
  std::vector<std::uint8_t> maybe_shared_;
  std::size_t size_ = 0;
};

}  // namespace sepsp
