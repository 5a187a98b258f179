// Open-from-file engine: the query half of SeparatorShortestPaths
// served out of a v7 image (store/format.hpp) through a buffer pool
// (store/pool.hpp).
//
// open() maps the image, validates the header and every directory
// record against the file's byte bounds (malformed input returns
// nullopt + reason, never a crash), materializes the small structural
// state on the heap — the CSR graph, a plan-less Augmentation (the
// build metadata), the bucket table and the end-arc split, O(n + m +
// height) bytes — and builds the engine straight from the mapped
// buckets: its edge arrays are external views into the mapping. Bucket
// sweeps then resolve their bytes through page pins, so the resident
// set is bounded by the pool budget plus the pinned working set of
// in-flight queries, not by |E u E+|.
//
// The engine is read-only (refresh/apply paths abort) and bit-identical
// to the heap engine the image was written from: the image stores the
// heap engine's edge arrays and bucket table verbatim, and the kernels
// scan them in the same order. The image's certificate flag is frozen the
// way every build freezes its certificate: a certified image's engine
// skips the per-query verification pass, an uncertified one keeps it (if
// detect_negative_cycles asks), so replies match the heap engine's in
// distances, negative_cycle, edges_scanned and phases.
//
// Lifetime: StoredEngine is a shared handle. snapshot() returns the
// engine as SeparatorShortestPaths<S>::Snapshot whose control block
// keeps the pool, graph, and augmentation alive — a QueryService built
// over it may outlive the StoredEngine value itself.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "store/format.hpp"
#include "store/pool.hpp"

namespace sepsp::store {

namespace open_detail {

inline void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// `bits` as "0x" and lowercase hex digits.
inline std::string hex(std::uint64_t bits) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Element size a segment kind must have — directory records are
/// validated against it so a corrupt count can never read past a
/// segment or misalign an array view.
inline std::size_t element_bytes(SegmentKind kind, std::size_t value_bytes) {
  switch (kind) {
    case SegmentKind::kGraphOffsets:
    case SegmentKind::kBucketOffsets:
    case SegmentKind::kEndsSplit:
      return sizeof(std::uint64_t);
    case SegmentKind::kGraphArcWeight:
      return sizeof(double);
    case SegmentKind::kBaseValue:
    case SegmentKind::kEndsValue:
    case SegmentKind::kShortcutValue:
      return value_bytes;
    default:
      return sizeof(std::uint32_t);  // vertex ids
  }
}

}  // namespace open_detail

template <Semiring S = TropicalD>
class StoredEngine {
 public:
  using Value = typename S::Value;

  struct OpenOptions {
    PoolOptions pool;
    /// Query options (detect_negative_cycles etc.); the build already
    /// happened in the process that wrote the image.
    typename SeparatorShortestPaths<S>::Options engine;
    /// Readahead for the hottest part of the image: the E+ ranges of the
    /// top `hot_levels` levels' buckets (every query's sweeps scan them,
    /// so they are the highest-traffic pages). 0 disables.
    std::uint32_t hot_levels = 0;
  };

  /// Maps and validates `path`. nullopt + reason on malformed input;
  /// never throws, never aborts on bad bytes.
  static std::optional<StoredEngine> open(const std::string& path,
                                          const OpenOptions& options = {},
                                          std::string* error = nullptr);

  const SeparatorShortestPaths<S>& engine() const { return *impl_->engine; }
  BufferPool& pool() const { return *impl_->pool; }
  std::uint64_t image_bytes() const { return impl_->pool->size(); }

  /// The engine as a shareable snapshot: the aliasing control block
  /// keeps the whole Impl (pool included) alive for as long as any
  /// QueryService or caller holds it.
  typename SeparatorShortestPaths<S>::Snapshot snapshot() const {
    return typename SeparatorShortestPaths<S>::Snapshot(impl_,
                                                        impl_->engine.get());
  }

 private:
  // Destruction order matters bottom-up: the engine references the
  // graph, and its buckets reference the mapping — so the pool is
  // declared first and destroyed last.
  struct Impl {
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<Digraph> graph;
    std::unique_ptr<SeparatorShortestPaths<S>> engine;
  };

  explicit StoredEngine(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

template <Semiring S>
std::optional<StoredEngine<S>> StoredEngine<S>::open(const std::string& path,
                                                     const OpenOptions& options,
                                                     std::string* error) {
  using open_detail::element_bytes;
  using open_detail::hex;
  using open_detail::set_error;
  auto impl = std::make_shared<Impl>();
  impl->pool = BufferPool::open(path, options.pool, error);
  if (impl->pool == nullptr) return std::nullopt;
  const std::byte* base = impl->pool->data();
  const std::uint64_t file_bytes = impl->pool->size();

  // --- header -----------------------------------------------------------
  if (file_bytes < sizeof(Header)) {
    set_error(error, "image: file smaller than the header");
    return std::nullopt;
  }
  Header h;
  std::memcpy(&h, base, sizeof h);
  if (h.magic != kMagic) {
    set_error(error, "image: bad magic (not an engine image)");
    return std::nullopt;
  }
  if (h.version != kVersion) {
    set_error(error, "image: unsupported version " +
                         std::to_string(h.version) + " (this build reads " +
                         std::to_string(kVersion) + ")");
    return std::nullopt;
  }
  if (h.semiring_tag != semiring_tag<S>() || h.value_bytes != sizeof(Value)) {
    set_error(error, "image: semiring mismatch (image tag " +
                         hex(h.semiring_tag) + ", this engine " +
                         hex(semiring_tag<S>()) + ")");
    return std::nullopt;
  }
  if ((h.flags & ~kKnownFlags) != 0) {
    set_error(error, "image: unknown header flags " + hex(h.flags));
    return std::nullopt;
  }
  if (h.page_bytes != kPageBytes || h.file_bytes != file_bytes ||
      h.num_vertices > (1ULL << 32) || h.num_edges > (1ULL << 40) ||
      h.height > (1u << 28)) {
    set_error(error, "image: implausible header (truncated or corrupt)");
    return std::nullopt;
  }

  // --- directory --------------------------------------------------------
  const std::uint64_t dir_bytes =
      static_cast<std::uint64_t>(h.num_segments) * sizeof(SegmentRecord);
  if (h.directory_offset % kPageBytes != 0 ||
      h.directory_offset > file_bytes ||
      dir_bytes > file_bytes - h.directory_offset) {
    set_error(error, "image: directory out of bounds");
    return std::nullopt;
  }
  std::vector<SegmentRecord> directory(h.num_segments);
  if (h.num_segments != 0) {
    std::memcpy(directory.data(), base + h.directory_offset, dir_bytes);
  }
  // kind -> record; every record is bounds- and size-checked before any
  // pointer into the mapping is formed.
  std::unordered_map<std::uint32_t, const SegmentRecord*> index;
  for (const SegmentRecord& rec : directory) {
    const std::size_t elem =
        element_bytes(static_cast<SegmentKind>(rec.kind), h.value_bytes);
    if (rec.offset % kPageBytes != 0 || rec.offset > file_bytes ||
        rec.bytes > file_bytes - rec.offset ||
        rec.count != rec.bytes / elem || rec.bytes != rec.count * elem) {
      set_error(error, "image: segment record out of bounds");
      return std::nullopt;
    }
    if (!index.emplace(rec.kind, &rec).second) {
      set_error(error, "image: duplicate segment record");
      return std::nullopt;
    }
  }
  auto find = [&](SegmentKind kind, std::uint64_t count)
      -> const SegmentRecord* {
    const auto it = index.find(static_cast<std::uint32_t>(kind));
    if (it == index.end() || it->second->count != count) return nullptr;
    return it->second;
  };
  auto data_at = [&](const SegmentRecord* rec) {
    return base + rec->offset;
  };
  // Reads a small u64 segment of `count` entries under a pin; false when
  // it is missing or miscounted.
  auto read_u64 = [&](SegmentKind kind, std::uint64_t count,
                      std::vector<std::uint64_t>* out) {
    const SegmentRecord* rec = find(kind, count);
    if (rec == nullptr) return false;
    out->resize(count);
    PinLease lease;
    lease.add(impl->pool.get(), rec->offset, rec->bytes);
    std::memcpy(out->data(), data_at(rec), rec->bytes);
    return true;
  };

  // --- bucket table -----------------------------------------------------
  // Its (file-bounded) count caps the height before anything is sized
  // by it; its entries must split [0, num_shortcuts) into ranges.
  std::vector<std::uint64_t> bucket_offset;
  {
    if (!read_u64(SegmentKind::kBucketOffsets,
                  EplusPlan::num_buckets(h.height) + 1, &bucket_offset)) {
      set_error(error, "image: bucket table missing or its count is not "
                       "3 (height + 1) + 1");
      return std::nullopt;
    }
    if (bucket_offset.front() != 0) {
      set_error(error, "image: bucket table does not start at 0");
      return std::nullopt;
    }
    if (bucket_offset.back() != h.num_shortcuts) {
      set_error(error, "image: bucket table does not end at num_shortcuts");
      return std::nullopt;
    }
    if (!std::is_sorted(bucket_offset.begin(), bucket_offset.end())) {
      set_error(error, "image: bucket table not monotone");
      return std::nullopt;
    }
  }

  // --- structural state (heap, O(n)) ------------------------------------
  const bool certified = (h.flags & kFlagCycleCertified) != 0;
  const std::uint64_t n = h.num_vertices;
  const std::uint64_t m = h.num_edges;
  const SegmentRecord* off_rec = find(SegmentKind::kGraphOffsets, n + 1);
  const SegmentRecord* to_rec = find(SegmentKind::kGraphArcTo, m);
  const SegmentRecord* w_rec = find(SegmentKind::kGraphArcWeight, m);
  if (off_rec == nullptr || to_rec == nullptr || w_rec == nullptr) {
    set_error(error, "image: missing or miscounted structural segment");
    return std::nullopt;
  }
  {
    // One sequential pass over the graph segments; pinned so the pool
    // ledger accounts the pages (evictable again right after).
    PinLease lease;
    lease.add(impl->pool.get(), off_rec->offset, off_rec->bytes);
    lease.add(impl->pool.get(), to_rec->offset, to_rec->bytes);
    lease.add(impl->pool.get(), w_rec->offset, w_rec->bytes);
    const auto* offsets =
        reinterpret_cast<const std::uint64_t*>(data_at(off_rec));
    const auto* arc_to = reinterpret_cast<const Vertex*>(data_at(to_rec));
    const auto* arc_weight =
        reinterpret_cast<const double*>(data_at(w_rec));
    if (offsets[0] != 0 || offsets[n] != m) {
      set_error(error, "image: CSR offsets do not cover the arcs");
      return std::nullopt;
    }
    GraphBuilder builder(n);
    for (Vertex u = 0; u < n; ++u) {
      if (offsets[u + 1] < offsets[u] || offsets[u + 1] > m) {
        set_error(error, "image: CSR offsets not monotone");
        return std::nullopt;
      }
      for (std::uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        if (arc_to[i] >= n) {
          set_error(error, "image: arc target out of range");
          return std::nullopt;
        }
        builder.add_edge(u, arc_to[i], arc_weight[i]);
      }
    }
    // dedup_min=false: the stored CSR is already sorted and deduped by
    // the original build; re-deduping could only hide a corrupt image.
    impl->graph =
        std::make_unique<Digraph>(std::move(builder).build(false));
  }
  auto aug = std::make_shared<Augmentation>();
  aug->height = h.height;
  aug->ell = h.ell;
  aug->critical_depth = h.critical_depth;
  aug->build_cost.work = h.build_work;
  aug->build_cost.depth = h.build_depth;
  // aug->plan stays null: no query reads vertex levels (the walk reads
  // the bucket table), and E+ lives in the image's segments, read via
  // shortcut_edges().

  // --- edge views -------------------------------------------------------
  StoredBuckets<S> buckets;
  buckets.bucket_offset = std::move(bucket_offset);
  // The end arcs' count is their from segment's (at most m); the split
  // (a, b) must satisfy a <= b <= that count before anything uses it.
  std::vector<std::uint64_t> ends_split;
  const auto ends_rec =
      index.find(static_cast<std::uint32_t>(SegmentKind::kEndsFrom));
  const std::uint64_t ends_count =
      ends_rec == index.end() ? 0 : ends_rec->second->count;
  if (ends_rec == index.end() || ends_count > m ||
      !read_u64(SegmentKind::kEndsSplit, 2, &ends_split)) {
    set_error(error, "image: end-arc segments or split missing");
    return std::nullopt;
  }
  if (ends_split[0] > ends_split[1] || ends_split[1] > ends_count) {
    set_error(error, "image: end-arc split out of range (need a <= b <= " +
                         std::to_string(ends_count) + ")");
    return std::nullopt;
  }
  buckets.ends_split = {ends_split[0], ends_split[1]};
  auto view = [&](SegmentKind from_kind, SegmentKind to_kind,
                  SegmentKind value_kind, std::uint64_t count,
                  ExternalBucketStore<Value>* out) {
    const SegmentRecord* from_rec = find(from_kind, count);
    const SegmentRecord* to_rec2 = find(to_kind, count);
    const SegmentRecord* value_rec = find(value_kind, count);
    if (from_rec == nullptr || to_rec2 == nullptr || value_rec == nullptr) {
      return false;
    }
    out->from = reinterpret_cast<const Vertex*>(data_at(from_rec));
    out->to = reinterpret_cast<const Vertex*>(data_at(to_rec2));
    out->value = reinterpret_cast<const Value*>(data_at(value_rec));
    out->count = count;
    out->from_offset = from_rec->offset;
    out->to_offset = to_rec2->offset;
    out->value_offset = value_rec->offset;
    out->pages = impl->pool.get();
    return true;
  };
  if (!view(SegmentKind::kBaseFrom, SegmentKind::kBaseTo,
            SegmentKind::kBaseValue, m, &buckets.base) ||
      !view(SegmentKind::kEndsFrom, SegmentKind::kEndsTo,
            SegmentKind::kEndsValue, ends_count, &buckets.ends) ||
      !view(SegmentKind::kShortcutFrom, SegmentKind::kShortcutTo,
            SegmentKind::kShortcutValue, h.num_shortcuts, &buckets.eplus)) {
    set_error(error, "image: missing or inconsistent edge segments");
    return std::nullopt;
  }
  // Edge endpoints index vertices; validate once here so the kernels
  // can index dist[] unchecked, exactly like heap arrays.
  auto endpoints_ok = [&](const ExternalBucketStore<Value>& b) {
    PinLease lease;
    lease.add(impl->pool.get(), b.from_offset, b.count * sizeof(Vertex));
    lease.add(impl->pool.get(), b.to_offset, b.count * sizeof(Vertex));
    for (std::uint64_t i = 0; i < b.count; ++i) {
      if (b.from[i] >= n || b.to[i] >= n) return false;
    }
    return true;
  };
  if (!endpoints_ok(buckets.base) || !endpoints_ok(buckets.ends) ||
      !endpoints_ok(buckets.eplus)) {
    set_error(error, "image: edge endpoint out of range");
    return std::nullopt;
  }

  // --- assemble ----------------------------------------------------------
  // The certificate freezes as in a heap build: the verification pass
  // runs only if detect_negative_cycles asks and the image is not
  // certified.
  impl->engine = std::make_unique<SeparatorShortestPaths<S>>(
      SeparatorShortestPaths<S>::from_store(*impl->graph, std::move(aug),
                                            buckets, options.engine,
                                            certified));
  const SeparatorShortestPaths<S>& engine = *impl->engine;
  const ExternalBucketStore<Value>& eplus = buckets.eplus;
  for (std::uint32_t i = 0; i < options.hot_levels && i <= h.height; ++i) {
    const std::uint32_t l = h.height - i;
    for (const EplusPlan::Kind kind :
         {EplusPlan::kSame, EplusPlan::kDown, EplusPlan::kUp}) {
      const EdgeRange r = engine.bucket(kind, l);
      impl->pool->prefetch(eplus.from_offset + r.lo * sizeof(Vertex),
                           r.size() * sizeof(Vertex));
      impl->pool->prefetch(eplus.to_offset + r.lo * sizeof(Vertex),
                           r.size() * sizeof(Vertex));
      impl->pool->prefetch(eplus.value_offset + r.lo * sizeof(Value),
                           r.size() * sizeof(Value));
    }
  }
  return StoredEngine(std::move(impl));
}

}  // namespace sepsp::store
