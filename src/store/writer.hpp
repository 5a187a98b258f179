// v8 image writer: gathers a built engine into the page-aligned layout
// of store/format.hpp and writes it with pwritev.
//
// The writer serializes the *engine's* edge arrays — the end arcs, E+
// in sweep order, base arcs in CSR order — its bucket table and its
// end-arc split byte for byte, never re-deriving them from the
// augmentation. E+ is already in scan order, so nothing is reordered.
// That is the whole parity story: an engine opened from the image
// (store/stored_engine.hpp) replays the identical edge order, so its
// distances memcmp-equal the heap engine's. The header's certificate
// flag is the engine's cycle_certified(), so a stored engine skips the
// verification pass exactly when its heap twin does.
//
// I/O: the header, the directory, every segment's arrays (read in
// place from the engine's memory) and the zero padding (one static
// zero page) go out as iovecs, IOV_MAX per pwritev call, into a fresh
// inode: `path` is unlinked (a symlink is replaced, not followed), then
// created with O_CREAT | O_EXCL. A process that still maps the old
// image keeps its inode instead of taking SIGBUS on pages truncated
// under it, even a stored engine written back onto its own path; its
// pages are read under pins. A reader that opens the file mid-write
// fails the header's file_bytes check. Write-to-temp plus rename()
// would keep the old inode too, but ext4 flushes a file renamed over
// another (auto_da_alloc): about 2 ms against 0.6 ms for unlink plus
// create on a 1.7 MiB v4 image.
//
// Output is deterministic: same engine, same bytes (no timestamps, all
// padding zeroed) — images are content-addressable and diffable.
#pragma once

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "store/format.hpp"
#include "util/page_source.hpp"

namespace sepsp::store {

namespace writer_detail {

/// Streams byte runs to `fd` from offset 0 in pwritev batches of at
/// most IOV_MAX runs. Runs backed by a PageSource are pinned from the
/// moment they are queued until their batch is written, and a batch
/// closes once it pins kPinnedBatchBytes, so the pinned set stays
/// bounded however large the image is.
class GatherWriter {
 public:
  static constexpr std::uint64_t kPinnedBatchBytes = std::uint64_t{1} << 18;

  explicit GatherWriter(int fd) : fd_(fd) {}

  /// Queues [data, data + bytes). `pages`, if not null, backs those
  /// bytes at [page_offset, page_offset + bytes).
  void add(const void* data, std::uint64_t bytes, PageSource* pages = nullptr,
           std::uint64_t page_offset = 0) {
    const auto* p = static_cast<const std::byte*>(data);
    while (bytes > 0) {
      const std::uint64_t len =
          pages == nullptr ? bytes : std::min(bytes, kPinnedBatchBytes);
      if (iov_.size() == IOV_MAX ||
          (pages != nullptr && pinned_ + len > kPinnedBatchBytes)) {
        flush();
      }
      if (pages != nullptr) {
        pins_.emplace_back().add(pages, page_offset, len);
        pinned_ += len;
      }
      iov_.push_back({const_cast<std::byte*>(p), len});
      queued_ += len;
      p += len;
      bytes -= len;
      page_offset += len;
    }
  }

  /// Zero bytes up to the next page boundary.
  void pad() {
    alignas(kPageBytes) static const std::byte kZeros[kPageBytes] = {};
    add(kZeros, round_up_to_page(queued_) - queued_);
  }

  /// Writes every queued run, looping on short writes. False once any
  /// write has failed.
  bool flush() {
    std::size_t i = 0;
    while (ok_ && i < iov_.size()) {
      const ssize_t n =
          ::pwritev(fd_, iov_.data() + i, static_cast<int>(iov_.size() - i),
                    static_cast<off_t>(written_));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok_ = false;
        break;
      }
      written_ += static_cast<std::uint64_t>(n);
      for (auto left = static_cast<std::size_t>(n); left > 0;) {
        iovec& v = iov_[i];
        if (left < v.iov_len) {
          v.iov_base = static_cast<std::byte*>(v.iov_base) + left;
          v.iov_len -= left;
          break;
        }
        left -= v.iov_len;
        ++i;
      }
    }
    iov_.clear();
    pins_.clear();
    pinned_ = 0;
    return ok_;
  }

 private:
  int fd_;
  std::vector<iovec> iov_;
  std::vector<PinLease> pins_;
  std::uint64_t pinned_ = 0;   ///< bytes pinned by the queued runs
  std::uint64_t queued_ = 0;   ///< file offset after the last queued run
  std::uint64_t written_ = 0;  ///< file offset after the last written run
  bool ok_ = true;
};

}  // namespace writer_detail

/// Writes `engine` as a v8 image at `path`, replacing whatever directory
/// entry was there with a fresh file. Returns false and fills `error` on
/// I/O failure (and removes the partial file). The engine may be
/// heap-built or itself opened from an image, even from `path`
/// (round-tripping is exact).
template <Semiring S>
bool write_engine_image(const std::string& path,
                        const SeparatorShortestPaths<S>& engine,
                        std::string* error = nullptr) {
  using Value = typename S::Value;
  const Digraph& g = engine.graph();
  const Augmentation& aug = engine.augmentation();

  // One directory entry and where its payload lives: a contiguous array
  // (backed by `pages` on a stored engine), or an owned bucket's value
  // slabs.
  struct Segment {
    SegmentRecord rec;
    const void* data = nullptr;
    PageSource* pages = nullptr;
    std::uint64_t page_offset = 0;
    const SlabVector<Value>* slabs = nullptr;
  };
  std::vector<Segment> segments;
  auto add_array = [&](SegmentKind kind, const auto* data, std::uint64_t count,
                       PageSource* pages = nullptr,
                       std::uint64_t page_offset = 0) -> Segment& {
    Segment& s = segments.emplace_back();
    s.rec.kind = static_cast<std::uint32_t>(kind);
    s.rec.count = count;
    s.rec.bytes = count * sizeof(*data);
    s.data = data;
    s.pages = pages;
    s.page_offset = page_offset;
    return s;
  };
  // An edge array's four run-form segments (run tails, run starts,
  // heads, values), read where they live: the mapped segments of a
  // stored engine, or the pair block and value slabs of a heap one.
  auto add_bucket = [&](const EdgeBucket<S>& bucket,
                        const EdgeArraySegments& kinds) {
    const std::uint64_t count = bucket.size();
    const std::uint64_t runs = bucket.num_runs();
    if (const ExternalBucketStore<Value>* ext = bucket.external()) {
      add_array(kinds.tail, ext->tail, runs, ext->pages, ext->tail_offset);
      add_array(kinds.start, ext->start, runs + 1, ext->pages,
                ext->start_offset);
      add_array(kinds.to, ext->to, count, ext->pages, ext->to_offset);
      add_array(kinds.value, ext->value, count, ext->pages,
                ext->value_offset);
      return;
    }
    add_array(kinds.tail, bucket.tail_data(), runs);
    add_array(kinds.start, bucket.start_data(), runs + 1);
    add_array(kinds.to, bucket.to_data(), count);
    add_array(kinds.value, static_cast<const Value*>(nullptr), count).slabs =
        &bucket.values();
  };

  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();

  // --- segment plan, in query scan order -------------------------------
  const std::span<const std::uint64_t> bucket_offsets =
      engine.bucket_offsets();
  add_array(SegmentKind::kBucketOffsets, bucket_offsets.data(),
            bucket_offsets.size());
  const std::uint64_t ends_split[2] = {engine.trail_edges().lo,
                                       engine.lead_edges().hi};
  add_array(SegmentKind::kEndsSplit, ends_split, 2);
  // The CSR as three flat arrays; rebuilt exactly on open since arcs
  // are already sorted.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<Vertex> arc_to(m);
  std::vector<double> arc_weight(m);
  for (Vertex u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + g.out(u).size();
    std::size_t i = offsets[u];
    for (const Arc& a : g.out(u)) {
      arc_to[i] = a.to;
      arc_weight[i] = a.weight;
      ++i;
    }
  }
  add_array(SegmentKind::kGraphOffsets, offsets.data(), n + 1);
  add_array(SegmentKind::kGraphArcTo, arc_to.data(), m);
  add_array(SegmentKind::kGraphArcWeight, arc_weight.data(), m);
  add_bucket(engine.end_edges(), kEndsSegments);
  // E+ in sweep order: the down sweep's same/down buckets from level h
  // down, then the up buckets from level 0 up.
  add_bucket(engine.shortcut_edges(), kShortcutSegments);
  add_bucket(engine.base_edges(), kBaseSegments);

  // --- assign offsets ---------------------------------------------------
  Header header;
  header.semiring_tag = semiring_tag<S>();
  header.value_bytes = sizeof(Value);
  header.num_vertices = n;
  header.num_edges = m;
  header.num_shortcuts = engine.shortcut_edges().size();
  header.ell = aug.ell;
  header.height = aug.height;
  header.num_segments = static_cast<std::uint32_t>(segments.size());
  header.critical_depth = aug.critical_depth;
  header.build_work = aug.build_cost.work;
  header.build_depth = aug.build_cost.depth;
  header.directory_offset = round_up_to_page(sizeof(Header));
  header.flags = engine.cycle_certified() ? kFlagCycleCertified : 0;
  std::vector<SegmentRecord> directory;
  directory.reserve(segments.size());
  std::uint64_t cursor =
      header.directory_offset +
      round_up_to_page(segments.size() * sizeof(SegmentRecord));
  for (Segment& s : segments) {
    s.rec.offset = cursor;
    cursor += round_up_to_page(s.rec.bytes);
    directory.push_back(s.rec);
  }
  header.file_bytes = cursor;

  // --- write ------------------------------------------------------------
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + " " + path + ": " + std::strerror(errno);
    }
    return false;
  };
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return fail("cannot replace");
  }
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return fail("cannot create");
  writer_detail::GatherWriter out(fd);
  out.add(&header, sizeof header);
  out.pad();
  out.add(directory.data(), directory.size() * sizeof(SegmentRecord));
  out.pad();
  for (const Segment& s : segments) {
    if (s.slabs != nullptr) {
      s.slabs->for_each_run([&](std::size_t, std::size_t len, const Value* v) {
        out.add(v, len * sizeof(Value));
      });
    } else {
      out.add(s.data, s.rec.bytes, s.pages, s.page_offset);
    }
    out.pad();
  }
  bool ok = out.flush();
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    fail("cannot write");
    ::unlink(path.c_str());
  }
  return ok;
}

}  // namespace sepsp::store
