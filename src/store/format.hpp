// Serialization v7: the page-aligned on-disk image of a built engine
// (ROADMAP "continent-scale graphs").
//
// The v7 image is the repository's one persistence format. It is laid
// out to be *mapped*: every segment starts on a 4 KiB page boundary and
// stores its array verbatim, so an engine can serve queries straight
// out of the mapping with a buffer pool (store/pool.hpp) controlling
// which pages are resident. Segments appear in query scan order — the
// bucket table and the end-arc split, the graph CSR, the end arcs the
// base passes scan, E+, then the base arcs the verification pass scans —
// and E+ is stored once, its slots numbered in sweep order
// (separator/eplus_plan.hpp): the leveled schedule's buckets are ranges
// of it, named by the kBucketOffsets table, laid out in the order the
// sweeps scan them. A cold query therefore faults pages in long
// sequential runs instead of seeking.
//
// The edge segments hold the heap engine's arrays byte for byte; an
// engine opened from the image replays the identical edge order and
// produces bit-identical distances (the memcmp-enforced parity
// contract every kernel in this repo obeys).
// The header's kFlagCycleCertified bit carries the written engine's
// negative-cycle certificate (SeparatorShortestPaths::cycle_certified()),
// so a stored engine skips the per-query verification
// pass exactly when the heap engine it was written from does.
//
// Layout:
//   page 0                     Header (fixed size, rest of page zero)
//   page 1..                   SegmentRecord[num_segments] directory
//   page-aligned segments      payloads, each padded to a page
//
// All integers are little-endian PODs; value segments store the
// semiring's Value type verbatim (all shipped semirings are trivially
// copyable). Writers emit and readers accept version 7 only: 1 and 2
// were retired stream formats, 3 lacked the header flags and carried a
// node-of segment no reader used, 4 stored E+ twice (in slot order and
// again per leveled bucket), 5 carried the vertex levels no query
// reads, and 6 lacked the end arcs (the base passes scanned every arc).
// The image holds no separator tree and no levels: queries read only
// the bucket table, the end-arc split and the edges.
#pragma once

#include <cstdint>
#include <type_traits>

#include "semiring/semiring.hpp"
#include "util/aligned.hpp"

namespace sepsp::store {

/// "SEP3" little-endian: the family's magic since v3; `version` tells
/// the layouts apart.
inline constexpr std::uint32_t kMagic = 0x33504553;
inline constexpr std::uint32_t kVersion = 7;

/// Header::flags bits. Readers reject any bit outside kKnownFlags.
inline constexpr std::uint64_t kFlagCycleCertified = 1;  ///< certified
inline constexpr std::uint64_t kKnownFlags = kFlagCycleCertified;

/// What one directory entry's payload is. From/to segments are Vertex
/// (u32) arrays; value segments are Value arrays; the CSR offsets and
/// the bucket table are u64, arc weights double. Kind 1 is retired (v5
/// stored LevelAssignment::level there), and so are kind 2 (v3's
/// LevelAssignment::node) and kinds 12-20 (v4's per-level copies of the
/// leveled buckets).
enum class SegmentKind : std::uint32_t {
  kGraphOffsets = 3,  ///< CSR row offsets, n + 1 entries
  kGraphArcTo = 4,    ///< CSR arc targets, m entries
  kGraphArcWeight = 5,  ///< CSR arc weights, m entries
  kBaseFrom = 6,
  kBaseTo = 7,
  kBaseValue = 8,
  kShortcutFrom = 9,  ///< E+ in sweep order, num_shortcuts entries
  kShortcutTo = 10,
  kShortcutValue = 11,
  /// EplusPlan::bucket_offset: 3 (height + 1) + 1 entries, from 0 to
  /// num_shortcuts, non-decreasing.
  kBucketOffsets = 21,
  /// The end arcs (SeparatorShortestPaths::end_edges()), any count up
  /// to num_edges; the three segments agree on it.
  kEndsFrom = 22,
  kEndsTo = 23,
  kEndsValue = 24,
  /// The end arcs' split (a, b), u64, 2 entries, a <= b <= their count:
  /// the leading passes scan [0, b), the trailing passes [a, count).
  kEndsSplit = 25,
};

/// One directory entry. `offset` is page-aligned; `bytes` is the
/// unpadded payload size (count * element size — the reader verifies).
struct SegmentRecord {
  std::uint32_t kind = 0;
  std::uint32_t level = 0;  ///< always 0; kept so the layout stays frozen
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};
static_assert(std::is_trivially_copyable_v<SegmentRecord> &&
                  sizeof(SegmentRecord) == 32,
              "SegmentRecord is on-disk; its layout is frozen");

/// Fixed header in page 0. It carries the augmentation's structural
/// and build-cost metadata and the certificate flag, so a stored
/// engine's stats() reports the same build-cost fields and
/// cycle_certified as the heap engine it was written from.
struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t semiring_tag = 0;  ///< semiring_tag<S>() of the writer
  std::uint32_t value_bytes = 0;   ///< sizeof(S::Value)
  std::uint64_t page_bytes = kPageBytes;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t num_shortcuts = 0;
  std::uint64_t ell = 0;
  std::uint32_t height = 0;
  std::uint32_t num_segments = 0;
  std::uint64_t critical_depth = 0;
  std::uint64_t build_work = 0;
  std::uint64_t build_depth = 0;
  std::uint64_t directory_offset = 0;  ///< page-aligned
  std::uint64_t file_bytes = 0;        ///< total image size
  std::uint64_t flags = 0;             ///< kFlag* bits
};
static_assert(std::is_trivially_copyable_v<Header> && sizeof(Header) == 112,
              "Header is on-disk; its layout is frozen");

/// Per-semiring format tag: a reader opening an image under the wrong
/// semiring must fail loudly, not reinterpret the value bytes.
template <Semiring S>
constexpr std::uint32_t semiring_tag() = delete;
template <>
constexpr std::uint32_t semiring_tag<TropicalD>() {
  return 0x444f5254;  // "TROD"
}
template <>
constexpr std::uint32_t semiring_tag<TropicalI>() {
  return 0x494f5254;  // "TROI"
}
template <>
constexpr std::uint32_t semiring_tag<BooleanSR>() {
  return 0x4c4f4f42;  // "BOOL"
}
template <>
constexpr std::uint32_t semiring_tag<BottleneckSR>() {
  return 0x4e544f42;  // "BOTN"
}

}  // namespace sepsp::store
