// Out-of-core engine (src/store/): v7 image round trips under every
// semiring, the certificate flag, the buffer pool's residency
// accounting, eviction storms under a tiny budget, rewriting an image
// that a live engine still maps, open-time validation of damaged
// images, writer determinism, and the read-only service path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "store/format.hpp"
#include "store/pool.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "util/aligned.hpp"

namespace sepsp {
namespace {

/// A per-test temp path; the returned file does not exist yet.
std::string temp_path(const std::string& stem) {
  return testing::TempDir() + "sepsp_store_" + stem + ".sep3";
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

store::Header read_header(const std::string& path) {
  const std::vector<char> bytes = slurp(path);
  store::Header h;
  EXPECT_GE(bytes.size(), sizeof h);
  if (bytes.size() >= sizeof h) std::memcpy(&h, bytes.data(), sizeof h);
  return h;
}

/// One reply against another: memcmp-equal distances and equal
/// negative_cycle, edges_scanned and phases.
template <Semiring S>
void expect_same_reply(const QueryResult<S>& got, const QueryResult<S>& want,
                       const std::string& what) {
  ASSERT_EQ(got.dist.size(), want.dist.size()) << what;
  EXPECT_EQ(std::memcmp(got.dist.data(), want.dist.data(),
                        want.dist.size() * sizeof(typename S::Value)),
            0)
      << what;
  EXPECT_EQ(got.negative_cycle, want.negative_cycle) << what;
  EXPECT_EQ(got.edges_scanned, want.edges_scanned) << what;
  EXPECT_EQ(got.phases, want.phases) << what;
}

/// Writes `heap`'s image, opens it and checks that the stored engine
/// carries the heap engine's certificate and build-cost metadata and
/// answers exactly as it does, for single and batched sources.
template <Semiring S>
void expect_round_trip(const SeparatorShortestPaths<S>& heap,
                       const std::vector<Vertex>& sources,
                       const std::string& stem) {
  TempFile file(temp_path(stem));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;
  EXPECT_EQ(read_header(file.path).flags,
            heap.cycle_certified() ? store::kFlagCycleCertified : 0u);

  auto stored = store::StoredEngine<S>::open(file.path, {}, &error);
  ASSERT_TRUE(stored.has_value()) << error;
  EXPECT_EQ(stored->engine().cycle_certified(), heap.cycle_certified());

  // The header carries the build-cost metadata engine.stats() reports.
  const EngineStats heap_stats = heap.stats();
  const EngineStats stored_stats = stored->engine().stats();
  EXPECT_EQ(stored_stats.critical_depth, heap_stats.critical_depth);
  EXPECT_EQ(stored_stats.build_work, heap_stats.build_work);
  EXPECT_EQ(stored_stats.build_depth, heap_stats.build_depth);
  EXPECT_EQ(stored_stats.eplus_edges, heap_stats.eplus_edges);
  EXPECT_EQ(stored_stats.cycle_certified, heap_stats.cycle_certified);

  for (const Vertex s : sources) {
    expect_same_reply(stored->engine().distances(s), heap.distances(s),
                      "source " + std::to_string(s));
  }

  // The batched kernel walks the same external buckets via a different
  // lane width (8 lanes) — it must see identical bytes.
  const auto want_batch = heap.distances_batch(sources);
  const auto got_batch = stored->engine().distances_batch(sources);
  ASSERT_EQ(got_batch.size(), want_batch.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_same_reply(got_batch[i], want_batch[i],
                      "batched source " + std::to_string(sources[i]));
  }
}

/// Builds a heap engine over a weighted grid (Algorithm 4.1, so the
/// build certifies it cycle-free) and round-trips it.
template <Semiring S>
void round_trip_semiring(const std::string& stem) {
  Rng rng(11);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(1, 50), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto heap = SeparatorShortestPaths<S>::build(gg.graph, tree);
  EXPECT_TRUE(heap.cycle_certified());
  expect_round_trip(heap, {0, 13, 40, 77, 80}, stem);
}

TEST(Store, RoundTripTropicalD) { round_trip_semiring<TropicalD>("trod"); }
TEST(Store, RoundTripTropicalI) { round_trip_semiring<TropicalI>("troi"); }
TEST(Store, RoundTripBoolean) { round_trip_semiring<BooleanSR>("bool"); }
TEST(Store, RoundTripBottleneck) { round_trip_semiring<BottleneckSR>("botn"); }

/// A heap engine over `g` and its stored twin, memcmp-equal at 1, 8, 16
/// and 32 lanes from `sources`.
template <Semiring S>
void expect_stored_matches_heap(const Digraph& g, const SeparatorTree& tree,
                                const std::vector<Vertex>& sources,
                                const std::string& stem) {
  const auto heap = SeparatorShortestPaths<S>::build(g, tree);
  TempFile file(temp_path(stem));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;
  const auto stored = store::StoredEngine<S>::open(file.path, {}, &error);
  ASSERT_TRUE(stored.has_value()) << error;
  ASSERT_EQ(stored->engine().end_edges().size(), heap.end_edges().size());
  for (const std::size_t lanes : {1u, 8u, 16u, 32u}) {
    const auto want = heap.distances_batch(sources, {.lanes = lanes});
    const auto got = stored->engine().distances_batch(sources, {.lanes = lanes});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      expect_same_reply(got[i], want[i],
                        stem + " lanes " + std::to_string(lanes) +
                            " source " + std::to_string(sources[i]));
    }
  }
}

TEST(Store, UnleveledSourcesMatchTheHeapEngineInEverySemiring) {
  // The random tree and the 33 x 33 mesh, sourced at vertices with no
  // level: their base passes run over the image's end arcs.
  for (const bool mesh : {false, true}) {
    Rng rng(mesh ? 33 : 2000);
    const GeneratedGraph gg =
        mesh ? make_triangulated_grid(33, 33, WeightModel::mixed_sign(8.0), rng)
             : make_random_tree(2000, WeightModel::mixed_sign(8.0), rng);
    const SeparatorTree tree = build_separator_tree(
        Skeleton(gg.graph), mesh ? make_geometric_finder(gg.coords)
                                 : make_tree_finder());
    const LevelAssignment& levels = tree.eplus_plan()->levels;
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < levels.level.size() && sources.size() < 10; ++v) {
      if (!levels.defined(v)) sources.push_back(v);
    }
    ASSERT_FALSE(sources.empty());
    sources.push_back(1);
    const std::string stem = mesh ? "ends_mesh" : "ends_tree";
    expect_stored_matches_heap<TropicalD>(gg.graph, tree, sources, stem + "_d");
    expect_stored_matches_heap<TropicalI>(gg.graph, tree, sources, stem + "_i");
    expect_stored_matches_heap<BooleanSR>(gg.graph, tree, sources, stem + "_b");
    expect_stored_matches_heap<BottleneckSR>(gg.graph, tree, sources,
                                             stem + "_n");
  }
}

TEST(Store, UncertifiedAlgorithm43EngineKeepsThePass) {
  // Algorithm 4.3 certifies nothing, so the image carries flag 0 and
  // the stored engine keeps the verification pass, like its heap twin.
  Rng rng(11);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(1, 50), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto heap = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  EXPECT_FALSE(heap.cycle_certified());
  expect_round_trip(heap, {0, 13, 40, 77, 80}, "alg43");
}

TEST(Store, NegativeCycleIsFlaggedAsByTheHeapEngine) {
  // A grid plus a negative 3-cycle: the build cannot certify it, and
  // the stored engine flags the cycle from exactly the sources the heap
  // engine does.
  Rng rng(4);
  const GeneratedGraph gg =
      make_grid({6, 6}, WeightModel::uniform(1, 5), rng);
  GraphBuilder b(gg.graph.num_vertices());
  b.add_edges(gg.graph.edge_list());
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 6, 1.0);
  b.add_edge(6, 0, -10.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/true);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({6, 6}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(g, tree);
  EXPECT_FALSE(heap.cycle_certified());
  EXPECT_TRUE(heap.distances(0).negative_cycle);
  expect_round_trip(heap, {0, 6, 20, 35}, "negcycle");
}

TEST(Store, WriterIsDeterministic) {
  Rng rng(12);
  const GeneratedGraph gg =
      make_grid({8, 8}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);

  TempFile a(temp_path("det_a")), b(temp_path("det_b"));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(a.path, heap, &error)) << error;
  ASSERT_TRUE(store::write_engine_image(b.path, heap, &error)) << error;
  const auto ba = slurp(a.path), bb = slurp(b.path);
  ASSERT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb) << "two writes of the same engine must be byte-identical";
  EXPECT_EQ(ba.size(), read_header(a.path).file_bytes);

  // A write over an existing file replaces it with the same bytes.
  ASSERT_TRUE(store::write_engine_image(b.path, heap, &error)) << error;
  EXPECT_EQ(slurp(b.path), ba) << "a write over an existing image";
}

// ---------------------------------------------------------------------
// Rewriting an image path: the writer creates a fresh inode, so an
// engine that still maps the old image keeps reading its own bytes.

TEST(Store, RewritingAMappedImageKeepsTheOldEngineServing) {
  Rng rng(18);
  const GeneratedGraph gg =
      make_grid({33, 33}, WeightModel::uniform(1, 20), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({33, 33}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
  // A tiny engine: its image ends before the big one's first bucket
  // page, so rewriting the file in place would leave every page the
  // next query faults past the end of the file (SIGBUS).
  const GeneratedGraph small =
      make_grid({2, 2}, WeightModel::uniform(1, 20), rng);
  const auto other = SeparatorShortestPaths<TropicalD>::build(
      small.graph,
      build_separator_tree(Skeleton(small.graph), make_grid_finder({2, 2})));

  TempFile file(temp_path("rewrite"));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;
  store::StoredEngine<TropicalD>::OpenOptions opts;
  opts.pool.budget_bytes = std::size_t{64} << 10;
  auto stored = store::StoredEngine<TropicalD>::open(file.path, opts, &error);
  ASSERT_TRUE(stored.has_value()) << error;
  ASSERT_GT(stored->image_bytes(), 8 * opts.pool.budget_bytes);
  expect_same_reply(stored->engine().distances(0), heap.distances(0),
                    "before the rewrite");

  ASSERT_TRUE(store::write_engine_image(file.path, other, &error)) << error;
  // The 64 KiB budget evicted most pages; the next query refaults them
  // from the old image, not from the new file at the same path.
  for (const Vertex s : {Vertex{0}, Vertex{544}, Vertex{1088}}) {
    expect_same_reply(stored->engine().distances(s), heap.distances(s),
                      "after the rewrite, source " + std::to_string(s));
  }
#if defined(__linux__)
  EXPECT_GT(stored->pool().stats().evictions, 0u);
#endif
  auto reopened = store::StoredEngine<TropicalD>::open(file.path, {}, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  expect_same_reply(reopened->engine().distances(3), other.distances(3),
                    "the new image");
}

TEST(Store, StoredEngineWrittenOntoItsOwnPathReopensBitIdentical) {
  Rng rng(19);
  const GeneratedGraph gg =
      make_grid({12, 12}, WeightModel::uniform(1, 20), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({12, 12}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);

  TempFile file(temp_path("self"));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;
  const std::vector<char> original = slurp(file.path);
  store::StoredEngine<TropicalD>::OpenOptions opts;
  opts.pool.budget_bytes = 4 * kPageBytes;
  auto stored = store::StoredEngine<TropicalD>::open(file.path, opts, &error);
  ASSERT_TRUE(stored.has_value()) << error;

  // The writer reads the stored engine's segments out of its own
  // mapping, under pins, while it replaces the file they came from.
  ASSERT_TRUE(store::write_engine_image(file.path, stored->engine(), &error))
      << error;
  EXPECT_EQ(slurp(file.path), original);
  EXPECT_EQ(stored->pool().stats().pinned_pages, 0u);
  EXPECT_GT(stored->pool().stats().faults, 0u);
  expect_same_reply(stored->engine().distances(7), heap.distances(7),
                    "the written-out engine");
  auto reopened = store::StoredEngine<TropicalD>::open(file.path, {}, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  expect_same_reply(reopened->engine().distances(7), heap.distances(7),
                    "the reopened image");
}

// ---------------------------------------------------------------------
// BufferPool unit tests over a synthetic pattern file.

TEST(Store, PoolResidencyAndEviction) {
  // 16 pages, each filled with its own page index byte.
  constexpr std::size_t kPages = 16;
  TempFile file(temp_path("pool"));
  {
    std::ofstream out(file.path, std::ios::binary);
    for (std::size_t p = 0; p < kPages; ++p) {
      const std::string page(kPageBytes, static_cast<char>('a' + p));
      out.write(page.data(), static_cast<std::streamsize>(page.size()));
    }
  }

  store::PoolOptions opts;
  opts.budget_bytes = 4 * kPageBytes;
  std::string error;
  auto pool = store::BufferPool::open(file.path, opts, &error);
  ASSERT_NE(pool, nullptr) << error;
  EXPECT_EQ(pool->size(), kPages * kPageBytes);
  EXPECT_EQ(pool->num_pages(), kPages);

  // Pin one page and read it through the mapping.
  pool->pin(0, kPageBytes);
  EXPECT_EQ(pool->page_pins(0), 1u);
  EXPECT_TRUE(pool->page_resident(0));
  EXPECT_EQ(reinterpret_cast<const char*>(pool->data())[0], 'a');

  // Sweep every other page; the 4-page budget forces evictions, but
  // the pinned page must survive every storm.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t p = 1; p < kPages; ++p) {
      pool->pin(p * kPageBytes, kPageBytes);
      EXPECT_EQ(reinterpret_cast<const char*>(pool->data())[p * kPageBytes],
                static_cast<char>('a' + p));
      pool->unpin(p * kPageBytes, kPageBytes);
    }
  }
  const auto stats = pool->stats();
#if defined(__linux__)
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, opts.budget_bytes + kPageBytes);
#endif
  EXPECT_GT(stats.faults, 0u);
  EXPECT_TRUE(pool->page_resident(0)) << "pinned pages are not evictable";
  EXPECT_EQ(reinterpret_cast<const char*>(pool->data())[0], 'a');
  pool->unpin(0, kPageBytes);
  EXPECT_EQ(pool->page_pins(0), 0u);

  // A range pin spanning several pages pins each page once.
  pool->pin(2 * kPageBytes, 3 * kPageBytes);
  EXPECT_EQ(pool->page_pins(2), 1u);
  EXPECT_EQ(pool->page_pins(3), 1u);
  EXPECT_EQ(pool->page_pins(4), 1u);
  pool->unpin(2 * kPageBytes, 3 * kPageBytes);
  EXPECT_EQ(pool->page_pins(3), 0u);
}

TEST(Store, PoolRefaultAfterEvictionReadsIdenticalBytes) {
  constexpr std::size_t kPages = 8;
  TempFile file(temp_path("refault"));
  {
    std::ofstream out(file.path, std::ios::binary);
    for (std::size_t p = 0; p < kPages; ++p) {
      std::vector<std::uint64_t> words(kPageBytes / 8, 0x1234567890abcdefULL + p);
      out.write(reinterpret_cast<const char*>(words.data()),
                static_cast<std::streamsize>(kPageBytes));
    }
  }
  store::PoolOptions opts;
  opts.budget_bytes = 2 * kPageBytes;
  std::string error;
  auto pool = store::BufferPool::open(file.path, opts, &error);
  ASSERT_NE(pool, nullptr) << error;
  const auto* words = reinterpret_cast<const std::uint64_t*>(pool->data());
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 0; p < kPages; ++p) {
      pool->pin(p * kPageBytes, kPageBytes);
      EXPECT_EQ(words[p * kPageBytes / 8], 0x1234567890abcdefULL + p);
      pool->unpin(p * kPageBytes, kPageBytes);
    }
  }
}

// ---------------------------------------------------------------------
// Eviction storm through the full engine: a budget of two pages is far
// below any real working set, so every bucket sweep cycles the pool —
// results must still be bit-identical. The batched pass runs its lane
// blocks on the thread pool, so several queries pin, fault and evict
// pages of the one buffer pool at once.

TEST(Store, EvictionStormKeepsBitParity) {
  Rng rng(13);
  const GeneratedGraph gg =
      make_grid({10, 10}, WeightModel::uniform(1, 20), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({10, 10}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);

  TempFile file(temp_path("storm"));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;

  store::StoredEngine<TropicalD>::OpenOptions opts;
  opts.pool.budget_bytes = 2 * kPageBytes;
  auto stored = store::StoredEngine<TropicalD>::open(file.path, opts, &error);
  ASSERT_TRUE(stored.has_value()) << error;

  for (const Vertex s : {Vertex{0}, Vertex{55}, Vertex{99}}) {
    const auto want = heap.distances(s);
    const auto got = stored->engine().distances(s);
    ASSERT_EQ(std::memcmp(got.dist.data(), want.dist.data(),
                          want.dist.size() * sizeof(double)),
              0)
        << "source " << s;
  }
  // Every vertex as a source: 100 sources make 13 lane blocks.
  std::vector<Vertex> sources(gg.graph.num_vertices());
  for (Vertex v = 0; v < sources.size(); ++v) sources[v] = v;
  ASSERT_GT(sources.size(),
            4 * SeparatorShortestPaths<TropicalD>::kBatchLanes);
  const auto want = heap.distances_batch(sources);
  const auto got = stored->engine().distances_batch(sources);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_reply(got[i], want[i], "batched source " + std::to_string(i));
  }
#if defined(__linux__)
  EXPECT_GT(stored->pool().stats().evictions, 0u)
      << "a 2-page budget must actually storm the pool";
#endif
}

// ---------------------------------------------------------------------
// Open-time validation: damaged images fail closed with a reason.

class StoreDamage : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(14);
    const GeneratedGraph gg =
        make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
    const auto heap =
        SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
    std::string error;
    ASSERT_TRUE(store::write_engine_image(path_, heap, &error)) << error;
    image_ = slurp(path_);
    ASSERT_GE(image_.size(), sizeof(store::Header));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` to the temp path and opens it; `error` receives the
  /// loader's reason.
  std::optional<store::StoredEngine<TropicalD>> open_bytes(
      const std::vector<char>& bytes, std::string* error) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    error->clear();
    return store::StoredEngine<TropicalD>::open(path_, {}, error);
  }

  /// Expects open() to fail on `bytes` with a non-empty reason, and
  /// returns the reason.
  std::string expect_rejected(const std::vector<char>& bytes,
                              const char* what) {
    std::string error;
    EXPECT_FALSE(open_bytes(bytes, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
    return error;
  }

  store::Header header() const {
    store::Header h;
    std::memcpy(&h, image_.data(), sizeof h);
    return h;
  }

  std::vector<store::SegmentRecord> directory() const {
    const store::Header h = header();
    std::vector<store::SegmentRecord> dir(h.num_segments);
    std::memcpy(dir.data(), image_.data() + h.directory_offset,
                dir.size() * sizeof(store::SegmentRecord));
    return dir;
  }

  std::string path_ = temp_path("damage");
  std::vector<char> image_;
};

TEST_F(StoreDamage, RejectsBadMagic) {
  auto bad = image_;
  bad[0] ^= 0x5a;
  expect_rejected(bad, "flipped magic");
}

TEST_F(StoreDamage, RejectsWrongSemiring) {
  std::string error;
  const auto as_bool =
      store::StoredEngine<BooleanSR>::open(path_, {}, &error);
  EXPECT_FALSE(as_bool.has_value());
  // Both tags, in hex.
  for (const std::uint32_t tag : {store::semiring_tag<TropicalD>(),
                                  store::semiring_tag<BooleanSR>()}) {
    std::ostringstream want;
    want << "0x" << std::hex << tag;
    EXPECT_NE(error.find(want.str()), std::string::npos)
        << error << " lacks " << want.str();
  }
}

TEST_F(StoreDamage, RejectsTruncation) {
  // Truncate at a sweep of prefixes: header-only, mid-directory, and
  // mid-payload. Every prefix must fail closed.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, sizeof(store::Header),
        image_.size() / 4, image_.size() / 2, image_.size() - 1}) {
    std::vector<char> bad(image_.begin(),
                          image_.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_rejected(bad, "truncated image");
  }
}

TEST_F(StoreDamage, RejectsCorruptDirectory) {
  // The directory starts at the first page boundary. Smash a segment
  // record's offset so it points past the file.
  auto bad = image_;
  const std::size_t dir = round_up_to_page(sizeof(store::Header));
  ASSERT_GT(bad.size(), dir + sizeof(store::SegmentRecord));
  const std::uint64_t garbage = ~std::uint64_t{0} << 12;  // page aligned, huge
  std::memcpy(bad.data() + dir + offsetof(store::SegmentRecord, offset),
              &garbage, sizeof garbage);
  expect_rejected(bad, "out-of-range segment offset");

  // A directory one page short of 2^64 and two pages long: offset +
  // size wraps around to one page, inside the file.
  store::Header h = header();
  h.directory_offset = ~std::uint64_t{0} << 12;
  h.num_segments = 2 * kPageBytes / sizeof(store::SegmentRecord);
  auto wrapped = image_;
  std::memcpy(wrapped.data(), &h, sizeof h);
  expect_rejected(wrapped, "wrapping directory offset");
}

TEST_F(StoreDamage, RejectsUnknownVersion) {
  // Versions 1 and 2 were the retired stream formats, 3 the layout
  // without header flags, 4 the layout that stored E+ twice, 5 the one
  // with vertex levels, 6 the one without end arcs; 8 and later are
  // layouts this reader cannot know. All must be refused by name.
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 99u}) {
    auto bad = image_;
    std::memcpy(bad.data() + offsetof(store::Header, version), &version,
                sizeof version);
    const std::string reason = expect_rejected(bad, "unknown version");
    EXPECT_NE(reason.find("unsupported version " + std::to_string(version)),
              std::string::npos)
        << reason;
  }
}

TEST_F(StoreDamage, RejectsUnknownFlags) {
  for (const std::uint64_t flag : {std::uint64_t{2}, std::uint64_t{1} << 63}) {
    store::Header h = header();
    h.flags |= flag;
    auto bad = image_;
    std::memcpy(bad.data(), &h, sizeof h);
    const std::string reason = expect_rejected(bad, "unknown flag bit");
    EXPECT_NE(reason.find("unknown header flags"), std::string::npos)
        << reason;
  }
}

TEST_F(StoreDamage, SurvivesByteFlipFuzz) {
  // Seeded single-byte flips across the header, the directory and the
  // segment payloads. A flip may survive (a weight, say); the contract
  // is that open() either refuses with a reason or yields an engine
  // that answers a query, and never aborts.
  const store::Header h = header();
  const std::vector<store::SegmentRecord> dir = directory();
  Rng rng(17);
  std::vector<std::size_t> positions;
  for (std::size_t pos = 0; pos < sizeof(store::Header); ++pos) {
    positions.push_back(pos);
  }
  const std::size_t dir_bytes = dir.size() * sizeof(store::SegmentRecord);
  for (int i = 0; i < 200; ++i) {
    positions.push_back(h.directory_offset + rng.next_below(dir_bytes));
  }
  for (int i = 0; i < 200; ++i) {
    const store::SegmentRecord& rec = dir[rng.next_below(dir.size())];
    if (rec.bytes == 0) continue;
    positions.push_back(rec.offset + rng.next_below(rec.bytes));
  }
  // And the end-arc pages by name: every byte of the split, and 20
  // flips in each of the three end-arc segments.
  std::size_t end_segments = 0;
  for (const store::SegmentRecord& rec : dir) {
    switch (static_cast<store::SegmentKind>(rec.kind)) {
      case store::SegmentKind::kEndsSplit:
        for (std::size_t b = 0; b < rec.bytes; ++b) {
          positions.push_back(rec.offset + b);
        }
        ++end_segments;
        break;
      case store::SegmentKind::kEndsFrom:
      case store::SegmentKind::kEndsTo:
      case store::SegmentKind::kEndsValue:
        ASSERT_GT(rec.bytes, 0u);
        for (int i = 0; i < 20; ++i) {
          positions.push_back(rec.offset + rng.next_below(rec.bytes));
        }
        ++end_segments;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(end_segments, 4u);
  std::size_t opened = 0;
  for (const std::size_t pos : positions) {
    auto bad = image_;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.next_below(255)));
    std::string error;
    const auto stored = open_bytes(bad, &error);
    if (!stored) {
      EXPECT_FALSE(error.empty()) << "flip at byte " << pos;
      continue;
    }
    ++opened;
    const QueryResult<TropicalD> r = stored->engine().distances(0);
    EXPECT_EQ(r.dist.size(), stored->engine().graph().num_vertices())
        << "flip at byte " << pos;
  }
  // Payload flips mostly land in values the loader cannot judge.
  EXPECT_GT(opened, 0u);
}

TEST_F(StoreDamage, HugeCountsDoNotAllocate) {
  // A consistent forgery: the header claims 2^40 arcs and every
  // arc-sized record claims 2^40 elements with matching byte sizes, so
  // only the byte-bounds check against the file stands between the
  // loader and a multi-TiB read or resize.
  store::Header h = header();
  std::vector<store::SegmentRecord> dir = directory();
  const std::uint64_t arcs = h.num_edges;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  h.num_edges = huge;
  std::size_t forged = 0;
  for (store::SegmentRecord& rec : dir) {
    if (rec.count != arcs) continue;
    rec.bytes = rec.bytes / rec.count * huge;
    rec.count = huge;
    ++forged;
  }
  ASSERT_GE(forged, 3u);  // arc targets, arc weights, base bucket
  auto bad = image_;
  std::memcpy(bad.data(), &h, sizeof h);
  std::memcpy(bad.data() + h.directory_offset, dir.data(),
              dir.size() * sizeof(store::SegmentRecord));
  expect_rejected(bad, "2^40-element records");

  // The height sizes the bucket table; one just below the header's
  // plausibility cap must be refused by the table's file-bounded count.
  store::Header tall = header();
  tall.height = (1u << 28) - 1;
  auto bad_height = image_;
  std::memcpy(bad_height.data(), &tall, sizeof tall);
  expect_rejected(bad_height, "2^28-level height");
}

TEST_F(StoreDamage, RejectsOutOfRangeShortcutEndpoint) {
  // Kernels index dist[] by bucket endpoints unchecked, so open() must
  // refuse an endpoint >= n.
  const store::Header h = header();
  for (const store::SegmentRecord& rec : directory()) {
    if (rec.kind != static_cast<std::uint32_t>(
                        store::SegmentKind::kShortcutTo)) {
      continue;
    }
    ASSERT_GT(rec.count, 0u);
    auto bad = image_;
    const auto past_end = static_cast<Vertex>(h.num_vertices);
    std::memcpy(bad.data() + rec.offset, &past_end, sizeof past_end);
    expect_rejected(bad, "shortcut endpoint == n");
    return;
  }
  FAIL() << "image has no shortcut-target segment";
}

// The end arcs (v7): open() refuses an image without them, a split
// outside them and an endpoint past the vertices, since the base passes
// index both unchecked.
class StoreEnds : public StoreDamage {
 protected:
  std::size_t record_at(store::SegmentKind kind) const {
    const std::vector<store::SegmentRecord> dir = directory();
    for (std::size_t i = 0; i < dir.size(); ++i) {
      if (dir[i].kind == static_cast<std::uint32_t>(kind)) return i;
    }
    ADD_FAILURE() << "image has no segment of kind "
                  << static_cast<std::uint32_t>(kind);
    return 0;
  }
  /// The image with the split's two entries replaced by (a, b).
  std::vector<char> with_split(std::uint64_t a, std::uint64_t b) const {
    const store::SegmentRecord rec =
        directory()[record_at(store::SegmentKind::kEndsSplit)];
    auto bad = image_;
    const std::uint64_t split[2] = {a, b};
    std::memcpy(bad.data() + rec.offset, split, sizeof split);
    return bad;
  }
  std::uint64_t ends_count() const {
    return directory()[record_at(store::SegmentKind::kEndsFrom)].count;
  }
};

TEST_F(StoreEnds, WrittenImageHoldsTheEngineEndArcs) {
  // A 7 x 7 grid's leaves keep interior vertices, so it has end arcs.
  EXPECT_GT(ends_count(), 0u);
  std::string error;
  const auto stored = open_bytes(image_, &error);
  ASSERT_TRUE(stored.has_value()) << error;
  const auto& engine = stored->engine();
  EXPECT_EQ(engine.end_edges().size(), ends_count());
  EXPECT_LE(engine.trail_edges().lo, engine.lead_edges().hi);
  EXPECT_EQ(engine.lead_edges().lo, 0u);
  EXPECT_EQ(engine.trail_edges().hi, ends_count());
}

TEST_F(StoreEnds, RejectsAMissingEndsSegment) {
  for (const store::SegmentKind kind :
       {store::SegmentKind::kEndsFrom, store::SegmentKind::kEndsTo,
        store::SegmentKind::kEndsValue, store::SegmentKind::kEndsSplit}) {
    std::vector<store::SegmentRecord> dir = directory();
    dir[record_at(kind)].kind = 99;  // no reader knows kind 99
    auto bad = image_;
    std::memcpy(bad.data() + header().directory_offset, dir.data(),
                dir.size() * sizeof(store::SegmentRecord));
    expect_rejected(bad, "missing end-arc segment");
  }
}

TEST_F(StoreEnds, RejectsASplitOutOfRange) {
  const std::uint64_t count = ends_count();
  ASSERT_GT(count, 0u);
  for (const auto& [a, b] :
       {std::pair<std::uint64_t, std::uint64_t>{1, 0},
        {count, count - 1},
        {0, count + 1},
        {count + 1, count + 1},
        {0, ~std::uint64_t{0}}}) {
    const std::string reason = expect_rejected(with_split(a, b), "split");
    EXPECT_NE(reason.find("end-arc split out of range"), std::string::npos)
        << "a " << a << ", b " << b << ": " << reason;
  }
  // The bounds themselves are legal: a = b = count leads over every end
  // arc and trails over none.
  std::string error;
  EXPECT_TRUE(open_bytes(with_split(count, count), &error).has_value())
      << error;
}

TEST_F(StoreEnds, RejectsAnOutOfRangeEndpoint) {
  const auto past_end = static_cast<Vertex>(header().num_vertices);
  for (const store::SegmentKind kind :
       {store::SegmentKind::kEndsFrom, store::SegmentKind::kEndsTo}) {
    const store::SegmentRecord rec = directory()[record_at(kind)];
    ASSERT_GT(rec.count, 0u);
    auto bad = image_;
    std::memcpy(bad.data() + rec.offset + (rec.count - 1) * sizeof(Vertex),
                &past_end, sizeof past_end);
    const std::string reason = expect_rejected(bad, "end-arc endpoint == n");
    EXPECT_NE(reason.find("edge endpoint out of range"), std::string::npos)
        << reason;
  }
}

// The bucket table splits E+ into the sweep's ranges; the kernels index
// E+ by it unchecked, so every malformed table is refused by name.
class StoreBucketTable : public StoreDamage {
 protected:
  const store::SegmentRecord& table_record() const {
    for (const store::SegmentRecord& rec : dir_) {
      if (rec.kind ==
          static_cast<std::uint32_t>(store::SegmentKind::kBucketOffsets)) {
        return rec;
      }
    }
    ADD_FAILURE() << "image has no bucket table";
    return dir_.front();
  }
  std::vector<std::uint64_t> table() const {
    const store::SegmentRecord& rec = table_record();
    std::vector<std::uint64_t> out(rec.count);
    std::memcpy(out.data(), image_.data() + rec.offset, rec.bytes);
    return out;
  }
  /// The image with its table's entries replaced by `t` (same count).
  std::vector<char> with_table(const std::vector<std::uint64_t>& t) const {
    auto bad = image_;
    std::memcpy(bad.data() + table_record().offset, t.data(),
                t.size() * sizeof(std::uint64_t));
    return bad;
  }
  void expect_reason(const std::vector<char>& bytes, const char* what,
                     const std::string& want) {
    const std::string reason = expect_rejected(bytes, what);
    EXPECT_NE(reason.find(want), std::string::npos) << reason;
  }
  void SetUp() override {
    StoreDamage::SetUp();
    dir_ = directory();
  }

  std::vector<store::SegmentRecord> dir_;
};

TEST_F(StoreBucketTable, IsWellFormedInAWrittenImage) {
  const store::Header h = header();
  const std::vector<std::uint64_t> t = table();
  ASSERT_EQ(t.size(), 3 * (std::size_t{h.height} + 1) + 1);
  EXPECT_EQ(t.front(), 0u);
  EXPECT_EQ(t.back(), h.num_shortcuts);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
}

TEST_F(StoreBucketTable, RejectsANonMonotoneTable) {
  std::vector<std::uint64_t> t = table();
  std::size_t k = 1;
  while (k + 1 < t.size() - 1 && t[k] == t[k + 1]) ++k;
  ASSERT_LT(t[k], t[k + 1]);
  t[k] = t[k + 1] + 1;
  expect_reason(with_table(t), "non-monotone table", "not monotone");
}

TEST_F(StoreBucketTable, RejectsATableNotStartingAtZero) {
  std::vector<std::uint64_t> t = table();
  t.front() = 1;
  expect_reason(with_table(t), "table starting at 1", "does not start at 0");
}

TEST_F(StoreBucketTable, RejectsATableNotEndingAtTheShortcutCount) {
  const std::uint64_t count = header().num_shortcuts;
  for (const std::uint64_t end : {count - 1, count + 1, ~std::uint64_t{0}}) {
    std::vector<std::uint64_t> t = table();
    t.back() = end;
    expect_reason(with_table(t), "table end != num_shortcuts",
                  "does not end at num_shortcuts");
  }
}

TEST_F(StoreBucketTable, RejectsATableOfTheWrongCount) {
  const store::Header h = header();
  const std::size_t index = static_cast<std::size_t>(
      &table_record() - dir_.data());
  for (const std::uint64_t count : {table().size() - 1, table().size() + 1,
                                    std::uint64_t{0}}) {
    std::vector<store::SegmentRecord> dir = dir_;
    dir[index].count = count;
    dir[index].bytes = count * sizeof(std::uint64_t);
    auto bad = image_;
    std::memcpy(bad.data() + h.directory_offset, dir.data(),
                dir.size() * sizeof(store::SegmentRecord));
    expect_reason(bad, "table of the wrong count", "count is not");
  }
  // A height one level off is the same mismatch, seen from the header.
  store::Header taller = h;
  ++taller.height;
  auto bad = image_;
  std::memcpy(bad.data(), &taller, sizeof taller);
  expect_reason(bad, "height one above the table", "count is not");
}

TEST_F(StoreDamage, RejectsMissingFile) {
  std::string error;
  const auto stored = store::StoredEngine<TropicalD>::open(
      temp_path("does_not_exist"), {}, &error);
  EXPECT_FALSE(stored.has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Read-only QueryService over a stored snapshot.

TEST(Store, ReadOnlyServiceServesStoredSnapshot) {
  Rng rng(15);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(1, 30), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto heap = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);

  TempFile file(temp_path("service"));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;
  auto stored = store::StoredEngine<TropicalD>::open(file.path, {}, &error);
  ASSERT_TRUE(stored.has_value()) << error;

  service::ServiceOptions opts;
  opts.point_to_point = false;
  service::QueryService svc(stored->snapshot(), opts);
  for (const Vertex s : {Vertex{0}, Vertex{40}, Vertex{80}, Vertex{40}}) {
    const service::Reply r = svc.query(s);
    ASSERT_EQ(r.status, service::ReplyStatus::kOk);
    ASSERT_NE(r.value, nullptr);
    EXPECT_EQ(r.epoch, 0u);
    const auto want = heap.distances(s);
    ASSERT_EQ(r.value->dist.size(), want.dist.size());
    EXPECT_EQ(std::memcmp(r.value->dist.data(), want.dist.data(),
                          want.dist.size() * sizeof(double)),
              0)
        << "source " << s;
  }
  svc.stop();

  // The snapshot (and its pool) outlives the StoredEngine handle.
  auto snap = stored->snapshot();
  stored.reset();
  EXPECT_EQ(snap->distances(0).dist.size(), gg.graph.num_vertices());
}

}  // namespace
}  // namespace sepsp
