// Out-of-core engine (src/store/): v3 image round trips under every
// semiring, the buffer pool's residency accounting, eviction storms
// under a tiny budget, open-time validation of damaged images, writer
// determinism, and the read-only service path.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

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

/// Builds a heap engine over a weighted grid, writes its v3 image, and
/// checks that the stored engine answers bit-identically (memcmp over
/// the raw value buffers) for single and batched sources.
template <Semiring S>
void round_trip_semiring(const std::string& stem) {
  Rng rng(11);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(1, 50), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto heap = SeparatorShortestPaths<S>::build(gg.graph, tree);

  TempFile file(temp_path(stem));
  std::string error;
  ASSERT_TRUE(store::write_engine_image(file.path, heap, &error)) << error;

  auto stored = store::StoredEngine<S>::open(file.path, {}, &error);
  ASSERT_TRUE(stored.has_value()) << error;

  using Value = typename S::Value;
  const std::vector<Vertex> sources = {0, 13, 40, 77, 80};
  for (const Vertex s : sources) {
    const auto want = heap.distances(s);
    const auto got = stored->engine().distances(s);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    EXPECT_EQ(std::memcmp(got.dist.data(), want.dist.data(),
                          want.dist.size() * sizeof(Value)),
              0)
        << "source " << s;
    EXPECT_EQ(got.negative_cycle, want.negative_cycle);
  }

  // The batched kernel walks the same external buckets via a different
  // lane width (LeveledQuery::run_block<8>) — it must see identical bytes.
  const auto want_batch = heap.distances_batch(sources);
  const auto got_batch = stored->engine().distances_batch(sources);
  ASSERT_EQ(got_batch.size(), want_batch.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(std::memcmp(got_batch[i].dist.data(), want_batch[i].dist.data(),
                          want_batch[i].dist.size() * sizeof(Value)),
              0)
        << "batched source " << sources[i];
  }
}

TEST(Store, RoundTripTropicalD) { round_trip_semiring<TropicalD>("trod"); }
TEST(Store, RoundTripTropicalI) { round_trip_semiring<TropicalI>("troi"); }
TEST(Store, RoundTripBoolean) { round_trip_semiring<BooleanSR>("bool"); }
TEST(Store, RoundTripBottleneck) { round_trip_semiring<BottleneckSR>("botn"); }

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
// results must still be bit-identical.

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

  /// Writes `bytes` to the temp path and expects open() to fail with a
  /// non-empty reason.
  void expect_rejected(const std::vector<char>& bytes, const char* what) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::string error;
    const auto stored =
        store::StoredEngine<TropicalD>::open(path_, {}, &error);
    EXPECT_FALSE(stored.has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
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
  EXPECT_FALSE(error.empty());
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
