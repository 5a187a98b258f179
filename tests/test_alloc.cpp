// Allocation discipline of the batched query: every answer is allocated
// once, by the thread that keeps it. Global operator new/delete are
// replaced by a counter that delegates to malloc and tags each
// allocation with the role of the thread that made it (the test's own
// thread, a pool thread, or any other), so the assertions can say on
// which threads the batched query allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "pram/thread_pool.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"

namespace {

enum Role : unsigned { kOther = 0, kCaller = 1, kPool = 2 };

// Plain thread_local data: reading it never allocates.
thread_local unsigned t_role = kOther;
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs[3];

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs[t_role].fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  note_alloc();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sepsp {
namespace {

/// Allocation counts per role between construction and the read.
class AllocWindow {
 public:
  AllocWindow() {
    for (auto& c : g_allocs) c.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
  }
  ~AllocWindow() { g_counting.store(false, std::memory_order_seq_cst); }
  std::uint64_t operator[](Role role) const {
    return g_allocs[role].load(std::memory_order_relaxed);
  }
};

/// Runs `body` once on every pool participant, all at the same time:
/// each of concurrency() indices waits until every index is taken, so
/// no thread can take two. Every participant but the calling thread is
/// tagged a pool thread.
void on_every_participant(const std::function<void()>& body) {
  t_role = kCaller;
  pram::ThreadPool& pool = pram::ThreadPool::global();
  const std::size_t participants = pool.concurrency();
  std::atomic<std::size_t> arrived{0};
  pool.parallel_for(
      0, participants,
      [&](std::size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < participants) std::this_thread::yield();
        if (t_role != kCaller) t_role = kPool;
        body();
      },
      /*grain=*/1);
}

struct Instance {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Instance make_instance() {
  Rng rng(42);
  Instance inst;
  inst.gg = make_grid({15, 15}, WeightModel::uniform(1, 9), rng);
  inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                   make_grid_finder({15, 15}));
  return inst;
}

/// One block of one source at `lanes` on the calling thread (a
/// one-block region runs inline), so the thread has met every span and
/// counter of a block before the counted window opens.
void run_one_block(const SeparatorShortestPaths<TropicalD>& engine,
                   std::size_t lanes) {
  std::vector<double> row(engine.graph().num_vertices());
  std::vector<std::span<double>> rows{std::span<double>(row)};
  std::vector<QueryStats> stats(1);
  const std::vector<Vertex> source{0};
  engine.distances_batch(source, rows, stats, {.lanes = lanes});
}

TEST(BatchAlloc, OutputFormAllocatesAtMostOnceOnEachPoolThread) {
  const Instance inst = make_instance();
  const auto engine =
      SeparatorShortestPaths<TropicalD>::build(inst.gg.graph, inst.tree);
  const std::size_t n = inst.gg.graph.num_vertices();
  // Warm every participant at width 2: the counted calls at width 8
  // grow each thread's block matrix once, and reuse it after that.
  on_every_participant([&] { run_one_block(engine, 2); });

  constexpr std::size_t kSources = 64;
  std::vector<Vertex> sources(kSources);
  for (std::size_t i = 0; i < kSources; ++i) {
    sources[i] = static_cast<Vertex>((i * 37) % n);
  }
  std::vector<double> storage(kSources * n);
  std::vector<std::span<double>> rows;
  for (std::size_t i = 0; i < kSources; ++i) {
    rows.emplace_back(storage.data() + i * n, n);
  }
  std::vector<QueryStats> stats(kSources);

  const AllocWindow window;
  for (int call = 0; call < 50; ++call) {
    engine.distances_batch(sources, rows, stats, {.lanes = 8});
  }
  const std::uint64_t elsewhere = window[kPool] + window[kOther];
  EXPECT_LE(elsewhere, pram::ThreadPool::global().concurrency())
      << "pool threads allocated " << window[kPool] << " times, other "
      << "threads " << window[kOther] << " times in 50 calls";
}

TEST(BatchAlloc, ServiceMissesAllocateNothingOnPoolThreads) {
  const Instance inst = make_instance();
  const std::size_t n = inst.gg.graph.num_vertices();
  service::ServiceOptions opts;
  opts.point_to_point = false;
  service::QueryService svc(
      IncrementalEngine::build(inst.gg.graph, inst.tree), opts);
  // Warm every participant at the service's width over a graph of the
  // same size: the block matrix is per thread, not per engine.
  const auto twin =
      SeparatorShortestPaths<TropicalD>::build(inst.gg.graph, inst.tree);
  on_every_participant([&] { run_one_block(twin, opts.lanes); });

  const auto burst = [&](Vertex first, std::size_t count) {
    std::vector<std::future<service::Reply>> replies;
    for (std::size_t i = 0; i < count; ++i) {
      replies.push_back(svc.submit(service::SingleSource{
          static_cast<Vertex>((first + i) % n)}));
    }
    for (auto& r : replies) {
      const service::Reply reply = r.get();
      ASSERT_TRUE(reply.ok());
      ASSERT_NE(reply.value, nullptr);
    }
  };
  burst(0, 32);  // warms the dispatcher

  std::uint64_t pool_allocs = 0;
  {
    const AllocWindow window;
    burst(32, 96);  // distinct sources: every one a miss
    pool_allocs = window[kPool];
  }
  EXPECT_EQ(svc.stats().cache_misses, 128u);
  EXPECT_EQ(pool_allocs, 0u);
}

}  // namespace
}  // namespace sepsp
