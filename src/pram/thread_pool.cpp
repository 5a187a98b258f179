#include "pram/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace sepsp::pram {

#if SEPSP_OBS_ENABLED
namespace {
// Interned once; the pool is on every hot path, so lookups are hoisted.
struct PoolObs {
  obs::Counter& regions = obs::counter("pool.regions");
  obs::Counter& inline_regions = obs::counter("pool.inline_regions");
  obs::Counter& nested_regions = obs::counter("pool.nested_regions");
  obs::Counter& blocks = obs::counter("pool.blocks");
  obs::Counter& steals = obs::counter("pool.steals");
  obs::Counter& tasks = obs::counter("pool.tasks");
  obs::Histogram& region_items = obs::histogram("pool.region_items");
  static PoolObs& get() {
    static PoolObs o;
    return o;
  }
};
}  // namespace
#endif

namespace {
// Identifies the current thread as a worker of a specific pool so that
// nested forks push onto the owning worker's deque.
struct WorkerTls {
  ThreadPool* pool = nullptr;
  void* worker = nullptr;
};
thread_local WorkerTls t_worker;
}  // namespace

// --- Chase–Lev deque --------------------------------------------------

bool ThreadPool::StealDeque::push(std::uint64_t h) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
  buffer_[static_cast<std::uint64_t>(b) & kMask].store(
      h, std::memory_order_relaxed);
  // Release publishes the buffer slot to stealers reading bottom_.
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

std::uint64_t ThreadPool::StealDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  if (t > b) {  // empty
    bottom_.store(b + 1, std::memory_order_relaxed);
    return 0;
  }
  std::uint64_t h =
      buffer_[static_cast<std::uint64_t>(b) & kMask].load(
          std::memory_order_relaxed);
  if (t == b) {  // last element: race against stealers via top_
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      h = 0;  // a stealer got it
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return h;
}

std::uint64_t ThreadPool::StealDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return 0;
  const std::uint64_t h =
      buffer_[static_cast<std::uint64_t>(t) & kMask].load(
          std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return 0;  // lost the race
  }
  return h;
}

// --- pool lifecycle ---------------------------------------------------

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  free_slots_.reserve(kRegionSlots);
  for (std::size_t i = kRegionSlots; i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  worker_state_.reserve(threads - 1);
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    worker_state_.push_back(std::make_unique<Worker>());
    worker_state_.back()->index = i;
    worker_state_.back()->rng = 0x9e3779b9u ^ (i + 1);
  }
  for (auto& w : worker_state_) {
    workers_.emplace_back([this, &w] { worker_loop(*w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    ++epoch_;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

// --- task sourcing ----------------------------------------------------

std::uint64_t ThreadPool::pop_inject() {
  std::lock_guard<std::mutex> lock(inject_mutex_);
  if (inject_.empty()) return 0;
  const std::uint64_t h = inject_.front();
  inject_.pop_front();
  return h;
}

std::uint64_t ThreadPool::steal_from_others(Worker* self) {
  const std::size_t n = worker_state_.size();
  if (n == 0) return 0;
  std::uint32_t seed = self != nullptr ? self->rng : 0x2545f491u;
  seed ^= seed << 13;
  seed ^= seed >> 17;
  seed ^= seed << 5;
  if (self != nullptr) self->rng = seed;
  const std::size_t start = seed % n;
  for (std::size_t k = 0; k < n; ++k) {
    Worker& victim = *worker_state_[(start + k) % n];
    if (self == &victim) continue;
    const std::uint64_t h = victim.deque.steal();
    if (h != 0) {
      SEPSP_OBS_ONLY(PoolObs::get().steals.add(1);)
      return h;
    }
  }
  return 0;
}

bool ThreadPool::try_run_one(Worker* self) {
  std::uint64_t h = self != nullptr ? self->deque.pop() : 0;
  if (h == 0) h = pop_inject();
  if (h == 0) h = steal_from_others(self);
  if (h == 0) return false;
  execute_handle(h);
  return true;
}

void ThreadPool::worker_loop(Worker& self) {
  t_worker = WorkerTls{this, &self};
  for (;;) {
    if (try_run_one(&self)) continue;
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
      seen = epoch_;
    }
    // Recheck after snapshotting the epoch: a task published afterwards
    // bumps the epoch and the wait predicate sees it.
    if (try_run_one(&self)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
  }
}

void ThreadPool::signal_work() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++epoch_;
  }
  wake_.notify_all();
}

// --- region execution -------------------------------------------------

bool ThreadPool::is_stale(std::uint64_t h) const {
  return slots_[slot_of(h)].generation.load(std::memory_order_seq_cst) !=
         gen_of(h);
}

void ThreadPool::execute_handle(std::uint64_t h) {
  RegionSlot& s = slots_[slot_of(h)];
  if (s.generation.load(std::memory_order_seq_cst) != gen_of(h)) return;
  s.executing.fetch_add(1, std::memory_order_seq_cst);
  // Re-check under the executing guard: the owner invalidates the
  // generation BEFORE waiting for executing == 0, so passing this second
  // check guarantees the owner is still waiting and the slot is live.
  if (s.generation.load(std::memory_order_seq_cst) != gen_of(h)) {
    s.executing.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  SEPSP_OBS_ONLY(PoolObs::get().tasks.add(1);)
  run_region(s);
  s.executing.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPool::run_region(RegionSlot& s) {
  for (;;) {
    if (s.cancelled.load(std::memory_order_relaxed)) return;
    const std::size_t start =
        s.cursor.fetch_add(s.grain, std::memory_order_relaxed);
    if (start >= s.end) return;
    const std::size_t stop = std::min(s.end, start + s.grain);
    SEPSP_OBS_ONLY(PoolObs::get().blocks.add(1);
                   SEPSP_TRACE_SPAN("pool.block");)
    try {
      (*s.body)(start, stop);
    } catch (...) {
      bool expected = false;
      if (s.has_error.compare_exchange_strong(expected, true)) {
        std::lock_guard<std::mutex> lock(s.error_mutex);
        s.error = std::current_exception();
      }
      s.cancelled.store(true, std::memory_order_relaxed);
    }
  }
}

ThreadPool::RegionSlot* ThreadPool::acquire_slot(std::size_t* index) {
  std::lock_guard<std::mutex> lock(slot_mutex_);
  if (free_slots_.empty()) return nullptr;
  *index = free_slots_.back();
  free_slots_.pop_back();
  return &slots_[*index];
}

void ThreadPool::parallel_blocks(std::size_t begin, std::size_t end,
                                 const BlockFn& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  if (grain == 0) {
    grain = std::max<std::size_t>(1, range / (8 * concurrency()));
  }
  if (workers_.empty() || range <= grain) {
    SEPSP_OBS_ONLY(PoolObs::get().inline_regions.add(1);)
    body(begin, end);
    return;
  }

  std::size_t slot_index = 0;
  RegionSlot* slot = acquire_slot(&slot_index);
  if (slot == nullptr) {
    // All region slots busy (pathologically deep nesting): degrade to an
    // inline loop, which is always correct.
    SEPSP_OBS_ONLY(PoolObs::get().inline_regions.add(1);)
    body(begin, end);
    return;
  }

  const bool nested =
      t_worker.pool == this && t_worker.worker != nullptr;
  SEPSP_OBS_ONLY(PoolObs::get().regions.add(1);
                 PoolObs::get().region_items.record(range);
                 if (nested) PoolObs::get().nested_regions.add(1);)

  slot->cursor.store(begin, std::memory_order_relaxed);
  slot->end = end;
  slot->grain = grain;
  slot->body = &body;
  slot->cancelled.store(false, std::memory_order_relaxed);
  slot->has_error.store(false, std::memory_order_relaxed);
  const std::uint64_t gen = slot->generation.load(std::memory_order_relaxed);
  const std::uint64_t handle = make_handle(slot_index, gen);

  // One helper handle per worker that could join, capped by the number
  // of blocks beyond the one the caller starts with.
  const std::size_t nblocks = (range + grain - 1) / grain;
  const std::size_t helpers =
      std::min<std::size_t>(worker_state_.size(), nblocks - 1);
  std::size_t pushed = 0;
  if (nested) {
    auto& deque = static_cast<Worker*>(t_worker.worker)->deque;
    for (; pushed < helpers && deque.push(handle); ++pushed) {
    }
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    for (; pushed < helpers; ++pushed) inject_.push_back(handle);
  }
  if (pushed > 0) signal_work();

  // Participate, then help-first join: while other participants finish
  // their last blocks, run any available task instead of blocking.
  run_region(*slot);
  slot->generation.fetch_add(1, std::memory_order_seq_cst);  // invalidate
  Worker* self = nested ? static_cast<Worker*>(t_worker.worker) : nullptr;
  while (slot->executing.load(std::memory_order_seq_cst) != 0) {
    if (!try_run_one(self)) std::this_thread::yield();
  }

  std::exception_ptr error;
  if (slot->has_error.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(slot->error_mutex);
    error = slot->error;
    slot->error = nullptr;
  }
  slot->body = nullptr;
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    free_slots_.push_back(static_cast<std::uint32_t>(slot_index));
  }

  // Drop this region's now-stale handles so deques don't silt up; the
  // first live handle encountered belongs to someone else — put it back.
  if (self != nullptr) {
    for (;;) {
      const std::uint64_t h = self->deque.pop();
      if (h == 0) break;
      if (!is_stale(h)) {
        self->deque.push(h);
        break;
      }
    }
  } else if (pushed > 0) {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    std::erase_if(inject_, [this](std::uint64_t h) { return is_stale(h); });
  }

  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  parallel_blocks(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

ThreadPool& ThreadPool::global() {
  // A value below 1 falls back to the hardware default, as unset does.
  static ThreadPool pool([] {
    const std::int64_t threads = env_int("SEPSP_THREADS", 0);
    return threads > 0 ? static_cast<unsigned>(threads) : 0u;
  }());
  SEPSP_OBS_ONLY(obs::gauge("pool.threads").set(
      static_cast<std::int64_t>(pool.concurrency()));)
  return pool;
}

}  // namespace sepsp::pram
