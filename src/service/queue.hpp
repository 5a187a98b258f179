// Bounded MPMC submission queue with batch pops — the coalescing front
// of the serving runtime.
//
// Producers (submit() callers) push one pending request under a single
// mutex hop; consumers (dispatcher threads) pop a *batch*: block for
// the first request, then take every request already queued behind it,
// oldest first, up to the dispatch cap, and return without waiting for
// more. A miss never waits for company: the batch is whatever queued
// up while the dispatchers were busy, so requests that arrive during a
// kernel run leave together in the next dispatch. One lock round-trip
// admits a request and one drains a whole dispatch, so the queue costs
// O(1) lock hops per request and per batch — lock-light in the sense
// that matters here (the relaxed ring alternatives save nanoseconds
// the 10^2..10^4-ns batch kernel cannot see, and a plain mutex is
// trivially TSan-clean).
//
// Admission control: push() reports failure instead of growing past
// the configured bound; the caller sheds the request.
//
// The closed flag is an atomic written under the mutex: push() and
// pop_batch() read it under the lock as before, and closed() reads it
// with no lock at all, so the submit path's stopped check (taken on
// every cache hit) never touches the queue mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "graph/digraph.hpp"
#include "service/reply.hpp"

namespace sepsp::service {

/// One admitted, not-yet-dispatched request.
struct Pending {
  Vertex source = 0;
  std::promise<Reply> promise;
  std::chrono::steady_clock::time_point enqueued;
  /// Resolve against the approximate engine (the dispatcher runs each
  /// mode's misses in its own kernel call; modes never share a block).
  bool approx = false;
};

class SubmitQueue {
 public:
  explicit SubmitQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits one request. Returns false — leaving `p` untouched — when
  /// the queue is at capacity (shed) or closed (stopped).
  bool push(Pending&& p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_.load(std::memory_order_relaxed) ||
          items_.size() >= capacity_) {
        return false;
      }
      items_.push_back(std::move(p));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    ready_.notify_one();
    return true;
  }

  /// Pops the next batch into `out` (cleared first): blocks until a
  /// request arrives or the queue closes, then takes every request
  /// already queued, oldest first, up to `max` (> 0), without waiting
  /// for more. Returns false only when the queue is closed *and*
  /// drained — the dispatcher's exit condition; every admitted request
  /// is delivered to some batch first.
  bool pop_batch(std::vector<Pending>& out, std::size_t max) {
    out.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] {
      return closed_.load(std::memory_order_relaxed) || !items_.empty();
    });
    while (out.size() < max && !items_.empty()) out.push_back(take_front());
    return !out.empty();
  }

  /// Stops admissions and wakes every blocked consumer; already-queued
  /// requests are still handed out by pop_batch until drained.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_release);
    }
    ready_.notify_all();
  }

  /// Lock-free: a request that reads false here can still be rejected
  /// by push(), whose check under the lock is the authoritative one.
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// High-water mark of the queue depth since construction.
  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  Pending take_front() {
    Pending p = std::move(items_.front());
    items_.pop_front();
    return p;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Pending> items_;
  std::size_t peak_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace sepsp::service
