// Minimal work-stealing thread pool — the first threading in the
// codebase, introduced for the fault-injection campaign: scenario batches
// are embarrassingly parallel (Simulator::run is const and reentrant), but
// their costs are wildly uneven (a 1-iteration failure-free plan vs an
// 8-iteration cascade with link deaths), so idle workers steal from busy
// ones instead of waiting at a static partition.
//
// Design: each worker owns a deque; submit() deals tasks round-robin;
// a worker pops from the back of its own deque (LIFO, cache-warm) and
// steals from the front of a victim's (FIFO, oldest first). One mutex per
// deque — contention is negligible because campaign tasks are chunky
// (hundreds of simulator runs each), and the simplicity keeps the pool
// obviously correct under TSan.
//
// The pool is single-session: submit tasks, then wait(); wait() rethrows
// the first task exception. Destruction joins all workers. A pool of one
// thread spawns none: wait() runs the tasks on the caller, in the order a
// lone worker would take them, so callers keep one code path for every
// thread count without paying a thread hand-off at 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ftsched::campaign {

/// Worker threads to use for `requested`: 0 resolves to the hardware
/// concurrency (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested);

class WorkPool {
 public:
  /// Spawns resolve_threads(threads) workers, idle until tasks arrive —
  /// none when that is 1 (see the header comment).
  explicit WorkPool(unsigned threads);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Enqueues `task` on the next worker's deque (round-robin).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception a task threw (if any). The pool is reusable after.
  void wait();

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] std::function<void()> take(std::size_t self);
  /// Runs one taken task, recording its exception, and retires it.
  void execute(const std::function<void()>& task);

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;   // submitted, not yet finished
  /// Tasks sitting in some deque, not yet taken. Incremented under
  /// state_mutex_ (the condition-variable handshake needs that), read by
  /// the idle-worker wait predicate, decremented by take() — so an idle
  /// worker's wakeup check is one atomic load instead of locking every
  /// deque mutex in turn, which serialized the workers of large pools
  /// exactly when tasks were being dealt.
  std::atomic<std::size_t> queued_{0};
  std::size_t next_slot_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace ftsched::campaign
