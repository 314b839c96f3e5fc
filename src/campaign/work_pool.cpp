#include "campaign/work_pool.hpp"

#include <utility>

namespace ftsched::campaign {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

WorkPool::WorkPool(unsigned threads) {
  const unsigned count = resolve_threads(threads);
  slots_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  if (count == 1) return;  // wait() runs the tasks on the caller
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkPool::~WorkPool() {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkPool::submit(std::function<void()> task) {
  std::size_t slot;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++pending_;
    slot = next_slot_;
    next_slot_ = (next_slot_ + 1) % slots_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
    slots_[slot]->tasks.push_back(std::move(task));
  }
  {
    // The queued_ increment must happen under state_mutex_ (after the task
    // is visible in its deque) or a worker could check the wait predicate,
    // miss the count, and sleep through the notify.
    const std::lock_guard<std::mutex> lock(state_mutex_);
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_ready_.notify_one();
}

std::function<void()> WorkPool::take(std::size_t self) {
  // Own deque first, back (most recently dealt, cache-warm)...
  {
    Slot& mine = *slots_[self];
    const std::lock_guard<std::mutex> lock(mine.mutex);
    if (!mine.tasks.empty()) {
      std::function<void()> task = std::move(mine.tasks.back());
      mine.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  // ...then steal from the front of the other deques, oldest first.
  for (std::size_t step = 1; step < slots_.size(); ++step) {
    Slot& victim = *slots_[(self + step) % slots_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void WorkPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task = take(self);
    if (!task) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (stopping_) return;
      // Sleep until a task is queued somewhere or the pool shuts down. A
      // stale positive queued_ (another worker grabbed the task between
      // our take() and this check) just loops through one more empty
      // take(); a sleep with queued_ == 0 is safe because submit() bumps
      // the count under this same mutex before notifying.
      work_ready_.wait(lock, [this] {
        return stopping_ ||
               queued_.load(std::memory_order_relaxed) > 0;
      });
      if (stopping_) return;
      continue;
    }
    execute(task);
  }
}

void WorkPool::execute(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  const std::lock_guard<std::mutex> lock(state_mutex_);
  --pending_;
  if (pending_ == 0) all_done_.notify_all();
}

void WorkPool::wait() {
  if (workers_.empty()) {
    while (std::function<void()> task = take(0)) execute(task);
  }
  std::unique_lock<std::mutex> lock(state_mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exception_ptr();
    std::swap(error, first_error_);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace ftsched::campaign
