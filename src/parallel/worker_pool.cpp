#include "parallel/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/parallel_for.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace treemem {

namespace {

/// Pins the calling thread to one cpu. Best-effort: a failed affinity call
/// (cgroup mask, exotic topology) silently leaves the thread floating —
/// placement is a performance hint, never a correctness requirement.
void pin_to_cpu(unsigned cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerLease
// ---------------------------------------------------------------------------

WorkerLease::WorkerLease(WorkerPool* pool, std::vector<unsigned> slots)
    : pool_(pool), slots_(std::move(slots)) {}

WorkerLease::WorkerLease(WorkerLease&& other) noexcept
    : pool_(other.pool_), slots_(std::move(other.slots_)) {
  other.pool_ = nullptr;
  other.slots_.clear();
}

WorkerLease& WorkerLease::operator=(WorkerLease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = other.pool_;
    slots_ = std::move(other.slots_);
    other.pool_ = nullptr;
    other.slots_.clear();
  }
  return *this;
}

WorkerLease::~WorkerLease() { release(); }

void WorkerLease::release() {
  if (pool_ != nullptr && !slots_.empty()) {
    pool_->release_reserved(slots_);
  }
  slots_.clear();
  pool_ = nullptr;
}

void WorkerLease::run(std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    release();
    return;
  }
  if (slots_.empty()) {
    // Empty lease (none were idle, or the caller asked for 0): the inline
    // path, same contract — every index once, first exception rethrown.
    release();
    std::exception_ptr inline_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!inline_error) {
          inline_error = std::current_exception();
        }
      }
    }
    if (inline_error) {
      std::rethrow_exception(inline_error);
    }
    return;
  }

  // Shared loop state. Heap-allocated via shared_ptr: a worker may still
  // be inside its drain wrapper (after its last fetch_add, before its
  // final deref) when the caller's wait is satisfied, so the state must
  // outlive this frame by reference count, not by scope.
  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t active = 0;  ///< leased workers still draining
  };
  auto state = std::make_shared<LoopState>();
  state->count = count;
  state->body = &body;
  state->active = slots_.size();

  auto drain = [](const std::shared_ptr<LoopState>& s) {
    while (true) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->count) {
        return;
      }
      try {
        (*s->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s->error_mutex);
        if (!s->first_error) {
          s->first_error = std::current_exception();
        }
      }
    }
  };

  WorkerPool& pool = *pool_;
  {
    std::lock_guard<std::mutex> lock(pool.mutex_);
    for (const unsigned slot : slots_) {
      pool.arm_locked(slot, [state, drain] {
        drain(state);
        std::lock_guard<std::mutex> done_lock(state->done_mutex);
        if (--state->active == 0) {
          state->done_cv.notify_all();
        }
      });
    }
  }
  // The workers self-return to the pool as their wrappers finish; this
  // lease no longer owns them.
  slots_.clear();
  pool_ = nullptr;

  drain(state);  // the calling thread is always a participant
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&] { return state->active == 0; });
  }
  if (state->first_error) {
    std::rethrow_exception(state->first_error);
  }
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

WorkerPool::WorkerPool(unsigned size) {
  // TREEMEM_AFFINITY resolves exactly once, here — never on a lease path.
  // Strict parse: only 0 or 1, anything else throws before any thread is
  // born.
  if (const std::optional<long long> env = env_int("TREEMEM_AFFINITY", 0, 1)) {
    affinity_ = (*env == 1);
  }
  const unsigned n = std::max(1u, size);
  slots_.reserve(n);
  idle_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // All slots exist before any thread starts: worker_main indexes slots_.
  for (unsigned i = 0; i < n; ++i) {
    slots_[i]->thread = std::thread([this, i] { worker_main(i); });
    idle_.push_back(i);
  }
  threads_spawned_.store(static_cast<long long>(n),
                         std::memory_order_relaxed);
}

WorkerPool& WorkerPool::instance() {
  // Meyers singleton: sized on first use from the resolved-once thread
  // count (TREEMEM_THREADS / hardware_concurrency, capped at 1024 by
  // default_thread_count), torn down at static destruction — after which
  // no treemem code runs, so the destructor's drain-and-join is safe.
  static WorkerPool pool(default_thread_count());
  // The process pool's counters in the metrics exposition. Registered
  // after `pool`, so the registry outlives nothing that dumps it: it is
  // destroyed first at teardown, taking the exporter (and its pool
  // reference) with it. Private pools (tests, benches) stay unregistered
  // — process metrics describe the process pool.
  static const bool exporter_registered = [] {
    obs::MetricsRegistry::instance().add_exporter([] {
      const WorkerPoolStats s = pool.stats();
      std::string text;
      text += obs::format_gauge("treemem_pool_threads_spawned", "",
                                static_cast<double>(s.threads_spawned));
      text += obs::format_counter("treemem_pool_leases_granted_total", "",
                                  s.leases_granted);
      text += obs::format_counter("treemem_pool_leases_denied_total", "",
                                  s.leases_denied);
      text += obs::format_counter("treemem_pool_workers_leased_total", "",
                                  s.workers_leased);
      text += obs::format_counter("treemem_pool_workers_dispatched_total", "",
                                  s.workers_dispatched);
      return text;
    });
    return true;
  }();
  (void)exporter_registered;
  return pool;
}

unsigned WorkerPool::idle_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(idle_.size());
}

void WorkerPool::worker_main(unsigned slot_index) {
  if (affinity_) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    pin_to_cpu(slot_index % hw);
  }
  Slot& slot = *slots_[slot_index];
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    slot.cv.wait(lock, [&] { return stopping_ || slot.job != nullptr; });
    if (slot.job) {
      std::function<void()> job = std::move(slot.job);
      slot.job = nullptr;
      lock.unlock();
      {
        obs::TraceSpan stint("stint", "pool", obs::TraceRecorder::kNoLane,
                             "slot", static_cast<long long>(slot_index));
        job();  // must not throw (documented contract of dispatch/lease jobs)
      }
      lock.lock();
      park_locked(slot_index);
      continue;  // re-check: a stop may have been requested meanwhile
    }
    return;  // stopping_ with no job
  }
}

void WorkerPool::park_locked(unsigned slot_index) {
  Slot& slot = *slots_[slot_index];
  if (slot.state == SlotState::kRunning) {
    --running_;
  }
  slot.state = SlotState::kIdle;
  idle_.push_back(slot_index);
  if (running_ == 0) {
    quiescent_cv_.notify_all();
  }
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  quiescent_cv_.wait(lock, [&] { return running_ == 0; });
}

WorkerLease WorkerPool::try_lease(unsigned max_workers) {
  std::vector<unsigned> claimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      while (claimed.size() < max_workers && !idle_.empty()) {
        const unsigned slot = idle_.back();
        idle_.pop_back();
        slots_[slot]->state = SlotState::kReserved;
        claimed.push_back(slot);
      }
    }
    if (claimed.empty()) {
      if (max_workers > 0) {
        leases_denied_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      leases_granted_.fetch_add(1, std::memory_order_relaxed);
      workers_leased_.fetch_add(static_cast<long long>(claimed.size()),
                                std::memory_order_relaxed);
    }
  }
  // Emitted outside the pool lock; denied leases are the instants that
  // explain an inline panel on the timeline.
  if (max_workers > 0) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    if (recorder.enabled()) {
      recorder.instant(claimed.empty() ? "lease_deny" : "lease_grant", "pool",
                       obs::TraceRecorder::kNoLane, "requested",
                       static_cast<long long>(max_workers), "granted",
                       static_cast<long long>(claimed.size()));
    }
  }
  return WorkerLease(this, std::move(claimed));
}

void WorkerPool::arm_locked(unsigned slot_index, std::function<void()> job) {
  Slot& slot = *slots_[slot_index];
  slot.state = SlotState::kRunning;
  ++running_;
  slot.job = std::move(job);
  slot.cv.notify_one();
}

unsigned WorkerPool::try_dispatch(unsigned max_workers,
                                  const std::function<void()>& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return 0;
  }
  unsigned claimed = 0;
  while (claimed < max_workers && !idle_.empty()) {
    const unsigned slot = idle_.back();
    idle_.pop_back();
    arm_locked(slot, job);
    ++claimed;
  }
  workers_dispatched_.fetch_add(static_cast<long long>(claimed),
                                std::memory_order_relaxed);
  return claimed;
}

void WorkerPool::release_reserved(const std::vector<unsigned>& slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const unsigned slot : slots) {
    TM_ASSERT(slots_[slot]->state == SlotState::kReserved,
              "releasing a worker that is not reserved");
    park_locked(slot);
  }
}

WorkerPoolStats WorkerPool::stats() const {
  WorkerPoolStats s;
  s.threads_spawned = threads_spawned_.load(std::memory_order_relaxed);
  s.leases_granted = leases_granted_.load(std::memory_order_relaxed);
  s.leases_denied = leases_denied_.load(std::memory_order_relaxed);
  s.workers_leased = workers_leased_.load(std::memory_order_relaxed);
  s.workers_dispatched = workers_dispatched_.load(std::memory_order_relaxed);
  return s;
}

void WorkerPool::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (slots_.empty()) {
    return;  // already shut down
  }
  // Running workers re-park on their own; only a reserved one is a bug.
  quiescent_cv_.wait(lock, [&] { return running_ == 0; });
  TM_CHECK(idle_.size() == slots_.size(),
           "WorkerPool::shutdown: " << slots_.size() - idle_.size()
                                    << " of " << slots_.size()
                                    << " workers still leased — release all "
                                       "leases before tearing the pool "
                                       "down");
  stopping_ = true;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    slot->cv.notify_all();
  }
  // Workers need mutex_ to observe stopping_ — join unlocked.
  lock.unlock();
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
  lock.lock();
  slots_.clear();
  idle_.clear();
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (slots_.empty()) {
      return;  // shutdown() already ran
    }
    // Outstanding dispatches self-park when their jobs return; reserved
    // (leased) workers park when their lease releases. Waiting here is the
    // no-throw destructor's only option — callers should release leases
    // first (RAII ordering does this naturally).
    quiescent_cv_.wait(lock,
                       [&] { return idle_.size() == slots_.size(); });
    stopping_ = true;
    for (const std::unique_ptr<Slot>& slot : slots_) {
      slot->cv.notify_all();
    }
  }
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
}

}  // namespace treemem
