#include "solver/symbolic_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "solver/fnv1a.hpp"

namespace treemem {

namespace {

std::size_t pattern_bytes(const SparsePattern& pattern) {
  return pattern.col_ptr().size() * sizeof(std::int64_t) +
         pattern.row_idx().size() * sizeof(Index);
}

}  // namespace

std::uint64_t pattern_fingerprint(const SparsePattern& pattern) {
  std::uint64_t h = kFnv1aOffsetBasis;
  fnv1a_mix(h, static_cast<std::uint64_t>(pattern.rows()));
  fnv1a_mix(h, static_cast<std::uint64_t>(pattern.cols()));
  for (const auto p : pattern.col_ptr()) {
    fnv1a_mix(h, static_cast<std::uint64_t>(p));
  }
  for (const auto r : pattern.row_idx()) {
    fnv1a_mix(h, static_cast<std::uint64_t>(r));
  }
  return h;
}

std::size_t approx_symbolic_bytes(const SolverSymbolic& symbolic) {
  if (!symbolic) {
    return 0;
  }
  const SolverAnalysis& a = *symbolic.analysis;
  const SolverPlan& p = *symbolic.plan;
  std::size_t bytes = sizeof(SolverAnalysis) + sizeof(SolverPlan);
  bytes += pattern_bytes(a.pattern) + pattern_bytes(a.permuted_pattern);
  bytes += a.perm.size() * sizeof(Index);
  bytes += a.permuted_value_map.size() * sizeof(std::size_t);
  const Tree& tree = a.assembly.tree;
  bytes += static_cast<std::size_t>(tree.size()) *
           (sizeof(NodeId) * 3 + sizeof(Weight) * 3);  // parent/child/bfs,
                                                       // file/work/child-sum
  bytes += a.assembly.supernode_of.size() * sizeof(NodeId);
  bytes += (a.assembly.eta.size() + a.assembly.mu.size()) * sizeof(Index);
  // The factor structure: the tree's own copy of the pattern, L's pattern
  // and the member lists.
  bytes += pattern_bytes(a.assembly.pattern) +
           pattern_bytes(a.assembly.factor_pattern);
  bytes += (a.assembly.member_ptr.size() + a.assembly.members.size()) *
           sizeof(Index);
  bytes += p.bottom_up_order.size() * sizeof(NodeId);
  bytes += p.io_schedule.order.size() * sizeof(NodeId);
  bytes += p.io_schedule.writes.size() * sizeof(IoWrite);
  return bytes;
}

void SymbolicCache::evict_lru_locked() {
  std::shared_ptr<Entry> victim = lru_.back();
  lru_.pop_back();
  std::vector<std::shared_ptr<Entry>>& bucket = entries_[victim->key];
  bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
  if (bucket.empty()) {
    entries_.erase(victim->key);
  }
  victim->in_map = false;
  if (victim->charged) {
    resident_bytes_ -= victim->bytes;
  }
  --entry_count_;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.instant("symbolic_evict", "cache", obs::TraceRecorder::kNoLane,
                     "entries", static_cast<long long>(entry_count_));
  }
}

void SymbolicCache::enforce_caps_locked() {
  while (!lru_.empty() &&
         ((options_.max_entries > 0 && entry_count_ > options_.max_entries) ||
          (options_.max_bytes > 0 && resident_bytes_ > options_.max_bytes))) {
    evict_lru_locked();
  }
}

std::shared_ptr<SymbolicCache::Entry> SymbolicCache::find_or_create(
    const SparsePattern& pattern) {
  const std::uint64_t key = pattern_fingerprint(pattern);
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::vector<std::shared_ptr<Entry>>& bucket = entries_[key];
  for (const std::shared_ptr<Entry>& candidate : bucket) {
    if (candidate->pattern == pattern) {
      lru_.splice(lru_.begin(), lru_, candidate->lru_pos);  // touch
      return candidate;
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->pattern = pattern;
  entry->key = key;
  bucket.push_back(entry);
  lru_.push_front(entry);
  entry->lru_pos = lru_.begin();
  ++entry_count_;
  // Enforce at insertion so the entry count never exceeds the cap, not
  // even while this entry's build is still in flight.
  enforce_caps_locked();
  return entry;
}

void SymbolicCache::charge_entry(const std::shared_ptr<Entry>& entry,
                                 std::size_t bytes) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  if (!entry->in_map || entry->charged) {
    return;  // evicted while building, or another thread charged it
  }
  entry->charged = true;
  entry->bytes = bytes;
  resident_bytes_ += bytes;
  enforce_caps_locked();
}

SymbolicCache::LookupResult SymbolicCache::lookup(
    const SparsePattern& pattern) {
  std::shared_ptr<Entry> entry = find_or_create(pattern);

  // Build (or wait for the builder) under the entry's own mutex. A failed
  // build leaves `symbolic` empty, so the next lookup simply retries —
  // the cache is never poisoned by a throwing analyze/plan. Hit/miss is
  // decided HERE, by whether a build actually runs: an entry whose first
  // build threw is a miss again on retry (it rebuilds), never a hit.
  std::unique_lock<std::mutex> lock(entry->build_mutex);
  const bool need_build = !entry->symbolic;
  (need_build ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.instant(need_build ? "symbolic_miss" : "symbolic_hit", "cache");
  }
  if (need_build) {
    Solver builder;
    builder.analyze(entry->pattern, options_.analyze).plan(options_.plan);
    entry->symbolic = builder.symbolic();
  }
  LookupResult result{entry->symbolic, !need_build};
  lock.unlock();
  if (need_build) {
    charge_entry(entry, approx_symbolic_bytes(result.symbolic));
  }
  return result;
}

bool SymbolicCache::insert(SolverSymbolic symbolic) {
  TM_CHECK(static_cast<bool>(symbolic),
           "SymbolicCache::insert: symbolic state must carry both an "
           "analysis and a plan");
  std::shared_ptr<Entry> entry = find_or_create(symbolic.analysis->pattern);
  std::size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(entry->build_mutex);
    if (entry->symbolic) {
      return false;  // already built (first state wins)
    }
    entry->symbolic = std::move(symbolic);
    bytes = approx_symbolic_bytes(entry->symbolic);
  }
  charge_entry(entry, bytes);
  return true;
}

std::vector<SolverSymbolic> SymbolicCache::snapshot() const {
  // Collect the entries under the map lock, then read each `symbolic`
  // under its own build lock (never both at once — same discipline as
  // lookup(), so snapshotting cannot deadlock against builders).
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    entries.reserve(entry_count_);
    for (const std::shared_ptr<Entry>& entry : lru_) {
      entries.push_back(entry);
    }
  }
  std::vector<SolverSymbolic> result;
  result.reserve(entries.size());
  for (const std::shared_ptr<Entry>& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->build_mutex);
    if (entry->symbolic) {
      result.push_back(entry->symbolic);
    }
  }
  return result;
}

Solver SymbolicCache::acquire(const SparsePattern& pattern,
                              const FactorizeOptions& factorize) {
  Solver solver(SolverOptions{options_.analyze, options_.plan, factorize});
  solver.adopt(lookup(pattern).symbolic);
  return solver;
}

SymbolicCache::Stats SymbolicCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    stats.entries = entry_count_;
    stats.resident_bytes = resident_bytes_;
  }
  return stats;
}

void SymbolicCache::clear() {
  std::lock_guard<std::mutex> lock(map_mutex_);
  for (const std::shared_ptr<Entry>& entry : lru_) {
    entry->in_map = false;
  }
  entries_.clear();
  lru_.clear();
  entry_count_ = 0;
  resident_bytes_ = 0;
  // One epoch per clear(): post-clear hit rates must not mix with the
  // pre-clear counters (the satellite bugfix this PR pins with a test).
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace treemem
