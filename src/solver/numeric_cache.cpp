#include "solver/numeric_cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/trace.hpp"
#include "solver/fnv1a.hpp"
#include "support/check.hpp"

namespace treemem {

std::uint64_t value_fingerprint(const std::vector<double>& values) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const double value : values) {
    fnv1a_mix(h, std::bit_cast<std::uint64_t>(value));
  }
  return h;
}

std::uint64_t NumericCache::bucket_key(std::uint64_t pattern_key,
                                       std::uint64_t value_key) {
  // Mix rather than xor so (a, b) and (b, a) land in different buckets.
  return pattern_key * 0x9e3779b97f4a7c15ULL + value_key;
}

Weight NumericCache::evict_lru_locked() {
  std::shared_ptr<Entry> victim = lru_.back();
  lru_.pop_back();
  const std::uint64_t key =
      bucket_key(victim->pattern_key, victim->value_key);
  std::vector<std::shared_ptr<Entry>>& bucket = entries_[key];
  bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
  if (bucket.empty()) {
    entries_.erase(key);
  }
  --entry_count_;
  resident_charge_ -= victim->charge;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.instant("factor_evict", "cache", obs::TraceRecorder::kNoLane,
                     "freed_charge", static_cast<long long>(victim->charge));
  }
  return victim->charge;
}

std::shared_ptr<const CholeskyFactor> NumericCache::lookup(
    std::uint64_t pattern_key, const std::vector<double>& values) {
  if (!enabled()) {
    return nullptr;
  }
  const std::uint64_t value_key = value_fingerprint(values);
  const std::uint64_t key = bucket_key(pattern_key, value_key);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto bucket = entries_.find(key);
  if (bucket != entries_.end()) {
    for (const std::shared_ptr<Entry>& entry : bucket->second) {
      if (entry->pattern_key == pattern_key &&
          entry->value_key == value_key && entry->values == values) {
        lru_.splice(lru_.begin(), lru_, entry->lru_pos);  // touch
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
        if (recorder.enabled()) {
          recorder.instant("factor_hit", "cache");
        }
        return entry->factor;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.instant("factor_miss", "cache");
  }
  return nullptr;
}

bool NumericCache::insert(std::uint64_t pattern_key,
                          std::vector<double> values,
                          std::shared_ptr<const CholeskyFactor> factor,
                          Weight charge) {
  TM_CHECK(factor != nullptr, "NumericCache::insert: factor must be non-null");
  TM_CHECK(charge >= 0, "NumericCache::insert: charge must be >= 0");
  if (!enabled()) {
    return false;
  }
  const std::uint64_t value_key = value_fingerprint(values);
  const std::uint64_t key = bucket_key(pattern_key, value_key);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Entry>>& bucket = entries_[key];
  for (const std::shared_ptr<Entry>& entry : bucket) {
    if (entry->pattern_key == pattern_key && entry->value_key == value_key &&
        entry->values == values) {
      return false;  // already cached (first factor wins; they are equal)
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->pattern_key = pattern_key;
  entry->value_key = value_key;
  entry->values = std::move(values);
  entry->factor = std::move(factor);
  entry->charge = charge;
  bucket.push_back(entry);
  lru_.push_front(entry);
  entry->lru_pos = lru_.begin();
  ++entry_count_;
  resident_charge_ += charge;
  while (entry_count_ > options_.max_entries) {
    freed_charge_ += evict_lru_locked();
  }
  return true;
}

Weight NumericCache::evict_lru() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lru_.empty()) {
    return 0;
  }
  return evict_lru_locked();
}

Weight NumericCache::take_freed_charge() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(freed_charge_, 0);
}

Weight NumericCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  Weight freed = resident_charge_ + freed_charge_;
  entries_.clear();
  lru_.clear();
  entry_count_ = 0;
  resident_charge_ = 0;
  freed_charge_ = 0;
  return freed;
}

NumericCache::Stats NumericCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.entries = entry_count_;
    stats.resident_charge = resident_charge_;
  }
  return stats;
}

}  // namespace treemem
