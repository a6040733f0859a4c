// Service layer round two: LRU/size-capped eviction in SymbolicCache,
// symbolic persistence (warm restarts) and the numeric-factor cache in
// SolverPool — plus three cache-stats bugfix regressions:
//
//   * lookup() counted a retry after a FAILED build as a hit (the entry
//     existed, so hits_ incremented and hit=true came back while the
//     build actually re-ran) — hits/misses now follow whether a build
//     ran under the entry's build_mutex;
//   * clear() zeroed the entry count but kept hits_/misses_ cumulative,
//     so post-clear hit rates mixed epochs — clear() now starts a fresh
//     epoch;
//   * aggregate_solver_stats dropped planned_peak_entries (pool reports
//     showed planned peak 0 while admission charged real plans) — it now
//     aggregates by max.
//
// The churn suite runs under TSan in CI (this binary is in the TSan
// target list): rotating lookups above the entry cap race against
// clear() with no lost builds and entries <= cap at every observation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "perf/traffic.hpp"
#include "solver/numeric_cache.hpp"
#include "solver/solver.hpp"
#include "solver/solver_pool.hpp"
#include "solver/symbolic_cache.hpp"
#include "solver/symbolic_store.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

std::vector<double> seeded_rhs(Index n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) {
    v = prng.uniform_real(-1.0, 1.0);
  }
  return rhs;
}

void expect_bit_identical_factor(const SolverSymbolic& symbolic,
                                 const SparsePattern& pattern,
                                 std::uint64_t value_seed) {
  const SymmetricMatrix matrix = make_spd_matrix(pattern, value_seed);
  Solver warm;
  warm.adopt(symbolic);
  warm.factorize(matrix);
  Solver cold;
  cold.analyze(pattern).plan().factorize(matrix);
  ASSERT_EQ(warm.factor().values, cold.factor().values);
}

// A structurally valid CSC pattern that is NOT symmetric: analyze()
// rejects it, so every lookup of it is a build that throws.
SparsePattern asymmetric_pattern() {
  return SparsePattern(2, 2, {0, 2, 3}, {0, 1, 1});
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST(SymbolicCacheEviction, LruEvictsAtEntryCapAndCountsIt) {
  const SparsePattern a = symmetrize(gen::grid2d(5, 5));
  const SparsePattern b = symmetrize(gen::grid2d(6, 6));
  const SparsePattern c = symmetrize(gen::grid2d(7, 7));

  SymbolicCacheOptions options;
  options.max_entries = 2;
  SymbolicCache cache(options);

  cache.lookup(a);
  cache.lookup(b);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.lookup(a);  // touch: b is now the LRU
  cache.lookup(c);  // evicts b
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup(a).hit);   // survived (recently used)
  EXPECT_FALSE(cache.lookup(b).hit);  // evicted: rebuilt on this miss
}

TEST(SymbolicCacheEviction, MaxBytesCapBoundsResidentBytes) {
  const SparsePattern a = symmetrize(gen::grid2d(6, 6));
  const SparsePattern b = symmetrize(gen::grid2d(8, 8));
  SymbolicCache probe;
  const std::size_t a_bytes = approx_symbolic_bytes(probe.lookup(a).symbolic);
  const std::size_t b_bytes = approx_symbolic_bytes(probe.lookup(b).symbolic);
  ASSERT_GT(a_bytes, 0u);

  // The estimate counts the factor structure the tree holds (L's pattern,
  // the member lists, the tree's copy of the pattern): stripping it lowers
  // the estimate by at least nnz(L) indices.
  const SolverSymbolic a_state = probe.lookup(a).symbolic;
  auto stripped = std::make_shared<SolverAnalysis>(*a_state.analysis);
  stripped->assembly.pattern = SparsePattern();
  stripped->assembly.factor_pattern = SparsePattern();
  stripped->assembly.member_ptr.clear();
  stripped->assembly.members.clear();
  const std::size_t stripped_bytes =
      approx_symbolic_bytes(SolverSymbolic{stripped, a_state.plan});
  EXPECT_GE(a_bytes - stripped_bytes,
            static_cast<std::size_t>(a_state.analysis->factor_nnz) *
                sizeof(Index));

  SymbolicCacheOptions options;
  options.max_bytes = a_bytes + b_bytes / 2;  // room for one, not both
  SymbolicCache cache(options);
  cache.lookup(a);
  cache.lookup(b);
  const SymbolicCache::Stats stats = cache.stats();
  EXPECT_LE(stats.resident_bytes, options.max_bytes);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1);
}

TEST(SymbolicCacheEviction, InFlightStateSurvivesEviction) {
  const SparsePattern a = symmetrize(gen::grid2d(6, 6));
  const SparsePattern b = symmetrize(gen::grid2d(7, 7));

  SymbolicCacheOptions options;
  options.max_entries = 1;
  SymbolicCache cache(options);

  const SolverSymbolic held = cache.lookup(a).symbolic;
  cache.lookup(b);  // evicts a's entry while we still hold its state
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(static_cast<bool>(held));
  expect_bit_identical_factor(held, a, 21);  // shared_ptr kept it alive
}

// ---------------------------------------------------------------------------
// Satellite bugfix regressions
// ---------------------------------------------------------------------------

TEST(SymbolicCacheStats, FailedBuildCountsMissNeverHit) {
  SymbolicCache cache;
  const SparsePattern bad = asymmetric_pattern();

  // First attempt: the build throws; the lookup is a miss.
  EXPECT_THROW(cache.lookup(bad), Error);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);

  // Retry: the entry exists but holds no built state — the build re-runs
  // (and throws again), so this is a miss too. The pre-fix code counted
  // it as a hit and returned hit=true while rebuilding.
  EXPECT_THROW(cache.lookup(bad), Error);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);

  // A valid pattern behaves normally next to the poisoned entry: one
  // miss to build, hits ever after.
  const SparsePattern good = symmetrize(gen::grid2d(5, 5));
  EXPECT_FALSE(cache.lookup(good).hit);
  EXPECT_TRUE(cache.lookup(good).hit);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SymbolicCacheStats, ClearResetsCountersWithEntries) {
  const SparsePattern a = symmetrize(gen::grid2d(5, 5));
  SymbolicCache cache;
  cache.lookup(a);
  cache.lookup(a);
  ASSERT_EQ(cache.stats().hits, 1);
  ASSERT_EQ(cache.stats().misses, 1);

  cache.clear();
  const SymbolicCache::Stats cleared = cache.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.resident_bytes, 0u);
  // The fresh epoch: pre-clear hits/misses no longer pollute post-clear
  // hit-rate computations (the pre-fix counters were cumulative).
  EXPECT_EQ(cleared.hits, 0);
  EXPECT_EQ(cleared.misses, 0);
  EXPECT_EQ(cleared.evictions, 0);

  EXPECT_FALSE(cache.lookup(a).hit);  // cold again after clear
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(SolverPoolStats, AggregateCarriesPlannedPeaks) {
  SolverStats a;
  a.planned_peak_entries = 120;
  a.modeled_peak_entries = 100;
  SolverStats b;
  b.planned_peak_entries = 200;
  b.modeled_peak_entries = 80;

  const SolverStats total = aggregate_solver_stats({a, b});
  // Pre-fix: the planned peak silently aggregated to 0.
  EXPECT_EQ(total.planned_peak_entries, 200);
  EXPECT_EQ(total.modeled_peak_entries, 100);
}

TEST(SolverPoolStats, PoolAggregateReportsRealPlannedPeak) {
  const SparsePattern pattern = symmetrize(gen::grid2d(7, 7));
  SolverPoolOptions options;
  options.workers = 2;
  SolverPool pool(options);
  SolveRequest request;
  request.matrix = make_spd_matrix(pattern, 3);
  request.rhs = {seeded_rhs(pattern.cols(), 3)};
  pool.solve(std::move(request));

  Solver probe;
  probe.analyze(pattern).plan();
  EXPECT_EQ(pool.aggregated_stats().planned_peak_entries,
            probe.stats().planned_peak_entries);
  EXPECT_GT(pool.aggregated_stats().planned_peak_entries, 0);
}

// ---------------------------------------------------------------------------
// Concurrent churn: rotation above the cap racing clear()
// ---------------------------------------------------------------------------

TEST(SymbolicCacheChurn, RotationAboveCapWithClearLosesNothing) {
  std::vector<SparsePattern> patterns;
  for (int base = 4; base < 9; ++base) {  // 5 patterns > max_entries
    patterns.push_back(symmetrize(gen::grid2d(base, base)));
  }
  SymbolicCacheOptions options;
  options.max_entries = 2;
  SymbolicCache cache(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> cap_violations{0};
  std::atomic<int> empty_results{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t p = static_cast<std::size_t>(t + round) %
                              patterns.size();
        const SolverSymbolic symbolic = cache.lookup(patterns[p]).symbolic;
        if (!symbolic) {
          empty_results.fetch_add(1);  // a lost build
        }
        if (cache.stats().entries > options.max_entries) {
          cap_violations.fetch_add(1);  // cap must hold at ALL times
        }
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load()) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) {
    worker.join();
  }
  stop.store(true);
  clearer.join();

  EXPECT_EQ(empty_results.load(), 0);
  EXPECT_EQ(cap_violations.load(), 0);
  EXPECT_LE(cache.stats().entries, options.max_entries);

  // Factors from churned state are bit-identical to cold runs.
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    expect_bit_identical_factor(cache.lookup(patterns[p]).symbolic,
                                patterns[p],
                                static_cast<std::uint64_t>(p) + 1);
  }
}

// ---------------------------------------------------------------------------
// Persistence: warm restarts
// ---------------------------------------------------------------------------

class SymbolicStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest runs this fixture's tests
    // as concurrent processes, and under ASan every process lays out its
    // heap alike, so the fixture's address would not tell them apart.
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("treemem_store_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SymbolicStoreTest, FileRoundTripPreservesStateBitExactly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  SymbolicCache cache;
  const SolverSymbolic original = cache.lookup(pattern).symbolic;

  std::filesystem::create_directories(dir_);
  const std::string path = (dir_ / "state.tmsym").string();
  write_symbolic_file(original, path);
  const SolverSymbolic loaded = read_symbolic_file(path);

  ASSERT_TRUE(static_cast<bool>(loaded));
  EXPECT_EQ(loaded.analysis->perm, original.analysis->perm);
  EXPECT_EQ(loaded.analysis->permuted_value_map,
            original.analysis->permuted_value_map);
  EXPECT_EQ(loaded.analysis->factor_nnz, original.analysis->factor_nnz);
  EXPECT_EQ(loaded.plan->bottom_up_order, original.plan->bottom_up_order);
  EXPECT_EQ(loaded.plan->strategy, original.plan->strategy);
  EXPECT_EQ(loaded.plan->planned_peak_entries,
            original.plan->planned_peak_entries);
  expect_bit_identical_factor(loaded, pattern, 77);
}

TEST_F(SymbolicStoreTest, WarmRestartHasZeroMisses) {
  const std::vector<SparsePattern> patterns = {
      symmetrize(gen::grid2d(5, 5)),
      symmetrize(gen::grid2d(6, 6)),
      symmetrize(gen::grid2d(7, 7)),
  };
  SymbolicCache first;
  for (const SparsePattern& pattern : patterns) {
    first.lookup(pattern);
  }
  const SymbolicStoreReport saved =
      save_symbolic_state(first, dir_.string());
  EXPECT_EQ(saved.saved, patterns.size());

  // A "restarted process": a brand-new cache, warmed from the state dir.
  SymbolicCache second;
  const SymbolicStoreReport loaded =
      load_symbolic_state(second, dir_.string());
  EXPECT_EQ(loaded.saved, patterns.size());
  EXPECT_EQ(loaded.skipped_options, 0u);
  EXPECT_EQ(loaded.skipped_invalid, 0u);

  for (const SparsePattern& pattern : patterns) {
    EXPECT_TRUE(second.lookup(pattern).hit);
  }
  EXPECT_EQ(second.stats().misses, 0);  // the warm-restart contract
  expect_bit_identical_factor(second.lookup(patterns[0]).symbolic,
                              patterns[0], 5);
}

// The factor structure lives in the shared analysis: a solver adopting a
// cache hit, or state rebuilt from a TMSYMB01 file, factors with it and
// must reproduce the cold run's factor bit for bit, pattern included.
TEST_F(SymbolicStoreTest, CacheHitAndWarmLoadRefactorizeBitsEqualToCold) {
  const SparsePattern pattern = symmetrize(gen::grid2d(11, 9, true));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 13);
  SolverOptions options;
  options.analyze.relax = 4;
  Solver cold(options);
  cold.analyze(pattern).plan().factorize(matrix);

  const auto expect_cold_factor = [&](const SolverSymbolic& symbolic,
                                      const char* route) {
    Solver warm(options);
    warm.adopt(symbolic).factorize(matrix);
    EXPECT_TRUE(warm.factor().pattern == cold.factor().pattern) << route;
    EXPECT_TRUE(testing::bits_equal(warm.factor().values,
                                    cold.factor().values))
        << route;
    EXPECT_EQ(warm.stats().factor_nnz, cold.stats().factor_nnz) << route;
  };

  SymbolicCacheOptions cache_options;
  cache_options.analyze = options.analyze;
  SymbolicCache cache(cache_options);
  ASSERT_FALSE(cache.lookup(pattern).hit);
  const SymbolicCache::LookupResult hit = cache.lookup(pattern);
  ASSERT_TRUE(hit.hit);
  expect_cold_factor(hit.symbolic, "cache hit");

  ASSERT_EQ(save_symbolic_state(cache, dir_.string()).saved, 1u);
  SymbolicCache restarted(cache_options);
  ASSERT_EQ(load_symbolic_state(restarted, dir_.string()).saved, 1u);
  const SymbolicCache::LookupResult loaded = restarted.lookup(pattern);
  ASSERT_TRUE(loaded.hit);
  expect_cold_factor(loaded.symbolic, "warm load");
}

TEST_F(SymbolicStoreTest, LoadSkipsOptionMismatchesAndCorruptFiles) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache first;
  first.lookup(pattern);
  save_symbolic_state(first, dir_.string());

  // A corrupt leftover must degrade to a cold build, not fail the load.
  {
    std::ofstream junk(dir_ / "pattern-deadbeef.tmsym", std::ios::binary);
    junk << "not a symbolic state file";
  }

  SymbolicCacheOptions other;
  other.analyze.relax = 16;  // different amalgamation => different state
  SymbolicCache second(other);
  const SymbolicStoreReport report =
      load_symbolic_state(second, dir_.string());
  EXPECT_EQ(report.saved, 0u);
  EXPECT_EQ(report.skipped_options, 1u);
  EXPECT_EQ(report.skipped_invalid, 1u);
  EXPECT_EQ(second.stats().entries, 0u);

  // Matching options load both real files fine despite the junk.
  SymbolicCache third;
  const SymbolicStoreReport ok = load_symbolic_state(third, dir_.string());
  EXPECT_EQ(ok.saved, 1u);
  EXPECT_EQ(ok.skipped_invalid, 1u);
  EXPECT_TRUE(third.lookup(pattern).hit);
}

std::vector<char> read_bytes(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(file), {});
}

void write_bytes(const std::filesystem::path& path,
                 const std::vector<char>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The pattern's (rows, cols) header in a written state file, followed by
// col_ptr's count (cols + 1) and then col_ptr itself.
std::vector<char>::iterator find_pattern_header(std::vector<char>& bytes,
                                                const SparsePattern& pattern) {
  const std::int32_t n = pattern.cols();
  const std::uint64_t count = static_cast<std::uint64_t>(n) + 1;
  char needle[16];
  std::memcpy(needle, &n, 4);
  std::memcpy(needle + 4, &n, 4);
  std::memcpy(needle + 8, &count, 8);
  return std::search(bytes.begin(), bytes.end(), needle, needle + 16);
}

TEST_F(SymbolicStoreTest, ForgedArrayCountIsRejectedNotAllocated) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  cache.lookup(pattern);
  save_symbolic_state(cache, dir_.string());
  const std::filesystem::path path =
      dir_ / symbolic_file_name(pattern_fingerprint(pattern), 0);
  std::vector<char> bytes = read_bytes(path);
  const auto at = find_pattern_header(bytes, pattern);
  ASSERT_NE(at, bytes.end());

  // 2^61 elements of 8 bytes: the byte count wraps a 64-bit product.
  const std::uint64_t forged = std::uint64_t{1} << 61;
  std::memcpy(&*(at + 8), &forged, 8);
  write_bytes(path, bytes);

  EXPECT_THROW(read_symbolic_file(path.string()), Error);
  SymbolicCache restarted;
  const SymbolicStoreReport report =
      load_symbolic_state(restarted, dir_.string());
  EXPECT_EQ(report.saved, 0u);
  EXPECT_EQ(report.skipped_invalid, 1u);
}

TEST_F(SymbolicStoreTest, OlderFormatVersionIsRebuiltCold) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  cache.lookup(pattern);
  // The u32 version follows the 8-byte magic. Version 1 files carried the
  // retired co-search fields, version 2 files every derived array.
  for (const std::uint32_t old_version : {1u, 2u}) {
    save_symbolic_state(cache, dir_.string());
    const std::filesystem::path path =
        dir_ / symbolic_file_name(pattern_fingerprint(pattern), 0);
    std::vector<char> bytes = read_bytes(path);
    std::memcpy(bytes.data() + 8, &old_version, 4);
    write_bytes(path, bytes);

    SymbolicCache restarted;
    const SymbolicStoreReport report =
        load_symbolic_state(restarted, dir_.string());
    EXPECT_EQ(report.skipped_invalid, 1u) << "version " << old_version;
    EXPECT_FALSE(restarted.lookup(pattern).hit);  // rebuilt cold
  }
}

// Derived arrays never come from disk: a state whose in-memory gather map
// or supernode map points out of bounds writes and reloads as the honest
// state, because the file holds only the ordering.
TEST_F(SymbolicStoreTest, TamperedDerivedStateCannotReachTheEngine) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  const SolverSymbolic honest = cache.lookup(pattern).symbolic;
  const std::filesystem::path path =
      dir_ / symbolic_file_name(pattern_fingerprint(pattern), 0);
  std::filesystem::create_directories(dir_);

  for (const int forgery : {0, 1}) {
    auto tampered = std::make_shared<SolverAnalysis>(*honest.analysis);
    if (forgery == 0) {
      tampered->permuted_value_map[0] = std::size_t{1} << 40;  // past values
    } else {
      tampered->assembly.supernode_of[0] = 1'000'000;  // past the tree
    }
    write_symbolic_file(SolverSymbolic{tampered, honest.plan}, path.string());

    SymbolicCache restarted;
    const SymbolicStoreReport report =
        load_symbolic_state(restarted, dir_.string());
    ASSERT_EQ(report.saved, 1u) << "forgery " << forgery;
    const SymbolicCache::LookupResult warm = restarted.lookup(pattern);
    ASSERT_TRUE(warm.hit);
    expect_bit_identical_factor(warm.symbolic, pattern, 11);
  }
}

// Found by the mutation fuzz below: a column pointer raised past nnz was
// sliced before SparsePattern's monotonicity check reached it.
TEST_F(SymbolicStoreTest, ColumnPointerPastNnzIsRejectedNotRead) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  cache.lookup(pattern);
  save_symbolic_state(cache, dir_.string());
  const std::filesystem::path path =
      dir_ / symbolic_file_name(pattern_fingerprint(pattern), 0);
  std::vector<char> bytes = read_bytes(path);
  const auto at = find_pattern_header(bytes, pattern);
  ASSERT_NE(at, bytes.end());
  const std::int64_t forged = std::int64_t{1} << 40;  // col_ptr[1]
  std::memcpy(&*(at + 16 + 8), &forged, 8);
  write_bytes(path, bytes);

  EXPECT_THROW(read_symbolic_file(path.string()), Error);
  SymbolicCache restarted;
  const SymbolicStoreReport report =
      load_symbolic_state(restarted, dir_.string());
  EXPECT_EQ(report.skipped_invalid, 1u);
}

// Deterministic mutation fuzz: every seeded single mutation of a valid
// state file either reads, loads and factorizes, or ends in
// treemem::Error.
TEST_F(SymbolicStoreTest, MutatedStateFilesLoadOrFailCleanly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  cache.lookup(pattern);
  save_symbolic_state(cache, dir_.string());
  const std::filesystem::path path =
      dir_ / symbolic_file_name(pattern_fingerprint(pattern), 0);
  const std::vector<char> valid = read_bytes(path);
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 3);
  FactorizeOptions serial;
  serial.engine = FactorizeEngine::kSerial;

  Prng prng(0x5eed5707e);
  for (int trial = 0; trial < 2000; ++trial) {
    write_bytes(path, testing::mutate_bytes(valid, prng));
    try {
      read_symbolic_file(path.string());
    } catch (const Error&) {
    }
    SymbolicCache restarted;
    if (load_symbolic_state(restarted, dir_.string()).saved == 0) {
      continue;
    }
    try {
      restarted.acquire(pattern, serial).factorize(matrix);
    } catch (const Error&) {
    }
  }
}

TEST_F(SymbolicStoreTest, MissingDirectoryIsAColdStart) {
  SymbolicCache cache;
  const SymbolicStoreReport report =
      load_symbolic_state(cache, (dir_ / "never_created").string());
  EXPECT_EQ(report.saved, 0u);
  EXPECT_EQ(report.skipped_invalid, 0u);
}

// ---------------------------------------------------------------------------
// Numeric-factor cache
// ---------------------------------------------------------------------------

TEST(NumericCache, FingerprintOutputsArePinned) {
  // State-file names embed pattern fingerprints, so these never change.
  EXPECT_EQ(pattern_fingerprint(symmetrize(gen::grid2d(4, 4))),
            0xafc5daf4f01cf3ddULL);
  EXPECT_EQ(value_fingerprint({1.0, -0.0}), 0x2f12dcea1c5dde38ULL);
}

TEST(NumericCache, ValueFingerprintIsBitwise) {
  const std::vector<double> plus_zero = {0.0, 1.0};
  const std::vector<double> minus_zero = {-0.0, 1.0};
  EXPECT_NE(value_fingerprint(plus_zero), value_fingerprint(minus_zero));
  EXPECT_EQ(value_fingerprint(plus_zero), value_fingerprint(plus_zero));
}

TEST(NumericCache, LookupVerifiesValuesAndLruEvicts) {
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  const auto factor_of = [&](std::uint64_t seed) {
    Solver solver;
    solver.analyze(pattern).plan().factorize(make_spd_matrix(pattern, seed));
    return solver.shared_factor();
  };
  const std::uint64_t pkey = pattern_fingerprint(pattern);
  const std::vector<double> v1 = make_spd_matrix(pattern, 1).values();
  const std::vector<double> v2 = make_spd_matrix(pattern, 2).values();
  const std::vector<double> v3 = make_spd_matrix(pattern, 3).values();

  NumericCache cache(NumericCacheOptions{2});
  EXPECT_TRUE(cache.insert(pkey, v1, factor_of(1), 10));
  EXPECT_TRUE(cache.insert(pkey, v2, factor_of(2), 10));
  EXPECT_FALSE(cache.insert(pkey, v2, factor_of(2), 10));  // duplicate
  EXPECT_NE(cache.lookup(pkey, v1), nullptr);
  EXPECT_EQ(cache.lookup(pkey, v3), nullptr);  // values unseen
  EXPECT_TRUE(cache.insert(pkey, v3, factor_of(3), 10));  // evicts LRU (v2)
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.take_freed_charge(), 10);
  EXPECT_EQ(cache.lookup(pkey, v2), nullptr);
  EXPECT_NE(cache.lookup(pkey, v1), nullptr);
  EXPECT_NE(cache.lookup(pkey, v3), nullptr);
}

TEST(NumericCache, DisabledCacheNeverStores) {
  const SparsePattern pattern = symmetrize(gen::grid2d(4, 4));
  Solver solver;
  solver.analyze(pattern).plan().factorize(make_spd_matrix(pattern, 1));
  NumericCache cache;  // max_entries = 0: disabled
  EXPECT_FALSE(cache.insert(pattern_fingerprint(pattern),
                            make_spd_matrix(pattern, 1).values(),
                            solver.shared_factor(), 5));
  EXPECT_EQ(cache.lookup(pattern_fingerprint(pattern),
                         make_spd_matrix(pattern, 1).values()),
            nullptr);
}

TEST(Solver, AdoptFactorSolvesWithoutFactorize) {
  const SparsePattern pattern = symmetrize(gen::grid2d(7, 7));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 9);
  SymbolicCache cache;

  Solver producer;
  producer.adopt(cache.lookup(pattern).symbolic);
  producer.factorize(matrix);

  Solver consumer;
  consumer.adopt(cache.lookup(pattern).symbolic);
  EXPECT_THROW(consumer.adopt_factor(nullptr), Error);
  consumer.adopt_factor(producer.shared_factor());
  EXPECT_TRUE(consumer.factorized());
  EXPECT_EQ(consumer.stats().engine, "cached");
  EXPECT_EQ(consumer.stats().factorizations, 0);  // nothing computed here

  const std::vector<double> rhs = seeded_rhs(pattern.cols(), 4);
  EXPECT_EQ(consumer.solve(rhs), producer.solve(rhs));
}

TEST(SolverPool, RepeatedValuesHitFactorCacheBitExactly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  SolverPoolOptions options;
  options.workers = 2;
  options.factor_cache_entries = 4;
  SolverPool pool(options);

  const auto request_of = [&](std::uint64_t value_seed) {
    SolveRequest request;
    request.matrix = make_spd_matrix(pattern, value_seed);
    request.rhs = {seeded_rhs(pattern.cols(), value_seed + 100)};
    return request;
  };

  const SolveOutcome cold = pool.solve(request_of(1));
  EXPECT_FALSE(cold.factor_hit);
  const SolveOutcome warm = pool.solve(request_of(1));
  EXPECT_TRUE(warm.factor_hit);
  EXPECT_EQ(warm.solutions, cold.solutions);  // bit-exact fast path
  // Different values on the same pattern do NOT hit.
  EXPECT_FALSE(pool.solve(request_of(2)).factor_hit);

  // Only the two distinct value sets were ever factorized.
  EXPECT_EQ(pool.aggregated_stats().factorizations, 2);
  EXPECT_EQ(pool.factor_cache_stats().hits, 1);
  EXPECT_EQ(pool.factor_cache_stats().entries, 2u);
}

TEST(SolverPool, ConcurrentRefactorizationsOfOneSharedPatternAreBitsEqual) {
  // Three pool workers refactorize one pattern at once, each reading the
  // one shared analysis (and its factor structure) from the cache.
  const SparsePattern pattern = symmetrize(gen::grid2d(14, 14));
  constexpr int kRequests = 12;
  SolverPoolOptions options;
  options.workers = 3;
  SolverPool pool(options);
  std::vector<std::future<SolveOutcome>> futures;
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(pool.submit(
        {make_spd_matrix(pattern, static_cast<std::uint64_t>(r % 3) + 1),
         {seeded_rhs(pattern.cols(), 100 + static_cast<std::uint64_t>(r))}}));
  }
  for (int r = 0; r < kRequests; ++r) {
    const SolveOutcome outcome = futures[static_cast<std::size_t>(r)].get();
    Solver lone;
    lone.analyze(pattern).plan().factorize(
        make_spd_matrix(pattern, static_cast<std::uint64_t>(r % 3) + 1));
    ASSERT_EQ(outcome.solutions.size(), 1u);
    EXPECT_TRUE(testing::bits_equal(
        outcome.solutions[0],
        lone.solve(seeded_rhs(pattern.cols(),
                              100 + static_cast<std::uint64_t>(r)))))
        << "request " << r;
  }
  EXPECT_EQ(pool.cache_stats().misses, 1);

  // The factors themselves, from three threads adopting the pool's cached
  // state at once.
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 1);
  Solver cold;
  cold.analyze(pattern).plan().factorize(matrix);
  const SolverSymbolic shared = pool.cache().lookup(pattern).symbolic;
  std::vector<std::vector<double>> values(3);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < values.size(); ++t) {
    threads.emplace_back([&, t] {
      Solver warm;
      FactorizeOptions serial;
      serial.engine = FactorizeEngine::kSerial;
      serial.workers = 1;
      warm.adopt(shared).factorize(matrix, serial);
      values[t] = warm.factor().values;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::vector<double>& v : values) {
    EXPECT_TRUE(testing::bits_equal(v, cold.factor().values));
  }
}

TEST(SolverPool, FactorCacheRespectsMemoryBudget) {
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  Solver probe;
  probe.analyze(pattern).plan();
  const Weight peak = probe.stats().planned_peak_entries;

  SolverPoolOptions options;
  options.workers = 2;
  options.factor_cache_entries = 16;
  options.memory_budget = peak + peak / 2;  // tight: residency competes
  SolverPool pool(options);

  // Many distinct value sets: every job must still complete even though
  // cached factors occupy (and get evicted from) the same budget.
  std::vector<std::future<SolveOutcome>> futures;
  for (int r = 0; r < 10; ++r) {
    SolveRequest request;
    request.matrix = make_spd_matrix(pattern, static_cast<std::uint64_t>(r));
    request.rhs = {seeded_rhs(pattern.cols(), static_cast<std::uint64_t>(r))};
    futures.push_back(pool.submit(std::move(request)));
  }
  for (std::future<SolveOutcome>& future : futures) {
    EXPECT_EQ(future.get().solutions.size(), 1u);
  }
  EXPECT_EQ(pool.aggregated_stats().factorizations, 10);
}

}  // namespace
}  // namespace treemem
