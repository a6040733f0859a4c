// Shared pieces of the solver benchmark: command-line arguments, the
// report printed as the run's last line, span recording for the traced
// run, seeded inputs and the output checks every job goes through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "treemem.hpp"

namespace perfbench {

using treemem::AssemblyTree;
using treemem::CholeskyFactor;
using treemem::Index;
using treemem::SymmetricMatrix;
using treemem::Weight;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace JSON destination of a traced run ("" = not written).
  std::string trace_out;
  /// Tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Perturbs every n-th solution before it is checked (0 = never); the
  /// benchmark's own tests use it to show the checks can fail.
  int perturb_every = 0;
};

/// Deterministic stream derivation (splitmix64 of seed and stream id): every
/// input of a run is drawn from mix_seed(args.seed, <what>).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Seed of the holed grids' hole pattern: fixed, like every sparsity
/// pattern of the workloads.
inline constexpr std::uint64_t kHolesSeed = 2011;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints: informational lines, then the one-line JSON result.
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// The job time at the highest percentile of the ladder p50, p75, p90, p95,
/// p99 that still has at least ten jobs beyond it (nearest rank). A ladder,
/// rather than 100·(n − 10)/n, keeps the percentile the same from run to
/// run while the job count varies; it stops at p99 because beyond it the
/// ten slowest jobs are set by a couple of host stalls. `percentile`
/// receives the percentile used.
double tail_latency(std::vector<double> values, double* percentile);

/// Sum over distinct keys of the median of each key's samples — the
/// per-matrix aggregation of peak_entries.
double sum_of_medians(const std::map<std::string, std::vector<double>>& by_key);

/// Process maximum resident set size in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Relative residual ‖Ax − b‖ / ‖b‖ every solution must meet.
inline constexpr double kResidualTolerance = 1e-10;

std::vector<double> make_rhs(Index n, std::uint64_t seed);

/// The facade's value permutation (`Solver::permute_values`): one gather of
/// `values` through the analysis' `permuted_value_map` onto the permuted
/// pattern.
SymmetricMatrix gather_permuted(const treemem::SparsePattern& permuted,
                                const std::vector<std::size_t>& value_map,
                                const std::vector<double>& values);

/// True when `x` solves A x = b to kResidualTolerance (finite values only).
bool solution_verified(const SymmetricMatrix& matrix,
                       const std::vector<double>& x,
                       const std::vector<double>& b);

/// Adds a relative error far above the tolerance to one entry of `x`.
void perturb(std::vector<double>& x);

/// "" when the two factors are bit-identical (same pattern, same value
/// bits), else a description of the first difference.
std::string compare_factors(const CholeskyFactor& expected,
                            const CholeskyFactor& actual);

/// "" when the two vectors are bit-identical.
std::string compare_bits(const std::vector<double>& expected,
                         const std::vector<double>& actual);

// ---------------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------------

/// In-memory span list: name, start, end, parent span and job id, written
/// as Chrome trace JSON when the run ends (examples/trace_inspect and
/// Perfetto load it).
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  SpanRecorder() : origin_(Clock::now()) {}

  int open(const char* name, int parent, long long job);
  /// Adds an already finished span.
  void record(const char* name, int parent, long long job,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);
  /// Closes span `id` and returns its duration in seconds.
  double close(int id);

  void write_chrome_json(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    int parent;
    long long job;
    double start_us;
    double end_us;
  };
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn` under a span when `recorder` is set, and returns its seconds
/// either way — the one code path shared by the traced and untraced jobs.
template <typename Fn>
double timed(SpanRecorder* recorder, const char* name, int parent,
             long long job, Fn&& fn) {
  if (recorder != nullptr) {
    const int id = recorder->open(name, parent, job);
    try {
      fn();
    } catch (...) {
      recorder->close(id);
      throw;
    }
    return recorder->close(id);
  }
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Dense-layer replay
// ---------------------------------------------------------------------------

struct ReplayResult {
  double all_seconds = 0.0;   ///< partial_factor time over every front
  double top_seconds = 0.0;   ///< ... over the largest fronts only
  long long top_flops = 0;
  double top_bytes = 0.0;     ///< full-square front storage of those fronts
};

/// Replays FrontKernel::partial_factor on the (m, η) of every front of
/// `assembly` (m = η + µ − 1, the model's front order) over a diagonally
/// dominant dense front, and separately totals the `top_k` largest.
ReplayResult replay_fronts(const AssemblyTree& assembly,
                           const treemem::FrontKernel& kernel,
                           std::size_t top_k);

// ---------------------------------------------------------------------------
// Metric aggregation
// ---------------------------------------------------------------------------

/// The timed loop's record, from which the end-to-end metrics are made.
/// Failed jobs stay in every timing.
struct LoopRecord {
  std::vector<double> latencies;  ///< one per job, seconds
  long long attempted = 0;
  long long failed = 0;
  long long rhs_verified = 0;
  double wall_seconds = 0.0;
  /// Engine-measured peak live entries per distinct job kind.
  std::map<std::string, std::vector<double>> peaks;
  /// Job times per kind (printed as notes, to explain the percentiles).
  std::map<std::string, std::vector<double>> kind_latencies;
};

/// The traced run's per-layer ledger. Vectors hold one sample per traced
/// job (medians are reported); maps hold one exact count per distinct
/// matrix or job kind (sums are reported).
struct Ledger {
  std::vector<double> order_s, symbolic_s, analyze_other_s, plan_s,
      minmem_s, postorder_s, factorize_s, ooc_s, solve_per_rhs_s,
      peak_over_plan, efficiency, service_s, queue_wait_s, traced_latency;
  std::map<std::string, double> factor_nnz, factor_flops, supernodes,
      planned_peak, postorder_peak, minmem_peak, planned_io, spilled;
  double flops = 0.0, flop_seconds = 0.0;  ///< in-core factorizations
  double dense_all_s = 0.0, busy_s = 0.0;
  double top_flops = 0.0, top_s = 0.0, top_bytes = 0.0;
  long long leases_granted = 0, leases_denied = 0;
  long long parallel_attempts = 0, stall_fallbacks = 0;
  long long symbolic_hits = 0, factor_hits = 0, requests = 0;
  double attributed_s = 0.0, job_wall_s = 0.0;
};

/// latency_p50_s, latency_tail_s, solves_per_s and peak_entries from the
/// timed loop's record, and success_rate from the report's attempted and
/// failed totals, so it counts every checked job that `correct` counts
/// (setup_s comes from separate probe processes).
void add_end_to_end(Report& report, const LoopRecord& record);

/// Every per-layer metric; layers a workload bypasses report 0.
/// `untraced_p50` is the same run's untraced latency_p50_s, the base of
/// bench.trace_overhead.
void add_per_layer(Report& report, const Ledger& ledger, double untraced_p50,
                   long long threads_spawned);

/// Dense kernel front replays per traced job: the largest fronts give
/// dense.gflops.
inline constexpr std::size_t kTopFronts = 4;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One kind of cold job: a fresh Solver runs analyze → plan → factorize →
/// solve on `matrix` under `options`.
struct ColdJob {
  std::string kind;    ///< distinct matrix (and budget) this job runs
  std::string matrix_name;
  SymmetricMatrix matrix;
  treemem::SolverOptions options;
  /// tight_budget: the measured peak must stay within the plan budget.
  bool budget_bound = false;
};

std::vector<ColdJob> make_cold_jobs(const Args& args);
Report run_cold(const Args& args, const std::vector<ColdJob>& jobs);
Report run_service(const Args& args);

/// Runs `job` once traced, with its decomposition, and returns "" when the
/// decomposition matches the facade and the output checks pass. `engine`
/// receives the engine the facade ran.
std::string check_traced_job(const ColdJob& job, std::uint64_t seed,
                             std::string* engine);

/// Time from process start of the library to its first verified result:
/// the process-wide WorkerPool, the workload's SolverPool when it has one,
/// and one tiny job. Printed by `--setup-probe`.
double setup_probe(const std::string& workload);

/// The benchmark's own bit-level checks; returns the number of failures.
int run_selftest();

}  // namespace perfbench
