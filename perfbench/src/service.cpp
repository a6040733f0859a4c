// The service workload: a closed loop in which one submitting thread keeps
// K requests outstanding on a SolverPool with the symbolic cache and the
// factor cache on, over P 2-D patterns of 2k–5k unknowns.
//
// The requests are treemem::ServiceRequest entries of a ServiceTrace
// (perf/traffic.hpp), drawn from the seed as the loop runs and materialized
// by materialize_request. Most bring fresh values; a fixed share repeats
// the (pattern, values) pair of a request submitted K + 1 to
// K + kRepeatWindow requests earlier, so the repeat usually finds its factor
// cached. The loop thus runs both the factor cache's read path (hit →
// triangular solves only) and its write path (refactorize and insert). No
// recorded traffic exists for this library: the repeat share, the window
// and the pattern mix are assumptions, and README.md states the criterion
// they are held to. Pool workers number nproc − 1: with the submitter,
// which also checks every solution, busy threads stay within nproc.
#include <algorithm>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

using treemem::ServiceRequest;
using treemem::SolveOutcome;
using treemem::SolverPool;
using treemem::SolverPoolOptions;
using treemem::SolveRequest;
using treemem::SparsePattern;

using Clock = std::chrono::steady_clock;

/// Share of requests that repeat an earlier (pattern, values) pair.
constexpr double kRepeatShare = 0.25;
constexpr int kMaxRhs = 8;
/// Repeats reach back up to this many requests beyond the outstanding ones.
constexpr int kRepeatWindow = 8;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int pool_workers() {
  return static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()) - 1);
}

/// K, the requests the submitter keeps outstanding.
int outstanding_requests() { return 2 * pool_workers(); }

SolverPoolOptions pool_options() {
  SolverPoolOptions options;
  options.workers = pool_workers();
  options.use_cache = true;
  // Between a request and its repeat, at most K + kRepeatWindow − 1 other
  // requests touch the factor cache, so under LRU the original's factor is
  // still resident on any host.
  options.factor_cache_entries =
      static_cast<std::size_t>(outstanding_requests() + kRepeatWindow);
  return options;
}

/// The workload's fixed patterns; `names` receives their names.
std::vector<SparsePattern> make_patterns(const Args& args,
                                         std::vector<std::string>& names) {
  struct Shape {
    Index side;
    const char* family;
  };
  const std::vector<Shape> shapes =
      args.smoke ? std::vector<Shape>{{12, "5pt"}, {14, "9pt"}, {16, "holes"}}
                 : std::vector<Shape>{{46, "5pt"},   {52, "9pt"},
                                      {60, "holes"}, {64, "5pt"},
                                      {68, "9pt"},   {70, "holes"}};
  treemem::Prng holes(kHolesSeed);
  std::vector<SparsePattern> patterns;
  for (const Shape& s : shapes) {
    const std::string family = s.family;
    SparsePattern pattern =
        family == "holes"
            ? treemem::gen::grid2d_with_holes(s.side, s.side, 0.10, holes)
            : treemem::gen::grid2d(s.side, s.side, family == "9pt");
    names.push_back("grid2d-" + family + "-" + std::to_string(s.side));
    patterns.push_back(treemem::symmetrize(pattern));
  }
  return patterns;
}

/// "" when every rhs column of `job` is solved to tolerance, else the first
/// failure.
std::string check_solutions(const SolveRequest& job,
                            const SolveOutcome& outcome) {
  for (std::size_t c = 0; c < job.rhs.size(); ++c) {
    if (c >= outcome.solutions.size() ||
        !solution_verified(job.matrix, outcome.solutions[c], job.rhs[c])) {
      return "residual above tolerance on rhs " + std::to_string(c);
    }
  }
  return "";
}

/// What the traced serving phase keeps of a request for its decomposition
/// after the window: the inputs are materialized again from the trace, and
/// the pool's solutions are kept as bit fingerprints.
struct ServedRequest {
  long long index = 0;
  double latency = 0.0;
  SolveOutcome outcome;  ///< solutions dropped, fingerprints kept below
  std::vector<std::uint64_t> solution_bits;
};

class Service {
 public:
  explicit Service(const Args& args)
      : args_(args),
        pool_(pool_options()),
        outstanding_(outstanding_requests()),
        last_factorizations_(static_cast<std::size_t>(pool_.workers()), 0) {
    trace_.patterns = make_patterns(args, names_);
  }

  /// Submits every pattern once, synchronously, so the symbolic cache is
  /// warm before timing. Each solution is checked like the timed ones.
  LoopRecord warm_up() {
    LoopRecord record;
    for (std::size_t p = 0; p < trace_.patterns.size(); ++p) {
      const SolveRequest job = treemem::materialize_request(
          trace_, ServiceRequest{static_cast<int>(p),
                                 mix_seed(args_.seed, 7000 + p), 1});
      ++record.attempted;
      std::string error;
      try {
        error = check_solutions(job, pool_.solve(job));
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (!error.empty()) {
        ++record.failed;
        std::cerr << "warm-up request " << p << " failed: " << error << "\n";
      }
    }
    sample_peaks(nullptr);
    return record;
  }

  /// The closed loop for `seconds`; with a recorder, every request gets a
  /// submit-to-ready span and is kept for decompose_served().
  LoopRecord serve(double seconds, SpanRecorder* recorder);

  /// Decomposes every request of the traced phase; returns the number whose
  /// decomposition did not reproduce the pool's solutions bit for bit.
  long long decompose_served(SpanRecorder& recorder, Ledger& ledger);

  /// How the traced requests, and their service seconds, split between the
  /// factor cache's read path and its write path.
  std::string path_split() const;

  SolverPool& pool() { return pool_; }

 private:
  struct Pending {
    std::future<SolveOutcome> future;
    Clock::time_point submitted;
    long long index = 0;
    SolveRequest job;
  };

  /// Request `index` of the stream, a pure function of the seed and the
  /// requests before it.
  ServiceRequest draw_request(long long index) const {
    treemem::Prng draw(mix_seed(args_.seed, 5000000 + index));
    ServiceRequest request;
    if (index >= outstanding_ + kRepeatWindow &&
        draw.bernoulli(kRepeatShare)) {
      const long long earlier =
          index - outstanding_ - 1 - draw.uniform_int(0, kRepeatWindow - 1);
      request = trace_.requests[static_cast<std::size_t>(earlier)];
    } else {
      request.pattern_id = static_cast<int>(draw.uniform_int(
          0, static_cast<std::int64_t>(trace_.patterns.size()) - 1));
      request.value_seed = mix_seed(args_.seed, 9000000 + index);
    }
    request.num_rhs = static_cast<int>(draw.uniform_int(1, kMaxRhs));
    return request;
  }

  Pending submit(long long index) {
    Pending pending;
    pending.index = index;
    trace_.requests.push_back(draw_request(index));
    pending.job = treemem::materialize_request(trace_, trace_.requests.back());
    pending.submitted = Clock::now();
    pending.future = pool_.submit(pending.job);
    return pending;
  }

  /// Engine-measured peaks of the jobs the workers finished since the last
  /// call (factor-cache hits run no factorization and are skipped).
  void sample_peaks(LoopRecord* record) {
    const std::vector<treemem::SolverStats> stats = pool_.solver_stats();
    for (std::size_t w = 0; w < stats.size(); ++w) {
      if (stats[w].factorizations == last_factorizations_[w]) {
        continue;
      }
      last_factorizations_[w] = stats[w].factorizations;
      if (record == nullptr || stats[w].engine == "cached") {
        continue;
      }
      for (std::size_t p = 0; p < trace_.patterns.size(); ++p) {
        if (trace_.patterns[p].cols() == stats[w].n &&
            trace_.patterns[p].nnz() == stats[w].pattern_nnz) {
          record->peaks[names_[p]].push_back(
              static_cast<double>(stats[w].measured_peak_entries));
        }
      }
    }
  }

  std::string decompose(const ServedRequest& served, SpanRecorder& recorder,
                        Ledger& ledger);

  const Args& args_;
  std::vector<std::string> names_;
  /// The workload's patterns and every request submitted so far, in order.
  treemem::ServiceTrace trace_;
  SolverPool pool_;
  int outstanding_;
  std::vector<int> last_factorizations_;
  std::vector<ServedRequest> served_;
};

/// The request replayed through the layers the pool's job runs — cache
/// lookup, value permutation, serial factorization along the cached plan,
/// triangular solves — each under a span, checked bit for bit against the
/// pool's solutions.
std::string Service::decompose(const ServedRequest& served,
                               SpanRecorder& recorder, Ledger& ledger) {
  const ServiceRequest& request =
      trace_.requests[static_cast<std::size_t>(served.index)];
  const SolveRequest job = treemem::materialize_request(trace_, request);
  SpanRecorder* rec = &recorder;
  const long long job_id = served.index;
  const int job_span = recorder.open("job", SpanRecorder::kNoParent, job_id);
  const int layers = recorder.open("layers", job_span, job_id);
  treemem::SolverSymbolic symbolic;
  const double lookup_s =
      timed(rec, "solver.symbolic_lookup", layers, job_id, [&] {
        symbolic = pool_.cache().lookup(job.matrix.pattern()).symbolic;
      });
  const treemem::SolverAnalysis& analysis = *symbolic.analysis;
  const treemem::SolverPlan& plan = *symbolic.plan;
  // The factor cache's miss path, on a scratch cache of the pool's size:
  // fingerprint and lookup before the factorization, insert after it.
  treemem::NumericCache factor_cache(treemem::NumericCacheOptions{
      pool_options().factor_cache_entries});
  std::uint64_t pattern_key = 0;
  double factor_cache_s =
      timed(rec, "solver.factor_cache", layers, job_id, [&] {
        pattern_key = treemem::pattern_fingerprint(job.matrix.pattern());
        factor_cache.lookup(pattern_key, job.matrix.values());
      });
  SymmetricMatrix permuted;
  const double values_s =
      timed(rec, "sparse.permute_values", layers, job_id, [&] {
        permuted = gather_permuted(analysis.permuted_pattern,
                                   analysis.permuted_value_map,
                                   job.matrix.values());
      });
  treemem::MultifrontalResult run;
  const treemem::KernelConfig kernel = pool_options().solver.factorize.kernel;
  const double factorize_s =
      timed(rec, "multifrontal.factorize", layers, job_id, [&] {
        run = treemem::multifrontal_cholesky(permuted, analysis.assembly,
                                             plan.bottom_up_order, kernel);
      });
  std::vector<std::uint64_t> solution_bits;
  const double solve_s = timed(rec, "solve", layers, job_id, [&] {
    const std::size_t n = analysis.perm.size();
    for (const std::vector<double>& b : job.rhs) {
      std::vector<double> permuted_rhs(n);
      for (std::size_t k = 0; k < n; ++k) {
        permuted_rhs[k] = b[static_cast<std::size_t>(analysis.perm[k])];
      }
      const std::vector<double> y =
          treemem::solve_with_factor(run.factor, std::move(permuted_rhs));
      std::vector<double> x(n);
      for (std::size_t k = 0; k < n; ++k) {
        x[static_cast<std::size_t>(analysis.perm[k])] = y[k];
      }
      solution_bits.push_back(treemem::value_fingerprint(x));
    }
  });
  factor_cache_s += timed(rec, "solver.factor_cache", layers, job_id, [&] {
    factor_cache.insert(
        pattern_key, job.matrix.values(),
        std::make_shared<const CholeskyFactor>(std::move(run.factor)), 0);
  });
  recorder.close(layers);
  ReplayResult replay;
  timed(rec, "dense.replay", job_span, job_id, [&] {
    replay = replay_fronts(analysis.assembly,
                           *treemem::make_front_kernel(kernel), kTopFronts);
  });
  recorder.close(job_span);

  const SolveOutcome& outcome = served.outcome;
  const std::string& name =
      names_[static_cast<std::size_t>(request.pattern_id)];
  ++ledger.requests;
  ledger.symbolic_hits += outcome.cache_hit ? 1 : 0;
  ledger.factor_hits += outcome.factor_hit ? 1 : 0;
  ledger.service_s.push_back(outcome.seconds);
  ledger.queue_wait_s.push_back(std::max(0.0, served.latency - outcome.seconds));
  ledger.traced_latency.push_back(served.latency);
  ledger.factorize_s.push_back(factorize_s);
  ledger.flops += static_cast<double>(run.flops);
  ledger.flop_seconds += factorize_s;
  ledger.busy_s += factorize_s;
  ledger.dense_all_s += replay.all_seconds;
  ledger.top_flops += static_cast<double>(replay.top_flops);
  ledger.top_s += replay.top_seconds;
  ledger.top_bytes += replay.top_bytes;
  ledger.peak_over_plan.push_back(
      static_cast<double>(run.peak_live_entries) /
      static_cast<double>(plan.planned_peak_entries));
  ledger.factor_nnz[name] = static_cast<double>(analysis.factor_nnz);
  ledger.factor_flops[name] = static_cast<double>(run.flops);
  ledger.supernodes[name] = static_cast<double>(analysis.assembly.tree.size());
  ledger.planned_peak[name] = static_cast<double>(plan.planned_peak_entries);
  ledger.postorder_peak[name] = static_cast<double>(plan.best_postorder_peak);
  ledger.minmem_peak[name] = static_cast<double>(plan.in_core_optimum);
  ledger.planned_io[name] = static_cast<double>(plan.planned_io_volume);
  if (!outcome.factor_hit) {
    ledger.attributed_s +=
        lookup_s + factor_cache_s + values_s + factorize_s + solve_s;
    ledger.job_wall_s += outcome.seconds;
  }
  return solution_bits == served.solution_bits
             ? ""
             : "solutions differ from the pool's bit for bit";
}

long long Service::decompose_served(SpanRecorder& recorder, Ledger& ledger) {
  long long mismatches = 0;
  for (const ServedRequest& served : served_) {
    std::string error;
    try {
      error = decompose(served, recorder, ledger);
    } catch (const std::exception& e) {
      error = std::string("decomposition threw: ") + e.what();
    }
    if (!error.empty()) {
      ++mismatches;
      std::cerr << "request " << served.index << ": " << error << "\n";
    }
  }
  return mismatches;
}

std::string Service::path_split() const {
  long long hits = 0;
  double hit_s = 0.0;
  double total_s = 0.0;
  for (const ServedRequest& served : served_) {
    total_s += served.outcome.seconds;
    if (served.outcome.factor_hit) {
      ++hits;
      hit_s += served.outcome.seconds;
    }
  }
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? 100.0 * part / whole : 0.0;
  };
  std::ostringstream line;
  line.precision(3);
  line << "service paths: factor-cache hits (read path) "
       << share(static_cast<double>(hits),
                static_cast<double>(served_.size()))
       << "% of " << served_.size() << " traced requests and "
       << share(hit_s, total_s)
       << "% of their service seconds; refactorizations (write path) the "
          "rest";
  return line.str();
}

LoopRecord Service::serve(double seconds, SpanRecorder* recorder) {
  LoopRecord record;
  std::vector<Pending> pending;
  const Clock::time_point start = Clock::now();
  auto next_index = static_cast<long long>(trace_.requests.size());
  const auto refill = [&] {
    while (static_cast<int>(pending.size()) < outstanding_ &&
           seconds_between(start, Clock::now()) < seconds) {
      pending.push_back(submit(next_index++));
    }
  };
  for (refill(); !pending.empty(); refill()) {
    // Harvest whatever is ready; refill before checking, so the pool never
    // idles behind the checks.
    std::vector<std::pair<Pending, Clock::time_point>> done;
    while (done.empty()) {
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done.emplace_back(std::move(pending[i]), Clock::now());
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (done.empty()) {
        pending.front().future.wait_for(std::chrono::microseconds(100));
      }
    }
    refill();
    sample_peaks(&record);

    for (auto& [request, ready] : done) {
      const double latency = seconds_between(request.submitted, ready);
      ++record.attempted;
      record.latencies.push_back(latency);
      const ServiceRequest& drawn =
          trace_.requests[static_cast<std::size_t>(request.index)];
      record.kind_latencies[names_[static_cast<std::size_t>(drawn.pattern_id)]]
          .push_back(latency);
      std::string error;
      try {
        SolveOutcome outcome = request.future.get();
        if (recorder != nullptr) {
          recorder->record("request", SpanRecorder::kNoParent, request.index,
                           request.submitted, ready);
          ServedRequest served{request.index, latency, {}, {}};
          for (const std::vector<double>& x : outcome.solutions) {
            served.solution_bits.push_back(treemem::value_fingerprint(x));
          }
          served.outcome.cache_hit = outcome.cache_hit;
          served.outcome.factor_hit = outcome.factor_hit;
          served.outcome.seconds = outcome.seconds;
          served_.push_back(std::move(served));
        }
        if (args_.perturb_every > 0 &&
            request.index % args_.perturb_every == 0) {
          perturb(outcome.solutions.front());
        }
        error = check_solutions(request.job, outcome);
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (error.empty()) {
        record.rhs_verified += static_cast<long long>(request.job.rhs.size());
      } else {
        ++record.failed;
        std::cerr << "request " << request.index << " failed: " << error
                  << "\n";
      }
    }
  }
  record.wall_seconds = seconds_between(start, Clock::now());
  return record;
}

}  // namespace

Report run_service(const Args& args) {
  Report report;
  treemem::WorkerPool& workers = treemem::WorkerPool::instance();
  Service service(args);
  const LoopRecord warm_up = service.warm_up();
  report.attempted = warm_up.attempted;
  report.failed = warm_up.failed;
  if (!args.trace) {
    const LoopRecord record = service.serve(args.seconds, nullptr);
    report.attempted += record.attempted;
    report.failed += record.failed;
    add_end_to_end(report, record);
    return report;
  }

  const LoopRecord untraced = service.serve(args.seconds / 3.0, nullptr);
  SpanRecorder recorder;
  Ledger ledger;
  const long long spawned_before = workers.stats().threads_spawned;
  const treemem::SolverStats before = service.pool().aggregated_stats();
  // Serving is a small share of the traced phase: decomposing a request
  // costs about what the pool spent serving it, on one thread.
  LoopRecord traced = service.serve(args.seconds / 9.0, &recorder);
  const treemem::SolverStats after = service.pool().aggregated_stats();
  traced.failed += service.decompose_served(recorder, ledger);
  if (after.rhs_solved > before.rhs_solved) {
    ledger.solve_per_rhs_s.push_back(
        (after.solve_seconds - before.solve_seconds) /
        (after.rhs_solved - before.rhs_solved));
  }
  report.attempted += untraced.attempted + traced.attempted;
  report.failed += untraced.failed + traced.failed;
  report.notes.push_back(service.path_split());
  add_per_layer(report, ledger, median(untraced.latencies),
                workers.stats().threads_spawned - spawned_before);
  if (!args.trace_out.empty()) {
    recorder.write_chrome_json(args.trace_out);
    report.notes.push_back("trace: " + std::to_string(recorder.size()) +
                           " spans written to " + args.trace_out);
  }
  return report;
}

double setup_probe(const std::string& workload) {
  const SparsePattern pattern = treemem::gen::grid2d(8, 8);
  const SymmetricMatrix matrix = treemem::make_spd_matrix(pattern, 1);
  const std::vector<double> b = make_rhs(pattern.cols(), 2);
  const Clock::time_point start = Clock::now();
  treemem::WorkerPool::instance();
  std::vector<double> x;
  std::unique_ptr<SolverPool> pool;
  if (workload == "service") {
    pool = std::make_unique<SolverPool>(pool_options());
    x = pool->solve(SolveRequest{matrix, {b}}).solutions.front();
  } else {
    treemem::SolverOptions options;
    options.factorize.workers =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    treemem::Solver solver(options);
    solver.analyze(pattern).plan().factorize(matrix);
    x = solver.solve(b);
  }
  const double seconds = seconds_between(start, Clock::now());
  TM_CHECK(solution_verified(matrix, x, b), "setup probe: wrong solution");
  return seconds;
}

}  // namespace perfbench
