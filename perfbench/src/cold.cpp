// The cold workloads (cold_2d, cold_3d, tight_budget): each job is a fresh
// Solver running analyze → plan → factorize → solve with the compiled-in
// defaults plus the workload's own ordering, worker count and budget.
//
// Jobs run in whole cycles over the workload's job kinds, each cycle in a
// seeded order, and the deadline is checked between cycles. Every kind
// therefore appears equally often, so the median and the tail land inside
// the same kinds' times on every run.
//
// The traced run spends its first third untraced (the base of
// bench.trace_overhead) and the rest on traced jobs: the facade's calls
// under spans, then the same job decomposed into the layers' public entry
// points, each under its own span, checked bit for bit against the facade.
#include <iostream>

#include "bench.hpp"

namespace perfbench {

namespace {

using treemem::FactorizeOptions;
using treemem::OrderingChoice;
using treemem::Solver;
using treemem::SolverStats;
using treemem::SparsePattern;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Index> order_pattern(const SparsePattern& pattern,
                                 OrderingChoice ordering) {
  switch (ordering) {
    case OrderingChoice::kNatural:
      return treemem::natural_order(pattern.cols());
    case OrderingChoice::kRcm:
      return treemem::rcm_order(pattern);
    case OrderingChoice::kMinDegree:
      return treemem::min_degree_order(pattern);
    case OrderingChoice::kNestedDissection:
      return treemem::nested_dissection_order(pattern);
  }
  return {};
}

/// Facade call times of one job.
struct FacadeTimes {
  double analyze = 0.0;
  double plan = 0.0;
  double solve = 0.0;
  double wall = 0.0;
};

/// The job decomposed into layer calls on the same inputs, recorded into
/// `ledger`. Returns "" when every product matches the facade's, else the
/// first mismatch.
std::string decompose(const ColdJob& job, const std::vector<double>& b,
                      const Solver& solver, const std::vector<double>& x,
                      const FacadeTimes& facade, SpanRecorder& recorder,
                      int job_span, long long job_id, Ledger& ledger) {
  const SparsePattern& pattern = job.matrix.pattern();
  const treemem::AnalyzeOptions& analyze = job.options.analyze;
  const FactorizeOptions& factorize = job.options.factorize;
  const SolverStats stats = solver.stats();
  const bool out_of_core = stats.engine == "out-of-core";
  SpanRecorder* rec = &recorder;
  const int layers = recorder.open("layers", job_span, job_id);

  std::vector<Index> perm;
  const double order_s = timed(rec, "order", layers, job_id, [&] {
    perm = order_pattern(pattern, analyze.ordering);
  });
  SparsePattern permuted;
  const double permute_s = timed(rec, "symbolic.permute", layers, job_id,
                                 [&] {
                                   permuted =
                                       treemem::permute_symmetric(pattern, perm);
                                 });
  AssemblyTree assembly;
  const double assembly_s =
      timed(rec, "symbolic.assembly", layers, job_id, [&] {
        treemem::AssemblyTreeOptions tree_options;
        tree_options.relax = analyze.relax;
        tree_options.perfect = analyze.perfect;
        assembly = treemem::build_assembly_tree(permuted, tree_options);
      });
  std::int64_t nnz_l = 0;
  const double fill_s = timed(rec, "symbolic.fill", layers, job_id, [&] {
    nnz_l = treemem::factor_nnz(permuted);
  });
  treemem::TraversalResult postorder;
  const double postorder_s = timed(rec, "core.postorder", layers, job_id, [&] {
    postorder = treemem::best_postorder(assembly.tree);
  });
  treemem::MinMemResult minmem;
  const double minmem_s = timed(rec, "core.minmem", layers, job_id, [&] {
    minmem = treemem::minmem_optimal(assembly.tree);
  });
  const treemem::SolverSymbolic symbolic = solver.symbolic();
  SymmetricMatrix permuted_matrix;
  const double values_s =
      timed(rec, "sparse.permute_values", layers, job_id, [&] {
        permuted_matrix = gather_permuted(
            permuted, symbolic.analysis->permuted_value_map,
            job.matrix.values());
      });

  // The factorization, on the engine the facade ran (a stalled parallel
  // schedule falls back to the serial engine, as the facade does).
  CholeskyFactor factor;
  double busy_s = -1.0;
  long long flops = 0;
  Weight spilled = 0;
  const double factorize_s =
      timed(rec, "multifrontal.factorize", layers, job_id, [&] {
        if (out_of_core) {
          treemem::OutOfCoreRunResult run =
              treemem::multifrontal_cholesky_out_of_core(
                  permuted_matrix, assembly, solver.planned_io_schedule(),
                  stats.memory_budget);
          spilled = run.entries_spilled;
          factor = std::move(run.factor);
          return;
        }
        if (stats.engine == "parallel" || stats.stall_fallback) {
          ++ledger.parallel_attempts;
          const treemem::ParallelFactorOptions parallel{
              .workers = factorize.workers > 0
                             ? factorize.workers
                             : static_cast<int>(
                                   treemem::default_thread_count()),
              .memory_budget = stats.memory_budget,
              .priority = factorize.priority,
              .admission = factorize.admission,
              .serial_witness = solver.planned_traversal(),
              .kernel = factorize.kernel,
              .lease_idle_workers = factorize.lease_idle_workers};
          treemem::ParallelFactorResult run =
              treemem::factor_parallel(permuted_matrix, assembly, parallel);
          if (run.feasible) {
            busy_s = run.factor_seconds * run.speedup;
            flops = run.flops;
            factor = std::move(run.factor);
            return;
          }
        }
        treemem::MultifrontalResult run = treemem::multifrontal_cholesky(
            permuted_matrix, assembly, solver.planned_traversal(),
            factorize.kernel);
        flops = run.flops;
        factor = std::move(run.factor);
      });
  if (busy_s < 0.0) {
    busy_s = factorize_s;
  }

  std::vector<double> x_layers(b.size());
  const double solve_s = timed(rec, "solve", layers, job_id, [&] {
    std::vector<double> permuted_rhs(b.size());
    for (std::size_t k = 0; k < b.size(); ++k) {
      permuted_rhs[k] = b[static_cast<std::size_t>(perm[k])];
    }
    const std::vector<double> y =
        treemem::solve_with_factor(factor, std::move(permuted_rhs));
    for (std::size_t k = 0; k < b.size(); ++k) {
      x_layers[static_cast<std::size_t>(perm[k])] = y[k];
    }
  });
  recorder.close(layers);

  ReplayResult replay;
  timed(rec, "dense.replay", job_span, job_id, [&] {
    const auto kernel = treemem::make_front_kernel(factorize.kernel);
    replay = replay_fronts(assembly, *kernel, kTopFronts);
  });

  // Ledger.
  ledger.order_s.push_back(order_s);
  ledger.symbolic_s.push_back(permute_s + assembly_s);
  ledger.analyze_other_s.push_back(
      std::max(0.0, facade.analyze - order_s - permute_s - assembly_s));
  ledger.plan_s.push_back(facade.plan);
  ledger.postorder_s.push_back(postorder_s);
  ledger.minmem_s.push_back(minmem_s);
  (out_of_core ? ledger.ooc_s : ledger.factorize_s).push_back(factorize_s);
  ledger.solve_per_rhs_s.push_back(facade.solve);
  ledger.traced_latency.push_back(facade.wall);
  ledger.factor_nnz[job.matrix_name] = static_cast<double>(nnz_l);
  ledger.supernodes[job.matrix_name] =
      static_cast<double>(assembly.tree.size());
  ledger.postorder_peak[job.matrix_name] = static_cast<double>(postorder.peak);
  ledger.minmem_peak[job.matrix_name] = static_cast<double>(minmem.peak);
  double& matrix_flops = ledger.factor_flops[job.matrix_name];
  matrix_flops = std::max(matrix_flops, static_cast<double>(flops));
  ledger.planned_peak[job.kind] =
      static_cast<double>(stats.planned_peak_entries);
  ledger.planned_io[job.kind] = static_cast<double>(stats.planned_io_volume);
  ledger.spilled[job.kind] = static_cast<double>(spilled);
  if (flops > 0) {
    ledger.flops += static_cast<double>(flops);
    ledger.flop_seconds += factorize_s;
  }
  if (stats.planned_peak_entries > 0) {
    ledger.peak_over_plan.push_back(
        static_cast<double>(stats.measured_peak_entries) /
        static_cast<double>(stats.planned_peak_entries));
  }
  ledger.dense_all_s += replay.all_seconds;
  ledger.busy_s += busy_s;
  ledger.top_flops += static_cast<double>(replay.top_flops);
  ledger.top_s += replay.top_seconds;
  ledger.top_bytes += replay.top_bytes;
  if (stats.engine == "parallel" && stats.workers > 0) {
    ledger.efficiency.push_back(stats.parallel_speedup / stats.workers);
  }
  ledger.leases_granted += stats.leases_granted;
  ledger.leases_denied += stats.lease_denied;
  ledger.stall_fallbacks += stats.stall_fallback ? 1 : 0;
  ledger.attributed_s += order_s + permute_s + assembly_s + fill_s +
                         facade.plan + values_s + factorize_s + solve_s;
  ledger.job_wall_s += facade.wall;

  // The decomposition must reproduce the facade exactly.
  if (perm != solver.permutation()) {
    return "permutation differs";
  }
  if (nnz_l != stats.factor_nnz) {
    return "nnz(L) " + std::to_string(nnz_l) + " != " +
           std::to_string(stats.factor_nnz);
  }
  if (assembly.tree.size() != stats.tree_nodes) {
    return "assembly tree size differs";
  }
  if (postorder.peak != stats.best_postorder_peak ||
      minmem.peak != stats.in_core_optimum) {
    return "postorder/MinMem peaks differ from the plan's";
  }
  if (out_of_core) {
    if (solver.planned_io_schedule().io_volume(assembly.tree) !=
        stats.planned_io_volume) {
      return "planned I/O volume differs";
    }
  } else {
    const Weight peak = treemem::in_tree_traversal_peak(
        assembly.tree, solver.planned_traversal());
    if (peak != stats.planned_peak_entries) {
      return "planned peak " + std::to_string(stats.planned_peak_entries) +
             " != traversal peak " + std::to_string(peak);
    }
  }
  const std::string factor_diff = compare_factors(solver.factor(), factor);
  if (!factor_diff.empty()) {
    return factor_diff;
  }
  const std::string solution_diff = compare_bits(x, x_layers);
  return solution_diff.empty() ? "" : "solution " + solution_diff;
}

struct JobResult {
  bool ok = false;
  double seconds = 0.0;
  SolverStats stats;
  std::string error;
};

/// One job through the facade; with a recorder, under spans and followed
/// by its decomposition.
JobResult run_job(const ColdJob& job, const std::vector<double>& b,
                  bool perturb_solution, SpanRecorder* recorder,
                  long long job_id, Ledger* ledger) {
  JobResult result;
  const int job_span =
      recorder ? recorder->open("job", SpanRecorder::kNoParent, job_id) : -1;
  const int facade_span =
      recorder ? recorder->open("facade", job_span, job_id) : -1;
  FacadeTimes times;
  Solver solver(job.options);
  std::vector<double> x;
  const Clock::time_point start = Clock::now();
  try {
    times.analyze = timed(recorder, "solver.analyze", facade_span, job_id,
                          [&] { solver.analyze(job.matrix.pattern()); });
    times.plan = timed(recorder, "solver.plan", facade_span, job_id,
                       [&] { solver.plan(); });
    timed(recorder, "solver.factorize", facade_span, job_id,
          [&] { solver.factorize(job.matrix); });
    times.solve = timed(recorder, "solver.solve", facade_span, job_id,
                        [&] { x = solver.solve(b); });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  result.seconds = times.wall = seconds_since(start);
  if (recorder) {
    recorder->close(facade_span);
  }
  if (result.error.empty()) {
    result.stats = solver.stats();
    if (ledger != nullptr) {
      try {
        result.error = decompose(job, b, solver, x, times, *recorder, job_span,
                                 job_id, *ledger);
      } catch (const std::exception& e) {
        result.error = std::string("decomposition threw: ") + e.what();
      }
    }
  }
  if (recorder) {
    recorder->close(job_span);
  }
  if (!result.error.empty()) {
    return result;
  }
  if (perturb_solution) {
    perturb(x);
  }
  if (!solution_verified(job.matrix, x, b)) {
    result.error = "residual above tolerance";
  } else if (job.budget_bound &&
             result.stats.measured_peak_entries > result.stats.memory_budget) {
    result.error = "measured peak " +
                   std::to_string(result.stats.measured_peak_entries) +
                   " above budget " +
                   std::to_string(result.stats.memory_budget);
  } else {
    result.ok = true;
  }
  return result;
}

/// Runs whole cycles of `jobs` until `seconds` have passed (at least one
/// cycle). `stream` separates the seeded draws of the run's phases.
LoopRecord run_cycles(const Args& args, const std::vector<ColdJob>& jobs,
                      double seconds, std::uint64_t stream,
                      SpanRecorder* recorder, Ledger* ledger,
                      long long& job_counter) {
  LoopRecord record;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t cycle = 0;; ++cycle) {
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    treemem::Prng shuffle(mix_seed(mix_seed(args.seed, stream), cycle));
    shuffle.shuffle(order);
    for (const std::size_t index : order) {
      const ColdJob& job = jobs[index];
      const long long job_id = job_counter++;
      const std::vector<double> b =
          make_rhs(job.matrix.size(),
                   mix_seed(mix_seed(args.seed, stream + 1000), job_id));
      const bool perturb_solution =
          args.perturb_every > 0 && job_id % args.perturb_every == 0;
      const JobResult result =
          run_job(job, b, perturb_solution, recorder, job_id, ledger);
      ++record.attempted;
      record.latencies.push_back(result.seconds);
      record.kind_latencies[job.kind].push_back(result.seconds);
      if (result.ok) {
        ++record.rhs_verified;
        record.peaks[job.kind].push_back(
            static_cast<double>(result.stats.measured_peak_entries));
      } else {
        ++record.failed;
        std::cerr << "job " << job_id << " (" << job.kind
                  << ") failed: " << result.error << "\n";
      }
    }
    if (seconds_since(start) >= seconds) {
      break;
    }
  }
  record.wall_seconds = seconds_since(start);
  return record;
}

}  // namespace

std::string check_traced_job(const ColdJob& job, std::uint64_t seed,
                             std::string* engine) {
  SpanRecorder recorder;
  Ledger ledger;
  const JobResult result = run_job(job, make_rhs(job.matrix.size(), seed),
                                   false, &recorder, 0, &ledger);
  *engine = result.stats.engine;
  return result.error;
}

Report run_cold(const Args& args, const std::vector<ColdJob>& jobs) {
  Report report;
  long long job_counter = 0;
  treemem::WorkerPool& pool = treemem::WorkerPool::instance();
  // One untimed cycle first, so that first-touch page faults and the
  // allocator's per-thread arenas settle before the window opens. Its jobs
  // are checked like all others and its failures count.
  const LoopRecord warm_up =
      run_cycles(args, jobs, 0.0, 2, nullptr, nullptr, job_counter);
  report.attempted = warm_up.attempted;
  report.failed = warm_up.failed;
  if (!args.trace) {
    const LoopRecord record =
        run_cycles(args, jobs, args.seconds, 0, nullptr, nullptr, job_counter);
    report.attempted += record.attempted;
    report.failed += record.failed;
    add_end_to_end(report, record);
    return report;
  }

  const LoopRecord untraced = run_cycles(args, jobs, args.seconds / 3.0, 0,
                                         nullptr, nullptr, job_counter);
  SpanRecorder recorder;
  Ledger ledger;
  const long long spawned_before = pool.stats().threads_spawned;
  const LoopRecord traced =
      run_cycles(args, jobs, args.seconds - args.seconds / 3.0, 1, &recorder,
                 &ledger, job_counter);
  const long long spawned = pool.stats().threads_spawned - spawned_before;
  report.attempted += untraced.attempted + traced.attempted;
  report.failed += untraced.failed + traced.failed;
  add_per_layer(report, ledger, median(untraced.latencies), spawned);
  if (!args.trace_out.empty()) {
    recorder.write_chrome_json(args.trace_out);
    report.notes.push_back("trace: " + std::to_string(recorder.size()) +
                           " spans written to " + args.trace_out);
  }
  return report;
}

}  // namespace perfbench
