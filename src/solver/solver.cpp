#include "solver/solver.hpp"

#include <algorithm>
#include <utility>

#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/out_of_core.hpp"
#include "obs/trace.hpp"
#include "order/ordering.hpp"
#include "support/env.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

namespace treemem {

const char* to_string(OrderingChoice choice) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return "natural";
    case OrderingChoice::kRcm:
      return "rcm";
    case OrderingChoice::kMinDegree:
      return "mindeg";
    case OrderingChoice::kNestedDissection:
      return "nd";
  }
  return "?";
}

const char* to_string(TraversalPolicy policy) {
  switch (policy) {
    case TraversalPolicy::kAuto:
      return "auto";
    case TraversalPolicy::kPostorder:
      return "postorder";
    case TraversalPolicy::kLiu:
      return "liu";
    case TraversalPolicy::kMinMem:
      return "minmem";
  }
  return "?";
}

const char* to_string(FactorizeEngine engine) {
  switch (engine) {
    case FactorizeEngine::kAuto:
      return "auto";
    case FactorizeEngine::kSerial:
      return "serial";
    case FactorizeEngine::kParallel:
      return "parallel";
  }
  return "?";
}

SolverOptions solver_options_from_env(SolverOptions base) {
  // The enum values are declared in the same order as these spellings, so
  // the matched index casts straight to the enumerator.
  if (const auto ordering = env_choice("TREEMEM_ORDERING",
                                       {"natural", "rcm", "mindeg", "nd"})) {
    base.analyze.ordering = static_cast<OrderingChoice>(*ordering);
  }
  if (const auto policy = env_choice(
          "TREEMEM_TRAVERSAL", {"auto", "postorder", "liu", "minmem"})) {
    base.plan.policy = static_cast<TraversalPolicy>(*policy);
  }
  if (const auto budget = env_int("TREEMEM_BUDGET", 1, kInfiniteWeight)) {
    base.plan.memory_budget = static_cast<Weight>(*budget);
  }
  if (const auto workers = env_int("TREEMEM_WORKERS", 1, 1024)) {
    base.factorize.workers = static_cast<int>(*workers);
  }
  return base;
}

void Solver::require_phase(Phase at_least, const char* verb,
                           const char* prerequisite) const {
  TM_CHECK(phase_ >= at_least,
           "Solver::" << verb << ": call " << prerequisite << " first");
}

// ---------------------------------------------------------------------------
// Phase 1: analyze
// ---------------------------------------------------------------------------

Solver& Solver::analyze(const SparsePattern& pattern) {
  return analyze(pattern, options_.analyze);
}

Solver& Solver::analyze(const SparsePattern& pattern,
                        const AnalyzeOptions& options) {
  TM_CHECK(pattern.is_square() && pattern.cols() > 0,
           "Solver::analyze: pattern must be square and non-empty");
  TM_CHECK(pattern.is_symmetric() && pattern.has_full_diagonal(),
           "Solver::analyze: pattern must be symmetric with a full diagonal "
           "(apply symmetrize() first)");
  Timer timer;
  obs::TraceSpan phase_span("analyze", "solver", obs::TraceRecorder::kNoLane,
                            "n", static_cast<long long>(pattern.cols()));

  std::vector<Index> perm;
  switch (options.ordering) {
    case OrderingChoice::kNatural:
      perm = natural_order(pattern.cols());
      break;
    case OrderingChoice::kRcm:
      perm = rcm_order(pattern);
      break;
    case OrderingChoice::kMinDegree:
      perm = min_degree_order(pattern);
      break;
    case OrderingChoice::kNestedDissection:
      perm = nested_dissection_order(pattern);
      break;
  }
  return analyze_ordered(pattern, std::move(perm), options, timer);
}

Solver& Solver::analyze_ordered(const SparsePattern& pattern,
                                std::vector<Index> perm,
                                const AnalyzeOptions& options,
                                const Timer& timer) {
  SparsePattern permuted = permute_symmetric(pattern, perm);
  AssemblyTreeOptions tree_options;
  tree_options.relax = options.relax;
  tree_options.perfect = options.perfect;
  AssemblyTree assembly = build_assembly_tree(permuted, tree_options);

  // Gather map: permuted entry (r, j) holds the original value at
  // (perm[r], perm[j]). Resolving those offsets once here turns every
  // later factorize() into a single linear gather over the value array.
  std::vector<std::size_t> value_map(static_cast<std::size_t>(permuted.nnz()));
  {
    std::size_t offset = 0;
    for (Index j = 0; j < permuted.cols(); ++j) {
      const Index source_col = perm[static_cast<std::size_t>(j)];
      const auto source_rows = pattern.column(source_col);
      const std::size_t source_base = static_cast<std::size_t>(
          pattern.col_ptr()[static_cast<std::size_t>(source_col)]);
      for (const Index r : permuted.column(j)) {
        const Index source_row = perm[static_cast<std::size_t>(r)];
        const auto it = std::lower_bound(source_rows.begin(),
                                         source_rows.end(), source_row);
        TM_ASSERT(it != source_rows.end() && *it == source_row,
                  "permuted pattern entry missing from the source pattern");
        value_map[offset++] =
            source_base + static_cast<std::size_t>(it - source_rows.begin());
      }
    }
  }

  auto analysis = std::make_shared<SolverAnalysis>();
  analysis->options = options;
  analysis->pattern = pattern;
  analysis->perm = std::move(perm);
  analysis->permuted_pattern = std::move(permuted);
  analysis->assembly = std::move(assembly);
  analysis->permuted_value_map = std::move(value_map);
  analysis->factor_nnz = analysis->assembly.factor_pattern.nnz();
  analysis->ordering_name = to_string(options.ordering);
  analysis->analyze_seconds = timer.elapsed_s();

  // Commit only after everything above succeeded, so a throwing analyze()
  // leaves a previously analyzed solver intact.
  analysis_ = std::move(analysis);
  plan_.reset();
  postorder_cache_.reset();
  liu_cache_.reset();
  minmem_cache_.reset();
  factor_.reset();
  phase_ = Phase::kAnalyzed;

  stats_ = SolverStats{};
  solve_counters_.reset();
  stats_.n = analysis_->pattern.cols();
  stats_.pattern_nnz = analysis_->pattern.nnz();
  stats_.factor_nnz = analysis_->factor_nnz;
  stats_.tree_nodes = analysis_->assembly.tree.size();
  stats_.ordering = analysis_->ordering_name;
  stats_.analyze_seconds = analysis_->analyze_seconds;
  return *this;
}

// ---------------------------------------------------------------------------
// Phase 2: plan
// ---------------------------------------------------------------------------

Solver& Solver::plan() { return plan(options_.plan); }

const TraversalResult& Solver::cached_postorder() const {
  if (!postorder_cache_) {
    postorder_cache_ = best_postorder(analysis_->assembly.tree);
  }
  return *postorder_cache_;
}

const TraversalResult& Solver::cached_liu() const {
  if (!liu_cache_) {
    liu_cache_ = liu_optimal(analysis_->assembly.tree);
  }
  return *liu_cache_;
}

const MinMemResult& Solver::cached_minmem() const {
  if (!minmem_cache_) {
    minmem_cache_ = minmem_optimal(analysis_->assembly.tree);
  }
  return *minmem_cache_;
}

Solver& Solver::plan(const PlanOptions& options) {
  require_phase(Phase::kAnalyzed, "plan", "analyze()");
  TM_CHECK(options.policy >= TraversalPolicy::kAuto &&
               options.policy <= TraversalPolicy::kMinMem,
           "Solver::plan: unknown traversal policy "
               << static_cast<int>(options.policy));
  TM_CHECK(options.memory_budget > 0,
           "Solver::plan: memory budget must be positive");
  Timer timer;
  obs::TraceSpan phase_span("plan", "solver");
  const Tree& tree = analysis_->assembly.tree;
  const Weight budget = options.memory_budget;

  const TraversalResult& postorder = cached_postorder();
  const MinMemResult& optimal = cached_minmem();

  // The chosen out-tree traversal; the facade stores its reverse (the
  // bottom-up multifrontal direction).
  Traversal out_tree_order;
  Weight in_core_peak = 0;
  std::string strategy;
  bool out_of_core = false;
  IoSchedule schedule;
  Weight io_volume = 0;

  // Candidate traversals in the out-of-core regime: the explicit policy's
  // own order, or — under kAuto — postorder and Liu, the chain-building
  // orders Fig. 8 shows keep I/O low.
  std::vector<std::pair<std::string, Traversal>> ooc_candidates;

  switch (options.policy) {
    case TraversalPolicy::kAuto:
      if (budget >= postorder.peak) {
        out_tree_order = postorder.order;
        in_core_peak = postorder.peak;
        strategy = "postorder/in-core";
      } else if (budget >= optimal.peak) {
        out_tree_order = optimal.order;
        in_core_peak = optimal.peak;
        strategy = "minmem/in-core";
      } else {
        out_of_core = true;
        ooc_candidates.emplace_back("postorder", postorder.order);
        ooc_candidates.emplace_back("liu", cached_liu().order);
      }
      break;
    case TraversalPolicy::kPostorder:
      out_tree_order = postorder.order;
      in_core_peak = postorder.peak;
      strategy = "postorder/in-core";
      break;
    case TraversalPolicy::kLiu: {
      const TraversalResult& liu = cached_liu();
      out_tree_order = liu.order;
      in_core_peak = liu.peak;
      strategy = "liu/in-core";
      break;
    }
    case TraversalPolicy::kMinMem:
      out_tree_order = optimal.order;
      in_core_peak = optimal.peak;
      strategy = "minmem/in-core";
      break;
  }

  // An explicitly chosen traversal that misses the budget falls back to
  // MinIO eviction on that same traversal.
  if (!out_of_core && budget < in_core_peak) {
    out_of_core = true;
    ooc_candidates.emplace_back(to_string(options.policy),
                                std::move(out_tree_order));
  }

  if (out_of_core) {
    TM_CHECK(options.allow_out_of_core,
             "Solver::plan: budget " << budget
                                     << " is below the in-core peak and "
                                        "out-of-core execution is disabled");
    const Weight floor =
        std::max(tree.max_mem_req(), tree.file_size(tree.root()));
    TM_CHECK(budget >= floor,
             "Solver::plan: budget " << budget << " is below max MemReq "
                                     << floor
                                     << " — no schedule can help (Eq. 1)");
    Weight best_io = kInfiniteWeight;
    for (const auto& [name, order] : ooc_candidates) {
      for (const EvictionPolicy policy :
           {EvictionPolicy::kFirstFit, EvictionPolicy::kBestKCombination}) {
        const MinIoResult result =
            minio_heuristic(tree, order, budget, policy);
        TM_ASSERT(result.feasible, "budget above the floor must be feasible");
        if (result.io_volume < best_io) {
          best_io = result.io_volume;
          schedule = result.schedule;
          strategy = name + "+" + to_string(policy) + "/out-of-core";
        }
      }
    }
    out_tree_order = schedule.order;
    io_volume = best_io;
  }

  auto plan_state = std::make_shared<SolverPlan>();
  plan_state->options = options;
  plan_state->bottom_up_order = reverse_traversal(std::move(out_tree_order));
  plan_state->io_schedule = std::move(schedule);
  plan_state->out_of_core = out_of_core;
  plan_state->budget = budget;
  plan_state->strategy = std::move(strategy);
  plan_state->planned_peak_entries = out_of_core ? budget : in_core_peak;
  plan_state->in_core_optimum = optimal.peak;
  plan_state->best_postorder_peak = postorder.peak;
  plan_state->planned_io_volume = io_volume;
  plan_state->plan_seconds = timer.elapsed_s();

  plan_ = std::move(plan_state);
  factor_.reset();
  phase_ = Phase::kPlanned;

  stats_.strategy = plan_->strategy;
  stats_.memory_budget = budget;
  stats_.planned_peak_entries = plan_->planned_peak_entries;
  stats_.in_core_optimum = plan_->in_core_optimum;
  stats_.best_postorder_peak = plan_->best_postorder_peak;
  stats_.planned_io_volume = plan_->planned_io_volume;
  stats_.plan_seconds = plan_->plan_seconds;
  return *this;
}

// ---------------------------------------------------------------------------
// Shared symbolic state
// ---------------------------------------------------------------------------

SolverSymbolic Solver::symbolic() const {
  require_phase(Phase::kPlanned, "symbolic", "plan()");
  return SolverSymbolic{analysis_, plan_};
}

Solver& Solver::adopt(SolverSymbolic symbolic) {
  TM_CHECK(symbolic.analysis != nullptr && symbolic.plan != nullptr,
           "Solver::adopt: symbolic state must carry both an analysis and a "
           "plan (export it from a planned solver via symbolic())");
  analysis_ = std::move(symbolic.analysis);
  plan_ = std::move(symbolic.plan);
  postorder_cache_.reset();
  liu_cache_.reset();
  minmem_cache_.reset();
  factor_.reset();
  phase_ = Phase::kPlanned;

  // Rebuild the analyze/plan reporting fields from the adopted snapshots;
  // keep the cumulative service counters (factorizations + the atomic
  // solve counters) so a pooled solver accumulates lifetime totals.
  const int factorizations = stats_.factorizations;
  const long long leases_granted = stats_.leases_granted;
  const long long lease_denied = stats_.lease_denied;
  stats_ = SolverStats{};
  stats_.factorizations = factorizations;
  stats_.leases_granted = leases_granted;
  stats_.lease_denied = lease_denied;
  stats_.n = analysis_->pattern.cols();
  stats_.pattern_nnz = analysis_->pattern.nnz();
  stats_.factor_nnz = analysis_->factor_nnz;
  stats_.tree_nodes = analysis_->assembly.tree.size();
  stats_.ordering = analysis_->ordering_name;
  stats_.analyze_seconds = analysis_->analyze_seconds;
  stats_.strategy = plan_->strategy;
  stats_.memory_budget = plan_->budget;
  stats_.planned_peak_entries = plan_->planned_peak_entries;
  stats_.in_core_optimum = plan_->in_core_optimum;
  stats_.best_postorder_peak = plan_->best_postorder_peak;
  stats_.planned_io_volume = plan_->planned_io_volume;
  stats_.plan_seconds = plan_->plan_seconds;
  return *this;
}

// ---------------------------------------------------------------------------
// Phase 3: factorize
// ---------------------------------------------------------------------------

Solver& Solver::factorize(const SymmetricMatrix& matrix) {
  return factorize(matrix, options_.factorize);
}

Solver& Solver::factorize(const SymmetricMatrix& matrix,
                          const FactorizeOptions& options) {
  require_phase(Phase::kPlanned, "factorize", "plan()");
  TM_CHECK(matrix.pattern().col_ptr() == analysis_->pattern.col_ptr() &&
               matrix.pattern().row_idx() == analysis_->pattern.row_idx(),
           "Solver::factorize: matrix pattern differs from the analyzed "
           "pattern");
  return factorize_permuted(permute_values(matrix.values()), options);
}

Solver& Solver::factorize(std::vector<double> values) {
  return factorize(std::move(values), options_.factorize);
}

Solver& Solver::factorize(std::vector<double> values,
                          const FactorizeOptions& options) {
  require_phase(Phase::kPlanned, "factorize", "plan()");
  TM_CHECK(values.size() == static_cast<std::size_t>(analysis_->pattern.nnz()),
           "Solver::factorize: " << values.size()
                                 << " values for a pattern with "
                                 << analysis_->pattern.nnz() << " entries");
  return factorize_permuted(permute_values(values), options);
}

SymmetricMatrix Solver::permute_values(
    const std::vector<double>& values) const {
  // One linear gather over the analyze()-time map replaces a full
  // symbolic permutation per factorize; the SymmetricMatrix constructor
  // still validates value symmetry on the permuted system.
  const std::vector<std::size_t>& map = analysis_->permuted_value_map;
  std::vector<double> permuted_values(map.size());
  for (std::size_t o = 0; o < map.size(); ++o) {
    permuted_values[o] = values[map[o]];
  }
  return SymmetricMatrix(analysis_->permuted_pattern,
                         std::move(permuted_values));
}

Solver& Solver::factorize_permuted(const SymmetricMatrix& permuted,
                                   const FactorizeOptions& options) {
  TM_CHECK(options.workers >= 0,
           "Solver::factorize: workers must be >= 0 (0 = default)");
  const int workers = options.workers > 0
                          ? options.workers
                          : static_cast<int>(default_thread_count());
  // The run's worker count also caps the kernel's intra-front width, so
  // workers = 1 (a SolverPool job, say) really runs on one thread.
  KernelConfig kernel = options.kernel;
  if (kernel.workers == 0) {
    kernel.workers = static_cast<unsigned>(workers);
  }

  FactorizeEngine engine = options.engine;
  if (engine == FactorizeEngine::kAuto) {
    // Zero slack (budget == planned peak) leaves no room for any schedule
    // but the planned one: run it serially instead of a parallel attempt
    // that would stall and fall back anyway.
    const bool slack = plan_->budget > plan_->planned_peak_entries;
    engine = (!plan_->out_of_core && slack && workers > 1)
                 ? FactorizeEngine::kParallel
                 : FactorizeEngine::kSerial;
  }
  TM_CHECK(engine == FactorizeEngine::kSerial || !plan_->out_of_core,
           "Solver::factorize: the parallel engine cannot execute an "
           "out-of-core plan (spills are inherently serial here); use "
           "FactorizeEngine::kSerial or raise the memory budget");

  Timer timer;
  obs::TraceSpan phase_span("factorize", "solver", obs::TraceRecorder::kNoLane,
                            "workers", workers);
  bool stall_fallback = false;

  if (engine == FactorizeEngine::kParallel) {
    // The planned traversal is the serial witness: plan() guaranteed its
    // peak fits the budget, so lookahead admission is stall-free here.
    const ParallelFactorOptions parallel{
        .workers = workers,
        .memory_budget = plan_->budget,
        .priority = options.priority,
        .admission = options.admission,
        .serial_witness = plan_->bottom_up_order,
        .kernel = kernel,
        .lease_idle_workers = options.lease_idle_workers};
    ParallelFactorResult run =
        factor_parallel(permuted, analysis_->assembly, parallel);
    if (run.feasible) {
      factor_ = std::make_shared<const CholeskyFactor>(std::move(run.factor));
      phase_ = Phase::kFactorized;
      stats_.engine = "parallel";
      stats_.kernel = to_string(dispatched_isa());
      stats_.admission = to_string(options.admission);
      stats_.workers = workers;
      stats_.flops = run.flops;
      stats_.measured_peak_entries = run.measured_peak_entries;
      stats_.modeled_peak_entries = run.modeled_peak_entries;
      stats_.factorize_seconds = timer.elapsed_s();
      stats_.parallel_speedup = run.speedup;
      stats_.stall_fallback = false;
      stats_.leases_granted += run.leases_granted;
      stats_.lease_denied += run.lease_denied;
      ++stats_.factorizations;
      return *this;
    }
    // Greedy stall under a tight budget: the planned serial traversal is
    // guaranteed feasible, and the serial engine produces the identical
    // factor bit for bit.
    stall_fallback = true;
  }

  // One serial loop either way: an out-of-core plan spills and restores
  // the blocks its schedule writes, an in-core plan writes none.
  MultifrontalResult run =
      plan_->out_of_core
          ? multifrontal_cholesky_out_of_core(permuted, analysis_->assembly,
                                              plan_->io_schedule,
                                              plan_->budget, kernel)
          : multifrontal_cholesky(permuted, analysis_->assembly,
                                  plan_->bottom_up_order, kernel);
  factor_ = std::make_shared<const CholeskyFactor>(std::move(run.factor));
  phase_ = Phase::kFactorized;
  stats_.engine = plan_->out_of_core ? "out-of-core" : "serial";
  stats_.kernel = to_string(dispatched_isa());
  stats_.admission.clear();  // serial runs have no admission decisions
  stats_.workers = 1;
  stats_.flops = run.flops;
  stats_.measured_peak_entries = run.peak_live_entries;
  stats_.modeled_peak_entries = stats_.planned_peak_entries;
  stats_.factorize_seconds = timer.elapsed_s();
  stats_.leases_granted += run.leases_granted;
  stats_.lease_denied += run.lease_denied;
  stats_.parallel_speedup = 0.0;
  stats_.stall_fallback = stall_fallback;
  ++stats_.factorizations;
  return *this;
}

// ---------------------------------------------------------------------------
// Phase 4: solve
// ---------------------------------------------------------------------------

std::vector<double> Solver::solve(std::vector<double> rhs) const {
  require_phase(Phase::kFactorized, "solve", "factorize()");
  const std::size_t n = static_cast<std::size_t>(analysis_->pattern.cols());
  TM_CHECK(rhs.size() == n, "Solver::solve: rhs has " << rhs.size()
                                                      << " entries, expected "
                                                      << n);
  Timer timer;
  obs::TraceSpan phase_span("solve", "solver");
  const std::vector<Index>& perm = analysis_->perm;
  // Solve P A Pᵀ y = P b, then undo the permutation: x = Pᵀ y.
  std::vector<double> permuted_rhs(n);
  for (std::size_t k = 0; k < n; ++k) {
    permuted_rhs[k] = rhs[static_cast<std::size_t>(perm[k])];
  }
  const std::vector<double> y =
      solve_with_factor(*factor_, std::move(permuted_rhs));
  std::vector<double>& x = rhs;  // reuse the buffer
  for (std::size_t k = 0; k < n; ++k) {
    x[static_cast<std::size_t>(perm[k])] = y[k];
  }
  // Relaxed is enough: the counters are cumulative tallies read through
  // stats() snapshots, not synchronization edges.
  solve_counters_.nanos.fetch_add(
      static_cast<long long>(timer.elapsed_s() * 1e9),
      std::memory_order_relaxed);
  solve_counters_.rhs.fetch_add(1, std::memory_order_relaxed);
  return x;
}

std::vector<std::vector<double>> Solver::solve(
    const std::vector<std::vector<double>>& rhs) const {
  require_phase(Phase::kFactorized, "solve", "factorize()");
  std::vector<std::vector<double>> solutions;
  solutions.reserve(rhs.size());
  for (const std::vector<double>& column : rhs) {
    solutions.push_back(solve(column));
  }
  return solutions;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

SolverStats Solver::stats() const {
  SolverStats snapshot = stats_;
  snapshot.rhs_solved = solve_counters_.rhs.load(std::memory_order_relaxed);
  snapshot.solve_seconds =
      static_cast<double>(
          solve_counters_.nanos.load(std::memory_order_relaxed)) *
      1e-9;
  return snapshot;
}

const std::vector<Index>& Solver::permutation() const {
  require_phase(Phase::kAnalyzed, "permutation", "analyze()");
  return analysis_->perm;
}

const AssemblyTree& Solver::assembly() const {
  require_phase(Phase::kAnalyzed, "assembly", "analyze()");
  return analysis_->assembly;
}

const Traversal& Solver::planned_traversal() const {
  require_phase(Phase::kPlanned, "planned_traversal", "plan()");
  return plan_->bottom_up_order;
}

const IoSchedule& Solver::planned_io_schedule() const {
  require_phase(Phase::kPlanned, "planned_io_schedule", "plan()");
  return plan_->io_schedule;
}

const CholeskyFactor& Solver::factor() const {
  require_phase(Phase::kFactorized, "factor", "factorize()");
  return *factor_;
}

std::shared_ptr<const CholeskyFactor> Solver::shared_factor() const {
  require_phase(Phase::kFactorized, "shared_factor", "factorize()");
  return factor_;
}

Solver& Solver::adopt_factor(std::shared_ptr<const CholeskyFactor> factor) {
  require_phase(Phase::kPlanned, "adopt_factor", "plan() (or adopt())");
  TM_CHECK(factor != nullptr,
           "Solver::adopt_factor: factor must be non-null (export it from a "
           "factorized solver via shared_factor())");
  TM_CHECK(factor->pattern.cols() == analysis_->permuted_pattern.cols(),
           "Solver::adopt_factor: factor dimension "
               << factor->pattern.cols() << " differs from the adopted "
               << "pattern's " << analysis_->permuted_pattern.cols());
  factor_ = std::move(factor);
  phase_ = Phase::kFactorized;
  // Reporting: no numeric work ran — engine "cached", zero time/flops.
  // factorizations is deliberately NOT incremented; it counts factors
  // actually computed, which is what the repeat-values bench compares.
  stats_.engine = "cached";
  stats_.admission.clear();
  stats_.workers = 0;
  stats_.flops = 0;
  stats_.measured_peak_entries = 0;
  stats_.modeled_peak_entries = 0;
  stats_.factorize_seconds = 0.0;
  stats_.parallel_speedup = 0.0;
  stats_.stall_fallback = false;
  return *this;
}

}  // namespace treemem
