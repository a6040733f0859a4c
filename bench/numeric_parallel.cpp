// Extension bench: the end-to-end parallel numeric pipeline — corpus
// matrix → treemem::Solver facade (analyze → plan → factorize) — swept
// across worker counts and admission policies.
//
// Each instance is analyzed ONCE (ordering, assembly tree, symbolic) and
// then factorized many times through the facade's reuse path: serially
// along the planned best postorder, and with the threaded engine at
// w ∈ {1, 2, 4, 8}, free and (at w = 4) re-planned with the modeled budget
// capped at 1.5× the w = 1 modeled peak. Reported per run: measured factor
// seconds, speedup over the serial engine, the engine's *measured* peak
// live entries and the *modeled* Eq. 1 peak from SolverStats — the same
// quantity in the same units, machine vs. model. Stalled capped runs are
// reported as such (the greedy scheduler's memory deadlock, read from
// SolverStats::stall_fallback — the facade finished the run serially).
//
// Exactness is enforced on every feasible run: the factor must reproduce
// the serial engine's bit for bit. Intra-front workers follow
// TREEMEM_THREADS.
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "multifrontal/numeric.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "support/csv.hpp"
#include "support/text_table.hpp"

namespace {

using namespace treemem;

std::string fmt(double v, int precision = 2) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

int run(const std::string& trace_path) {
  // Records the whole sweep (tree-level lanes, panel/trailing spans, pool
  // lease instants) when --trace or TREEMEM_TRACE asks for it.
  obs::TraceSession trace(trace_path);
  CorpusOptions options = bench::corpus_options();
  // Numeric factorization is dense-kernel heavy; a moderate slice of the
  // corpus keeps the smoke run in seconds while exercising real fronts.
  // The facade re-runs the same ordering/relax pipeline internally, so
  // instances match the old hand-stitched build_numeric_instances ones.
  const auto matrices = smallest_corpus_matrices(options, /*count=*/5);
  bench::print_header(
      "Extension — parallel numeric multifrontal Cholesky via the Solver "
      "facade: workers × admission, measured vs modeled peak");

  CsvWriter csv(bench::output_dir() + "/numeric_parallel.csv",
                {"instance", "n", "tree_nodes", "kernel", "workers", "mode",
                 "admission", "memory_budget", "feasible", "serial_seconds",
                 "parallel_seconds", "speedup_vs_serial", "measured_peak",
                 "modeled_peak", "flops"});

  TextTable table({"instance", "n", "serial s", "w=8 s", "best speedup",
                   "capped greedy", "capped la"});

  // "Largest" for the root-front check means the most factorization work
  // (dense flops), not the widest matrix — a huge narrow-band instance has
  // only small fronts and says nothing about kernel quality.
  std::string largest_name;
  long long largest_flops = -1;
  double largest_serial = 0.0, largest_w8 = 0.0;

  for (const CorpusMatrix& source : matrices) {
    for (const OrderingChoice ordering :
         {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
      const std::string name = source.name + "/" + to_string(ordering) +
                               "/r" + std::to_string(options.relax_values.front());
      const SymmetricMatrix values =
          make_spd_matrix(source.pattern, options.seed);
      const Index n = source.pattern.cols();

      // Analyze ONCE; every run below reuses the symbolic state. The plan
      // pins the best postorder — the serial yardstick.
      AnalyzeOptions analyze;
      analyze.ordering = ordering;
      analyze.relax = options.relax_values.front();
      Solver solver;
      solver.analyze(source.pattern, analyze);
      const Tree& tree = solver.assembly().tree;

      PlanOptions free_plan;
      free_plan.policy = TraversalPolicy::kPostorder;
      solver.plan(free_plan);

      FactorizeOptions serial_options;
      serial_options.engine = FactorizeEngine::kSerial;
      serial_options.workers = 1;
      solver.factorize(values, serial_options);
      const double serial_seconds = solver.stats().factorize_seconds;
      const long long serial_flops = solver.stats().flops;
      const std::vector<double> serial_factor = solver.factor().values;

      // The w = 1 modeled peak anchors the capped runs (the model sees only
      // the assembly-tree weights).
      FactorizeOptions w1 = serial_options;
      w1.engine = FactorizeEngine::kParallel;
      w1.workers = 1;
      solver.factorize(values, w1);
      const Weight cap = std::max(solver.stats().modeled_peak_entries * 3 / 2,
                                  tree.max_mem_req());

      double best_speedup = 0.0;
      std::string capped_greedy_cell = "-";
      std::string capped_lookahead_cell = "-";

      // One parallel run's numbers, captured from SolverStats at run time
      // (the solver's stats describe only the *latest* factorize call).
      struct RunSample {
        bool feasible = false;
        double seconds = 0.0;
        Weight measured_peak = 0;
        Weight modeled_peak = 0;
        long long flops = 0;
      };
      const auto write_row = [&](int workers, const char* mode_label,
                                 AdmissionPolicy admission, Weight budget,
                                 const RunSample& run, double speedup) {
        csv.write_row(
            {name, CsvWriter::cell(static_cast<long long>(n)),
             CsvWriter::cell(static_cast<long long>(tree.size())),
             solver.stats().kernel,
             CsvWriter::cell(static_cast<long long>(workers)), mode_label,
             to_string(admission),
             budget == kInfiniteWeight ? std::string("inf")
                                       : std::to_string(budget),
             run.feasible ? "1" : "0", CsvWriter::cell(serial_seconds),
             CsvWriter::cell(run.seconds), CsvWriter::cell(speedup),
             CsvWriter::cell(static_cast<long long>(run.measured_peak)),
             CsvWriter::cell(static_cast<long long>(run.modeled_peak)),
             CsvWriter::cell(run.flops)});
      };

      // A parallel factorization through the facade; a greedy stall (the
      // facade fell back to the serial engine) is charted as an infeasible
      // sample. Every run must reproduce the serial factor bit for bit: a
      // fast wrong kernel must crash the bench, not chart a win.
      const auto parallel_run = [&](int workers,
                                    AdmissionPolicy admission =
                                        AdmissionPolicy::kGreedy) {
        FactorizeOptions run_options;
        run_options.engine = FactorizeEngine::kParallel;
        run_options.workers = workers;
        run_options.admission = admission;
        solver.factorize(values, run_options);
        const std::vector<double>& factor = solver.factor().values;
        TM_CHECK(factor.size() == serial_factor.size() &&
                     std::memcmp(factor.data(), serial_factor.data(),
                                 factor.size() * sizeof(double)) == 0,
                 "parallel factor diverged from serial on " << name);
        RunSample sample;
        if (solver.stats().stall_fallback) {
          return sample;
        }
        sample.feasible = true;
        sample.seconds = solver.stats().factorize_seconds;
        sample.measured_peak = solver.stats().measured_peak_entries;
        sample.modeled_peak = solver.stats().modeled_peak_entries;
        sample.flops = solver.stats().flops;
        return sample;
      };

      // Worker sweep (single samples) + capped points at w = 4.
      for (const int workers : {1, 2, 4}) {
        struct Mode {
          const char* label;
          AdmissionPolicy admission;
          Weight budget;
        };
        // Capped points (w = 4 only) run once per admission policy: the
        // greedy column charts the stall, the lookahead column charts the
        // stall-free throughput under the same budget.
        const Mode modes[] = {
            {"free", AdmissionPolicy::kGreedy, kInfiniteWeight},
            {"capped", AdmissionPolicy::kGreedy, cap},
            {"capped", AdmissionPolicy::kLookahead, cap}};
        for (const Mode& mode : modes) {
          if (mode.budget != kInfiniteWeight && workers != 4) {
            continue;  // one capped point per policy tells the story
          }
          PlanOptions plan = free_plan;
          if (mode.budget != kInfiniteWeight) {
            // Re-plan under the cap; the symbolic state is reused. kAuto
            // may tighten the traversal to fit (the facade's regime
            // logic); the parallel engine only consumes the budget.
            plan.policy = TraversalPolicy::kAuto;
            plan.memory_budget = mode.budget;
          }
          solver.plan(plan);
          const RunSample run = parallel_run(workers, mode.admission);
          const double speedup =
              run.feasible ? serial_seconds / std::max(run.seconds, 1e-12)
                           : 0.0;
          write_row(workers, mode.label, mode.admission, mode.budget, run,
                    speedup);
          if (mode.budget == kInfiniteWeight) {
            best_speedup = std::max(best_speedup, speedup);
          }
          if (mode.budget != kInfiniteWeight) {
            std::string& cell = mode.admission == AdmissionPolicy::kLookahead
                                    ? capped_lookahead_cell
                                    : capped_greedy_cell;
            cell = run.feasible ? fmt(speedup) + "x" : "stall";
          }
        }
      }

      // w = 8 — the wall-clock number the root-front check reads;
      // min-of-3 is the estimator.
      solver.plan(free_plan);
      RunSample best;
      for (int rep = 0; rep < 3; ++rep) {
        const RunSample run = parallel_run(8);
        TM_CHECK(run.feasible, "unbounded w=8 run must be feasible");
        if (rep == 0 || run.seconds < best.seconds) {
          best = run;
        }
      }
      const double w8_speedup =
          serial_seconds / std::max(best.seconds, 1e-12);
      write_row(8, "free", AdmissionPolicy::kGreedy, kInfiniteWeight, best,
                w8_speedup);
      best_speedup = std::max(best_speedup, w8_speedup);

      if (serial_flops > largest_flops) {
        largest_flops = serial_flops;
        largest_name = name;
        largest_serial = serial_seconds;
        largest_w8 = best.seconds;
      }
      table.add_row({name, std::to_string(n), fmt(serial_seconds, 3),
                     fmt(best.seconds, 3), fmt(best_speedup),
                     capped_greedy_cell, capped_lookahead_cell});
    }
  }

  std::cout << table.to_string();
  std::cout << "\nroot-front check (largest instance, " << largest_name
            << "): w=8 " << fmt(largest_w8, 3) << " s vs serial "
            << fmt(largest_serial, 3) << " s — "
            << fmt(largest_serial / std::max(largest_w8, 1e-12)) << "x\n";
  std::cout << "\nreading: every instance is analyzed once and factorized "
               "about a dozen\ntimes through the facade's reuse path — every "
               "run reproduces the serial\nfactor bit for bit at every worker "
               "count, while the engine's measured live\nentries stay within "
               "the Eq. 1 model reported by SolverStats. Re-planning\nwith "
               "the budget capped at 1.5x the w=1 peak throttles or stalls the "
               "greedy\nschedule, while the lookahead admission policy "
               "factors the same instances\nstall-free under the same "
               "budget: the memory/parallelism tension the\npaper's "
               "conclusion anticipates, on real numeric payloads.\n";
  std::cout << "raw data: " << csv.path() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: numeric_parallel [--trace out.json]\n";
      return 2;
    }
  }
  return run(trace_path);
}
