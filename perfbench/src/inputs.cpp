// Seeded inputs of the three cold workloads. The sparsity patterns are
// fixed per workload, so that runs with different seeds do the same
// symbolic work and their metrics compare; the seed draws the SPD values
// and (in cold.cpp) the right-hand sides and the job order.
#include <cmath>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

using treemem::OrderingChoice;
using treemem::SolverOptions;
using treemem::SparsePattern;

SolverOptions cold_options(OrderingChoice ordering) {
  SolverOptions options;
  options.analyze.ordering = ordering;
  options.factorize.workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return options;
}

ColdJob make_job(std::string name, const SparsePattern& pattern,
                 const SolverOptions& options, std::uint64_t value_seed) {
  ColdJob job;
  job.kind = name;
  job.matrix_name = std::move(name);
  job.matrix = treemem::make_spd_matrix(treemem::symmetrize(pattern),
                                        value_seed);
  job.options = options;
  return job;
}

/// 5-point, 9-point and 10%-holed grids of side k for each k: min-degree
/// ordering and symbolic work are about half of every job, fronts stay
/// small.
std::vector<ColdJob> cold_2d(const Args& args) {
  const std::vector<Index> sides =
      args.smoke ? std::vector<Index>{20, 28} : std::vector<Index>{100, 141, 200};
  const SolverOptions options = cold_options(OrderingChoice::kMinDegree);
  treemem::Prng holes(kHolesSeed);
  std::vector<ColdJob> jobs;
  for (const Index k : sides) {
    for (const char* family : {"5pt", "9pt", "holes"}) {
      SparsePattern pattern;
      if (std::string(family) == "holes") {
        pattern = treemem::gen::grid2d_with_holes(k, k, 0.10, holes);
      } else {
        pattern = treemem::gen::grid2d(k, k, std::string(family) == "9pt");
      }
      const std::string name =
          std::string("grid2d-") + family + "-" + std::to_string(k);
      jobs.push_back(make_job(name, pattern, options,
                              mix_seed(args.seed, 100 + jobs.size())));
    }
  }
  return jobs;
}

/// 27-point cubes with nested dissection: factorization is ≥ 90% of every
/// job and the root fronts reach 1–1.2k rows, so the dense kernel, the
/// executor and the pool's leases do the work.
std::vector<ColdJob> cold_3d(const Args& args) {
  const std::vector<Index> sides =
      args.smoke ? std::vector<Index>{5, 6} : std::vector<Index>{16, 18, 20};
  const SolverOptions options =
      cold_options(OrderingChoice::kNestedDissection);
  std::vector<ColdJob> jobs;
  for (const Index k : sides) {
    const std::string name = "grid3d-27pt-" + std::to_string(k);
    jobs.push_back(make_job(name, treemem::gen::grid3d(k, k, k, true),
                            options, mix_seed(args.seed, 200 + jobs.size())));
  }
  return jobs;
}

/// The perf corpus' numeric instances — its 17 matrices under both
/// orderings, already permuted and analyzed with the natural ordering —
/// each planned at its in-core optimum and, where max MemReq lies below
/// that optimum, at the midpoint between the two, which forces a MinIO
/// out-of-core plan. The patterns are the corpus' fixed ones; the seed
/// draws the values.
std::vector<ColdJob> tight_budget(const Args& args) {
  const std::vector<treemem::CorpusMatrix> matrices =
      treemem::smallest_corpus_matrices(
          treemem::CorpusOptions{},
          args.smoke ? 3 : std::numeric_limits<std::size_t>::max());
  std::vector<treemem::NumericInstance> instances;
  for (const treemem::CorpusMatrix& matrix : matrices) {
    for (const treemem::OrderingKind ordering :
         {treemem::OrderingKind::kMinDegree,
          treemem::OrderingKind::kNestedDissection}) {
      instances.push_back(treemem::build_numeric_instance(
          matrix, ordering, 1, mix_seed(args.seed, 3 + instances.size())));
    }
  }
  SolverOptions options = cold_options(OrderingChoice::kNatural);
  std::vector<ColdJob> jobs;
  for (const treemem::NumericInstance& instance : instances) {
    treemem::Solver probe(options);
    probe.analyze(instance.matrix.pattern()).plan();
    const Weight optimum = probe.stats().in_core_optimum;
    const treemem::Tree& tree = probe.assembly().tree;
    const Weight floor =
        std::max(tree.max_mem_req(), tree.file_size(tree.root()));

    std::vector<std::pair<std::string, Weight>> budgets = {
        {"optimum", optimum}};
    if (optimum - floor >= 2) {
      budgets.emplace_back("ooc", floor + (optimum - floor) / 2);
    }
    for (const auto& [label, budget] : budgets) {
      ColdJob job;
      job.kind = instance.name + "@" + label;
      job.matrix_name = instance.name;
      job.matrix = instance.matrix;
      job.options = options;
      job.options.plan.memory_budget = budget;
      job.budget_bound = true;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace

std::vector<ColdJob> make_cold_jobs(const Args& args) {
  if (args.workload == "cold_2d") {
    return cold_2d(args);
  }
  if (args.workload == "cold_3d") {
    return cold_3d(args);
  }
  return tight_budget(args);
}

}  // namespace perfbench
