// The benchmark's own bit-level checks (`perfbench --selftest`): the
// traced decomposition reproduces the facade on every engine, and the
// comparisons and the solution check reject a perturbed result.
#include <cmath>
#include <iostream>
#include <set>

#include "bench.hpp"

namespace perfbench {

namespace {

int expect(bool condition, const std::string& what) {
  std::cout << (condition ? "  ok    " : "  FAIL  ") << what << "\n";
  return condition ? 0 : 1;
}

}  // namespace

int run_selftest() {
  int failures = 0;
  std::set<std::string> engines;
  for (const char* workload : {"cold_2d", "cold_3d", "tight_budget"}) {
    Args args;
    args.workload = workload;
    args.seed = 11;
    args.smoke = true;
    std::vector<ColdJob> jobs = make_cold_jobs(args);
    // One more cold_2d job pinned to one worker: the serial engine.
    ColdJob serial = jobs.front();
    serial.options.factorize.workers = 1;
    jobs.push_back(serial);
    for (const ColdJob& job : jobs) {
      std::string engine;
      const std::string error = check_traced_job(job, 5, &engine);
      engines.insert(engine);
      failures += expect(error.empty(), std::string(workload) + " " +
                                            job.kind + " [" + engine +
                                            "] decomposition matches " +
                                            error);
    }
  }
  for (const char* engine : {"serial", "parallel", "out-of-core"}) {
    failures += expect(engines.count(engine) == 1,
                       std::string("decomposition covered the ") + engine +
                           " engine");
  }

  // The comparisons and the check must be able to fail.
  const SymmetricMatrix matrix =
      treemem::make_spd_matrix(treemem::gen::grid2d(9, 7), 3);
  treemem::Solver solver;
  solver.analyze(matrix.pattern()).plan().factorize(matrix);
  const std::vector<double> b = make_rhs(matrix.size(), 4);
  std::vector<double> x = solver.solve(b);
  failures += expect(solution_verified(matrix, x, b),
                     "the facade's solution passes the residual check");
  CholeskyFactor flipped = solver.factor();
  flipped.values[flipped.values.size() / 2] =
      std::nextafter(flipped.values[flipped.values.size() / 2], 1e300);
  failures += expect(!compare_factors(solver.factor(), flipped).empty(),
                     "a factor one ulp off is reported as a mismatch");
  std::vector<double> perturbed = x;
  perturb(perturbed);
  failures += expect(!compare_bits(x, perturbed).empty(),
                     "a perturbed solution differs bit for bit");
  failures += expect(!solution_verified(matrix, perturbed, b),
                     "a perturbed solution fails the residual check");
  return failures;
}

}  // namespace perfbench
