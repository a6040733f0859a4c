#include "multifrontal/out_of_core.hpp"

#include "core/check.hpp"

namespace treemem {

OutOfCoreRunResult multifrontal_cholesky_out_of_core(
    const SymmetricMatrix& matrix, const AssemblyTree& assembly,
    const IoSchedule& schedule, Weight budget_entries,
    const KernelConfig& kernel) {
  const Tree& tree = assembly.tree;

  // Validate the schedule once with the reference checker at the budget,
  // using the *model* weights; real fronts are no larger, so feasibility
  // transfers to the engine.
  const CheckResult check = check_out_of_core(tree, schedule, budget_entries);
  TM_CHECK(check.feasible,
           "out-of-core schedule rejected by Algorithm 2: " << check.reason);

  // Spill every block the plan writes at any point of its lifetime.
  std::vector<char> spill(static_cast<std::size_t>(tree.size()), 0);
  for (const IoWrite& w : schedule.writes) {
    spill[static_cast<std::size_t>(w.node)] = 1;
  }

  FrontalEngine engine(matrix, assembly, kernel);
  OutOfCoreRunResult result{
      factor_serial(engine, reverse_traversal(schedule.order), spill)};
  result.entries_spilled = engine.entries_spilled();
  result.spill_events = engine.spill_events();
  TM_ASSERT(result.peak_live_entries <= budget_entries,
            "engine exceeded the planned budget: " << result.peak_live_entries
                                                   << " > " << budget_entries);
  return result;
}

}  // namespace treemem
