#include <algorithm>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {

double sum_values(const std::map<std::string, double>& by_key) {
  double total = 0.0;
  for (const auto& [key, value] : by_key) {
    total += value;
  }
  return total;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void add_end_to_end(Report& report, const LoopRecord& record) {
  double percentile = 0.0;
  const double tail = tail_latency(record.latencies, &percentile);
  std::ostringstream note;
  note << "latency_tail_s is p" << percentile << " of "
       << record.latencies.size() << " jobs";
  report.notes.push_back(note.str());
  // Not a gated metric: glibc's per-thread arenas keep freed fronts in
  // 10 MB steps that vary from run to run with the parallel schedule.
  std::ostringstream rss;
  rss << "peak RSS " << peak_rss_mb() << " MB";
  report.notes.push_back(rss.str());
  for (const auto& [kind, latencies] : record.kind_latencies) {
    std::ostringstream line;
    line << "kind " << kind << ": " << latencies.size()
         << " jobs, median " << median(latencies) << " s";
    report.notes.push_back(line.str());
  }

  report.add("latency_p50_s", median(record.latencies), "s");
  report.add("latency_tail_s", tail, "s");
  report.add("solves_per_s",
             ratio(static_cast<double>(record.rhs_verified),
                   record.wall_seconds),
             "1/s");
  report.add("peak_entries", sum_of_medians(record.peaks), "entries");
  report.add("success_rate",
             ratio(static_cast<double>(report.attempted - report.failed),
                   static_cast<double>(report.attempted)),
             "ratio");
}

void add_per_layer(Report& report, const Ledger& l, double untraced_p50,
                   long long threads_spawned) {
  report.add("order.seconds", median(l.order_s), "s");
  report.add("order.factor_nnz", sum_values(l.factor_nnz), "count");
  report.add("order.factor_flops", sum_values(l.factor_flops), "flop");
  report.add("symbolic.seconds", median(l.symbolic_s), "s");
  report.add("symbolic.supernodes", sum_values(l.supernodes), "count");
  report.add("solver.analyze_other_seconds", median(l.analyze_other_s), "s");

  report.add("core.plan_seconds", median(l.plan_s), "s");
  report.add("core.minmem_seconds", median(l.minmem_s), "s");
  report.add("core.postorder_seconds", median(l.postorder_s), "s");
  report.add("core.planned_peak_entries", sum_values(l.planned_peak),
             "entries");
  report.add("core.postorder_over_minmem",
             ratio(sum_values(l.postorder_peak), sum_values(l.minmem_peak)),
             "ratio");
  report.add("core.planned_io_entries", sum_values(l.planned_io), "entries");

  report.add("multifrontal.factorize_seconds", median(l.factorize_s), "s");
  report.add("multifrontal.gflops", ratio(l.flops, l.flop_seconds) * 1e-9,
             "GFLOP/s");
  report.add("multifrontal.peak_over_plan", median(l.peak_over_plan),
             "ratio");
  report.add("multifrontal.choreography_share",
             l.busy_s > 0.0 ? std::max(0.0, 1.0 - l.dense_all_s / l.busy_s)
                            : 0.0,
             "ratio");
  report.add("multifrontal.ooc_spilled_entries", sum_values(l.spilled),
             "entries");
  report.add("multifrontal.ooc_seconds", median(l.ooc_s), "s");

  report.add("dense.gflops", ratio(l.top_flops, l.top_s) * 1e-9, "GFLOP/s");
  report.add("dense.flops_per_byte", ratio(l.top_flops, l.top_bytes),
             "flop/B");

  report.add("parallel.efficiency", median(l.efficiency), "ratio");
  report.add("parallel.lease_grant_ratio",
             ratio(static_cast<double>(l.leases_granted),
                   static_cast<double>(l.leases_granted + l.leases_denied)),
             "ratio");
  report.add("parallel.stall_fallback_ratio",
             ratio(static_cast<double>(l.stall_fallbacks),
                   static_cast<double>(l.parallel_attempts)),
             "ratio");
  report.add("parallel.threads_spawned", static_cast<double>(threads_spawned),
             "count");

  report.add("solver.symbolic_hit_ratio",
             ratio(static_cast<double>(l.symbolic_hits),
                   static_cast<double>(l.requests)),
             "ratio");
  report.add("solver.factor_hit_ratio",
             ratio(static_cast<double>(l.factor_hits),
                   static_cast<double>(l.requests)),
             "ratio");
  report.add("solver.service_s_p50", median(l.service_s), "s");
  report.add("solver.queue_wait_s_p50", median(l.queue_wait_s), "s");
  report.add("solver.solve_seconds_per_rhs", median(l.solve_per_rhs_s), "s");

  report.add("bench.trace_overhead",
             ratio(median(l.traced_latency), untraced_p50), "ratio");
  report.add("bench.unattributed_share",
             l.job_wall_s > 0.0 ? 1.0 - l.attributed_s / l.job_wall_s : 0.0,
             "ratio");
}

}  // namespace perfbench
