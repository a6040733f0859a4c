// perfbench — the solver benchmark program. run.py builds it and drives it;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <cold_2d|cold_3d|service|tight_budget>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--smoke] [--perturb-every <n>]
//   perfbench --setup-probe <workload>
//   perfbench --selftest
//
// The last line of a run's standard output is one JSON object: correct,
// attempted, failed and the metrics with their units.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"cold_2d", "cold_3d", "service",
                                  "tight_budget"};

/// Any TREEMEM_* variable would silently change the program under test
/// (kernel, threads, admission, ...), so the benchmark refuses to run.
bool environment_clean() {
  bool clean = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string variable = *entry;
    if (variable.rfind("TREEMEM_", 0) == 0) {
      std::cerr << "perfbench: refusing to run with "
                << variable.substr(0, variable.find('='))
                << " set; unset every TREEMEM_* override\n";
      clean = false;
    }
  }
  return clean;
}

std::string host_record() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto flag = [&](bool supported, const char* name) {
    if (supported) {
      flags += (flags.empty() ? "" : ",") + std::string(name);
    }
  };
  flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
  flag(__builtin_cpu_supports("avx"), "avx");
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
#endif
  long llc = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) {
    llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
#endif
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"" PERFBENCH_COMPILER
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"cpu_flags\":\"" +
         flags + "\",\"llc_bytes\":" + std::to_string(llc) + "}";
}

void print_result(const Report& report) {
  for (const std::string& note : report.notes) {
    std::cout << "note: " << note << "\n";
  }
  for (const Metric& metric : report.metrics) {
    std::cout << "metric: " << metric.name << " = " << metric.value << " "
              << metric.unit << "\n";
  }
  bool finite = true;
  std::string metrics;
  for (const Metric& metric : report.metrics) {
    finite = finite && std::isfinite(metric.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + metric.name) +
               "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  const bool correct = finite && report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload <cold_2d|cold_3d|service|"
               "tight_budget> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--smoke] [--perturb-every <n>]\n"
               "       perfbench --setup-probe <workload>\n"
               "       perfbench --selftest\n";
  return 2;
}

bool known_workload(const std::string& name) {
  for (const char* workload : kWorkloads) {
    if (name == workload) {
      return true;
    }
  }
  return false;
}

int run(int argc, char** argv) {
  if (!environment_clean()) {
    return 2;
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      const int failures = run_selftest();
      std::cout << (failures == 0 ? "selftest: ok" : "selftest: FAILED")
                << "\n";
      return failures == 0 ? 0 : 1;
    } else if (arg == "--setup-probe" && has_value) {
      const std::string workload = argv[++i];
      if (!known_workload(workload)) {
        return usage();
      }
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", setup_probe(workload));
      std::cout << "{\"setup_s\": " << value << "}" << std::endl;
      return 0;
    } else if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = static_cast<std::uint64_t>(treemem::parse_int_strict(
          argv[++i], 0, std::numeric_limits<long long>::max(), "--seed"));
    } else if (arg == "--seconds" && has_value) {
      args.seconds = static_cast<double>(
          treemem::parse_int_strict(argv[++i], 1, 3600, "--seconds"));
    } else if (arg == "--trace" && has_value) {
      args.trace = treemem::parse_int_strict(argv[++i], 0, 1, "--trace") == 1;
    } else if (arg == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--perturb-every" && has_value) {
      args.perturb_every = static_cast<int>(
          treemem::parse_int_strict(argv[++i], 1, 1 << 30, "--perturb-every"));
    } else {
      return usage();
    }
  }
  if (!known_workload(args.workload)) {
    return usage();
  }

  std::cout << "host: " << host_record() << "\n";
  std::cout << "run: {\"workload\":\"" << args.workload
            << "\",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
            << ",\"trace\":" << (args.trace ? 1 : 0) << "}" << std::endl;
  const Report report = args.workload == "service"
                            ? run_service(args)
                            : run_cold(args, make_cold_jobs(args));
  print_result(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
