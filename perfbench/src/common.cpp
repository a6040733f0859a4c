#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double tail_latency(std::vector<double> values, double* percentile) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank of percentile p; the jobs beyond it are n minus that rank.
  const auto rank = [n](double p) {
    return static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  };
  *percentile = 50.0;
  for (const double p : {75.0, 90.0, 95.0, 99.0}) {
    if (n >= rank(p) + 10) {
      *percentile = p;
    }
  }
  return n == 0 ? 0.0 : values[std::max<std::size_t>(rank(*percentile), 1) - 1];
}

double sum_of_medians(
    const std::map<std::string, std::vector<double>>& by_key) {
  double total = 0.0;
  for (const auto& [key, samples] : by_key) {
    total += median(samples);
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> make_rhs(Index n, std::uint64_t seed) {
  treemem::Prng prng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) {
    v = prng.uniform_real(-1.0, 1.0);
  }
  return b;
}

SymmetricMatrix gather_permuted(const treemem::SparsePattern& permuted,
                                const std::vector<std::size_t>& value_map,
                                const std::vector<double>& values) {
  std::vector<double> permuted_values(value_map.size());
  for (std::size_t o = 0; o < value_map.size(); ++o) {
    permuted_values[o] = values[value_map[o]];
  }
  return SymmetricMatrix(permuted, std::move(permuted_values));
}

bool solution_verified(const SymmetricMatrix& matrix,
                       const std::vector<double>& x,
                       const std::vector<double>& b) {
  if (x.size() != b.size()) {
    return false;
  }
  const double residual = treemem::relative_residual(matrix, x, b);
  return std::isfinite(residual) && residual <= kResidualTolerance;
}

void perturb(std::vector<double>& x) {
  if (!x.empty()) {
    x[x.size() / 2] += 1e-3 * (1.0 + std::abs(x[x.size() / 2]));
  }
}

std::string compare_bits(const std::vector<double>& expected,
                         const std::vector<double>& actual) {
  if (expected.size() != actual.size()) {
    return "length " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
      std::ostringstream out;
      out << std::setprecision(17) << "entry " << i << ": " << actual[i]
          << " != " << expected[i];
      return out.str();
    }
  }
  return "";
}

std::string compare_factors(const CholeskyFactor& expected,
                            const CholeskyFactor& actual) {
  if (expected.pattern.col_ptr() != actual.pattern.col_ptr() ||
      expected.pattern.row_idx() != actual.pattern.row_idx()) {
    return "factor pattern differs";
  }
  const std::string values = compare_bits(expected.values, actual.values);
  return values.empty() ? "" : "factor value " + values;
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanRecorder::open(const char* name, int parent, long long job) {
  const double start = now_us();
  spans_.push_back({name, parent, job, start, start});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::record(const char* name, int parent, long long job,
                          Clock::time_point start, Clock::time_point end) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({name, parent, job, us(start), us(end)});
}

double SpanRecorder::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = now_us();
  return (span.end_us - span.start_us) * 1e-6;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  TM_CHECK(out.good(), "cannot open trace output " << path);
  out << std::setprecision(15);
  // One event per line: the layout examples/trace_inspect reads.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    out << ",\n{\"name\":\"" << span.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" << span.start_us
        << ",\"dur\":" << (span.end_us - span.start_us)
        << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << id
        << ",\"parent\":" << span.parent << ",\"job\":" << span.job << "}}";
  }
  out << "\n]}\n";
  TM_CHECK(out.good(), "failed writing trace output " << path);
}

// ---------------------------------------------------------------------------
// Dense replay
// ---------------------------------------------------------------------------

ReplayResult replay_fronts(const AssemblyTree& assembly,
                           const treemem::FrontKernel& kernel,
                           std::size_t top_k) {
  struct Front {
    std::size_t m;
    std::size_t eta;
  };
  std::vector<Front> fronts;
  for (std::size_t s = 0; s < assembly.eta.size(); ++s) {
    if (assembly.eta[s] > 0) {
      fronts.push_back({static_cast<std::size_t>(assembly.eta[s] +
                                                 assembly.mu[s] - 1),
                        static_cast<std::size_t>(assembly.eta[s])});
    }
  }
  std::sort(fronts.begin(), fronts.end(), [](const Front& a, const Front& b) {
    return a.m != b.m ? a.m > b.m : a.eta > b.eta;
  });

  ReplayResult result;
  std::vector<double> front;
  for (std::size_t i = 0; i < fronts.size(); ++i) {
    const std::size_t m = fronts[i].m;
    front.assign(m * m, 0.0);
    // Diagonally dominant, hence every pivot stays positive.
    const double off_diagonal = 0.5 / static_cast<double>(m);
    for (std::size_t c = 0; c < m; ++c) {
      front[c * m + c] = 2.0;
      for (std::size_t r = c + 1; r < m; ++r) {
        front[c * m + r] = off_diagonal;
      }
    }
    const auto start = std::chrono::steady_clock::now();
    const long long flops =
        kernel.partial_factor(front.data(), m, fronts[i].eta, nullptr);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    result.all_seconds += seconds;
    if (i < top_k) {
      result.top_seconds += seconds;
      result.top_flops += flops;
      result.top_bytes += 8.0 * static_cast<double>(m * m);
    }
  }
  return result;
}

}  // namespace perfbench
