#include "solver/symbolic_store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace treemem {

namespace {

constexpr char kMagic[8] = {'T', 'M', 'S', 'Y', 'M', 'B', '0', '1'};
constexpr std::uint32_t kVersion = 3;

// ---------------------------------------------------------------------------
// Binary encoding: native-endian scalars and length-prefixed arrays. The
// reader bounds-checks every access against the bytes left, so a truncated
// file or a forged length throws a clean Error instead of reading garbage
// or attempting a huge allocation.
// ---------------------------------------------------------------------------

class Writer {
 public:
  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  template <typename T>
  void array(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar(static_cast<std::uint64_t>(values.size()));
    if (values.empty()) {
      return;  // data() may be null; memcpy requires non-null pointers
    }
    const std::size_t at = buffer_.size();
    buffer_.resize(at + values.size() * sizeof(T));
    std::memcpy(buffer_.data() + at, values.data(), values.size() * sizeof(T));
  }

  const std::vector<char>& buffer() const { return buffer_; }

 private:
  std::vector<char> buffer_;
};

class Reader {
 public:
  Reader(std::vector<char> buffer, std::string path)
      : buffer_(std::move(buffer)), path_(std::move(path)) {}

  template <typename T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, buffer_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = scalar<std::uint64_t>();
    require(count, sizeof(T));
    std::vector<T> values(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(values.data(), buffer_.data() + at_,
                  values.size() * sizeof(T));
      at_ += values.size() * sizeof(T);
    }
    return values;
  }

  /// A one-byte enum; a value past `last` marks a foreign file.
  template <typename Enum>
  Enum enumerator(Enum last) {
    const std::uint8_t value = scalar<std::uint8_t>();
    TM_CHECK(value <= static_cast<std::uint8_t>(last),
             "symbolic file " << path_ << ": enum value " << int{value}
                              << " out of range");
    return static_cast<Enum>(value);
  }

  void expect_end() const {
    TM_CHECK(at_ == buffer_.size(), "symbolic file " << path_ << ": "
                                    << buffer_.size() - at_
                                    << " trailing bytes");
  }

 private:
  /// `count` items of `width` bytes fit in what is left. Divides instead
  /// of multiplying, so a forged count cannot wrap the product.
  void require(std::uint64_t count, std::size_t width = 1) const {
    const std::size_t left = buffer_.size() - at_;
    TM_CHECK(count <= left / width,
             "symbolic file " << path_ << ": truncated (need " << count
                              << " x " << width << " bytes at offset " << at_
                              << ", have " << left << ")");
  }

  std::vector<char> buffer_;
  std::string path_;
  std::size_t at_ = 0;
};

}  // namespace

/// Everything a version 3 state file holds: the build options, the
/// analyzed pattern and its elimination order. rebuild() derives the rest
/// with the code that derived it before the write, so no file can carry a
/// derived array that disagrees with its ordering.
struct SymbolicFile {
  AnalyzeOptions analyze;
  PlanOptions plan;
  SparsePattern pattern;
  std::vector<Index> perm;

  /// Parses `path`. Throws treemem::Error when the file is missing,
  /// truncated, carries a wrong magic/version or an out-of-range enum, its
  /// pattern is malformed, or its stored fingerprint disagrees with it.
  static SymbolicFile read(const std::string& path);

  /// analyze()'s post-ordering half on `perm`, then plan(). Rejects a
  /// non-permutation, an unsymmetric pattern and an infeasible budget.
  SolverSymbolic rebuild() const {
    check_permutation(perm, pattern.cols());
    Solver solver;
    solver.analyze_ordered(pattern, perm, analyze, Timer());
    return solver.plan(plan).symbolic();
  }
};

bool same_build_options(const AnalyzeOptions& a, const AnalyzeOptions& b) {
  return a.ordering == b.ordering && a.relax == b.relax &&
         a.perfect == b.perfect;
}

bool same_build_options(const PlanOptions& a, const PlanOptions& b) {
  return a.policy == b.policy && a.memory_budget == b.memory_budget &&
         a.allow_out_of_core == b.allow_out_of_core;
}

void write_symbolic_file(const SolverSymbolic& symbolic,
                         const std::string& path) {
  TM_CHECK(static_cast<bool>(symbolic),
           "write_symbolic_file: symbolic state must carry both an analysis "
           "and a plan");
  const SolverAnalysis& a = *symbolic.analysis;
  const PlanOptions& plan = symbolic.plan->options;

  Writer out;
  for (const char c : kMagic) {
    out.scalar(c);
  }
  out.scalar(kVersion);

  // Build options — re-validated on load against the consumer's config.
  out.scalar(static_cast<std::uint8_t>(a.options.ordering));
  out.scalar<std::int32_t>(a.options.relax);
  out.scalar(static_cast<std::uint8_t>(a.options.perfect));
  out.scalar(static_cast<std::uint8_t>(plan.policy));
  out.scalar<std::int64_t>(plan.memory_budget);
  out.scalar(static_cast<std::uint8_t>(plan.allow_out_of_core));

  out.scalar(pattern_fingerprint(a.pattern));
  out.scalar<std::int32_t>(a.pattern.rows());
  out.scalar<std::int32_t>(a.pattern.cols());
  out.array(a.pattern.col_ptr());
  out.array(a.pattern.row_idx());
  out.array(a.perm);

  // Temp + rename: a crash mid-write never leaves a half file that a
  // later warm start would have to reject.
  const std::string temp = path + ".tmp";
  {
    std::ofstream file(temp, std::ios::binary | std::ios::trunc);
    TM_CHECK(file.good(), "write_symbolic_file: cannot open " << temp);
    file.write(out.buffer().data(),
               static_cast<std::streamsize>(out.buffer().size()));
    TM_CHECK(file.good(), "write_symbolic_file: write failed for " << temp);
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  TM_CHECK(!ec, "write_symbolic_file: rename " << temp << " -> " << path
                                               << " failed: " << ec.message());
}

SymbolicFile SymbolicFile::read(const std::string& path) {
  std::vector<char> buffer;
  {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    TM_CHECK(file.good(), "read_symbolic_file: cannot open " << path);
    const std::streamsize size = file.tellg();
    file.seekg(0);
    buffer.resize(static_cast<std::size_t>(size));
    file.read(buffer.data(), size);
    TM_CHECK(file.good(), "read_symbolic_file: read failed for " << path);
  }
  Reader in(std::move(buffer), path);

  for (const char expected : kMagic) {
    TM_CHECK(in.scalar<char>() == expected,
             "read_symbolic_file: " << path << " is not a symbolic state "
                                    << "file (bad magic)");
  }
  const std::uint32_t version = in.scalar<std::uint32_t>();
  TM_CHECK(version == kVersion, "read_symbolic_file: "
                                    << path << " has version " << version
                                    << ", expected " << kVersion);

  SymbolicFile stored;
  stored.analyze.ordering =
      in.enumerator(OrderingChoice::kNestedDissection);
  stored.analyze.relax = in.scalar<std::int32_t>();
  stored.analyze.perfect = in.scalar<std::uint8_t>() != 0;
  stored.plan.policy = in.enumerator(TraversalPolicy::kMinMem);
  stored.plan.memory_budget = in.scalar<std::int64_t>();
  stored.plan.allow_out_of_core = in.scalar<std::uint8_t>() != 0;

  const std::uint64_t stored_fingerprint = in.scalar<std::uint64_t>();
  const Index rows = in.scalar<std::int32_t>();
  const Index cols = in.scalar<std::int32_t>();
  std::vector<std::int64_t> col_ptr = in.array<std::int64_t>();
  std::vector<Index> row_idx = in.array<Index>();
  stored.perm = in.array<Index>();
  in.expect_end();

  // The validating constructor rejects malformed CSC arrays.
  stored.pattern =
      SparsePattern(rows, cols, std::move(col_ptr), std::move(row_idx));
  TM_CHECK(pattern_fingerprint(stored.pattern) == stored_fingerprint,
           "read_symbolic_file: " << path << " fingerprint mismatch (stale "
                                  << "or tampered state file)");
  return stored;
}

SolverSymbolic read_symbolic_file(const std::string& path) {
  return SymbolicFile::read(path).rebuild();
}

std::string symbolic_file_name(std::uint64_t fingerprint, std::size_t slot) {
  std::ostringstream name;
  name << "pattern-" << std::hex << std::setw(16) << std::setfill('0')
       << fingerprint;
  if (slot > 0) {
    name << "-" << std::dec << slot;
  }
  name << ".tmsym";
  return name.str();
}

SymbolicStoreReport save_symbolic_state(const SymbolicCache& cache,
                                        const std::string& dir) {
  std::filesystem::create_directories(dir);
  SymbolicStoreReport report;
  // Slot-number fingerprint collisions so two colliding patterns get two
  // files instead of overwriting each other.
  std::map<std::uint64_t, std::size_t> slots;
  for (const SolverSymbolic& symbolic : cache.snapshot()) {
    const std::uint64_t fingerprint =
        pattern_fingerprint(symbolic.analysis->pattern);
    const std::size_t slot = slots[fingerprint]++;
    const std::filesystem::path path =
        std::filesystem::path(dir) / symbolic_file_name(fingerprint, slot);
    write_symbolic_file(symbolic, path.string());
    ++report.saved;
  }
  return report;
}

SymbolicStoreReport load_symbolic_state(SymbolicCache& cache,
                                        const std::string& dir) {
  SymbolicStoreReport report;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return report;  // nothing persisted yet: a cold start, not an error
  }
  // Deterministic load order (directory iteration order is not).
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmsym") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    SolverSymbolic symbolic;
    try {
      const SymbolicFile stored = SymbolicFile::read(path.string());
      // Options first: a file built for another configuration costs no
      // rebuild.
      if (!same_build_options(stored.analyze, cache.options().analyze) ||
          !same_build_options(stored.plan, cache.options().plan)) {
        ++report.skipped_options;
        continue;
      }
      symbolic = stored.rebuild();
    } catch (const Error&) {
      // A stale or corrupt file degrades that pattern to a cold build;
      // the warm start itself must never fail on leftover state.
      ++report.skipped_invalid;
      continue;
    }
    if (cache.insert(std::move(symbolic))) {
      ++report.saved;
    }
  }
  return report;
}

}  // namespace treemem
