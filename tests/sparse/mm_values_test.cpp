// The value-carrying Matrix Market readers (sparse/mm_io.hpp): the fix
// for the solve pipeline factorizing synthetic values no matter what file
// it was given. Pins the coordinate-format conventions: duplicate entries
// sum, symmetric/hermitian storage expands to both triangles (skew
// negating the mirror), complex keeps the real part, pattern files carry
// no values, absent diagonal entries are padded with explicit zeros, and
// a valued write/read round-trip is bit-exact.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mm_io.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

TEST(MatrixMarketValues, RealGeneralReadsValues) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 1 4.0\n"
      "2 1 -1.5\n"
      "1 2 -1.5\n"
      "2 2 3.0\n";
  const MatrixMarketData data = read_matrix_market_data_string(text);
  EXPECT_EQ(data.field, "real");
  EXPECT_EQ(data.symmetry, "general");
  ASSERT_TRUE(data.has_values());
  ASSERT_EQ(data.values.size(), 4u);

  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  EXPECT_EQ(matrix.value_of(0, 0), 4.0);
  EXPECT_EQ(matrix.value_of(1, 0), -1.5);
  EXPECT_EQ(matrix.value_of(0, 1), -1.5);
  EXPECT_EQ(matrix.value_of(1, 1), 3.0);
}

TEST(MatrixMarketValues, DuplicateEntriesAreSummed) {
  // The Matrix Market convention for assembled FEM input: coordinate
  // repeats accumulate.
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 5\n"
      "1 1 1.0\n"
      "1 1 2.5\n"
      "2 2 1.0\n"
      "2 1 0.5\n"
      "1 2 0.5\n";
  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  EXPECT_EQ(matrix.value_of(0, 0), 3.5);
  EXPECT_EQ(matrix.value_of(1, 1), 1.0);
  EXPECT_EQ(matrix.pattern().nnz(), 4);  // duplicates collapsed
}

TEST(MatrixMarketValues, SymmetricStorageExpandsBothTriangles) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4\n"
      "1 1 2.0\n"
      "2 2 2.0\n"
      "3 3 2.0\n"
      "3 1 -1.0\n";
  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  EXPECT_EQ(matrix.pattern().nnz(), 5);  // 3 diagonal + mirrored pair
  EXPECT_EQ(matrix.value_of(2, 0), -1.0);
  EXPECT_EQ(matrix.value_of(0, 2), -1.0);
}

TEST(MatrixMarketValues, SkewSymmetricNegatesMirrorAndIsRejectedForSolve) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n";
  const MatrixMarketData data = read_matrix_market_data_string(text);
  ASSERT_EQ(data.pattern.nnz(), 2);
  // Entries sorted by (col, row): (1,0) = 3, mirrored (0,1) = -3.
  EXPECT_EQ(data.values[0], 3.0);
  EXPECT_EQ(data.values[1], -3.0);
  // No symmetric value set exists — the Cholesky path must refuse.
  EXPECT_THROW(read_matrix_market_matrix_string(text), Error);
}

TEST(MatrixMarketValues, ComplexKeepsRealPart) {
  const std::string text =
      "%%MatrixMarket matrix coordinate complex hermitian\n"
      "2 2 3\n"
      "1 1 2.0 0.0\n"
      "2 2 2.0 0.0\n"
      "2 1 0.5 0.0\n";
  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  EXPECT_EQ(matrix.value_of(1, 0), 0.5);
  EXPECT_EQ(matrix.value_of(0, 1), 0.5);
}

TEST(MatrixMarketValues, IntegerFieldReadsAsDoubles) {
  const std::string text =
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "2 2 3\n"
      "1 1 5\n"
      "2 2 7\n"
      "2 1 -2\n";
  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  EXPECT_EQ(matrix.value_of(0, 0), 5.0);
  EXPECT_EQ(matrix.value_of(1, 0), -2.0);
}

TEST(MatrixMarketValues, PatternFieldHasNoValues) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "2 2 2\n"
      "1 1\n"
      "2 1\n";
  const MatrixMarketData data = read_matrix_market_data_string(text);
  EXPECT_FALSE(data.has_values());
  try {
    read_matrix_market_matrix_string(text);
    FAIL() << "pattern file must not produce a valued matrix";
  } catch (const Error& e) {
    // The error points the user at the synthetic fallback.
    EXPECT_NE(std::string(e.what()).find("synthetic"), std::string::npos);
  }
}

TEST(MatrixMarketValues, ForgedHeaderSizesThrowTreememError) {
  // Header counts are untrusted: a count no allocation can hold, or a
  // dimension past the index range, must surface as treemem::Error (which
  // the CLI catches), never as std::length_error or std::bad_alloc.
  for (const char* header :
       {"real general\n3 3 4611686018427387905\n",
        "real symmetric\n3 3 3000000000000000000\n",
        "real general\n3 3 100000000000\n",
        "real general\n4294967297 4294967297 1\n"}) {
    const std::string text = std::string("%%MatrixMarket matrix coordinate ") +
                             header + "1 1 1.0\n";
    EXPECT_THROW(read_matrix_market_data_string(text), Error) << header;
  }
}

TEST(MatrixMarketValues, MissingDiagonalIsPaddedWithExplicitZeros) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "3 3 2.0\n"
      "2 1 1.0\n";  // no (2,2) entry
  const SymmetricMatrix matrix = read_matrix_market_matrix_string(text);
  ASSERT_TRUE(matrix.pattern().has_full_diagonal());
  EXPECT_EQ(matrix.value_of(1, 1), 0.0);   // padded, value unchanged
  EXPECT_EQ(matrix.value_of(0, 0), 2.0);
  EXPECT_EQ(matrix.value_of(1, 0), 1.0);
}

TEST(MatrixMarketValues, NumericallyUnsymmetricGeneralIsRejected) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 1 1.0\n"
      "2 2 1.0\n"
      "2 1 0.25\n"
      "1 2 0.75\n";  // A(1,2) != A(2,1)
  EXPECT_THROW(read_matrix_market_matrix_string(text), Error);
}

TEST(MatrixMarketValues, ValuedRoundTripIsBitExact) {
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  const SymmetricMatrix original = make_spd_matrix(pattern, 12345);
  for (const bool symmetric_lower : {true, false}) {
    std::ostringstream out;
    write_matrix_market(out, original, symmetric_lower);
    const SymmetricMatrix reread = read_matrix_market_matrix_string(out.str());
    ASSERT_EQ(reread.pattern().row_idx(), original.pattern().row_idx());
    ASSERT_EQ(reread.values().size(), original.values().size());
    for (std::size_t i = 0; i < original.values().size(); ++i) {
      EXPECT_EQ(reread.values()[i], original.values()[i])
          << "entry " << i << " lower=" << symmetric_lower;
    }
  }
}

// Deterministic mutation fuzz: every seeded single mutation of a valid
// file either parses or ends in treemem::Error, through both readers. The
// seeds are a valued symmetric and a pattern general file with short
// tokens (values 4 and -1), so a mutated header stays a small dimension.
TEST(MatrixMarketFuzz, MutatedFilesParseOrFailCleanly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  std::vector<double> values;
  for (Index j = 0; j < pattern.cols(); ++j) {
    for (const Index r : pattern.column(j)) {
      values.push_back(r == j ? 4.0 : -1.0);
    }
  }
  std::ostringstream valued;
  write_matrix_market(valued, SymmetricMatrix(pattern, values));
  std::ostringstream bare;
  write_matrix_market(bare, pattern);

  Prng prng(0x3a7f1d);
  for (const std::string& seed : {valued.str(), bare.str()}) {
    const std::vector<char> bytes(seed.begin(), seed.end());
    for (int trial = 0; trial < 2000; ++trial) {
      const std::vector<char> mutated = testing::mutate_bytes(bytes, prng);
      const std::string text(mutated.begin(), mutated.end());
      try {
        read_matrix_market_string(text);
      } catch (const Error&) {
      }
      try {
        matrix_from_matrix_market(read_matrix_market_data_string(text));
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace treemem
