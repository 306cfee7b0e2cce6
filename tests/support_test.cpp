// Tests for src/support: rng, stats, table, csv, env, check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pg {
namespace {

// ---------------------------------------------------------------- check ---

TEST(Check, PassingConditionDoesNothing) { EXPECT_NO_THROW(check(true, "ok")); }

TEST(Check, FailingConditionThrowsInternalError) {
  EXPECT_THROW(check(false, "boom"), InternalError);
}

TEST(Check, ErrorMessageCarriesLocationAndText) {
  try {
    check(false, "my-marker");
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("my-marker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(99);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng rng(42);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalJitterMedianNearOne) {
  Rng rng(5);
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) below += (rng.lognormal_jitter(0.05) < 1.0);
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(3);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (child1.next() == child2.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, IndexStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_EQ(rng.index(0), 0u);
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 2.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.5, 2.0};
  EXPECT_DOUBLE_EQ(stats::min(xs), -1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 7.5);
}

TEST(Stats, RmsePerfectPredictionIsZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::rmse(a, a), 0.0);
}

TEST(Stats, RmseKnownValue) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> p = {3.0, 4.0};
  EXPECT_NEAR(stats::rmse(a, p), std::sqrt(12.5), 1e-12);
}

TEST(Stats, NormalizedRmseDividesByRange) {
  const std::vector<double> a = {0.0, 10.0};
  const std::vector<double> p = {1.0, 9.0};
  EXPECT_NEAR(stats::normalized_rmse(a, p), 0.1, 1e-12);
}

TEST(Stats, RelativeErrorMeanAbsOverRange) {
  const std::vector<double> a = {0.0, 10.0};
  const std::vector<double> p = {2.0, 10.0};
  EXPECT_NEAR(stats::relative_error(a, p), 0.1, 1e-12);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {3.0, 2.0, 1.0};
  EXPECT_NEAR(stats::pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::pearson(x, y), 0.0);
}

TEST(Stats, TenSecondBinBoundaries) {
  EXPECT_EQ(stats::ten_second_bin(0.0), 0u);
  EXPECT_EQ(stats::ten_second_bin(9.999e6), 0u);
  EXPECT_EQ(stats::ten_second_bin(10.0e6), 1u);
  EXPECT_EQ(stats::ten_second_bin(95.0e6), 9u);
  EXPECT_EQ(stats::ten_second_bin(100.0e6), 10u);
  EXPECT_EQ(stats::ten_second_bin(1e9), 10u);  // clamped to last bin
}

TEST(Stats, SizeMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> p = {1.0};
  EXPECT_THROW(stats::rmse(a, p), InternalError);
}

TEST(Stats, EmptyInputThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), InternalError);
  EXPECT_THROW(stats::stddev(empty), InternalError);
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersHeaderSeparatorAndRows) {
  TextTable t({"A", "B"});
  t.add_row({"1", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TextTable, ColumnsPadToWidestCell) {
  TextTable t({"X", "Y"});
  t.add_row({"longvalue", "z"});
  const std::string out = t.render();
  // Header row must be padded to the data width: "X        " before " | ".
  EXPECT_NE(out.find("X         | Y"), std::string::npos);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), InternalError);
}

TEST(FormatDouble, SignificantDigits) {
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(1234.0, 2), "1.2e+03");
}

TEST(FormatSci, PaperStyle) {
  EXPECT_EQ(format_sci(0.009, 1), "9 x 10^-3");
  EXPECT_EQ(format_sci(0.0), "0");
}

// ------------------------------------------------------------------ csv ---

TEST(CsvWriter, WritesHeaderAndQuotedCells) {
  const auto path = std::filesystem::temp_directory_path() / "pg_csv_test.csv";
  {
    CsvWriter csv(path.string(), {"name", "value"});
    csv.add_row({"plain", "1"});
    csv.add_row({"with,comma", "quote\"inside"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
  std::filesystem::remove(path);
}

TEST(CsvWriter, ArityMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "pg_csv_test2.csv";
  CsvWriter csv(path.string(), {"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), InternalError);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------ env ---

TEST(Env, StringFallbackWhenUnset) {
  ::unsetenv("PG_TEST_UNSET_VAR");
  EXPECT_EQ(env_string("PG_TEST_UNSET_VAR", "fallback"), "fallback");
}

TEST(Env, IntParsesAndFallsBack) {
  ::setenv("PG_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("PG_TEST_INT", 0), 42);
  ::setenv("PG_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env_int("PG_TEST_INT", 7), 7);
  ::unsetenv("PG_TEST_INT");
}

TEST(Env, RunScaleParsing) {
  ::setenv("PARAGRAPH_SCALE", "smoke", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kSmoke);
  ::setenv("PARAGRAPH_SCALE", "full", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kFull);
  ::setenv("PARAGRAPH_SCALE", "anything-else", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
  ::unsetenv("PARAGRAPH_SCALE");
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
}

TEST(Env, ScaleNames) {
  EXPECT_STREQ(to_string(RunScale::kSmoke), "smoke");
  EXPECT_STREQ(to_string(RunScale::kDefault), "default");
  EXPECT_STREQ(to_string(RunScale::kFull), "full");
}

// A value that is not understood still falls back as before, and says so
// once on stderr: the variable, the value and the value used.

TEST(EnvWarning, UnknownRunScaleIsReported) {
  ::setenv("PARAGRAPH_SCALE", "smok", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_SCALE=smok is not a known scale; using "
            "default\n");
  ::testing::internal::CaptureStderr();
  for (const char* known : {"smoke", "default", "full"}) {
    ::setenv("PARAGRAPH_SCALE", known, 1);
    EXPECT_STREQ(to_string(run_scale_from_env()), known);
  }
  ::unsetenv("PARAGRAPH_SCALE");
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(EnvWarning, JunkIntegerIsReported) {
  ::setenv("PARAGRAPH_THREADS", "4x", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_thread_count(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_THREADS=4x is not an integer; using 0\n");
  ::setenv("PG_TEST_INT_WARN", "12 ", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("PG_TEST_INT_WARN", 7), 7);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PG_TEST_INT_WARN=12  is not an integer; using 7\n");
  // In-range integers are silent.
  ::testing::internal::CaptureStderr();
  ::setenv("PARAGRAPH_THREADS", "4", 1);
  EXPECT_EQ(env_thread_count(), 4);
  ::setenv("PARAGRAPH_THREADS", "0", 1);
  EXPECT_EQ(env_thread_count(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::unsetenv("PARAGRAPH_THREADS");
  ::unsetenv("PG_TEST_INT_WARN");
}

TEST(EnvWarning, OutOfRangeIntegerIsClampedAndReported) {
  ::setenv("PARAGRAPH_THREADS", "-3", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_thread_count(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_THREADS=-3 is out of range [0, 256]; "
            "using 0\n");
  ::setenv("PARAGRAPH_THREADS", "100000", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_thread_count(), kMaxThreads);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_THREADS=100000 is out of range [0, 256]; "
            "using 256\n");
  ::setenv("PG_TEST_RANGE", "99", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int_in_range("PG_TEST_RANGE", 5, 1, 10), 10);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PG_TEST_RANGE=99 is out of range [1, 10]; using 10\n");
  // Once per value; in-range, unset and bound values are silent, and an
  // unset variable returns the fallback untouched.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int_in_range("PG_TEST_RANGE", 5, 1, 10), 10);
  ::setenv("PG_TEST_RANGE", "1", 1);
  EXPECT_EQ(env_int_in_range("PG_TEST_RANGE", 5, 1, 10), 1);
  ::setenv("PG_TEST_RANGE", "10", 1);
  EXPECT_EQ(env_int_in_range("PG_TEST_RANGE", 5, 1, 10), 10);
  ::unsetenv("PG_TEST_RANGE");
  EXPECT_EQ(env_int_in_range("PG_TEST_RANGE", 5, 1, 10), 5);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::unsetenv("PARAGRAPH_THREADS");
}

// The exact reader (a port, a sweep count): the same parse, but a bad
// value is reported without a replacement and returns nothing, every time.
TEST(EnvWarning, ExactReaderRejectsWithoutReplacing) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(exact_int_in_range("--port", "8080", 1, 65535), 8080);
  EXPECT_EQ(exact_int_in_range("--port", "1", 1, 65535), 1);
  EXPECT_EQ(exact_int_in_range("--port", "65535", 1, 65535), 65535);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(exact_int_in_range("--port", "99999", 1, 65535), std::nullopt);
  EXPECT_EQ(exact_int_in_range("--port", "0", 1, 65535), std::nullopt);
  EXPECT_EQ(exact_int_in_range("--port", "80x", 1, 65535), std::nullopt);
  EXPECT_EQ(exact_int_in_range("--port", "", 1, 65535), std::nullopt);
  EXPECT_EQ(exact_int_in_range("--port", "99999", 1, 65535), std::nullopt);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: --port=99999 is out of range [1, 65535]\n"
            "paragraph: --port=0 is out of range [1, 65535]\n"
            "paragraph: --port=80x is not an integer\n"
            "paragraph: --port= is not an integer\n"
            "paragraph: --port=99999 is out of range [1, 65535]\n");
}

// paragraph-cli's --threads goes through the reader and range of
// PARAGRAPH_THREADS, naming the flag in its report.
TEST(EnvWarning, ThreadsFlagIsCheckedLikeTheVariable) {
  ::unsetenv("PARAGRAPH_THREADS");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_thread_count("999"), kMaxThreads);
  EXPECT_EQ(env_thread_count("-1"), 0);
  EXPECT_EQ(env_thread_count("3x"), 0);
  EXPECT_EQ(env_thread_count(""), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: --threads=999 is out of range [0, 256]; using 256\n"
            "paragraph: --threads=-1 is out of range [0, 256]; using 0\n"
            "paragraph: --threads=3x is not an integer; using 0\n"
            "paragraph: --threads= is not an integer; using 0\n");
  // A positive flag beats the variable; 0 or no flag falls through to it.
  ::setenv("PARAGRAPH_THREADS", "5", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_thread_count("3"), 3);
  EXPECT_EQ(env_thread_count("0"), 5);
  EXPECT_EQ(env_thread_count(), 5);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::unsetenv("PARAGRAPH_THREADS");
}

}  // namespace
}  // namespace pg
