// Unit tests of the benchmark's own logic: the tail-percentile rule and
// the output check (reference aggregates, prefix semantics, tolerance,
// and that a corrupted bar is caught).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data.h"
#include "db/executor.h"
#include "reference.h"
#include "stats.h"

namespace muvebench {
namespace {

using muve::db::AggregateFunction;
using muve::db::AggregateQuery;

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i > 0; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailPercentileTest, ReportsP99WhenTenSamplesLieBeyondIt) {
  const Tail tail = TailPercentile(Ramp(1000));
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
}

TEST(TailPercentileTest, FallsBackToHighestPercentileWithTenBeyond) {
  const Tail tail = TailPercentile(Ramp(500));
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 490.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 98.0);
  // With more samples than needed the p99 itself has more beyond it.
  EXPECT_EQ(TailPercentile(Ramp(5000)).beyond, 50u);
}

TEST(TailPercentileTest, TinySamplesReportTheMaximum) {
  const Tail tail = TailPercentile(Ramp(7));
  EXPECT_DOUBLE_EQ(tail.value, 7.0);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(QuantileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Quantile(Ramp(10), 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(Ramp(10), 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

class OutputCheckTest : public ::testing::Test {
 protected:
  OutputCheckTest() : data_(30, 7), rng_(11) {
    table_ = data_.BuildTable(3000, &rng_, muve::db::TableOptions{});
  }

  Dataset data_;
  muve::Rng rng_;
  std::shared_ptr<muve::db::Table> table_;
};

TEST_F(OutputCheckTest, ReferenceAgreesWithTheProgramsExecutor) {
  muve::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const AggregateQuery query = data_.RandomQuery(&rng, 3, i % 2 == 0);
    auto result = muve::db::Executor::Execute(*table_, query);
    ASSERT_TRUE(result.ok()) << query.ToSql();
    const double reference = ReferenceValue(data_, query, data_.num_rows());
    EXPECT_NEAR(result->value, reference, 1e-9 * std::fabs(reference))
        << query.ToSql();
  }
}

TEST_F(OutputCheckTest, CatchesACorruptedBar) {
  muve::Rng rng(5);
  OutputCheck check;
  std::vector<AggregateQuery> queries;
  for (size_t answer = 0; answer < 40; ++answer) {
    const AggregateQuery query = data_.RandomQuery(&rng, 2, true);
    BarRecord bar;
    bar.query = Lower(data_, query);
    bar.value = ReferenceValue(data_, query, data_.num_rows());
    if (answer == 17) bar.value += 1.0;  // The corrupted bar.
    check.Add(answer, data_.num_rows(), {bar});
  }
  const std::vector<std::string> failures = check.Run(data_, 40);
  for (size_t answer = 0; answer < 40; ++answer) {
    EXPECT_EQ(failures[answer].empty(), answer != 17) << failures[answer];
  }
}

TEST_F(OutputCheckTest, ChecksEachAnswerAtItsOwnPrefix) {
  AggregateQuery count;
  count.table = data_.table_name();
  count.function = AggregateFunction::kCount;
  count.predicates.push_back(muve::db::Predicate::Equals(
      "borough", muve::db::Value(data_.dictionary(1)[0])));
  const double at_1000 = ReferenceValue(data_, count, 1000);
  const double at_all = ReferenceValue(data_, count, data_.num_rows());
  ASSERT_LT(at_1000, at_all);
  OutputCheck check;
  check.Add(0, 1000, {BarRecord{Lower(data_, count), at_1000, false}});
  check.Add(1, data_.num_rows(), {BarRecord{Lower(data_, count), at_all, false}});
  check.Add(2, 1000, {BarRecord{Lower(data_, count), at_all, false}});  // Wrong prefix.
  const std::vector<std::string> failures = check.Run(data_, 3);
  EXPECT_TRUE(failures[0].empty()) << failures[0];
  EXPECT_TRUE(failures[1].empty()) << failures[1];
  EXPECT_FALSE(failures[2].empty());
}

TEST_F(OutputCheckTest, SumToleranceIsRelativeAndCountIsExact) {
  AggregateQuery sum;
  sum.table = data_.table_name();
  sum.function = AggregateFunction::kSum;
  sum.aggregate_column = "open_hours";
  sum.predicates.push_back(muve::db::Predicate::Equals(
      "status", muve::db::Value(data_.dictionary(4)[1])));
  AggregateQuery count = sum;
  count.function = AggregateFunction::kCount;
  count.aggregate_column.clear();
  const uint64_t n = data_.num_rows();
  const double s = ReferenceValue(data_, sum, n);
  const double c = ReferenceValue(data_, count, n);
  OutputCheck check;
  check.Add(0, n, {BarRecord{Lower(data_, sum), s * (1 + 1e-12), false}});
  check.Add(1, n, {BarRecord{Lower(data_, sum), s * (1 + 1e-6), false}});
  check.Add(2, n, {BarRecord{Lower(data_, count), c + 1, false}});
  check.Add(3, n, {BarRecord{Lower(data_, count), std::nan(""), false}});
  const std::vector<std::string> failures = check.Run(data_, 4);
  EXPECT_TRUE(failures[0].empty()) << failures[0];
  EXPECT_FALSE(failures[1].empty());
  EXPECT_FALSE(failures[2].empty());
  EXPECT_FALSE(failures[3].empty());
}

TEST_F(OutputCheckTest, EmptyMatchesAreZero) {
  AggregateQuery avg;
  avg.table = data_.table_name();
  avg.function = AggregateFunction::kAvg;
  avg.aggregate_column = "precinct";
  avg.predicates.push_back(
      muve::db::Predicate::Equals("street", muve::db::Value("nosuchstreet")));
  EXPECT_EQ(ReferenceValue(data_, avg, data_.num_rows()), 0.0);
  auto result = muve::db::Executor::Execute(*table_, avg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, 0.0);
}

}  // namespace
}  // namespace muvebench
