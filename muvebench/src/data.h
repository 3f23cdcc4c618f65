#ifndef MUVEBENCH_DATA_H_
#define MUVEBENCH_DATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "db/query.h"
#include "db/schema.h"
#include "db/table.h"
#include "db/value.h"

namespace muvebench {

/// The benchmark's own copy of a generated relation: string columns as
/// dictionary codes, numeric columns as doubles, in append order. The
/// output check scans this copy, never the program's table.
///
/// Schema (one table, `requests`): string columns street, borough,
/// complaint, agency, status; numeric columns open_hours (double) and
/// precinct (int64). Only the street vocabulary size differs between
/// workloads.
class Dataset {
 public:
  static constexpr size_t kNumStringColumns = 5;
  static constexpr size_t kNumNumericColumns = 2;

  /// A dataset whose street column draws from `street_values` distinct,
  /// phonetically confusable names generated from `seed`.
  Dataset(size_t street_values, uint64_t seed);

  const std::string& table_name() const { return table_name_; }
  size_t num_rows() const { return numbers_[0].size(); }

  /// Column names in schema order: string columns, then numeric ones.
  static const std::vector<std::string>& StringColumns();
  static const std::vector<std::string>& NumericColumns();
  std::vector<muve::db::ColumnSpec> Schema() const;

  const std::vector<std::string>& dictionary(size_t column) const {
    return dictionaries_[column];
  }
  uint32_t code(size_t column, size_t row) const {
    return codes_[column][row];
  }
  double number(size_t column, size_t row) const {
    return numbers_[column][row];
  }

  /// Draws one row from the column distributions with `rng` and appends
  /// it to this copy; returns the row in table form.
  std::vector<muve::db::Value> AppendRandomRow(muve::Rng* rng);

  /// Appends `rows` random rows and returns a program table holding the
  /// same rows (flush threshold and compaction as given).
  std::shared_ptr<muve::db::Table> BuildTable(
      size_t rows, muve::Rng* rng, const muve::db::TableOptions& options);

  /// The row in table form.
  std::vector<muve::db::Value> RowValues(size_t row) const;

  /// Index of `value` in a string column's dictionary, or -1.
  int64_t Lookup(size_t column, const std::string& value) const;

  /// A ground-truth query built from a random existing row, so every
  /// predicate matches at least one row: an aggregate over open_hours or
  /// precinct (or COUNT) with one to `max_predicates` equality
  /// predicates; the street column is always used when `street_first`.
  muve::db::AggregateQuery RandomQuery(muve::Rng* rng, size_t max_predicates,
                                       bool street_first) const;

 private:
  std::string table_name_ = "requests";
  std::vector<std::vector<std::string>> dictionaries_;
  /// Value -> code, per string column.
  std::vector<std::unordered_map<std::string, uint32_t>> index_;
  /// Cumulative draw weights per string column (Zipf-like skew).
  std::vector<std::vector<double>> cumulative_;
  std::vector<std::vector<uint32_t>> codes_;
  std::vector<std::vector<double>> numbers_;
};

/// Speaks a query the way a user would ask it ("average open hours where
/// street is marbelton and borough is queens"). The benchmark owns this
/// rendering so its inputs do not change when the program's own
/// verbalizer does.
std::string Verbalize(const muve::db::AggregateQuery& query);

}  // namespace muvebench

#endif  // MUVEBENCH_DATA_H_
