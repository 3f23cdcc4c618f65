#ifndef MUVEBENCH_REFERENCE_H_
#define MUVEBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data.h"
#include "db/query.h"

namespace muvebench {

/// A query lowered onto the dataset's columns: the aggregate, the
/// aggregated numeric column and equality predicates as (string column,
/// dictionary code) sorted by column. Compact, so the records of tens of
/// thousands of answers stay small next to the program under test.
struct LoweredQuery {
  static constexpr uint32_t kNoCode = UINT32_MAX;  ///< Value not in data.
  muve::db::AggregateFunction function = muve::db::AggregateFunction::kCount;
  int8_t numeric_column = -1;  ///< -1 for COUNT(*).
  uint8_t num_predicates = 0;
  std::array<std::pair<uint8_t, uint32_t>, Dataset::kNumStringColumns>
      predicates{};
  /// Why the query could not be lowered (null when it was).
  const char* error = nullptr;

  bool operator==(const LoweredQuery& other) const;
};

LoweredQuery Lower(const Dataset& data, const muve::db::AggregateQuery& query);

/// One plotted bar an answer showed: the candidate query behind it and
/// the value the program computed.
struct BarRecord {
  LoweredQuery query;
  double value = 0.0;
  bool highlighted = false;
};

/// The output check: every bar of every answer is compared with a value
/// the benchmark computes itself from its own copy of the rows, over the
/// table prefix the answer's snapshot covered (its snapshot_version rows,
/// since every append bumps the version by one). COUNT/MIN/MAX must match
/// exactly; SUM/AVG within 1e-9 relative. Aggregates over no rows are 0,
/// the executor's contract for empty inputs.
class OutputCheck {
 public:
  /// Registers the bars of answer `answer_id`, read at `prefix_rows`.
  void Add(size_t answer_id, uint64_t prefix_rows,
           std::vector<BarRecord> bars);

  /// Evaluates every registered bar against `data` and returns one entry
  /// per answer id below `num_answers`: empty when all its bars match,
  /// otherwise a description of the first mismatch.
  std::vector<std::string> Run(const Dataset& data,
                               size_t num_answers) const;

 private:
  struct Item {
    size_t answer_id = 0;
    uint64_t prefix_rows = 0;
    BarRecord bar;
  };
  std::vector<Item> items_;
};

/// The reference aggregate of `query` over the first `prefix_rows` rows
/// of `data`, by a plain row scan (the test oracle of OutputCheck); NaN
/// when the query does not lower.
double ReferenceValue(const Dataset& data, const muve::db::AggregateQuery& query,
                      uint64_t prefix_rows);

}  // namespace muvebench

#endif  // MUVEBENCH_REFERENCE_H_
