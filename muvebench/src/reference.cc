#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>

#include "common/strings.h"

namespace muvebench {

using muve::db::AggregateFunction;
using muve::db::AggregateQuery;

namespace {

int FindColumn(const std::vector<std::string>& names, const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (muve::EqualsIgnoreCase(names[i], name)) return static_cast<int>(i);
  }
  return -1;
}

auto Tie(const LoweredQuery& q) {
  return std::tie(q.function, q.numeric_column, q.num_predicates,
                  q.predicates);
}

struct Less {
  bool operator()(const LoweredQuery& a, const LoweredQuery& b) const {
    return Tie(a) < Tie(b);
  }
};

/// Running aggregate state over matched rows, in row order.
struct Accumulator {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double x) {
    ++count;
    sum += x;
    min = std::min(min, x);
    max = std::max(max, x);
  }

  double Value(AggregateFunction function) const {
    if (function == AggregateFunction::kCount) {
      return static_cast<double>(count);
    }
    if (count == 0) return 0.0;
    switch (function) {
      case AggregateFunction::kSum:
        return sum;
      case AggregateFunction::kAvg:
        return sum / static_cast<double>(count);
      case AggregateFunction::kMin:
        return min;
      case AggregateFunction::kMax:
        return max;
      case AggregateFunction::kCount:
        break;
    }
    return 0.0;
  }
};

bool Matches(const Dataset& data, const LoweredQuery& query, size_t row) {
  for (uint8_t p = 0; p < query.num_predicates; ++p) {
    const auto& [column, code] = query.predicates[p];
    if (data.code(column, row) != code) return false;
  }
  return true;
}

bool Agrees(AggregateFunction function, double observed, double expected) {
  if (std::isnan(observed)) return false;
  if (function == AggregateFunction::kSum ||
      function == AggregateFunction::kAvg) {
    return std::fabs(observed - expected) <= 1e-9 * std::fabs(expected);
  }
  return observed == expected;
}

/// Evaluates `query` at each prefix of `prefixes` (ascending) in one
/// pass over `rows` (ascending row ids; null = every row).
std::vector<double> Sweep(const Dataset& data, const LoweredQuery& query,
                          const std::vector<uint32_t>* rows,
                          const std::vector<uint64_t>& prefixes) {
  std::vector<double> values;
  values.reserve(prefixes.size());
  Accumulator acc;
  size_t next = 0;  // Position in `rows` (or the row id itself).
  const size_t end = rows != nullptr ? rows->size() : data.num_rows();
  for (uint64_t prefix : prefixes) {
    for (; next < end; ++next) {
      const size_t row = rows != nullptr ? (*rows)[next] : next;
      if (row >= prefix) break;
      if (!Matches(data, query, row)) continue;
      acc.Add(query.numeric_column < 0
                  ? 0.0
                  : data.number(query.numeric_column, row));
    }
    values.push_back(acc.Value(query.function));
  }
  return values;
}

}  // namespace

bool LoweredQuery::operator==(const LoweredQuery& other) const {
  return error == other.error && Tie(*this) == Tie(other);
}

LoweredQuery Lower(const Dataset& data, const AggregateQuery& query) {
  LoweredQuery out;
  out.function = query.function;
  if (!query.aggregate_column.empty()) {
    out.numeric_column = static_cast<int8_t>(
        FindColumn(Dataset::NumericColumns(), query.aggregate_column));
    if (out.numeric_column < 0) {
      out.error = "unknown aggregate column";
      return out;
    }
  } else if (query.function != AggregateFunction::kCount) {
    out.error = "aggregate without a column";
    return out;
  }
  if (query.predicates.size() > out.predicates.size()) {
    out.error = "more predicates than columns";
    return out;
  }
  for (const muve::db::Predicate& predicate : query.predicates) {
    const int column = FindColumn(Dataset::StringColumns(), predicate.column);
    if (column < 0 || predicate.values.size() != 1) {
      out.error = column < 0 ? "predicate on an unexpected column"
                             : "predicate with several values";
      return out;
    }
    const int64_t code = data.Lookup(column, predicate.values[0].ToString());
    // Insert in column order, so equal predicate sets compare equal.
    size_t slot = out.num_predicates++;
    for (; slot > 0 && out.predicates[slot - 1].first > column; --slot) {
      out.predicates[slot] = out.predicates[slot - 1];
    }
    out.predicates[slot] = {
        static_cast<uint8_t>(column),
        code < 0 ? LoweredQuery::kNoCode : static_cast<uint32_t>(code)};
  }
  return out;
}

double ReferenceValue(const Dataset& data, const AggregateQuery& query,
                      uint64_t prefix_rows) {
  const LoweredQuery lowered = Lower(data, query);
  if (lowered.error != nullptr) return std::nan("");
  return Sweep(data, lowered, nullptr, {prefix_rows})[0];
}

void OutputCheck::Add(size_t answer_id, uint64_t prefix_rows,
                      std::vector<BarRecord> bars) {
  for (BarRecord& bar : bars) {
    items_.push_back({answer_id, prefix_rows, std::move(bar)});
  }
}

std::vector<std::string> OutputCheck::Run(const Dataset& data,
                                          size_t num_answers) const {
  std::vector<std::string> failures(num_answers);
  // Posting lists: ascending row ids per (string column, code).
  std::vector<std::vector<std::vector<uint32_t>>> postings(
      Dataset::kNumStringColumns);
  for (size_t c = 0; c < Dataset::kNumStringColumns; ++c) {
    postings[c].resize(data.dictionary(c).size());
    for (size_t row = 0; row < data.num_rows(); ++row) {
      postings[c][data.code(c, row)].push_back(static_cast<uint32_t>(row));
    }
  }

  std::map<LoweredQuery, std::vector<size_t>, Less> groups;
  for (size_t i = 0; i < items_.size(); ++i) {
    groups[items_[i].bar.query].push_back(i);
  }
  static const std::vector<uint32_t> kNoRows;
  for (auto& [query, members] : groups) {
    std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
      return items_[a].prefix_rows < items_[b].prefix_rows;
    });
    // Drive the sweep from the shortest posting list.
    const std::vector<uint32_t>* rows = nullptr;
    for (uint8_t p = 0; p < query.num_predicates; ++p) {
      const auto& [column, code] = query.predicates[p];
      const std::vector<uint32_t>* candidate =
          code == LoweredQuery::kNoCode ? &kNoRows : &postings[column][code];
      if (rows == nullptr || candidate->size() < rows->size()) {
        rows = candidate;
      }
    }
    std::vector<double> expected(members.size(), std::nan(""));
    if (query.error == nullptr) {
      std::vector<uint64_t> prefixes;
      for (size_t i : members) prefixes.push_back(items_[i].prefix_rows);
      expected = Sweep(data, query, rows, prefixes);
    }
    for (size_t m = 0; m < members.size(); ++m) {
      const Item& item = items_[members[m]];
      if (item.answer_id >= num_answers ||
          !failures[item.answer_id].empty()) {
        continue;
      }
      char buffer[200];
      if (query.error != nullptr) {
        std::snprintf(buffer, sizeof(buffer), "bar query not checkable: %s",
                      query.error);
        failures[item.answer_id] = buffer;
      } else if (!Agrees(query.function, item.bar.value, expected[m])) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s with %u predicates: got %.17g, reference %.17g "
                      "over %llu rows",
                      muve::db::AggregateFunctionName(query.function),
                      static_cast<unsigned>(query.num_predicates),
                      item.bar.value, expected[m],
                      static_cast<unsigned long long>(item.prefix_rows));
        failures[item.answer_id] = buffer;
      }
    }
  }
  return failures;
}

}  // namespace muvebench
