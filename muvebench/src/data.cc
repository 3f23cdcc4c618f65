#include "data.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace muvebench {

using muve::Rng;
using muve::db::AggregateFunction;
using muve::db::AggregateQuery;
using muve::db::ColumnSpec;
using muve::db::Predicate;
using muve::db::Value;
using muve::db::ValueType;

namespace {

// Street names are two or three of these syllables: neighbours differ in
// one syllable or one letter ("marbelton" / "marbelston" / "harbelton"),
// the confusions a recognizer makes on real street vocabularies.
const std::vector<std::string>& Syllables() {
  static const std::vector<std::string> kSyllables = {
      "bar",  "ber",  "bel",  "bor",   "bran", "brook", "cam",  "car",
      "cor",  "dal",  "del",  "don",   "fair", "fer",   "field", "ford",
      "gar",  "glen", "ham",  "har",   "hol",  "kel",   "ken",  "lan",
      "ler",  "lin",  "ly",   "mar",   "mer",  "mont",  "nor",  "ton",
      "vil",  "wood", "wick", "ley",   "ridge", "dale", "ston", "ville"};
  return kSyllables;
}

// The small categorical domains, with confusable pairs as in the
// repository's 311 generator.
const std::vector<std::vector<std::string>>& SmallDomains() {
  static const std::vector<std::vector<std::string>> kDomains = {
      {"brooklyn", "bronx", "manhattan", "queens", "quincy", "bergen",
       "brookline", "staten island"},
      {"noise", "heating", "heeding", "parking", "water leak", "water lick",
       "rodents", "graffiti", "street light", "straight light"},
      {"nypd", "dep", "dob", "dot", "hpd", "dsny"},
      {"open", "closed", "pending", "assigned", "escalated"}};
  return kDomains;
}

std::vector<double> Cumulative(size_t n, double exponent) {
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cumulative[i] = total;
  }
  for (double& c : cumulative) c /= total;
  return cumulative;
}

uint32_t Draw(const std::vector<double>& cumulative, Rng* rng) {
  const double u = rng->UniformDouble();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - cumulative.begin(), cumulative.size() - 1));
}

std::string Spoken(const std::string& column) {
  std::string out = column;
  std::replace(out.begin(), out.end(), '_', ' ');
  return out;
}

}  // namespace

const std::vector<std::string>& Dataset::StringColumns() {
  static const std::vector<std::string> kColumns = {
      "street", "borough", "complaint", "agency", "status"};
  return kColumns;
}

const std::vector<std::string>& Dataset::NumericColumns() {
  static const std::vector<std::string> kColumns = {"open_hours",
                                                    "precinct"};
  return kColumns;
}

Dataset::Dataset(size_t street_values, uint64_t seed) {
  Rng rng(seed ^ 0x57AEE75ULL);
  std::unordered_set<std::string> taken;
  for (const auto& domain : SmallDomains()) {
    for (const std::string& value : domain) taken.insert(value);
  }
  std::vector<std::string> streets;
  const std::vector<std::string>& syllables = Syllables();
  while (streets.size() < street_values) {
    const size_t parts = rng.Bernoulli(0.5) ? 2 : 3;
    std::string name;
    for (size_t p = 0; p < parts; ++p) name += rng.Choice(syllables);
    if (taken.insert(name).second) streets.push_back(std::move(name));
  }
  dictionaries_.push_back(std::move(streets));
  cumulative_.push_back(Cumulative(dictionaries_[0].size(), 0.5));
  for (const auto& domain : SmallDomains()) {
    dictionaries_.push_back(domain);
    cumulative_.push_back(Cumulative(domain.size(), 1.0));
  }
  for (const auto& dict : dictionaries_) {
    index_.emplace_back();
    for (size_t code = 0; code < dict.size(); ++code) {
      index_.back().emplace(dict[code], static_cast<uint32_t>(code));
    }
  }
  codes_.resize(kNumStringColumns);
  numbers_.resize(kNumNumericColumns);
}

std::vector<ColumnSpec> Dataset::Schema() const {
  std::vector<ColumnSpec> schema;
  for (const std::string& name : StringColumns()) {
    schema.push_back({name, ValueType::kString});
  }
  schema.push_back({NumericColumns()[0], ValueType::kDouble});
  schema.push_back({NumericColumns()[1], ValueType::kInt64});
  return schema;
}

std::vector<Value> Dataset::AppendRandomRow(Rng* rng) {
  for (size_t c = 0; c < kNumStringColumns; ++c) {
    codes_[c].push_back(Draw(cumulative_[c], rng));
  }
  // Open hours on a 1/64 grid keeps every SUM exactly representable.
  numbers_[0].push_back(std::round(rng->LogNormal(3.0, 1.2) * 64.0) / 64.0);
  numbers_[1].push_back(static_cast<double>(rng->UniformInRange(1, 123)));
  return RowValues(num_rows() - 1);
}

std::vector<Value> Dataset::RowValues(size_t row) const {
  std::vector<Value> values;
  values.reserve(kNumStringColumns + kNumNumericColumns);
  for (size_t c = 0; c < kNumStringColumns; ++c) {
    values.emplace_back(dictionaries_[c][codes_[c][row]]);
  }
  values.emplace_back(numbers_[0][row]);
  values.emplace_back(static_cast<int64_t>(numbers_[1][row]));
  return values;
}

std::shared_ptr<muve::db::Table> Dataset::BuildTable(
    size_t rows, Rng* rng, const muve::db::TableOptions& options) {
  auto created = muve::db::Table::Create(table_name_, Schema(), options);
  std::shared_ptr<muve::db::Table> table = *created;
  for (size_t r = 0; r < rows; ++r) {
    const muve::Status status = table->AppendRow(AppendRandomRow(rng));
    if (!status.ok()) return nullptr;
  }
  return table;
}

int64_t Dataset::Lookup(size_t column, const std::string& value) const {
  const auto it = index_[column].find(value);
  return it == index_[column].end() ? -1 : it->second;
}

AggregateQuery Dataset::RandomQuery(Rng* rng, size_t max_predicates,
                                    bool street_first) const {
  AggregateQuery query;
  query.table = table_name_;
  static const AggregateFunction kFunctions[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kMin,
      AggregateFunction::kMax};
  query.function = kFunctions[rng->UniformInt(5)];
  if (query.function != AggregateFunction::kCount) {
    query.aggregate_column = rng->Choice(NumericColumns());
  }
  const size_t row = rng->UniformInt(num_rows());
  std::vector<size_t> columns;
  for (size_t c = street_first ? 1 : 0; c < kNumStringColumns; ++c) {
    columns.push_back(c);
  }
  rng->Shuffle(&columns);
  if (street_first) columns.insert(columns.begin(), 0);
  const size_t count = 1 + rng->UniformInt(max_predicates);
  columns.resize(std::min(count, columns.size()));
  for (size_t c : columns) {
    query.predicates.push_back(Predicate::Equals(
        StringColumns()[c], Value(dictionaries_[c][codes_[c][row]])));
  }
  return query;
}

std::string Verbalize(const AggregateQuery& query) {
  static const char* kWords[] = {"how many", "total", "average", "minimum",
                                 "maximum"};
  std::string out = kWords[static_cast<int>(query.function)];
  out += ' ';
  out += query.aggregate_column.empty() ? std::string("records")
                                        : Spoken(query.aggregate_column);
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const Predicate& predicate = query.predicates[i];
    out += i == 0 ? " where " : " and ";
    out += Spoken(predicate.column) + " is " +
           predicate.values.front().ToString();
  }
  return out;
}

}  // namespace muvebench
