#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "net/wire.h"

namespace muvebench {

double NowMicros() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

void TraceRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> TraceRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

std::string PartialKey(muve::net::PartialQuery query) {
  query.deadline = muve::Deadline::Infinite();
  return muve::net::SerializePartialQuery(query);
}

void PairGatherLegs(std::vector<Span>* spans) {
  std::map<std::string, std::vector<size_t>> legs_by_key;
  for (size_t i = 0; i < spans->size(); ++i) {
    if ((*spans)[i].name == "shard.scan") {
      legs_by_key[(*spans)[i].key].push_back(i);
    }
  }
  std::vector<bool> claimed(spans->size(), false);
  for (Span& gather : *spans) {
    if (gather.name != "dist.gather") continue;
    auto it = legs_by_key.find(gather.key);
    if (it == legs_by_key.end()) continue;
    std::vector<bool> shard_done;
    for (size_t leg_index : it->second) {
      Span& leg = (*spans)[leg_index];
      if (claimed[leg_index] || leg.start_us < gather.start_us ||
          leg.end_us > gather.end_us) {
        continue;
      }
      if (leg.shard >= shard_done.size()) shard_done.resize(leg.shard + 1);
      if (shard_done[leg.shard]) continue;
      shard_done[leg.shard] = true;
      claimed[leg_index] = true;
      leg.parent = gather.id;
    }
  }
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    // One viewer row per request; unattributed spans get a row per
    // shard (legs) or one shared row (gathers).
    const long long tid =
        span.request >= 0 ? span.request
        : span.name == "shard.scan"
            ? 2000000 + static_cast<long long>(span.shard)
            : 1000000;
    std::fprintf(file,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%lld,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%lld,\"within\":\"%s\"}}%s\n",
                 span.name.c_str(), layer.c_str(), span.start_us,
                 std::max(0.0, span.end_us - span.start_us), tid,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.request), span.within.c_str(),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

namespace {

template <typename Outcome, typename Query, typename Call>
std::vector<muve::Result<Outcome>> TimeGather(
    TraceRecorder* recorder, std::atomic<uint64_t>* gathers,
    muve::net::PartialQuery::Kind kind, const Query& query, Call&& call) {
  gathers->fetch_add(1, std::memory_order_relaxed);
  if (!recorder->enabled()) return call();
  Span span;
  span.name = "dist.gather";
  span.within = "db.storage";
  span.start_us = NowMicros();
  std::vector<muve::Result<Outcome>> out = call();
  span.end_us = NowMicros();
  span.id = recorder->NextId();
  muve::net::PartialQuery partial;
  partial.kind = kind;
  if constexpr (std::is_same_v<Query, muve::db::AggregateQuery>) {
    partial.aggregate = query;
  } else {
    partial.grouped = query;
  }
  span.key = PartialKey(std::move(partial));
  recorder->Record(std::move(span));
  return out;
}

}  // namespace

std::vector<muve::Result<TimedBackend::AggregateOutcome>>
TimedBackend::ExecutePartialAll(const muve::db::AggregateQuery& query,
                                const muve::Deadline& deadline) {
  return TimeGather<AggregateOutcome>(
      recorder_, &gathers_, muve::net::PartialQuery::Kind::kAggregate, query,
      [&] { return inner_->ExecutePartialAll(query, deadline); });
}

std::vector<muve::Result<TimedBackend::GroupedOutcome>>
TimedBackend::ExecuteGroupedPartialAll(const muve::db::GroupByQuery& query,
                                       const muve::Deadline& deadline) {
  return TimeGather<GroupedOutcome>(
      recorder_, &gathers_, muve::net::PartialQuery::Kind::kGrouped, query,
      [&] { return inner_->ExecuteGroupedPartialAll(query, deadline); });
}

muve::Result<muve::net::PartialResult> TimedShard::HandlePartial(
    const muve::net::PartialQuery& query) {
  if (!recorder_->enabled()) return inner_->HandlePartial(query);
  Span span;
  span.name = "shard.scan";
  span.within = "dist.gather";
  span.shard = shard_;
  span.start_us = NowMicros();
  muve::Result<muve::net::PartialResult> out = inner_->HandlePartial(query);
  span.end_us = NowMicros();
  span.id = recorder_->NextId();
  span.key = PartialKey(query);
  recorder_->Record(std::move(span));
  return out;
}

}  // namespace muvebench
