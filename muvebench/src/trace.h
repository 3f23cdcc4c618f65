#ifndef MUVEBENCH_TRACE_H_
#define MUVEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "net/listener.h"
#include "shard/scatter_gather.h"

namespace muvebench {

/// Microseconds on the steady clock since the first call in the process.
double NowMicros();

/// One timed interval. Spans of one request share `request`; spans
/// recorded on program threads that the benchmark cannot tie to a
/// request from outside carry request -1 and name, in `within`, the
/// request-level span type that encloses them (their time is taken out
/// of that span type's self time, per workload).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = none.
  std::string name;     ///< "<layer>.<what>", e.g. "nlq.translate".
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t request = -1;
  std::string within;
  /// Pairs gather legs with their gather (not written out).
  std::string key;
  size_t shard = 0;
};

/// Spans kept in memory until the run ends. Thread-safe.
class TraceRecorder {
 public:
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Gives each shard leg ("shard.scan") the gather ("dist.gather") it
/// served as parent: the gather of the same query whose interval
/// contains the leg, one leg per shard. Legs are matched by query and
/// time because the wire carries no request id.
void PairGatherLegs(std::vector<Span>* spans);

/// Writes spans as Chrome trace-event JSON ("X" events, microseconds),
/// loadable in chrome://tracing or Perfetto. Returns false on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

/// Times every gather of the wrapped backend (the router's
/// dist::Coordinator) as a "dist.gather" span.
class TimedBackend : public muve::shard::PartialBackend {
 public:
  TimedBackend(muve::shard::PartialBackend* inner, TraceRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  std::vector<muve::Result<AggregateOutcome>> ExecutePartialAll(
      const muve::db::AggregateQuery& query,
      const muve::Deadline& deadline) override;
  std::vector<muve::Result<GroupedOutcome>> ExecuteGroupedPartialAll(
      const muve::db::GroupByQuery& query,
      const muve::Deadline& deadline) override;

  uint64_t gathers() const { return gathers_.load(); }

 private:
  muve::shard::PartialBackend* const inner_;
  TraceRecorder* const recorder_;
  std::atomic<uint64_t> gathers_{0};
};

/// Times every partial scan of the wrapped shard handler
/// (dist::ShardService) as a "shard.scan" span.
class TimedShard : public muve::net::PartialHandler {
 public:
  TimedShard(muve::net::PartialHandler* inner, size_t shard,
             TraceRecorder* recorder)
      : inner_(inner), shard_(shard), recorder_(recorder) {}

  muve::Result<muve::net::PartialResult> HandlePartial(
      const muve::net::PartialQuery& query) override;

 private:
  muve::net::PartialHandler* const inner_;
  const size_t shard_;
  TraceRecorder* const recorder_;
};

/// The identity of a partial query independent of its deadline, equal on
/// both sides of the wire.
std::string PartialKey(muve::net::PartialQuery query);

}  // namespace muvebench

#endif  // MUVEBENCH_TRACE_H_
