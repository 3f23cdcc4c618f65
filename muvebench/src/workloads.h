#ifndef MUVEBENCH_WORKLOADS_H_
#define MUVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace muvebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phases together.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones, and the
  /// spans written to `trace_path` as Chrome trace-event JSON.
  bool trace = false;
  std::string trace_path;
};

struct RunResult {
  /// Every answer passed the output check and the open loop kept its
  /// schedule.
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Sets up, warms, loads and checks one workload. A human-readable
/// report (tail sample counts, failure causes, validity) goes to stderr.
muve::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace muvebench

#endif  // MUVEBENCH_WORKLOADS_H_
