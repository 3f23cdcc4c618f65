// The MUVE serving benchmark program: runs one workload and prints, as
// the last line of stdout, one JSON object with keys correct, attempted,
// failed and metrics (end-to-end metrics, or per-layer ones with
// --trace 1). See muvebench/README.md.
//
//   muvebench --workload voice_vocab --seed 1 --seconds 30 --trace 0
//             [--trace_path FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void PrintJsonString(const std::string& text) {
  std::putchar('"');
  for (char c : text) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: muvebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace_path FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  muvebench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace_path") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  muve::Result<muvebench::RunResult> result = muvebench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "muvebench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const muvebench::RunResult& run = result.value();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const muvebench::Metric& metric = run.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(metric.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    PrintJsonString(metric.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
