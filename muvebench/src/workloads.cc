#include "workloads.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "data.h"
#include "dist/coordinator.h"
#include "dist/shard_service.h"
#include "net/client.h"
#include "net/listener.h"
#include "net/wire.h"
#include "reference.h"
#include "serve/server.h"
#include "shard/sharded_table.h"
#include "stats.h"
#include "trace.h"

namespace muvebench {

using muve::Result;
using muve::Status;
using muve::serve::ServedAnswer;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The fixed constants of one workload. They are never calibrated at run
/// time: a faster commit must face the same offered load.
struct Spec {
  const char* name;
  size_t rows;
  size_t street_values;
  /// Voice requests (fresh utterance each) or text requests drawn from a
  /// pool of `pool_size` utterances (high repeat share).
  bool voice;
  size_t pool_size;
  size_t max_predicates;
  /// Per-request deadline; infinite runs the unbounded code paths.
  double deadline_ms;
  /// Open-loop Poisson arrival rate.
  double open_qps;
  /// Latency limit of slo_share and goodput_qps.
  double slo_ms;
  /// Paced writer (rows/s); 0 = read-only.
  double ingest_rows_per_s;
  size_t workers;
  /// Closed-loop clients (and, routed, the client connections).
  size_t clients;
  /// Remote shard stripes; 0 serves in-process.
  size_t shards;
  size_t warmup_requests;
  /// Run the open loop with the whole process confined to one core (see
  /// OpenLoopOnOneCore); the closed loop always uses every core.
  bool open_loop_one_core;
};

// voice_vocab: the phonetic front half (ASR, translate, candidate
// generation over a large confusable vocabulary, planning) dominates.
// scan_ingest: memo hits skip the front half; scans of a 1M-row LSM
// table under a paced writer and background compaction dominate.
// routed_repeat: memo hits again; every scan is a loopback gather from
// two shard servers, so the network and gather layers dominate.
const Spec kSpecs[] = {
    {"voice_vocab", 200000, 6000, true, 0, 2, 2000.0, 100.0, 250.0, 0.0, 3,
     3, 0, 120, false},
    {"scan_ingest", 1000000, 40, false, 64, 3, kInf, 300.0, 100.0, 20000.0,
     3, 3, 0, 0, false},
    {"routed_repeat", 100000, 40, false, 64, 3, 1000.0, 300.0, 50.0, 0.0, 2,
     4, 2, 0, true},
};

/// The table and the utterance pool are the same on every seed; --seed
/// drives the request stream (arrivals, pool draws, fresh utterances,
/// recognizer noise) and the writer's rows. A seeded pool of a few dozen
/// utterances would make the pool's composition, not the program, the
/// largest source of run-to-run spread.
constexpr uint64_t kDataSeed = 20210620;
/// Sessions the in-process server spreads requests over; closed-loop
/// client c uses session c, so every client finds a warm session.
constexpr size_t kSessions = 4;
/// Share of the timed window spent in the open loop (rest: closed loop).
constexpr double kOpenShare = 0.75;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// An open loop whose send lag p99 exceeds this share of the SLO did not
/// keep its schedule and is flagged invalid.
constexpr double kMaxLagShareOfSlo = 0.25;
/// Writer: rows per paced batch, and rows between explicit seals (below
/// the table's 4096-row flush threshold, so the writer's Flush() calls
/// are the ones that seal runs).
constexpr size_t kIngestBatch = 40;
constexpr size_t kIngestFlushEvery = 2048;

/// Fixed recognizer noise of voice requests: phonetic substitutions at
/// the simulator's default rate and neighbourhood, the error class MUVE
/// is built to absorb. Word deletions are off: a deleted constant leaves
/// a transcript no interpretation can answer ("how many records where
/// street is"), which measures nothing about phonetic robustness.
muve::speech::SpeechNoiseOptions VoiceNoise() {
  muve::speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.15;
  noise.deletion_rate = 0.0;
  noise.confusion_k = 5;
  return noise;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using Clock = std::chrono::steady_clock;

Clock::time_point At(Clock::time_point base, double offset_us) {
  return base + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(offset_us));
}

double CpuMillis() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Sets the CPU affinity of every thread of the process; threads they
/// start later inherit it.
Status SetProcessAffinity(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return Status::Internal("cannot list /proc/self/task");
  Status status = Status::OK();
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    // A thread may exit while we walk the list.
    if (tid > 0 && sched_setaffinity(tid, sizeof(set), &set) != 0 &&
        errno != ESRCH) {
      status = Status::Internal(std::string("sched_setaffinity: ") +
                                std::strerror(errno));
    }
  }
  closedir(dir);
  return status;
}

/// Confines the process to its highest-numbered core for the open loop
/// and restores its affinity afterwards. The routed topology passes each
/// request through about ten threads (client, front listener, worker,
/// coordinator, two shard listeners and back). Spread over the cores of
/// a virtual machine, every hop may have to wake a halted vCPU, and that
/// wake-up latency follows the host's load far more than the work does:
/// across runs of unchanged code it moved the open-loop p99 by more than
/// 2x. On one core each hop is a local context switch, so the latency
/// metrics track the CPU cost of the hops (the overlap of the two shard
/// legs is not measured). Capacity (the closed loop) uses every core.
class OpenLoopOnOneCore {
 public:
  explicit OpenLoopOnOneCore(bool enabled) {
    CPU_ZERO(&saved_);
    if (!enabled || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    status_ = SetProcessAffinity(one);
    active_ = true;
  }
  ~OpenLoopOnOneCore() {
    if (active_) (void)SetProcessAffinity(saved_);
  }
  OpenLoopOnOneCore(const OpenLoopOnOneCore&) = delete;
  OpenLoopOnOneCore& operator=(const OpenLoopOnOneCore&) = delete;

  const Status& status() const { return status_; }

 private:
  cpu_set_t saved_;
  bool active_ = false;
  Status status_ = Status::OK();
};

/// Raises the calling load-generator thread above the program's threads
/// (nice -10). Client and server share the cores here, which they would
/// not on separate machines: without this, a burst of server work delays
/// the generator's sends and its reads of answers, and the run measures
/// the client's starvation. Best effort; a refusal is reported once.
void PrioritizeLoadThread() {
  static std::atomic<bool> reported{false};
  const id_t tid = static_cast<id_t>(syscall(SYS_gettid));
  if (setpriority(PRIO_PROCESS, tid, -10) != 0 && !reported.exchange(true)) {
    std::fprintf(stderr,
                 "muvebench: cannot raise load-generator priority (%s)\n",
                 std::strerror(errno));
  }
}

// ---------------------------------------------------------------------------
// Inputs

struct Input {
  muve::db::AggregateQuery truth;
  std::string text;
  uint64_t noise_seed = 0;
};

/// Request i of a run is a pure function of (seed, i): a fresh random
/// query, or a draw from the fixed pool.
class Inputs {
 public:
  Inputs(const Spec& spec, const Dataset& data, uint64_t seed)
      : spec_(spec), data_(data), seed_(seed) {
    muve::Rng rng(Mix(kDataSeed, 0x9001));
    std::vector<std::string> keys;
    while (pool_.size() < spec.pool_size) {
      muve::db::AggregateQuery query =
          data.RandomQuery(&rng, spec.max_predicates, false);
      const std::string key = query.CanonicalKey();
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
      keys.push_back(key);
      pool_.push_back(std::move(query));
    }
  }

  Input Make(uint64_t index) const {
    muve::Rng rng(Mix(seed_, index));
    Input input;
    input.truth = pool_.empty()
                      ? data_.RandomQuery(&rng, spec_.max_predicates, true)
                      : pool_[rng.UniformInt(pool_.size())];
    input.text = Verbalize(input.truth);
    input.noise_seed = rng.Next();
    return input;
  }

  const std::vector<muve::db::AggregateQuery>& pool() const { return pool_; }

 private:
  const Spec& spec_;
  const Dataset& data_;
  const uint64_t seed_;
  std::vector<muve::db::AggregateQuery> pool_;
};

// ---------------------------------------------------------------------------
// Per-request record

enum class Phase { kOpenUntraced, kOpenTraced, kClosed };

struct Record {
  Phase phase = Phase::kClosed;
  uint64_t index = 0;
  LoweredQuery truth;
  double due_us = 0.0;
  double send_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
  std::string error;
  // Fields of the served answer.
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double total_ms = 0.0;
  bool shared = false;
  muve::StageTimings timings;
  bool exact = false;
  size_t candidates = 0;
  size_t plots = 0;
  size_t bars_shown = 0;
  size_t red_bars = 0;
  size_t plots_with_red = 0;
  double expected_cost_ms = 0.0;
  size_t queries_issued = 0;
  double storage_ms = 0.0;
  size_t units_dropped = 0;
  uint64_t prefix_rows = 0;
  size_t answer_bytes = 0;
  std::vector<BarRecord> bars;

  double latency_ms() const { return (done_us - due_us) / 1e3; }
};

void Fill(const Dataset& data, Result<ServedAnswer> result, Record* record) {
  if (!result.ok()) {
    record->error = result.status().ToString();
    return;
  }
  ServedAnswer served = std::move(result).value();
  record->ok = true;
  record->queue_ms = served.queue_millis;
  record->service_ms = served.service_millis;
  record->total_ms = served.total_millis;
  record->shared = served.shared;
  muve::MuveEngine::Answer& answer = served.answer;
  record->timings = answer.timings;
  record->exact = answer.degradation.rung == muve::Degradation::Rung::kExact;
  record->candidates = answer.candidates.size();
  const muve::core::Multiplot& multiplot = answer.plan.multiplot;
  record->expected_cost_ms =
      muve::core::UserCostModel().ExpectedCost(multiplot, answer.candidates);
  record->plots = multiplot.NumPlots();
  multiplot.ForEachPlot([&](const muve::core::Plot& plot) {
    const size_t red = plot.NumHighlighted();
    record->red_bars += red;
    record->plots_with_red += red > 0 ? 1 : 0;
    for (const muve::core::PlotBar& bar : plot.bars) {
      BarRecord out;
      out.value = bar.value;
      out.highlighted = bar.highlighted;
      if (bar.candidate_index < answer.candidates.size()) {
        out.query = Lower(data, answer.candidates[bar.candidate_index].query);
      } else {
        out.query.error = "bar names no candidate";
      }
      record->bars.push_back(std::move(out));
    }
  });
  record->bars_shown = record->bars.size();
  record->queries_issued = answer.execution.queries_issued;
  record->storage_ms = answer.execution.measured_millis;
  record->units_dropped = answer.execution.units_dropped;
  record->prefix_rows = answer.execution.snapshot_version;
}

// ---------------------------------------------------------------------------
// Environment: the program under test, set up and warmed.

struct WriterStats {
  std::vector<double> append_us;
  std::vector<double> flush_ms;
  size_t max_runs = 0;
  size_t rows = 0;
  double seconds = 0.0;
};

class Environment {
 public:
  Environment(const Spec& spec, uint64_t seed, TraceRecorder* recorder)
      : spec_(spec), seed_(seed), recorder_(recorder) {}

  ~Environment() {
    StopWriter();
    clients_.clear();
    if (front_ != nullptr) front_->Shutdown();
    front_.reset();
    server_.reset();
    for (auto& listener : shard_listeners_) listener->Shutdown();
    if (table_ != nullptr) table_->EnableBackgroundCompaction(nullptr);
    if (compaction_pool_ != nullptr) compaction_pool_->Shutdown();
  }

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  Status Start() {
    data_ = std::make_unique<Dataset>(spec_.street_values, kDataSeed);
    muve::Rng rng(Mix(kDataSeed, 0xDA7A));
    table_ = data_->BuildTable(spec_.rows, &rng, muve::db::TableOptions{});
    if (table_ == nullptr) return Status::Internal("table build failed");
    writer_rng_ = std::make_unique<muve::Rng>(Mix(seed_, 0x3717E));
    inputs_ = std::make_unique<Inputs>(spec_, *data_, seed_);

    muve::serve::ServerOptions options;
    options.num_workers = spec_.workers;
    options.max_queue_depth = 512;
    options.sessions.seed = seed_;
    if (spec_.shards == 0) {
      if (spec_.ingest_rows_per_s > 0) {
        // Seal the bulk load into compacted runs now, so the timed phase
        // sees only the writer's own flushes and compaction rounds.
        table_->Compact();
        compaction_pool_ = std::make_unique<muve::ThreadPool>(1);
        table_->EnableBackgroundCompaction(compaction_pool_.get());
      }
      server_ = std::make_unique<muve::serve::Server>(
          std::shared_ptr<const muve::db::Table>(table_), options);
    } else {
      MUVE_RETURN_NOT_OK(StartRouted(&options));
    }
    return Warm();
  }

  const Spec& spec() const { return spec_; }
  Dataset& data() { return *data_; }
  const Inputs& inputs() const { return *inputs_; }
  muve::serve::Server& server() { return *server_; }
  bool routed() const { return spec_.shards > 0; }
  TimedBackend* backend() { return backend_.get(); }
  muve::dist::Coordinator* coordinator() { return coordinator_.get(); }

  uint64_t connections() const {
    uint64_t total = front_ != nullptr ? front_->stats().connections_accepted
                                       : 0;
    for (const auto& listener : shard_listeners_) {
      total += listener->stats().connections_accepted;
    }
    return total;
  }

  muve::Request MakeRequest(const Input& input, muve::Rng* noise_rng) const {
    muve::Request request =
        spec_.voice ? muve::Request::Voice(input.text, noise_rng, VoiceNoise())
                    : muve::Request::Text(input.text);
    if (std::isfinite(spec_.deadline_ms)) {
      request.deadline = muve::Deadline::AfterMillis(spec_.deadline_ms);
    }
    return request;
  }

  /// Blocking call on behalf of client `client` (its own session or
  /// connection).
  Result<ServedAnswer> Call(size_t client, const Input& input) {
    muve::Rng noise_rng(input.noise_seed);
    muve::Request request = MakeRequest(input, &noise_rng);
    if (!routed()) {
      return server_->Ask("s" + std::to_string(client), std::move(request));
    }
    return clients_[client].Ask(request);
  }

  void StartWriter() {
    if (spec_.ingest_rows_per_s <= 0.0) return;
    writer_stop_.store(false);
    writer_ = std::thread([this] { WriterLoop(); });
  }

  void StopWriter() {
    if (!writer_.joinable()) return;
    writer_stop_.store(true);
    writer_.join();
  }

  const WriterStats& writer_stats() const { return writer_stats_; }
  /// Runs compaction has retired from the served table so far.
  uint64_t retired_runs() const { return table_->retired_seq(); }

 private:
  Status StartRouted(muve::serve::ServerOptions* options) {
    muve::shard::ShardedTableOptions shard_options;
    shard_options.num_shards = spec_.shards;
    MUVE_ASSIGN_OR_RETURN(sharded_, muve::shard::ShardedTable::FromTable(
                                        *table_, shard_options));
    std::vector<muve::dist::Endpoint> endpoints;
    for (size_t i = 0; i < spec_.shards; ++i) {
      services_.push_back(
          std::make_unique<muve::dist::ShardService>(sharded_->shard(i)));
      timed_shards_.push_back(
          std::make_unique<TimedShard>(services_.back().get(), i, recorder_));
      shard_listeners_.push_back(
          std::make_unique<muve::net::Listener>(nullptr));
      shard_listeners_.back()->set_partial_handler(timed_shards_.back().get());
      MUVE_RETURN_NOT_OK(shard_listeners_.back()->Start());
      endpoints.push_back({"127.0.0.1", shard_listeners_.back()->port()});
    }
    coordinator_ = std::make_unique<muve::dist::Coordinator>(endpoints);
    MUVE_RETURN_NOT_OK(coordinator_->PingAll(2000.0));
    backend_ = std::make_unique<TimedBackend>(coordinator_.get(), recorder_);
    options->sessions.engine.execution.remote_backend = backend_.get();
    server_ = std::make_unique<muve::serve::Server>(
        std::shared_ptr<const muve::shard::ShardedTable>(sharded_), *options);
    front_ = std::make_unique<muve::net::Listener>(server_.get());
    MUVE_RETURN_NOT_OK(front_->Start());
    for (size_t c = 0; c < spec_.clients; ++c) {
      MUVE_ASSIGN_OR_RETURN(
          muve::net::Client client,
          muve::net::Client::Connect("127.0.0.1", front_->port(), 2000.0));
      clients_.push_back(std::move(client));
    }
    return Status::OK();
  }

  /// Fills the caches and finishes lazy set-up: every client's session
  /// sees every pool utterance once (or `warmup_requests` fresh ones).
  Status Warm() {
    const size_t clients = spec_.clients;
    std::vector<Status> errors(clients, Status::OK());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([this, c, clients, &errors] {
        const size_t n = spec_.pool_size > 0 ? spec_.pool_size
                                             : spec_.warmup_requests / clients;
        for (size_t k = 0; k < n; ++k) {
          Input input;
          if (spec_.pool_size > 0) {
            input.truth = inputs_->pool()[(k + c) % spec_.pool_size];
            input.text = Verbalize(input.truth);
          } else {
            input = inputs_->Make((uint64_t{1} << 40) + k * clients + c);
          }
          Result<ServedAnswer> result = Call(c, input);
          // Pipeline refusals are part of the workload; only transport
          // failures abort the warm-up.
          if (!result.ok() && routed() &&
              result.status().code() == muve::StatusCode::kInternal) {
            errors[c] = result.status();
            return;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (!routed()) {
      // Sessions beyond the closed-loop clients serve open-loop traffic.
      for (size_t s = clients; s < kSessions; ++s) {
        for (size_t k = 0; k < std::max<size_t>(1, spec_.pool_size); ++k) {
          Input input = spec_.pool_size > 0
                            ? Input{inputs_->pool()[k], "", 0}
                            : inputs_->Make((uint64_t{1} << 41) + s);
          if (spec_.pool_size > 0) input.text = Verbalize(input.truth);
          (void)Call(s, input);
        }
      }
    }
    for (const Status& status : errors) MUVE_RETURN_NOT_OK(status);
    return Status::OK();
  }

  void WriterLoop() {
    WriterStats& stats = writer_stats_;
    const double period_us =
        1e6 * static_cast<double>(kIngestBatch) / spec_.ingest_rows_per_s;
    const Clock::time_point base = Clock::now();
    const double start_us = NowMicros();
    size_t since_flush = 0;
    for (uint64_t batch = 0; !writer_stop_.load(); ++batch) {
      std::this_thread::sleep_until(At(base, period_us * batch));
      for (size_t r = 0; r < kIngestBatch; ++r) {
        std::vector<muve::db::Value> row = data_->AppendRandomRow(
            writer_rng_.get());
        const double t0 = NowMicros();
        const Status status = table_->AppendRow(row);
        stats.append_us.push_back(NowMicros() - t0);
        if (!status.ok()) {
          std::fprintf(stderr, "writer: append failed: %s\n",
                       status.ToString().c_str());
          return;
        }
        ++stats.rows;
        if (++since_flush == kIngestFlushEvery) {
          since_flush = 0;
          const double f0 = NowMicros();
          table_->Flush();
          stats.flush_ms.push_back((NowMicros() - f0) / 1e3);
          stats.max_runs = std::max(stats.max_runs, table_->num_runs());
        }
      }
    }
    stats.seconds = (NowMicros() - start_us) / 1e6;
  }

  const Spec& spec_;
  const uint64_t seed_;
  TraceRecorder* const recorder_;

  std::unique_ptr<Dataset> data_;
  std::unique_ptr<muve::ThreadPool> compaction_pool_;
  std::shared_ptr<muve::db::Table> table_;
  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<muve::Rng> writer_rng_;
  // Routed topology, declared in start order (torn down in reverse).
  std::shared_ptr<muve::shard::ShardedTable> sharded_;
  std::vector<std::unique_ptr<muve::dist::ShardService>> services_;
  std::vector<std::unique_ptr<TimedShard>> timed_shards_;
  std::vector<std::unique_ptr<muve::net::Listener>> shard_listeners_;
  std::unique_ptr<muve::dist::Coordinator> coordinator_;
  std::unique_ptr<TimedBackend> backend_;
  std::unique_ptr<muve::serve::Server> server_;
  std::unique_ptr<muve::net::Listener> front_;
  std::vector<muve::net::Client> clients_;

  std::thread writer_;
  std::atomic<bool> writer_stop_{false};
  WriterStats writer_stats_;
};

// ---------------------------------------------------------------------------
// Load phases

/// Poisson arrival offsets (µs) over `seconds` at `qps`.
std::vector<double> Schedule(uint64_t seed, double qps, double seconds) {
  muve::Rng rng(seed);
  std::vector<double> offsets;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / qps * 1e6;
    if (t >= seconds * 1e6) break;
    offsets.push_back(t);
  }
  return offsets;
}

/// Open loop against the in-process server: one generator submits each
/// request at its due time without waiting; the calling thread observes
/// the completions.
std::vector<Record> OpenLoopInProcess(Environment& env,
                                      const std::vector<double>& offsets,
                                      uint64_t first_index, Phase phase) {
  struct Pending {
    size_t slot = 0;
    std::unique_ptr<muve::Rng> noise_rng;
    std::future<Result<ServedAnswer>> future;
  };
  std::vector<Record> records(offsets.size());
  std::mutex mutex;
  std::condition_variable handed;
  std::deque<Pending> handed_over;  // Guarded by `mutex`.
  bool generator_done = false;      // Guarded by `mutex`.
  const double base_us = NowMicros();
  const Clock::time_point base = Clock::now();

  std::thread generator([&] {
    PrioritizeLoadThread();
    for (size_t k = 0; k < offsets.size(); ++k) {
      const uint64_t index = first_index + k;
      Input input = env.inputs().Make(index);
      Record& record = records[k];
      record.phase = phase;
      record.index = index;
      record.truth = Lower(env.data(), input.truth);
      record.due_us = base_us + offsets[k];
      Pending pending;
      pending.slot = k;
      pending.noise_rng = std::make_unique<muve::Rng>(input.noise_seed);
      muve::Request request = env.MakeRequest(input, pending.noise_rng.get());
      std::this_thread::sleep_until(At(base, offsets[k]));
      record.send_us = NowMicros();
      pending.future = env.server().Submit(
          "s" + std::to_string(index % kSessions), std::move(request));
      {
        std::lock_guard<std::mutex> lock(mutex);
        handed_over.push_back(std::move(pending));
      }
      handed.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
    }
    handed.notify_one();
  });

  // Completions are timed when observed: the oldest outstanding future is
  // waited on directly (woken the moment it is ready), the others are
  // swept every kSweepMicros, so an out-of-order completion is seen at
  // most that late. Filling records waits until the sweep is timed.
  constexpr auto kSweepMicros = std::chrono::microseconds(100);
  PrioritizeLoadThread();
  std::vector<Pending> outstanding;
  std::vector<Pending> ready;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (outstanding.empty()) {
        handed.wait(lock,
                    [&] { return !handed_over.empty() || generator_done; });
      }
      while (!handed_over.empty()) {
        outstanding.push_back(std::move(handed_over.front()));
        handed_over.pop_front();
      }
      if (outstanding.empty() && generator_done) break;
    }
    (void)outstanding.front().future.wait_for(kSweepMicros);
    for (size_t i = 0; i < outstanding.size();) {
      if (outstanding[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      records[outstanding[i].slot].done_us = NowMicros();
      ready.push_back(std::move(outstanding[i]));
      outstanding.erase(outstanding.begin() + static_cast<long>(i));
    }
    for (Pending& pending : ready) {
      Fill(env.data(), pending.future.get(), &records[pending.slot]);
    }
    ready.clear();
  }
  generator.join();
  return records;
}

/// Open loop over blocking client connections: each connection's thread
/// takes the next due request and sends it on time unless its previous
/// request is still out (that lateness is the recorded send lag).
std::vector<Record> OpenLoopBlocking(Environment& env,
                                     const std::vector<double>& offsets,
                                     uint64_t first_index, Phase phase,
                                     bool measure_bytes) {
  std::vector<Record> records(offsets.size());
  std::atomic<size_t> next{0};
  const double base_us = NowMicros();
  const Clock::time_point base = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < env.spec().clients; ++c) {
    threads.emplace_back([&, c] {
      PrioritizeLoadThread();
      for (size_t k = next.fetch_add(1); k < offsets.size();
           k = next.fetch_add(1)) {
        const uint64_t index = first_index + k;
        Input input = env.inputs().Make(index);
        Record& record = records[k];
        record.phase = phase;
        record.index = index;
        record.due_us = base_us + offsets[k];
        std::this_thread::sleep_until(At(base, offsets[k]));
        record.send_us = NowMicros();
        Result<ServedAnswer> result = env.Call(c, input);
        record.done_us = NowMicros();
        if (measure_bytes && result.ok()) {
          record.answer_bytes =
              muve::net::SerializeServedAnswer(result.value()).size();
        }
        record.truth = Lower(env.data(), input.truth);
        Fill(env.data(), std::move(result), &record);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return records;
}

/// Closed loop: each client keeps one request in flight until `seconds`
/// have passed. Returns the records and sets `elapsed_s`.
std::vector<Record> ClosedLoop(Environment& env, double seconds,
                               uint64_t first_index, double* elapsed_s) {
  std::atomic<uint64_t> next{first_index};
  // Deques, and one exact-size merge below: a doubling vector would make
  // the peak RSS jump with the answer count.
  std::vector<std::deque<Record>> per_client(env.spec().clients);
  const double start_us = NowMicros();
  const double end_us = start_us + seconds * 1e6;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < env.spec().clients; ++c) {
    threads.emplace_back([&, c] {
      PrioritizeLoadThread();
      while (NowMicros() < end_us) {
        const uint64_t index = next.fetch_add(1);
        Input input = env.inputs().Make(index);
        Record record;
        record.phase = Phase::kClosed;
        record.index = index;
        record.due_us = record.send_us = NowMicros();
        Result<ServedAnswer> result = env.Call(c, input);
        record.done_us = NowMicros();
        record.truth = Lower(env.data(), input.truth);
        Fill(env.data(), std::move(result), &record);
        per_client[c].push_back(std::move(record));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double last_us = start_us;
  std::vector<Record> records;
  size_t total = 0;
  for (const auto& list : per_client) total += list.size();
  records.reserve(total);
  for (auto& list : per_client) {
    for (Record& record : list) {
      last_us = std::max(last_us, record.done_us);
      records.push_back(std::move(record));
    }
  }
  *elapsed_s = (last_us - start_us) / 1e6;
  return records;
}

// ---------------------------------------------------------------------------
// Traced run: spans synthesized from each answer's own fields, around
// the recorded gather and shard spans.

void AddRequestSpans(const Record& record, bool routed,
                     TraceRecorder* recorder, std::vector<Span>* spans) {
  auto add = [&](const char* name, uint64_t parent, double start_us,
                 double duration_us) {
    Span span;
    span.id = recorder->NextId();
    span.parent = parent;
    span.name = name;
    span.start_us = start_us;
    span.end_us = start_us + std::max(0.0, duration_us);
    span.request = static_cast<int64_t>(record.index);
    spans->push_back(span);
    return span.id;
  };
  const uint64_t root =
      add("request", 0, record.due_us, record.done_us - record.due_us);
  add("workload.send_lag", root, record.due_us,
      record.send_us - record.due_us);
  if (!record.ok) return;
  const double total_us = record.total_ms * 1e3;
  uint64_t parent = root;
  double start_us = record.send_us;
  if (routed) {
    // The server's admission-to-completion interval sits inside the
    // client's round trip; the remainder (framing, sockets, loopback)
    // is split evenly between the two directions.
    const double round_trip_us = record.done_us - record.send_us;
    parent = add("net.front", root, record.send_us, round_trip_us);
    start_us += std::max(0.0, (round_trip_us - total_us) / 2.0);
  }
  const uint64_t serve = add("serve.request", parent, start_us, total_us);
  add("serve.queue", serve, start_us, record.queue_ms * 1e3);
  double t = start_us + record.queue_ms * 1e3;
  const uint64_t service =
      add("serve.service", serve, t, record.service_ms * 1e3);
  const std::pair<const char*, double> stages[] = {
      {"speech.asr", record.timings.asr_millis},
      {"nlq.translate", record.timings.translate_millis},
      {"nlq.generate", record.timings.generate_millis},
      {"core.plan", record.timings.plan_millis}};
  for (const auto& [name, millis] : stages) {
    if (millis > 0.0) add(name, service, t, millis * 1e3);
    t += millis * 1e3;
  }
  const double execute_us = record.timings.execute_millis * 1e3;
  const uint64_t execute = add("exec.execute", service, t, execute_us);
  add("db.storage", execute, t, std::min(execute_us, record.storage_ms * 1e3));
}

struct Counters {
  muve::serve::ServerStats server;
  muve::PipelineCacheStats cache;
  muve::dist::ShardCounters dist;
  uint64_t gathers = 0;
  uint64_t connections = 0;
  uint64_t retired = 0;
};

Counters Snapshot(Environment& env) {
  Counters counters;
  counters.server = env.server().stats();
  counters.cache = env.server().cache_stats();
  if (env.routed()) {
    for (const auto& shard : env.coordinator()->stats().shards) {
      counters.dist.retries += shard.retries;
      counters.dist.hedges += shard.hedges;
      counters.dist.timeouts += shard.timeouts;
      counters.dist.dropped += shard.dropped;
    }
    counters.gathers = env.backend()->gathers();
  }
  counters.connections = env.connections();
  counters.retired = env.retired_runs();
  return counters;
}

double HitShare(const muve::cache::StatsSnapshot& after,
                const muve::cache::StatsSnapshot& before) {
  const double lookups = static_cast<double>(after.lookups()) -
                         static_cast<double>(before.lookups());
  return lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                     : 0.0;
}

template <typename Fn>
std::vector<double> Collect(const std::vector<const Record*>& records,
                            Fn&& fn) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record* record : records) out.push_back(fn(*record));
  return out;
}

std::vector<Metric> LayerMetrics(Environment& env,
                                 const std::vector<Record>& traced,
                                 const Counters& before, const Counters& after,
                                 const std::vector<Span>& spans,
                                 double untraced_p50_ms, double traced_p50_ms) {
  std::vector<const Record*> ok;
  std::vector<double> lag;
  uint64_t failed = 0;
  for (const Record& record : traced) {
    lag.push_back((record.send_us - record.due_us) / 1e3);
    if (record.ok) {
      ok.push_back(&record);
    } else {
      ++failed;
    }
  }
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto p = [](std::vector<double> v, double q) { return Quantile(v, q); };
  const auto queue = Collect(ok, [](const Record& r) { return r.queue_ms; });
  const auto translate =
      Collect(ok, [](const Record& r) { return r.timings.translate_millis; });
  const auto plan =
      Collect(ok, [](const Record& r) { return r.timings.plan_millis; });
  const auto execute =
      Collect(ok, [](const Record& r) { return r.timings.execute_millis; });
  add("workload.send_lag_ms.p99", TailPercentile(lag).value, "ms");
  add("workload.attempted", static_cast<double>(traced.size()), "count");
  add("workload.failed", static_cast<double>(failed), "count");
  add("serve.queue_ms.p50", p(queue, 0.5), "ms");
  add("serve.queue_ms.p99", TailPercentile(queue).value, "ms");
  add("serve.service_ms.mean",
      Mean(Collect(ok, [](const Record& r) { return r.service_ms; })), "ms");
  const double completed = static_cast<double>(after.server.completed +
                                               after.server.single_flight_followers -
                                               before.server.completed -
                                               before.server.single_flight_followers);
  add("serve.shared_share",
      completed > 0 ? static_cast<double>(after.server.single_flight_followers -
                                          before.server.single_flight_followers) /
                          completed
                    : 0.0,
      "share");
  add("serve.shed",
      static_cast<double>(after.server.shed_total() - before.server.shed_total()),
      "count");
  add("speech.asr_ms.mean",
      Mean(Collect(ok, [](const Record& r) { return r.timings.asr_millis; })),
      "ms");
  add("nlq.translate_ms.mean", Mean(translate), "ms");
  add("nlq.translate_ms.p99", TailPercentile(translate).value, "ms");
  add("nlq.generate_ms.mean",
      Mean(Collect(ok, [](const Record& r) { return r.timings.generate_millis; })),
      "ms");
  add("nlq.candidates.mean",
      Mean(Collect(ok, [](const Record& r) { return double(r.candidates); })),
      "count");
  add("core.plan_ms.mean", Mean(plan), "ms");
  add("core.plan_ms.p99", TailPercentile(plan).value, "ms");
  add("core.plots.mean",
      Mean(Collect(ok, [](const Record& r) { return double(r.plots); })),
      "count");
  add("core.bars.mean",
      Mean(Collect(ok, [](const Record& r) { return double(r.bars_shown); })),
      "count");
  add("core.expected_cost_ms.mean",
      Mean(Collect(ok, [](const Record& r) { return r.expected_cost_ms; })),
      "ms");
  add("exec.execute_ms.mean", Mean(execute), "ms");
  add("exec.execute_ms.p99", TailPercentile(execute).value, "ms");
  add("exec.queries_issued.mean",
      Mean(Collect(ok, [](const Record& r) { return double(r.queries_issued); })),
      "count");
  add("exec.storage_ms.mean",
      Mean(Collect(ok, [](const Record& r) { return r.storage_ms; })), "ms");
  double units_dropped = 0;
  for (const Record* r : ok) units_dropped += static_cast<double>(r->units_dropped);
  add("exec.units_dropped", units_dropped, "count");

  const WriterStats& writer = env.writer_stats();
  add("db.append_us.p50", p(writer.append_us, 0.5), "us");
  add("db.append_us.p99", TailPercentile(writer.append_us).value, "us");
  add("db.flush_ms.p99", TailPercentile(writer.flush_ms).value, "ms");
  add("db.runs.max", static_cast<double>(writer.max_runs), "count");
  add("db.runs_retired", static_cast<double>(after.retired - before.retired),
      "count");
  add("db.ingest_rows_per_s",
      writer.seconds > 0 ? static_cast<double>(writer.rows) / writer.seconds
                         : 0.0,
      "1/s");
  add("cache.result_hit_share", HitShare(after.cache.results, before.cache.results),
      "share");
  add("cache.plan_hit_share", HitShare(after.cache.plans, before.cache.plans),
      "share");
  add("cache.candidate_hit_share",
      HitShare(after.cache.candidates, before.cache.candidates), "share");
  const muve::cache::StatsSnapshot total_after = after.cache.Total();
  const muve::cache::StatsSnapshot total_before = before.cache.Total();
  add("cache.invalidations",
      static_cast<double>(total_after.invalidations - total_before.invalidations),
      "count");
  add("cache.evictions",
      static_cast<double>(total_after.evictions - total_before.evictions),
      "count");

  // Gathers and shard legs, with each gather's slowest paired leg.
  std::map<uint64_t, double> slowest_leg_ms;
  std::vector<double> gather_ms, scan_ms;
  for (const Span& span : spans) {
    const double ms = (span.end_us - span.start_us) / 1e3;
    if (span.name == "shard.scan") {
      scan_ms.push_back(ms);
      if (span.parent != 0) {
        slowest_leg_ms[span.parent] = std::max(slowest_leg_ms[span.parent], ms);
      }
    }
  }
  std::vector<double> overhead_ms;
  for (const Span& span : spans) {
    if (span.name != "dist.gather") continue;
    const double ms = (span.end_us - span.start_us) / 1e3;
    gather_ms.push_back(ms);
    const auto it = slowest_leg_ms.find(span.id);
    if (it != slowest_leg_ms.end()) overhead_ms.push_back(ms - it->second);
  }
  add("dist.gather_ms.mean", Mean(gather_ms), "ms");
  add("dist.gather_ms.p99", TailPercentile(gather_ms).value, "ms");
  add("dist.gathers_per_answer",
      ok.empty() ? 0.0
                 : static_cast<double>(after.gathers - before.gathers) /
                       static_cast<double>(ok.size()),
      "count");
  add("dist.retries", static_cast<double>(after.dist.retries - before.dist.retries),
      "count");
  add("dist.hedges", static_cast<double>(after.dist.hedges - before.dist.hedges),
      "count");
  add("dist.timeouts",
      static_cast<double>(after.dist.timeouts - before.dist.timeouts), "count");
  add("dist.dropped", static_cast<double>(after.dist.dropped - before.dist.dropped),
      "count");
  add("shard.scan_ms.mean", Mean(scan_ms), "ms");
  add("shard.scan_ms.p99", TailPercentile(scan_ms).value, "ms");
  add("net.gather_overhead_ms.mean", Mean(overhead_ms), "ms");
  add("net.front_overhead_ms.mean",
      env.routed() ? Mean(Collect(ok, [](const Record& r) {
        return (r.done_us - r.send_us) / 1e3 - r.total_ms;
      }))
                   : 0.0,
      "ms");
  add("net.answer_bytes.mean",
      Mean(Collect(ok, [](const Record& r) { return double(r.answer_bytes); })),
      "bytes");
  add("net.connections", static_cast<double>(after.connections), "count");
  add("trace.overhead_share",
      untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0,
      "share");
  return m;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Spec& spec : kSpecs) names.push_back(spec.name);
    return names;
  }();
  return kNames;
}

Result<RunResult> RunWorkload(const RunOptions& options) {
  const Spec* spec = nullptr;
  for (const Spec& candidate : kSpecs) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  TraceRecorder recorder;

  // Set-up runs kSetups times from scratch; the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Environment> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    const double t0 = NowMicros();
    auto fresh = std::make_unique<Environment>(*spec, options.seed, &recorder);
    MUVE_RETURN_NOT_OK(fresh->Start());
    setup_s.push_back((NowMicros() - t0) / 1e6);
    env = std::move(fresh);
  }

  Status pinning = Status::OK();
  auto open_loop = [&](double seconds, uint64_t first_index, Phase phase) {
    const std::vector<double> offsets =
        Schedule(Mix(options.seed, first_index + 0x5C4ED), spec->open_qps,
                 seconds);
    OpenLoopOnOneCore one_core(spec->open_loop_one_core);
    if (!one_core.status().ok()) pinning = one_core.status();
    return env->routed() ? OpenLoopBlocking(*env, offsets, first_index, phase,
                                            phase == Phase::kOpenTraced)
                         : OpenLoopInProcess(*env, offsets, first_index, phase);
  };
  const double cpu_before_ms = CpuMillis();
  env->StartWriter();
  std::vector<Record> records;
  std::vector<Record> traced;
  double closed_elapsed_s = 0.0;
  Counters before, after;
  if (!options.trace) {
    records = open_loop(options.seconds * kOpenShare, 0, Phase::kOpenUntraced);
    std::vector<Record> closed =
        ClosedLoop(*env, options.seconds * (1.0 - kOpenShare),
                   uint64_t{1} << 32, &closed_elapsed_s);
    records.reserve(records.size() + closed.size());
    for (Record& record : closed) records.push_back(std::move(record));
  } else {
    // Half the window untraced (the overhead baseline), half traced.
    records = open_loop(options.seconds / 2, 0, Phase::kOpenUntraced);
    before = Snapshot(*env);
    recorder.set_enabled(true);
    traced = open_loop(options.seconds / 2, uint64_t{1} << 31,
                       Phase::kOpenTraced);
    recorder.set_enabled(false);
    after = Snapshot(*env);
  }
  env->StopWriter();
  MUVE_RETURN_NOT_OK(pinning);
  const double cpu_ms = CpuMillis() - cpu_before_ms;
  const double peak_rss_mb = PeakRssMb();
  const size_t num_untraced = records.size();
  records.reserve(records.size() + traced.size());
  for (Record& record : traced) records.push_back(std::move(record));

  // Output check, outside timing.
  const Dataset& data = env->data();
  OutputCheck check;
  const muve::core::UserCostModel cost_model;
  size_t answered = 0, exact = 0, truth_shown = 0;
  double user_cost_total = 0.0;
  std::map<std::string, size_t> causes;
  for (size_t i = 0; i < records.size(); ++i) {
    Record& r = records[i];
    if (!r.ok) {
      ++causes[r.error];
      user_cost_total += cost_model.miss_cost_ms;
      continue;
    }
    ++answered;
    exact += r.exact ? 1 : 0;
    int truth = 0;
    for (const BarRecord& bar : r.bars) {
      if (bar.query == r.truth) {
        truth = bar.highlighted ? 2 : 1;
        break;
      }
    }
    truth_shown += truth > 0 ? 1 : 0;
    user_cost_total +=
        truth == 2 ? cost_model.HighlightedCost(r.red_bars, r.plots_with_red)
        : truth == 1
            ? cost_model.VisualizedCost(r.bars_shown, r.red_bars, r.plots,
                                        r.plots_with_red)
            : cost_model.miss_cost_ms;
    check.Add(i, env->routed() ? data.num_rows() : r.prefix_rows,
              std::move(r.bars));
  }
  const std::vector<std::string> mismatches = check.Run(data, records.size());
  size_t check_failures = 0;
  for (const std::string& mismatch : mismatches) {
    if (mismatch.empty()) continue;
    if (++check_failures <= 5) {
      std::fprintf(stderr, "output check: %s\n", mismatch.c_str());
    }
  }

  // Open-loop latency, send lag and validity.
  std::vector<double> open_latency, traced_latency, lag;
  size_t open_attempted = 0, open_in_slo = 0;
  size_t closed_answers = 0, closed_in_slo = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const bool good = r.ok && mismatches[i].empty();
    const bool in_slo = good && r.latency_ms() <= spec->slo_ms;
    if (r.phase == Phase::kClosed) {
      closed_answers += good ? 1 : 0;
      closed_in_slo += in_slo ? 1 : 0;
      continue;
    }
    lag.push_back((r.send_us - r.due_us) / 1e3);
    if (r.phase == Phase::kOpenTraced) {
      if (r.ok) traced_latency.push_back(r.latency_ms());
      continue;
    }
    ++open_attempted;
    open_in_slo += in_slo ? 1 : 0;
    if (r.ok) open_latency.push_back(r.latency_ms());
  }
  const Tail tail = TailPercentile(open_latency);
  const Tail lag_tail = TailPercentile(lag);
  const bool valid = lag_tail.value <= kMaxLagShareOfSlo * spec->slo_ms;

  std::string setups;
  for (double s : setup_s) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.3f", setups.empty() ? "" : "/",
                  s);
    setups += buffer;
  }
  std::fprintf(stderr,
               "%s seed=%llu: setup %s s; open loop %zu requests at %.0f/s, "
               "p50 %.3f ms, tail p%.2f %.3f ms (%zu samples, %zu beyond); "
               "send lag p99 %.3f ms (limit %.3f ms)%s\n",
               spec->name, static_cast<unsigned long long>(options.seed),
               setups.c_str(), open_attempted, spec->open_qps,
               Quantile(open_latency, 0.5), tail.percentile, tail.value,
               tail.samples, tail.beyond, lag_tail.value,
               kMaxLagShareOfSlo * spec->slo_ms,
               valid ? "" : " -- INVALID: the generator fell behind");
  std::fprintf(stderr,
               "%s: %zu attempted, %zu answered, %zu exact, %zu output-check "
               "failures, cpu %.0f ms, closed loop %zu answers in %.2f s\n",
               spec->name, records.size(), answered, exact, check_failures,
               cpu_ms, closed_answers, closed_elapsed_s);
  for (const auto& [cause, count] : causes) {
    std::fprintf(stderr, "  failed x%zu: %s\n", count, cause.c_str());
  }

  RunResult result;
  result.attempted = records.size();
  result.failed = (records.size() - answered) + check_failures;
  result.correct = check_failures == 0 && valid;
  if (!options.trace) {
    const double attempted = static_cast<double>(records.size());
    std::vector<double> sorted_setup = setup_s;
    std::sort(sorted_setup.begin(), sorted_setup.end());
    auto& m = result.metrics;
    m.push_back({"setup_s", sorted_setup[sorted_setup.size() / 2], "s"});
    m.push_back({"answer_p50_ms", Quantile(open_latency, 0.5), "ms"});
    m.push_back({"answer_p99_ms", tail.value, "ms"});
    m.push_back({"slo_share",
                 open_attempted > 0 ? static_cast<double>(open_in_slo) /
                                          static_cast<double>(open_attempted)
                                    : 0.0,
                 "fraction"});
    m.push_back({"goodput_qps",
                 closed_elapsed_s > 0
                     ? static_cast<double>(closed_in_slo) / closed_elapsed_s
                     : 0.0,
                 "answers/s"});
    m.push_back({"cpu_ms_per_answer",
                 answered > 0 ? cpu_ms / static_cast<double>(answered) : 0.0,
                 "ms"});
    m.push_back({"answered_share", static_cast<double>(answered) / attempted,
                 "fraction"});
    m.push_back({"exact_share", static_cast<double>(exact) / attempted,
                 "fraction"});
    m.push_back({"truth_shown_share",
                 answered > 0 ? static_cast<double>(truth_shown) /
                                    static_cast<double>(answered)
                              : 0.0,
                 "fraction"});
    m.push_back({"user_cost_ms", user_cost_total / attempted, "ms"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    return result;
  }

  std::vector<Span> spans = recorder.Take();
  PairGatherLegs(&spans);
  for (size_t i = num_untraced; i < records.size(); ++i) {
    AddRequestSpans(records[i], env->routed(), &recorder, &spans);
  }
  if (!options.trace_path.empty() &&
      !WriteChromeTrace(options.trace_path, spans)) {
    return Status::Internal("cannot write " + options.trace_path);
  }
  std::vector<Record> traced_records(
      std::make_move_iterator(records.begin() + num_untraced),
      std::make_move_iterator(records.end()));
  result.metrics = LayerMetrics(*env, traced_records, before, after, spans,
                                Quantile(open_latency, 0.5),
                                Quantile(traced_latency, 0.5));
  return result;
}

}  // namespace muvebench
