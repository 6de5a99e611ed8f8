// Shared infrastructure of the end-to-end benchmark: arguments, metric
// reports, the in-memory span tracer, statistics, resident-memory probes,
// linkage-quality scoring and the correctness-gate bookkeeping.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/record.h"
#include "encoding/clk_io.h"
#include "linkage/clustering.h"
#include "linkage/compare_kernels.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Command-line arguments (main.cc and run.py document them).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every input for the self-test (0 < scale <= 1).
  double scale = 1.0;
  /// Self-test only: deliberately corrupts one result before its gate.
  std::string corrupt;
  /// Where results, the trace artifact and generated inputs go.
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

/// Name -> (value, unit), printed in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

/// Attempted / failed operations of one op class in one phase. A failed
/// op is one that returned an error, was refused (kBusy, after the
/// client's retries) or timed out; it also counts as missing any latency
/// limit.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Op accounting across classes and phases, plus gate failures.
class Outcome {
 public:
  void Op(const std::string& op_class, const std::string& phase, bool ok);
  void Ops(const std::string& op_class, const std::string& phase,
           uint64_t attempted, uint64_t failed);
  /// Records a failed correctness gate (`name` is the gate's error name).
  void Gate(const std::string& name, bool passed, const std::string& detail);

  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const { return gate_failures_.empty(); }
  const std::vector<std::string>& gate_failures() const { return gate_failures_; }
  /// Excludes a phase from the attempted/failed totals (the overload
  /// ladder, whose rungs past capacity are expected to fail).
  void ExcludeFromTotals(const std::string& phase) { excluded_.push_back(phase); }
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, OpCount> ops_;
  std::vector<std::string> excluded_;
  std::vector<std::string> gate_failures_;
};

/// One recorded span: a named interval, the span that caused it and the
/// request it belongs to.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  std::string name;
  std::string request;
  double start_s = 0;  ///< seconds since the tracer's epoch
  double end_s = 0;
};

/// In-memory span recorder. A disabled tracer records nothing and costs a
/// branch per span, so the same code path runs traced and untraced.
/// Thread-safe: concurrent clients record into one tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  uint32_t Begin(const std::string& name, uint32_t parent,
                 const std::string& request = "");
  void End(uint32_t id);
  /// Adds to a named counter recorded at a layer boundary.
  void Count(const std::string& name, double n);
  /// Raises a named counter to at least `v`.
  void Max(const std::string& name, double v);

  std::vector<Span> spans() const;
  /// Sum of durations of every span called `name`.
  double Total(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  double Counter(const std::string& name) const;
  void Clear();

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, uint32_t parent,
        const std::string& request = "")
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

/// Self time per span name: each span's duration minus the union of the
/// intervals its direct children cover, summed by name.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans);

double Median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> values, double p);
/// True when at least ten samples lie beyond the p-th percentile, the
/// rule for reporting a percentile at all.
bool PercentileReportable(size_t samples, double p);

/// Returns freed heap to the OS (malloc_trim) and resets the resident
/// memory high-water mark (VmHWM) to the current RSS.
void ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

/// Pairwise F1 of two-party matches against the generator's entity ids.
double TwoPartyF1(const std::vector<pprl::ScoredPair>& matches,
                  const pprl::Database& a, const pprl::Database& b);
/// Pairwise F1 of a multi-database partition: record pairs from different
/// databases in one cluster, against pairs sharing an entity id.
double ClusterF1(const std::vector<pprl::Cluster>& clusters,
                 const std::vector<pprl::Database>& databases);

/// Packs a database's filters as a shard with record index ids.
pprl::EncodedShard ShardOf(const std::vector<pprl::BitVector>& filters);

/// The generated linkage scenario every workload draws from: `count`
/// databases of `records` each, 50 % overlap, mean 2 corruptions, Zipf 1.0.
std::vector<pprl::Database> GenerateDatabases(uint64_t seed, size_t count,
                                              size_t records);

std::string JsonEscape(const std::string& s);

/// Everything one workload run produces.
struct WorkloadResult {
  /// The result line's metrics: end-to-end untraced, per-layer traced.
  Report metrics;
  /// Figures only some workloads have (README.md), printed and written
  /// beside the results but not part of the result line's metric set.
  Report extra;
  Outcome outcome;
  /// Traced runs: every recorded span (the workload path under root
  /// "workload", replays under root "replay").
  std::vector<Span> spans;
  /// Self seconds per layer over the traced path; a workload may replace
  /// a layer's figure (link-daemon attributes its session time).
  std::map<std::string, double> layer_self_s;
};

void RunLinkInproc(const Args& args, WorkloadResult& result);
void RunLinkDaemon(const Args& args, WorkloadResult& result);
void RunOnlineMixed(const Args& args, WorkloadResult& result);
void RunEncodeKeyed(const Args& args, WorkloadResult& result);

/// Per-layer metrics of a traced run: the layer metrics of `path`,
/// trace.overhead_share from the two sets of wall times and
/// trace.uncovered_share from the path's root span. Stores the spans and the
/// layer self times.
void FinishTracedRun(const Tracer& path, const std::vector<double>& traced_walls,
                     const std::vector<double>& untraced_walls, WorkloadResult& result);

/// The program's own exported pprl_stage_seconds, summed per stage over the
/// untraced repetitions that Before() and After() bracket.
class StageSums {
 public:
  void Before();
  void After();
  /// Records the stage seconds per repetition as pipeline.stage_s.<stage>
  /// extra figures.
  void Report(size_t reps, WorkloadResult& result) const;

 private:
  std::map<std::string, double> before_;
  std::map<std::string, double> sums_;
};

/// Records the repetitions' wall seconds (count, quartiles) as extra
/// figures, so a run's own spread is visible beside its median.
void ReportWalls(const std::vector<double>& walls, WorkloadResult& result);

/// Creates `dir` (and parents) if missing.
void MakeDirs(const std::string& dir);

/// Times a workload's set-up. The set-up runs once before the timed region
/// and is timed again between repetitions, so that its median samples the
/// whole run rather than one moment of a shared host, whose speed drifts by
/// tens of percent over seconds.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}
  /// Runs and times the set-up once.
  void Run();
  /// Runs it again while the set-up time so far is under a quarter of the
  /// time since the first set-up began.
  void RunIfDue();
  double MedianSeconds() const { return Median(seconds_); }
  /// Records the samples' count and quartiles as extra figures.
  void Report(WorkloadResult& result) const;

 private:
  std::function<void()> setup_;
  std::vector<double> seconds_;
  double total_s_ = 0;
  Clock::time_point first_start_;
};

/// Size of a workload input after --scale (never below `floor`).
size_t Scaled(const Args& args, size_t size, size_t floor = 64);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
