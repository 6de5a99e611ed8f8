#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "layers.h"
#include "obs/metrics.h"
#include <filesystem>
#include "datagen/generator.h"
#include "eval/metrics.h"
#include "io/ingest.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Report ---------------------------------------------------------------

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Report::Has(const std::string& name) const { return values_.count(name) > 0; }

double Report::Get(const std::string& name) const { return values_.at(name).first; }

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", std::isfinite(value) ? value : 0.0);
    out << (i ? ", " : "") << "\"" << JsonEscape(order_[i]) << "\": {\"value\": " << number
        << ", \"unit\": \"" << JsonEscape(unit) << "\"}";
  }
  out << "}";
  return out.str();
}

// --- Outcome --------------------------------------------------------------

void Outcome::Op(const std::string& op_class, const std::string& phase, bool ok) {
  Ops(op_class, phase, 1, ok ? 0 : 1);
}

void Outcome::Ops(const std::string& op_class, const std::string& phase, uint64_t attempted,
                  uint64_t failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  OpCount& count = ops_[{op_class, phase}];
  count.attempted += attempted;
  count.failed += failed;
}

void Outcome::Gate(const std::string& name, bool passed, const std::string& detail) {
  if (passed) return;
  std::lock_guard<std::mutex> lock(mutex_);
  gate_failures_.push_back(name + ": " + detail);
}

uint64_t Outcome::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, count] : ops_) {
    if (std::find(excluded_.begin(), excluded_.end(), key.second) == excluded_.end()) {
      total += count.attempted;
    }
  }
  return total;
}

uint64_t Outcome::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, count] : ops_) {
    if (std::find(excluded_.begin(), excluded_.end(), key.second) == excluded_.end()) {
      total += count.failed;
    }
  }
  return total;
}

std::string Outcome::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& [key, count] : ops_) {
    const bool counted =
        std::find(excluded_.begin(), excluded_.end(), key.second) == excluded_.end();
    out << (first ? "" : ", ") << "{\"op\": \"" << JsonEscape(key.first) << "\", \"phase\": \""
        << JsonEscape(key.second) << "\", \"attempted\": " << count.attempted
        << ", \"succeeded\": " << count.attempted - count.failed
        << ", \"failed\": " << count.failed
        << ", \"in_totals\": " << (counted ? "true" : "false") << "}";
    first = false;
  }
  out << "]";
  return out.str();
}

// --- Tracer ---------------------------------------------------------------

uint32_t Tracer::Begin(const std::string& name, uint32_t parent, const std::string& request) {
  if (!enabled_) return 0;
  const double now = SecondsSince(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = name;
  span.request = request;
  span.start_s = now;
  span.end_s = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (!enabled_ || id == 0) return;
  const double now = SecondsSince(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_s = now;
}

void Tracer::Count(const std::string& name, double n) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += n;
}

void Tracer::Max(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  double& current = counters_[name];
  current = std::max(current, v);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::Total(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

double Tracer::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  counters_.clear();
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back({span.start_s, span.end_s});
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to this span: concurrent
      // children (one per client thread) overlap and count once.
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start_s;
      for (const auto& [begin, end] : intervals) {
        const double lo = std::max(begin, cursor);
        const double hi = std::min(end, span.end_s);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[span.name] += (span.end_s - span.start_s) - covered;
  }
  return self;
}

// --- Statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool PercentileReportable(size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0;
}

// --- Resident memory ------------------------------------------------------

void ResetPeakRss() {
  // Hand freed heap back first, so every repetition starts from the same
  // resident baseline whatever the previous one left in malloc's arenas.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// --- Linkage quality ------------------------------------------------------

double TwoPartyF1(const std::vector<pprl::ScoredPair>& matches, const pprl::Database& a,
                  const pprl::Database& b) {
  const pprl::GroundTruth truth(a, b);
  return pprl::EvaluateMatches(matches, truth).F1();
}

double ClusterF1(const std::vector<pprl::Cluster>& clusters,
                 const std::vector<pprl::Database>& databases) {
  // True cross-database pairs: records sharing an entity id.
  std::unordered_map<uint64_t, std::vector<uint32_t>> per_entity;  // entity -> database list
  for (uint32_t d = 0; d < databases.size(); ++d) {
    for (const pprl::Record& record : databases[d].records) {
      per_entity[record.entity_id].push_back(d);
    }
  }
  double true_pairs = 0;
  for (const auto& [entity, dbs] : per_entity) {
    for (size_t i = 0; i < dbs.size(); ++i) {
      for (size_t j = i + 1; j < dbs.size(); ++j) true_pairs += dbs[i] != dbs[j];
    }
  }
  double predicted = 0;
  double correct = 0;
  for (const pprl::Cluster& cluster : clusters) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        const pprl::RecordRef& x = cluster[i];
        const pprl::RecordRef& y = cluster[j];
        if (x.database == y.database) continue;
        ++predicted;
        correct += databases[x.database].records[x.record].entity_id ==
                   databases[y.database].records[y.record].entity_id;
      }
    }
  }
  const double precision = predicted > 0 ? correct / predicted : 0;
  const double recall = true_pairs > 0 ? correct / true_pairs : 0;
  return precision + recall > 0 ? 2 * precision * recall / (precision + recall) : 0;
}

// --- Inputs ---------------------------------------------------------------

pprl::EncodedShard ShardOf(const std::vector<pprl::BitVector>& filters) {
  pprl::EncodedDatabase encoded;
  encoded.filters = filters;
  for (size_t i = 0; i < filters.size(); ++i) encoded.ids.push_back(i);
  return pprl::ShardFromEncodedDatabase(encoded);
}

std::vector<pprl::Database> GenerateDatabases(uint64_t seed, size_t count, size_t records) {
  pprl::GeneratorConfig generator;
  generator.seed = seed;
  pprl::DataGenerator gen(generator);
  pprl::LinkageScenarioConfig scenario;
  scenario.records_per_database = records;
  scenario.num_databases = count;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = 2;
  auto dbs = gen.GenerateScenario(scenario);
  if (!dbs.ok()) throw std::runtime_error("datagen: " + dbs.status().ToString());
  return std::move(dbs).value();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void SetupTimer::Run() {
  const Clock::time_point start = Clock::now();
  if (seconds_.empty()) first_start_ = start;
  setup_();
  seconds_.push_back(SecondsSince(start));
  total_s_ += seconds_.back();
}

void SetupTimer::RunIfDue() {
  // A quarter keeps a 1.5 s set-up to four to six samples in a 25 s run
  // and lets a millisecond one run after every repetition.
  constexpr double kSetupShare = 0.25;
  if (total_s_ < kSetupShare * SecondsSince(first_start_)) Run();
}

void SetupTimer::Report(WorkloadResult& result) const {
  result.extra.Set("setup_samples", static_cast<double>(seconds_.size()), "count");
  result.extra.Set("setup_s.p25", Percentile(seconds_, 25), "s");
  result.extra.Set("setup_s.p75", Percentile(seconds_, 75), "s");
}

size_t Scaled(const Args& args, size_t size, size_t floor) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(size) * args.scale));
}

void FinishTracedRun(const Tracer& path, const std::vector<double>& traced_walls,
                     const std::vector<double>& untraced_walls, WorkloadResult& result) {
  LayerMetrics(path, result.metrics);
  const double untraced = Median(untraced_walls);
  result.metrics.Set("trace.overhead_share",
                     untraced > 0 ? Median(traced_walls) / untraced - 1 : 0, "ratio");
  result.spans = path.spans();
  const std::map<std::string, double> self = SelfTimes(result.spans);
  double root = 0;
  for (const Span& span : result.spans) {
    if (span.name == "workload") root += span.end_s - span.start_s;
  }
  // The root's self time is the part of the workload no layer span covers.
  // The token sample runs after the workload, outside its root, so its
  // spans feed crypto.token_ns but are no share of the workload's time.
  for (const auto& [name, seconds] : self) {
    if (name.rfind("crypto.token.", 0) == 0) continue;
    result.layer_self_s[name == "workload" ? "uncovered" : name] = seconds;
  }
  const double uncovered = result.layer_self_s["uncovered"];
  result.metrics.Set("trace.uncovered_share", root > 0 ? uncovered / root : 0, "ratio");
}

namespace {

std::map<std::string, double> StageSeconds() {
  std::map<std::string, double> out;
  for (const pprl::obs::MetricSnapshot& metric : pprl::obs::GlobalMetrics().Snapshot()) {
    if (metric.name != "pprl_stage_seconds") continue;
    for (const auto& [key, value] : metric.labels) {
      if (key == "stage") out[value] += metric.sum;
    }
  }
  return out;
}

}  // namespace

void StageSums::Before() { before_ = StageSeconds(); }

void StageSums::After() {
  for (const auto& [stage, seconds] : StageSeconds()) {
    const auto it = before_.find(stage);
    sums_[stage] += seconds - (it == before_.end() ? 0 : it->second);
  }
}

void StageSums::Report(size_t reps, WorkloadResult& result) const {
  for (const auto& [stage, seconds] : sums_) {
    if (seconds > 0) {
      result.extra.Set("pipeline.stage_s." + stage,
                       seconds / static_cast<double>(std::max<size_t>(1, reps)), "s");
    }
  }
}

void ReportWalls(const std::vector<double>& walls, WorkloadResult& result) {
  result.extra.Set("repetitions", static_cast<double>(walls.size()), "count");
  result.extra.Set("rep_wall_s.p25", Percentile(walls, 25), "s");
  result.extra.Set("rep_wall_s.p50", Median(walls), "s");
  result.extra.Set("rep_wall_s.p75", Percentile(walls, 75), "s");
}

void MakeDirs(const std::string& dir) { std::filesystem::create_directories(dir); }

}  // namespace perfbench
