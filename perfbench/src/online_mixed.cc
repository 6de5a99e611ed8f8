// online-mixed: the velocity axis, writes beside reads. An online daemon is
// preloaded at setup with most of owners a's and b's CLKs; timed is an
// open-loop schedule at fixed offered rates: a and b append their remaining
// records one per op while a query-only party issues link queries, every
// fourth asking for cluster ids. Cluster-id queries after edge-creating
// appends pay the engine's partition refresh, so this workload shows
// label, query-kernel and serving-loop changes that the batch workloads do
// not exercise.
//
// Phases, one connection per client thread (4 = nproc):
//   nominal   open loop at the nominal rates; latency figures come from here
//   capacity  appends open loop at the nominal rate, one query thread
//             closed loop with 128-record queries; queried records per
//             second is records_per_s
//   ladder-xK open loop at K times the nominal rates (overload ladder)
// Every op is timed from its due time, so a stall also charges the ops
// queued behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "layers.h"
#include "pipeline/pipeline.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {
namespace {

// The traffic figures below are assumptions: no traffic data exists in this
// repository. They follow the ROADMAP's scenario (cluster-id queries beside
// interleaved appends) and these constraints (README.md, "Traffic"):
//  - the nominal rates are a few percent of the capacity in
//    BENCH_online.json (36.6k appends/s, 18.3k queries/s), so the nominal
//    phase measures unloaded latency;
//  - at 25 s the nominal phase holds >= 1000 samples per op class, so its
//    p99 has ten beyond it;
//  - the 3300 appends per owner a schedule sends fit in the half of each
//    owner's records that is not preloaded.
constexpr size_t kRecordsPerParty = 10000;
constexpr double kPreloadShare = 0.5;
/// Set-up samples of an untraced run: one before the stream, the rest
/// after it, so that they sample two moments of the host.
constexpr int kSetupSamples = 4;
constexpr double kAppendRate = 100;  ///< per appending party, records/s
constexpr double kQueryRate = 400;   ///< over both query threads, queries/s
constexpr int kLabelEvery = 4;       ///< every 4th query wants cluster ids
/// The workload's stated latency limit on query p99.
constexpr double kQueryP99LimitMs = 20;
/// A rung whose generator ran later than this (p99) is invalid: a quarter
/// of the latency limit.
constexpr double kGeneratorLateLimitMs = kQueryP99LimitMs / 4;
constexpr size_t kVerifyBatch = 64;
/// Records per query in the closed-loop capacity phase: batches make the
/// phase measure the engine and serving loop rather than loopback
/// round-trip wake-ups, which on a shared host vary by tens of percent.
constexpr size_t kCapacityBatch = 128;
/// Queries per capacity sample: four label queries, so that a sample's
/// share of partition refreshes (each label query after an edge-creating
/// append pays one) varies little from sample to sample.
constexpr size_t kCapacityCycle = 4 * kLabelEvery;

struct Phase {
  std::string name;
  double multiplier = 1;
  double seconds = 0;
  bool closed_queries = false;
};

/// The phases of a `seconds`-long stream. At 25 s every open-loop phase
/// has >= 1000 query samples and the nominal phase >= 1000 append samples,
/// so their p99 has ten beyond it, and the appends need 3300 of each
/// owner's 5000 unloaded records.
std::vector<Phase> Phases(double seconds) {
  // The capacity phase, which gives the gated records_per_s, takes most of
  // the run: the host's speed drifts over seconds, and a longer phase
  // averages more of that drift into its median. The ladder runs last: an
  // overloaded rung's append backlog drains after it and would otherwise
  // eat into the capacity phase.
  return {
      {"nominal", 1, 0.24 * seconds, false},   {"capacity", 1, 0.64 * seconds, true},
      {"ladder-x2", 2, 0.06 * seconds, false}, {"ladder-x4", 4, 0.04 * seconds, false},
      {"ladder-x8", 8, 0.02 * seconds, false},
  };
}

/// Ops an open-loop thread is scheduled to send in `phase`.
size_t PlannedOps(const Phase& phase, bool appender) {
  const double rate = phase.multiplier * (appender ? kAppendRate : kQueryRate / 2);
  return static_cast<size_t>(std::llround(rate * phase.seconds));
}

struct OpRecord {
  size_t phase = 0;
  bool append = false;
  bool want_clusters = false;
  bool ok = false;
  bool dropped = false;  ///< never sent: its phase ended first
  bool idle_at_due = false;
  bool traced = false;  ///< recorded a span (every other op of a traced run)
  size_t bytes = 0;     ///< client-metered socket bytes of this op, both ways
  uint32_t party = 0;
  uint32_t row = 0;      ///< first row (appends: the party's, queries: the query shard's)
  uint32_t records = 1;  ///< rows from `row` this op carries
  double due = 0;  ///< seconds since stream start
  double start = 0;
  double end = 0;
};

/// A preloaded online daemon with its owners' sessions.
struct OnlineSetup {
  std::unique_ptr<pprl::LinkageUnitServer> server;
  std::vector<std::unique_ptr<pprl::Channel>> meters;
  std::vector<std::unique_ptr<pprl::OnlineLinkClient>> clients;  // a, b, q1, q2
  std::vector<std::string> parties;
  size_t preload_rows = 0;

  ~OnlineSetup() {
    clients.clear();
    if (server) server->Stop();
  }
};

std::unique_ptr<OnlineSetup> StartDaemon(const std::vector<pprl::EncodedShard>& shards,
                                         size_t preload_rows) {
  auto setup = std::make_unique<OnlineSetup>();
  pprl::LinkageUnitServerConfig config;
  config.name = "perfbench-online-lu";
  config.online_mode = true;
  setup->server = std::make_unique<pprl::LinkageUnitServer>(config);
  const pprl::Status started = setup->server->Start();
  if (!started.ok()) throw std::runtime_error("online server start: " + started.ToString());
  const uint32_t bits = static_cast<uint32_t>(shards[0].bits.num_bits());
  setup->parties = {"a", "b", "clinic", "clinic-2"};
  const std::vector<std::string>& parties = setup->parties;
  for (size_t p = 0; p < parties.size(); ++p) {
    pprl::OnlineLinkClientConfig client_config;
    client_config.port = setup->server->port();
    setup->meters.push_back(std::make_unique<pprl::Channel>());
    setup->clients.push_back(
        std::make_unique<pprl::OnlineLinkClient>(client_config, setup->meters.back().get()));
  }
  // Owners register in a fixed order (a, then b) before any query party.
  for (size_t p = 0; p < 2; ++p) {
    const pprl::Status connected = setup->clients[p]->Connect(parties[p], bits);
    if (!connected.ok()) throw std::runtime_error("connect: " + connected.ToString());
    for (size_t row = 0; row < preload_rows; row += 4096) {
      auto cursor =
          setup->clients[p]->AppendRows(shards[p], row, std::min(preload_rows, row + 4096));
      if (!cursor.ok()) throw std::runtime_error("preload: " + cursor.status().ToString());
    }
  }
  for (size_t p = 2; p < 4; ++p) {
    const pprl::Status connected = setup->clients[p]->Connect(parties[p], bits);
    if (!connected.ok()) throw std::runtime_error("connect: " + connected.ToString());
  }
  setup->preload_rows = preload_rows;
  return setup;
}

/// Runs every phase on four client threads; returns one record per op.
/// With an enabled tracer every other op of each thread records a span, so
/// traced and untraced ops share one daemon and one stretch of time and
/// their service times give the tracing overhead.
std::vector<OpRecord> RunStream(OnlineSetup& setup, const std::vector<pprl::EncodedShard>& shards,
                                const std::vector<Phase>& phases, Tracer& tracer,
                                uint32_t parent) {
  std::vector<double> phase_start = {0};
  for (const Phase& phase : phases) phase_start.push_back(phase_start.back() + phase.seconds);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto now_s = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  const auto sleep_until_s = [&](double t) {
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(t)));
  };
  std::vector<std::vector<OpRecord>> per_thread(4);
  const pprl::EncodedShard& queries = shards[2];
  Tracer untraced(false);

  auto worker = [&](size_t thread) {
    const bool appender = thread < 2;
    pprl::OnlineLinkClient& client = *setup.clients[thread];
    std::vector<OpRecord>& out = per_thread[thread];
    size_t next_row = appender ? setup.preload_rows : thread - 2;
    size_t query_index = 0;
    double prev_end = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
      const Phase& phase = phases[p];
      const double begin = phase_start[p];
      const double end = phase_start[p + 1];
      const bool closed = phase.closed_queries && !appender;
      // One closed-loop querier: a second adds only lock contention, whose
      // cost swings with the host's scheduling far more than the work does.
      if (closed && thread == 3) continue;
      const double rate =
          phase.multiplier * (appender ? kAppendRate : kQueryRate / 2);
      const size_t planned = closed ? SIZE_MAX : PlannedOps(phase, appender);
      for (size_t k = 0; k < planned; ++k) {
        if (appender && next_row >= shards[thread].size()) break;  // all rows appended
        OpRecord op;
        op.phase = p;
        op.append = appender;
        op.party = static_cast<uint32_t>(thread);
        op.due = closed ? std::max(begin, now_s()) : begin + static_cast<double>(k) / rate;
        if (closed && op.due >= end) break;
        if (!closed) {
          op.idle_at_due = prev_end <= op.due;
          if (op.idle_at_due) sleep_until_s(op.due);
        }
        op.start = now_s();
        // On an overload rung, queries never started by the end of the rung
        // are dropped (and count as failed), so an overloaded rung cannot
        // push its backlog into the next. At the nominal rate every op is
        // sent however late, so a host stall shows as latency, not as a
        // failure. Appends always drain, so the final population is the
        // same in every run.
        if (!appender && !closed && phase.multiplier > 1 && op.start > end) {
          op.dropped = true;
          op.end = op.start;
          out.push_back(op);
          continue;
        }
        const size_t bytes_before = setup.meters[thread]->total_bytes();
        const std::string request = std::to_string(thread) + "#" + std::to_string(out.size());
        op.traced = tracer.enabled() && out.size() % 2 == 0;
        Tracer& op_tracer = op.traced ? tracer : untraced;
        if (appender) {
          op.row = static_cast<uint32_t>(next_row);
          Scope span(op_tracer, "service.append", parent, request);
          auto cursor = client.AppendRows(shards[thread], next_row, next_row + 1);
          op.ok = cursor.ok() && *cursor == next_row + 1;
          ++next_row;
        } else {
          const size_t batch = closed ? std::min(kCapacityBatch, queries.size()) : 1;
          op.records = static_cast<uint32_t>(batch);
          op.row = static_cast<uint32_t>((next_row * batch) % (queries.size() - batch + 1));
          op.want_clusters = query_index % kLabelEvery == 0;
          Scope span(op_tracer,
                     op.want_clusters ? "service.query.labels" : "service.query.nolabels",
                     parent, request);
          auto result = client.QueryRows(queries, op.row, op.row + batch, op.want_clusters, 0);
          op.ok = result.ok() && result->records.size() == batch;
          next_row += 2;
          ++query_index;
        }
        op.end = now_s();
        op.bytes = setup.meters[thread]->total_bytes() - bytes_before;
        prev_end = op.end;
        out.push_back(op);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  std::vector<OpRecord> all;
  for (auto& ops : per_thread) all.insert(all.end(), ops.begin(), ops.end());
  std::sort(all.begin(), all.end(),
            [](const OpRecord& x, const OpRecord& y) { return x.due < y.due; });
  return all;
}

struct PhaseStats {
  std::vector<double> query_ms;   ///< end - due, sent queries
  std::vector<double> append_ms;  ///< end - due
  std::vector<double> late_ms;    ///< generator lateness, ops idle at due
  size_t queries = 0;
  size_t appends = 0;
  size_t failed = 0;
  double last_backlog_ms = 0;  ///< start - due of the phase's last op
};

PhaseStats StatsOf(const std::vector<OpRecord>& ops, size_t phase) {
  PhaseStats s;
  for (const OpRecord& op : ops) {
    if (op.phase != phase) continue;
    const double latency_ms = (op.end - op.due) * 1e3;
    if (op.append) {
      ++s.appends;
      s.append_ms.push_back(latency_ms);
    } else {
      ++s.queries;
      if (!op.dropped) s.query_ms.push_back(latency_ms);
    }
    if (!op.ok) ++s.failed;
    if (op.idle_at_due) s.late_ms.push_back((op.start - op.due) * 1e3);
    s.last_backlog_ms = std::max(0.0, (op.start - op.due) * 1e3);
  }
  return s;
}

/// Best-match F1 of the query party's records: a query is a true positive
/// when its best match shares its entity, a false positive when it does
/// not; queries with a true match in the index and no correct best match
/// are false negatives.
double BestMatchF1(const std::vector<pprl::QueryRecordResult>& results,
                   const std::vector<pprl::Database>& dbs, const std::vector<size_t>& appended) {
  std::unordered_map<uint64_t, int> indexed_entities;
  for (size_t p = 0; p < 2; ++p) {
    for (size_t r = 0; r < appended[p]; ++r) ++indexed_entities[dbs[p].records[r].entity_id];
  }
  double tp = 0, fp = 0, positives = 0;
  for (size_t q = 0; q < results.size(); ++q) {
    const uint64_t entity = dbs[2].records[q].entity_id;
    if (indexed_entities.count(entity)) ++positives;
    if (results[q].matches.empty()) continue;
    const pprl::QueryMatch& best = results[q].matches[0];
    (dbs[best.database].records[best.record].entity_id == entity ? tp : fp) += 1;
  }
  const double precision = tp + fp > 0 ? tp / (tp + fp) : 0;
  const double recall = positives > 0 ? tp / positives : 0;
  return precision + recall > 0 ? 2 * precision * recall / (precision + recall) : 0;
}

}  // namespace

void RunOnlineMixed(const Args& args, WorkloadResult& result) {
  const size_t n = Scaled(args, kRecordsPerParty, 256);
  const size_t preload = static_cast<size_t>(static_cast<double>(n) * kPreloadShare);
  std::vector<pprl::Database> dbs;
  std::vector<pprl::EncodedShard> shards;  // a, b, query party
  std::unique_ptr<OnlineSetup> setup;
  const pprl::PipelineConfig pipeline_config;
  auto do_setup = [&] {
    setup.reset();
    dbs = GenerateDatabases(args.seed, 3, n);
    const pprl::ClkEncoder encoder(pipeline_config.bloom,
                                   pprl::PprlPipeline::DefaultFieldConfigs());
    Tracer off(false);
    shards.clear();
    for (const pprl::Database& db : dbs) shards.push_back(ShardOf(TracedEncode(off, 0, encoder, db)));
    setup = StartDaemon(shards, preload);
  };
  SetupTimer setup_timer(do_setup);
  setup_timer.Run();

  Tracer path(args.trace);
  ResetPeakRss();
  const std::vector<Phase> phases = Phases(args.seconds);
  std::vector<OpRecord> ops;
  {
    Scope root(path, "workload", 0);
    ops = RunStream(*setup, shards, phases, path, root.id());
  }
  const double peak_rss = PeakRssMb();
  const std::vector<size_t> appended = {static_cast<size_t>(setup->clients[0]->appended()),
                                        static_cast<size_t>(setup->clients[1]->appended())};

  // --- accounting, per op class and phase ---------------------------------
  double max_rate = 0;
  double generator_late_p99 = 0;
  double capacity_records_per_s = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseStats s = StatsOf(ops, p);
    size_t failed_queries = 0;
    size_t failed_appends = 0;
    for (const OpRecord& op : ops) {
      if (op.phase == p && !op.ok) ++(op.append ? failed_appends : failed_queries);
    }
    result.outcome.Ops("append", phases[p].name, s.appends, failed_appends);
    result.outcome.Ops("query", phases[p].name, s.queries, failed_queries);
    if (phases[p].name.rfind("ladder", 0) == 0) result.outcome.ExcludeFromTotals(phases[p].name);
    const double late_p99 = Percentile(s.late_ms, 99);
    if (p == 0) generator_late_p99 = late_p99;
    if (phases[p].closed_queries) {
      // Queried records per second of each run of kCapacityCycle
      // consecutive queries, over the time they were in flight; the median
      // cycle is the capacity, so a host stall in a few cycles does not
      // move it.
      std::vector<double> per_cycle;
      double queried = 0, cycle_records = 0, cycle_s = 0;
      size_t in_cycle = 0;
      for (const OpRecord& op : ops) {
        if (op.phase != p || op.append || !op.ok) continue;
        queried += op.records;
        cycle_records += op.records;
        cycle_s += op.end - op.start;
        if (++in_cycle == kCapacityCycle) {
          per_cycle.push_back(cycle_records / cycle_s);
          cycle_records = cycle_s = 0;
          in_cycle = 0;
        }
      }
      capacity_records_per_s = Median(per_cycle);
      result.extra.Set("capacity.queried_records", queried, "records");
      result.extra.Set("capacity.cycles", static_cast<double>(per_cycle.size()), "count");
      result.extra.Set("capacity.cycle_records_per_s.p25", Percentile(per_cycle, 25),
                       "records/s");
      result.extra.Set("capacity.cycle_records_per_s.p75", Percentile(per_cycle, 75),
                       "records/s");
      continue;
    }
    const double query_p99 = Percentile(s.query_ms, 99);
    const bool valid = late_p99 <= kGeneratorLateLimitMs;
    const bool passed = valid && s.failed == 0 && query_p99 <= kQueryP99LimitMs &&
                        s.last_backlog_ms <= kQueryP99LimitMs;
    const double offered = phases[p].multiplier * (2 * kAppendRate + kQueryRate);
    const std::string prefix = "rung." + phases[p].name + ".";
    result.extra.Set(prefix + "offered_ops", offered, "ops/s");
    result.extra.Set(prefix + "query_p99_ms", query_p99, "ms");
    result.extra.Set(prefix + "query_samples", static_cast<double>(s.query_ms.size()), "count");
    result.extra.Set(prefix + "generator_late_p99_ms", late_p99, "ms");
    result.extra.Set(prefix + "backlog_ms", s.last_backlog_ms, "ms");
    result.extra.Set(prefix + "passed", passed ? 1 : 0, "bool");
    result.extra.Set(prefix + "valid", valid ? 1 : 0, "bool");
    if (passed) max_rate = std::max(max_rate, offered);
  }
  const PhaseStats nominal = StatsOf(ops, 0);
  const auto set_percentiles = [&](const std::string& name, const std::vector<double>& ms) {
    result.extra.Set(name + "_p50_ms", Median(ms), "ms");
    if (PercentileReportable(ms.size(), 99)) result.extra.Set(name + "_p99_ms", Percentile(ms, 99), "ms");
    result.extra.Set(name + "_samples", static_cast<double>(ms.size()), "count");
  };
  set_percentiles("online.query", nominal.query_ms);
  set_percentiles("online.append", nominal.append_ms);
  result.extra.Set("online.max_rate_ops", max_rate, "ops/s");
  result.extra.Set("online.query_p99_limit_ms", kQueryP99LimitMs, "ms");
  result.extra.Set("generator.late_p99_ms", generator_late_p99, "ms");
  result.extra.Set("generator.late_limit_ms", kGeneratorLateLimitMs, "ms");

  // --- verification pass, outside the timed region --------------------------
  pprl::OnlineLinkClient& verifier = *setup->clients[2];
  std::vector<pprl::QueryRecordResult> served;
  for (size_t row = 0; row < shards[2].size(); row += kVerifyBatch) {
    auto batch = verifier.QueryRows(shards[2], row, std::min(shards[2].size(), row + kVerifyBatch),
                                    true, 0);
    result.outcome.Op("query", "verify", batch.ok());
    if (!batch.ok()) throw std::runtime_error("verify query: " + batch.status().ToString());
    for (auto& record : batch->records) served.push_back(std::move(record));
  }
  if (args.corrupt == "online" && !served.empty()) served[0].cluster_size += 1;
  pprl::OnlineLinkageEngine reference(shards[0].bits.num_bits());
  PreloadEngine(reference, {"a", "b"}, {&shards[0], &shards[1]}, appended);
  const pprl::EncodedDatabase query_filters = pprl::EncodedDatabaseFromShard(shards[2]);
  std::vector<pprl::QueryRecordResult> expected;
  for (size_t q = 0; q < query_filters.size(); ++q) {
    auto answer = reference.Query(query_filters.filters[q], pprl::OnlineLinkageEngine::kNoDatabase,
                                  true, 0);
    if (!answer.ok()) throw std::runtime_error("reference query: " + answer.status().ToString());
    pprl::QueryRecordResult record;
    record.id = query_filters.ids[q];
    record.cluster_id = answer->cluster_id;
    record.cluster_size = answer->cluster_size;
    record.candidates = answer->candidates;
    for (const pprl::OnlineMatch& m : answer->matches) {
      record.matches.push_back({m.database, m.record, m.id, m.score});
    }
    expected.push_back(std::move(record));
  }
  size_t mismatches = served.size() == expected.size() ? 0 : 1;
  for (size_t q = 0; q < std::min(served.size(), expected.size()); ++q) {
    const bool same = served[q].matches == expected[q].matches &&
                      served[q].cluster_id == expected[q].cluster_id &&
                      served[q].cluster_size == expected[q].cluster_size;
    mismatches += !same;
  }
  result.outcome.Gate("online-mixed.verify-mismatch", mismatches == 0,
                      std::to_string(mismatches) +
                          " verification queries differ from an in-process OnlineLinkageEngine");
  // Every scheduled append must have landed: each owner's cursor is the
  // preload plus its thread's planned appends, up to its last record.
  size_t scheduled = preload;
  for (const Phase& phase : phases) scheduled += PlannedOps(phase, true);
  scheduled = std::min(scheduled, n);
  const size_t landed_b = appended[1] - (args.corrupt == "appends" ? 1 : 0);
  result.outcome.Gate("online-mixed.appends-incomplete",
                      appended[0] == scheduled && landed_b == scheduled,
                      "appended " + std::to_string(appended[0]) + "/" +
                          std::to_string(landed_b) + " records, scheduled " +
                          std::to_string(scheduled) + " per owner");

  // Wire bytes per record over the ops whose count the schedule fixes:
  // preload, appends, nominal-phase queries and the verification pass. The
  // capacity phase's query count follows the daemon's speed and the
  // ladder's follows how many queries it sheds, so their bytes and records
  // are reported apart.
  size_t wire_bytes = 0;
  size_t bytes_sent = 0;
  for (size_t p = 0; p < setup->meters.size(); ++p) {
    wire_bytes += setup->meters[p]->total_bytes();
    bytes_sent += setup->meters[p]->BytesBetween(setup->parties[p],
                                                 setup->clients[p]->server_name());
  }
  size_t scheduled_bytes = wire_bytes;
  size_t scheduled_records = 2 * preload + served.size();
  size_t unscheduled_bytes = 0;
  size_t unscheduled_records = 0;
  for (const OpRecord& op : ops) {
    if (op.dropped) continue;
    if (op.append || op.phase == 0) {
      scheduled_records += op.records;
    } else {
      scheduled_bytes -= op.bytes;
      unscheduled_bytes += op.bytes;
      unscheduled_records += op.records;
    }
  }
  result.extra.Set("unscheduled_queries.wire_bytes_per_record",
                   static_cast<double>(unscheduled_bytes) /
                       static_cast<double>(std::max<size_t>(1, unscheduled_records)),
                   "bytes");
  result.extra.Set("records_indexed", static_cast<double>(appended[0] + appended[1]), "records");
  const double f1 = BestMatchF1(served, dbs, appended);

  if (!args.trace) {
    for (int i = 1; i < kSetupSamples; ++i) setup_timer.Run();
    setup_timer.Report(result);
    result.metrics.Set("setup_s", setup_timer.MedianSeconds(), "s");
    result.metrics.Set("records_per_s", capacity_records_per_s, "records/s");
    result.metrics.Set("peak_rss_mb", peak_rss, "MiB");
    result.metrics.Set("f1", f1, "ratio");
    result.metrics.Set("wire_bytes_per_record",
                       static_cast<double>(scheduled_bytes) /
                           static_cast<double>(scheduled_records),
                       "bytes");
    return;
  }

  // --- traced run: the engine replays the executed op stream in process --
  // Nominal-phase single-record ops without cluster labels: every label
  // query falls on a traced op (both patterns repeat every other op), so
  // comparing halves that include them would charge the label refresh to
  // tracing.
  const auto service_times = [&](bool append, bool traced) {
    std::vector<double> us;
    for (const OpRecord& op : ops) {
      if (op.append == append && op.traced == traced && op.phase == 0 && !op.dropped &&
          !op.want_clusters) {
        us.push_back((op.end - op.start) * 1e6);
      }
    }
    return us;
  };
  const std::vector<double> untraced_service = service_times(false, false);
  const std::vector<double> traced_service = service_times(false, true);
  pprl::OnlineLinkageEngine engine(shards[0].bits.num_bits());
  PreloadEngine(engine, {"a", "b"}, {&shards[0], &shards[1]}, {preload, preload});
  std::vector<OnlineOp> replay_ops;
  for (const OpRecord& op : ops) {
    if (op.dropped) continue;
    for (uint32_t r = 0; r < op.records; ++r) {
      replay_ops.push_back({op.append ? OnlineOp::kAppend : OnlineOp::kQuery, op.party,
                            op.row + r, op.want_clusters});
    }
  }
  {
    Scope replay(path, "replay", 0);
    TracedOnlineReplay(path, replay.id(), engine, {0, 1}, {&shards[0], &shards[1]}, shards[2],
                       replay_ops);
  }
  // Open-loop wall time is fixed by the schedule, so the overhead compares
  // the client-side service times of the stream's traced and untraced
  // halves instead.
  FinishTracedRun(path, traced_service, untraced_service, result);
  result.extra.Set("trace.untraced_query_service_us", Median(untraced_service), "us");
  result.extra.Set("trace.traced_query_service_us", Median(traced_service), "us");
  result.layer_self_s.erase("replay");
  std::vector<double> engine_query_us = path.Durations("online.query.nolabels");
  for (double& d : engine_query_us) d *= 1e6;
  std::vector<double> engine_append_us = path.Durations("online.append");
  for (double& d : engine_append_us) d *= 1e6;
  result.extra.Set("service.query_overhead_us",
                   Median(untraced_service) - Median(engine_query_us), "us");
  result.extra.Set("service.append_overhead_us",
                   Median(service_times(true, false)) - Median(engine_append_us), "us");
  size_t retries = 0;
  for (const auto& client : setup->clients) retries += client->retries();
  result.metrics.Set("net.bytes_sent", static_cast<double>(bytes_sent), "bytes");
  result.metrics.Set("net.bytes_received", static_cast<double>(wire_bytes - bytes_sent), "bytes");
  result.metrics.Set("net.retries", static_cast<double>(retries), "count");
}

}  // namespace perfbench
