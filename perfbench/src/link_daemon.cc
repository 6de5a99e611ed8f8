// link-daemon: the batch daemon over loopback. Three owners' CLK shards are
// encoded at setup; timed is one LinkageUnitServer session (batch role,
// connected-components clustering, 3 expected owners) from the first byte
// shipped to the last owner's summary, one RemoteOwnerClient thread per
// owner. Encoding is bypassed, so compare, block and the session/network
// path dominate.
#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "pipeline/pipeline.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {
namespace {

constexpr size_t kOwners = 3;
constexpr size_t kRecordsPerOwner = 10000;

/// A partition as sets of (owner name, record) members, independent of
/// cluster ids and of the order in which owners registered.
using Partition = std::set<std::vector<std::pair<std::string, uint32_t>>>;

Partition PartitionOf(const std::vector<pprl::Cluster>& clusters,
                      const std::vector<std::string>& owner_of_database) {
  Partition out;
  for (const pprl::Cluster& cluster : clusters) {
    if (cluster.size() < 2) continue;
    std::vector<std::pair<std::string, uint32_t>> members;
    for (const pprl::RecordRef& ref : cluster) {
      members.push_back({owner_of_database[ref.database], ref.record});
    }
    std::sort(members.begin(), members.end());
    out.insert(std::move(members));
  }
  return out;
}

struct Session {
  double wall_s = 0;
  std::vector<pprl::Result<pprl::OwnerLinkageSummary>> summaries;
  size_t bytes_sent = 0;
  size_t bytes_received = 0;
  size_t retries = 0;
};

}  // namespace

void RunLinkDaemon(const Args& args, WorkloadResult& result) {
  const size_t m = Scaled(args, kRecordsPerOwner);
  const std::vector<std::string> owners = {"owner-a", "owner-b", "owner-c"};
  std::vector<pprl::Database> dbs;
  std::vector<pprl::EncodedShard> shards;
  std::vector<pprl::EncodedDatabase> shipments;
  const pprl::PipelineConfig pipeline_config;
  SetupTimer setup([&] {
    dbs = GenerateDatabases(args.seed, kOwners, m);
    const pprl::ClkEncoder encoder(pipeline_config.bloom,
                                   pprl::PprlPipeline::DefaultFieldConfigs());
    Tracer off(false);
    shards.clear();
    shipments.clear();
    for (const pprl::Database& db : dbs) {
      shards.push_back(ShardOf(TracedEncode(off, 0, encoder, db)));
      shipments.push_back(pprl::EncodedDatabaseFromShard(shards.back()));
    }
  });
  setup.Run();

  pprl::MultiPartyLinkageOptions options;  // the daemon's defaults ...
  options.use_star_clustering = false;     // ... with --clustering cc
  // The reference: the in-process unit over the same shipments.
  pprl::LinkageUnitService unit("reference-lu");
  for (size_t i = 0; i < kOwners; ++i) {
    const pprl::Status status = unit.Receive(owners[i], shipments[i]);
    if (!status.ok()) throw std::runtime_error("receive: " + status.ToString());
  }
  auto reference = unit.Link(options);
  if (!reference.ok()) throw std::runtime_error("reference link: " + reference.status().ToString());
  const Partition expected = PartitionOf(reference->clusters, owners);

  auto run_session = [&](Tracer& tracer) {
    pprl::LinkageUnitServerConfig config;
    config.name = "perfbench-lu";
    config.expected_owners = kOwners;
    config.link_options = options;
    pprl::LinkageUnitServer server(config);
    const pprl::Status started = server.Start();
    if (!started.ok()) throw std::runtime_error("server start: " + started.ToString());
    Session session;
    session.summaries.assign(kOwners, pprl::Status::Internal("not run"));
    std::vector<size_t> sent(kOwners), received(kOwners), retries(kOwners);
    const Clock::time_point start = Clock::now();
    {
      Scope root(tracer, "workload", 0);
      const uint32_t parent = root.id();
      std::vector<std::thread> clients;
      for (size_t i = 0; i < kOwners; ++i) {
        clients.emplace_back([&, i, parent] {
          Scope span(tracer, "service.session", parent, owners[i]);
          pprl::RemoteOwnerClientConfig client_config;
          client_config.port = server.port();
          pprl::RemoteOwnerClient client(client_config);
          session.summaries[i] = client.ShipShardAndAwait(owners[i], shards[i]);
          sent[i] = client.wire_bytes_sent();
          received[i] = client.wire_bytes_received();
          retries[i] = client.retries();
        });
      }
      for (std::thread& t : clients) t.join();
    }
    session.wall_s = SecondsSince(start);
    server.Stop();
    for (size_t i = 0; i < kOwners; ++i) {
      session.bytes_sent += sent[i];
      session.bytes_received += received[i];
      session.retries += retries[i];
    }
    return session;
  };

  // Checks one session against the reference and returns its F1.
  auto check = [&](Session& session, size_t rep) {
    std::map<uint32_t, pprl::Cluster> by_id;
    bool ok = true;
    for (size_t i = 0; i < kOwners; ++i) {
      const bool owner_ok = session.summaries[i].ok() && !session.summaries[i]->degraded();
      result.outcome.Op("ship", "timed", owner_ok);
      if (!owner_ok) {
        ok = false;
        continue;
      }
      if (args.corrupt == "partition" && rep == 1 && i == 0 &&
          !session.summaries[i]->matches.empty()) {
        session.summaries[i]->matches.pop_back();
      }
      for (const pprl::MatchedRecordSummary& match : session.summaries[i]->matches) {
        by_id[match.cluster_id].push_back({static_cast<uint32_t>(i), match.record});
      }
    }
    std::vector<pprl::Cluster> clusters;
    for (auto& [id, members] : by_id) clusters.push_back(std::move(members));
    const bool same = ok && PartitionOf(clusters, owners) == expected;
    result.outcome.Gate("link-daemon.partition-mismatch", same,
                        "repetition " + std::to_string(rep) +
                            ": an owner's partition differs from LinkageUnitService::Link");
    return ClusterF1(clusters, dbs);
  };

  const Clock::time_point begin = Clock::now();
  std::vector<double> walls;
  std::vector<double> rss;
  std::vector<double> traced_walls;
  double f1 = 0;
  Session last;
  Tracer path(true);
  Tracer off(false);
  double lu_link_s = 0;
  StageSums stages;
  auto traced_rep = [&] {
    path.Clear();
    Session traced = run_session(path);
    check(traced, walls.size());
    traced_walls.push_back(traced.wall_s);
    // What the unit did inside the session, replayed in process over the
    // same shipments, split into layers.
    Scope replay(path, "replay", 0);
    const Clock::time_point lu_start = Clock::now();
    pprl::MultiPartyLinkageResult composed =
        TracedMultiPartyLink(path, replay.id(), owners, shipments, options);
    lu_link_s = SecondsSince(lu_start);
    if (args.corrupt == "composed") composed.clusters.clear();
    result.outcome.Gate("link-daemon.composed-mismatch",
                        PartitionOf(composed.clusters, owners) == expected,
                        "layer-composed LU run differs from LinkageUnitService::Link");
  };
  while (walls.size() < 2 || (SecondsSince(begin) < args.seconds && walls.size() < 50)) {
    // Traced runs alternate which repetition goes first, so neither side of
    // the overhead comparison always inherits the other's heap state.
    const bool traced_first = args.trace && walls.size() % 2 == 1;
    if (traced_first) traced_rep();
    stages.Before();
    ResetPeakRss();
    last = run_session(off);
    rss.push_back(PeakRssMb());
    stages.After();
    walls.push_back(last.wall_s);
    f1 = check(last, walls.size());
    if (args.trace && !traced_first) traced_rep();
    if (!args.trace) setup.RunIfDue();
  }
  const double records = static_cast<double>(kOwners * m);
  result.extra.Set("records", records, "records");
  ReportWalls(walls, result);
  result.extra.Set("comparisons", static_cast<double>(reference->comparisons), "pairs");
  result.extra.Set("clusters", static_cast<double>(reference->clusters.size()), "count");
  stages.Report(walls.size(), result);
  if (!args.trace) {
    setup.Report(result);
    result.metrics.Set("setup_s", setup.MedianSeconds(), "s");
    result.metrics.Set("records_per_s", records / Median(walls), "records/s");
    result.metrics.Set("peak_rss_mb", Median(rss), "MiB");
    result.metrics.Set("f1", f1, "ratio");
    result.metrics.Set("wire_bytes_per_record",
                       static_cast<double>(last.bytes_sent + last.bytes_received) / records,
                       "bytes");
    return;
  }
  FinishTracedRun(path, traced_walls, walls, result);
  // The session span covers the daemon's whole wall; the replay shows what
  // the unit spent inside it, so the service layer keeps only the rest.
  const double service_overhead_s = Median(walls) - lu_link_s;
  result.extra.Set("service.overhead_s", service_overhead_s, "s");
  result.layer_self_s.erase("replay");
  result.layer_self_s.erase("service.session");
  result.layer_self_s["service.overhead"] = service_overhead_s;
  result.metrics.Set("net.bytes_sent", static_cast<double>(last.bytes_sent), "bytes");
  result.metrics.Set("net.bytes_received", static_cast<double>(last.bytes_received), "bytes");
  result.metrics.Set("net.retries", static_cast<double>(last.retries), "count");
}

}  // namespace perfbench
