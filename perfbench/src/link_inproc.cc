// link-inproc: the ROADMAP headline "CSV -> matches" run in one process.
// Timed: io::ReadDatabaseCsvStream x2 -> PprlPipeline::Link (default
// PipelineConfig: double-hash CLK, Hamming-LSH, Dice 0.8, greedy 1:1) ->
// matches written. Encoding and blocking dominate, so encoder and blocking
// changes show here and compare-kernel changes mostly do not.
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "datagen/io.h"
#include "io/ingest.h"
#include "layers.h"
#include "pipeline/pipeline.h"

namespace perfbench {
namespace {

constexpr size_t kRecordsPerDatabase = 10000;

void WriteMatches(const std::string& path, const std::vector<pprl::ScoredPair>& matches) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "a,b,score\n");
  for (const pprl::ScoredPair& m : matches) std::fprintf(f, "%u,%u,%.17g\n", m.a, m.b, m.score);
  std::fclose(f);
}

pprl::Database ReadCsv(const std::string& path) {
  auto db = pprl::io::ReadDatabaseCsvStream(path);
  if (!db.ok()) throw std::runtime_error("csv read: " + db.status().ToString());
  return std::move(db).value();
}

}  // namespace

void RunLinkInproc(const Args& args, WorkloadResult& result) {
  const size_t n = Scaled(args, kRecordsPerDatabase);
  const std::string dir = args.out_dir + "/link-inproc";
  MakeDirs(dir);
  const std::string a_csv = dir + "/a.csv";
  const std::string b_csv = dir + "/b.csv";
  const std::string matches_csv = dir + "/matches.csv";

  std::vector<pprl::Database> dbs;
  SetupTimer setup([&] {
    dbs = GenerateDatabases(args.seed, 2, n);
    for (const auto& [path, db] : {std::pair{a_csv, &dbs[0]}, std::pair{b_csv, &dbs[1]}}) {
      const pprl::Status status = pprl::WriteDatabaseCsv(path, *db);
      if (!status.ok()) throw std::runtime_error("csv write: " + status.ToString());
    }
  });
  setup.Run();

  const pprl::PipelineConfig config;
  const pprl::PprlPipeline pipeline(config);
  // One untraced repetition: the program's own entry point.
  pprl::LinkageOutput output;
  auto untraced_rep = [&]() {
    const Clock::time_point start = Clock::now();
    const pprl::Database a = ReadCsv(a_csv);
    const pprl::Database b = ReadCsv(b_csv);
    auto linked = pipeline.Link(a, b);
    if (!linked.ok()) throw std::runtime_error("link: " + linked.status().ToString());
    output = std::move(linked).value();
    WriteMatches(matches_csv, output.matches);
    return SecondsSince(start);
  };
  // The same run composed from the public calls PprlPipeline::Link makes.
  const pprl::ClkEncoder encoder(config.bloom, pprl::PprlPipeline::DefaultFieldConfigs());
  auto composed_rep = [&](Tracer& tracer) {
    // The inputs outlive the root span: the untraced repetition's wall
    // also stops before its databases are freed.
    pprl::Database a;
    pprl::Database b;
    std::vector<pprl::ScoredPair> matches;
    const Clock::time_point start = Clock::now();
    {
      Scope root(tracer, "workload", 0);
      a = TracedCsvRead(tracer, root.id(), a_csv);
      b = TracedCsvRead(tracer, root.id(), b_csv);
      const auto fa = TracedEncode(tracer, root.id(), encoder, a);
      const auto fb = TracedEncode(tracer, root.id(), encoder, b);
      matches = TracedTwoPartyLink(tracer, root.id(), config, fa, fb);
      Scope span(tracer, "io.matches_write", root.id());
      WriteMatches(matches_csv, matches);
    }
    const double wall = SecondsSince(start);
    if (tracer.enabled()) {
      tracer.Count("encoding.tokens",
                   static_cast<double>(CountTokens(encoder, a) + CountTokens(encoder, b)));
    }
    return std::pair{wall, std::move(matches)};
  };

  const Clock::time_point begin = Clock::now();
  std::vector<double> walls;
  std::vector<double> rss;
  std::vector<pprl::ScoredPair> first_matches;
  std::vector<double> traced_walls;
  std::vector<pprl::ScoredPair> composed;
  Tracer path(true);
  StageSums stages;
  auto traced_rep = [&] {
    path.Clear();
    auto [wall, matches] = composed_rep(path);
    traced_walls.push_back(wall);
    composed = std::move(matches);
  };
  while (walls.size() < 2 || (SecondsSince(begin) < args.seconds && walls.size() < 50)) {
    // Traced runs alternate which repetition goes first (see link-daemon).
    const bool traced_first = args.trace && walls.size() % 2 == 1;
    if (traced_first) traced_rep();
    stages.Before();
    ResetPeakRss();
    walls.push_back(untraced_rep());
    rss.push_back(PeakRssMb());
    stages.After();
    result.outcome.Op("link", "timed", true);
    if (args.corrupt == "matches" && walls.size() == 2) output.matches.pop_back();
    if (walls.size() == 1) first_matches = output.matches;
    result.outcome.Gate("link-inproc.nondeterministic", output.matches == first_matches,
                        "repetition " + std::to_string(walls.size()) +
                            " produced different matches");
    if (args.trace && !traced_first) traced_rep();
    if (!args.trace) setup.RunIfDue();
  }
  if (!args.trace) {
    Tracer off(false);
    composed = composed_rep(off).second;
  }
  if (args.corrupt == "composed" && !composed.empty()) composed.pop_back();
  result.outcome.Gate("link-inproc.composed-mismatch", composed == first_matches,
                      "layer-composed run found " + std::to_string(composed.size()) +
                          " matches, PprlPipeline::Link " +
                          std::to_string(first_matches.size()));

  result.extra.Set("records", static_cast<double>(2 * n), "records");
  ReportWalls(walls, result);
  result.extra.Set("matches", static_cast<double>(first_matches.size()), "pairs");
  result.extra.Set("candidate_pairs", static_cast<double>(output.candidate_pairs), "pairs");
  stages.Report(walls.size(), result);
  if (!args.trace) {
    setup.Report(result);
    result.metrics.Set("setup_s", setup.MedianSeconds(), "s");
    result.metrics.Set("records_per_s", static_cast<double>(2 * n) / Median(walls), "records/s");
    result.metrics.Set("peak_rss_mb", Median(rss), "MiB");
    result.metrics.Set("f1", TwoPartyF1(first_matches, dbs[0], dbs[1]), "ratio");
    result.metrics.Set("wire_bytes_per_record",
                       static_cast<double>(output.bytes) / static_cast<double>(2 * n), "bytes");
    return;
  }
  TracedTokenPositions(path, 0, dbs[0]);
  FinishTracedRun(path, traced_walls, walls, result);
  result.metrics.Set("net.bytes_sent", 0, "bytes");
  result.metrics.Set("net.bytes_received", 0, "bytes");
  result.metrics.Set("net.retries", 0, "count");
}

}  // namespace perfbench
