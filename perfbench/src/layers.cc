#include "layers.h"

#include <algorithm>

#include "blocking/lsh_blocking.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/strings.h"
#include "io/ingest.h"
#include "linkage/classifier.h"
#include "linkage/comparison.h"
#include "linkage/matching.h"

namespace perfbench {
namespace {

using pprl::BitVector;

/// Distinct tokens timed per hash scheme (HMAC is ~50x slower per token).
constexpr size_t kDoubleTokens = 4000;
constexpr size_t kHmacTokens = 800;

size_t MaxBlockSize(const pprl::BlockIndex& index) {
  size_t max = 0;
  for (const auto& [key, members] : index) max = std::max(max, members.size());
  return max;
}

std::vector<std::string> SampleTokens(const pprl::ClkEncoder& encoder,
                                      const pprl::Database& db, size_t limit) {
  std::vector<std::string> tokens;
  for (const pprl::Record& record : db.records) {
    for (const pprl::ClkFieldConfig& field : encoder.fields()) {
      const int idx = db.schema.FieldIndex(field.field_name);
      if (idx < 0) continue;
      pprl::QGramOptions opts;
      opts.q = field.q;
      for (std::string& gram :
           pprl::QGrams(pprl::NormalizeQid(record.values[static_cast<size_t>(idx)]), opts)) {
        tokens.push_back(field.field_name + "\x1e" + gram);
        if (tokens.size() == limit) return tokens;
      }
    }
  }
  return tokens;
}

void TimeTokens(Tracer& tracer, uint32_t parent, const std::string& scheme_name,
                pprl::BloomFilterParams params, const std::vector<std::string>& tokens) {
  params.num_hashes = 20;  // the DefaultFieldConfigs() count for names
  const pprl::BloomFilterEncoder encoder(params);
  {
    Scope span(tracer, "crypto.token." + scheme_name, parent);
    for (const std::string& token : tokens) encoder.TokenPositions(token);
  }
  tracer.Count("crypto.tokens." + scheme_name, static_cast<double>(tokens.size()));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

pprl::Database TracedCsvRead(Tracer& tracer, uint32_t parent, const std::string& path) {
  pprl::io::IngestStats stats;
  pprl::Result<pprl::Database> db = pprl::Database{};
  {
    Scope span(tracer, "io.csv_read", parent);
    db = pprl::io::ReadDatabaseCsvStream(path, {}, &stats);
  }
  if (!db.ok()) throw std::runtime_error("csv read: " + db.status().ToString());
  tracer.Count("io.csv_bytes", static_cast<double>(stats.input_bytes));
  return std::move(db).value();
}

size_t CountTokens(const pprl::ClkEncoder& encoder, const pprl::Database& db) {
  size_t tokens = 0;
  for (const pprl::Record& record : db.records) {
    for (const pprl::ClkFieldConfig& field : encoder.fields()) {
      const int idx = db.schema.FieldIndex(field.field_name);
      if (idx < 0) continue;
      pprl::QGramOptions opts;
      opts.q = field.q;
      tokens += pprl::QGrams(pprl::NormalizeQid(record.values[static_cast<size_t>(idx)]),
                             opts)
                    .size();
    }
  }
  return tokens;
}

std::vector<BitVector> TracedEncode(Tracer& tracer, uint32_t parent,
                                    const pprl::ClkEncoder& encoder,
                                    const pprl::Database& db) {
  pprl::Result<std::vector<BitVector>> encoded = std::vector<BitVector>{};
  {
    Scope span(tracer, "encoding.encode", parent);
    encoded = encoder.EncodeDatabase(db);
  }
  if (!encoded.ok()) throw std::runtime_error("encode: " + encoded.status().ToString());
  tracer.Count("encoding.records", static_cast<double>(db.size()));
  return std::move(encoded).value();
}

void TracedTokenPositions(Tracer& tracer, uint32_t parent, const pprl::Database& db) {
  const pprl::ClkEncoder encoder(pprl::BloomFilterParams{},
                                 pprl::PprlPipeline::DefaultFieldConfigs());
  const std::vector<std::string> tokens = SampleTokens(encoder, db, kDoubleTokens);
  TimeTokens(tracer, parent, "double", pprl::BloomFilterParams{}, tokens);
  pprl::BloomFilterParams keyed;
  keyed.scheme = pprl::BloomHashScheme::kKeyedHmac;
  keyed.secret_key = "perfbench-key";
  TimeTokens(tracer, parent, "hmac", keyed,
             std::vector<std::string>(
                 tokens.begin(),
                 tokens.begin() + static_cast<long>(std::min(kHmacTokens, tokens.size()))));
}

std::vector<pprl::ScoredPair> TracedTwoPartyLink(Tracer& tracer, uint32_t parent,
                                                 const pprl::PipelineConfig& config,
                                                 const std::vector<BitVector>& fa,
                                                 const std::vector<BitVector>& fb,
                                                 std::vector<pprl::ScoredPair>* scored_out) {
  pprl::Rng lsh_rng(config.seed);
  const size_t filter_bits = fa.empty() ? config.bloom.num_bits : fa[0].size();
  const pprl::HammingLshBlocker blocker(filter_bits, config.lsh_tables,
                                        config.lsh_bits_per_key, lsh_rng);
  pprl::BlockIndex index_a;
  pprl::BlockIndex index_b;
  {
    Scope span(tracer, "blocking.index", parent);
    index_a = blocker.BuildIndex(fa);
    index_b = blocker.BuildIndex(fb);
  }
  std::vector<pprl::CandidatePair> candidates;
  {
    Scope span(tracer, "blocking.candidates", parent);
    candidates = pprl::HammingLshBlocker::CandidatePairs(index_a, index_b);
  }
  const pprl::ComparisonEngine engine(pprl::SimilarityMeasure::kDice);
  std::vector<pprl::ScoredPair> scored;
  {
    Scope span(tracer, "linkage.compare", parent);
    scored = engine.Compare(fa, fb, candidates, config.match_threshold);
  }
  std::vector<pprl::ScoredPair> matches;
  {
    Scope span(tracer, "linkage.classify", parent);
    const pprl::ThresholdClassifier classifier(config.match_threshold,
                                               config.match_threshold);
    matches = classifier.SelectMatches(scored);
    if (config.one_to_one) matches = pprl::GreedyOneToOne(std::move(matches));
  }
  if (tracer.enabled()) {
    tracer.Count("blocking.records", static_cast<double>(fa.size() + fb.size()));
    tracer.Count("blocking.candidates", static_cast<double>(candidates.size()));
    tracer.Max("blocking.max_block_size",
               static_cast<double>(std::max(MaxBlockSize(index_a), MaxBlockSize(index_b))));
  }
  {
    // Freeing the string-keyed indexes is part of the program's run too.
    Scope span(tracer, "blocking.index_free", parent);
    index_a = {};
    index_b = {};
    candidates = {};
  }
  if (tracer.enabled()) {
    tracer.Count("linkage.comparisons", static_cast<double>(engine.last_comparison_count()));
    tracer.Count("linkage.pruned", static_cast<double>(engine.last_pruned_count()));
    tracer.Count("linkage.hits", static_cast<double>(scored.size()));
  }
  if (scored_out != nullptr) *scored_out = std::move(scored);
  return matches;
}

pprl::MultiPartyLinkageResult TracedMultiPartyLink(
    Tracer& tracer, uint32_t parent, const std::vector<std::string>& owners,
    const std::vector<pprl::EncodedDatabase>& shipments,
    const pprl::MultiPartyLinkageOptions& options) {
  Scope lu(tracer, "pipeline.lu_link", parent);
  pprl::LinkageUnitService unit("perfbench-lu");
  {
    Scope span(tracer, "pipeline.receive", lu.id());
    for (size_t i = 0; i < shipments.size(); ++i) {
      const pprl::Status status = unit.Receive(owners[i], shipments[i]);
      if (!status.ok()) throw std::runtime_error("receive: " + status.ToString());
    }
  }
  const std::vector<pprl::EncodedDatabase>& dbs = unit.databases();
  pprl::Rng rng(options.lsh_seed);
  const pprl::HammingLshBlocker blocker(dbs[0].filters[0].size(), options.lsh_tables,
                                        options.lsh_bits_per_key, rng);
  std::vector<pprl::BlockIndex> indexes;
  std::vector<pprl::BitMatrix> matrices;
  {
    Scope span(tracer, "blocking.index", lu.id());
    for (const pprl::EncodedDatabase& db : dbs) indexes.push_back(blocker.BuildIndex(db.filters));
  }
  {
    Scope span(tracer, "linkage.pack", lu.id());
    for (const pprl::EncodedDatabase& db : dbs) {
      matrices.push_back(pprl::BitMatrix::FromVectors(db.filters));
    }
  }
  pprl::MultiPartyLinkageResult result;
  const pprl::ComparisonEngine engine(pprl::SimilarityMeasure::kDice);
  size_t hits = 0;
  size_t max_block = 0;
  if (tracer.enabled()) {
    for (const pprl::BlockIndex& index : indexes) max_block = std::max(max_block, MaxBlockSize(index));
  }
  for (uint32_t d1 = 0; d1 < dbs.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < dbs.size(); ++d2) {
      std::vector<pprl::CandidatePair> candidates;
      {
        Scope span(tracer, "blocking.candidates", lu.id());
        candidates = pprl::HammingLshBlocker::CandidatePairs(indexes[d1], indexes[d2]);
      }
      result.candidate_pairs += candidates.size();
      std::vector<pprl::ScoredPair> scored;
      {
        Scope span(tracer, "linkage.compare", lu.id());
        scored = engine.CompareMatrices(matrices[d1], matrices[d2], candidates,
                                        options.dice_threshold - 2e-12);
      }
      result.comparisons += engine.last_comparison_count();
      result.pruned_comparisons += engine.last_pruned_count();
      for (const pprl::ScoredPair& pair : scored) {
        if (pair.score + 1e-12 >= options.dice_threshold) {
          result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
          ++hits;
        }
      }
    }
  }
  {
    Scope span(tracer, "linkage.cluster", lu.id());
    result.clusters = options.use_star_clustering ? pprl::StarClustering(result.edges)
                                                  : pprl::ConnectedComponents(result.edges);
  }
  {
    Scope span(tracer, "blocking.index_free", lu.id());
    indexes.clear();
    matrices.clear();
  }
  if (tracer.enabled()) {
    size_t records = 0;
    for (const pprl::EncodedDatabase& db : dbs) records += db.size();
    tracer.Count("blocking.records", static_cast<double>(records));
    tracer.Count("blocking.candidates", static_cast<double>(result.candidate_pairs));
    tracer.Max("blocking.max_block_size", static_cast<double>(max_block));
    tracer.Count("linkage.comparisons", static_cast<double>(result.comparisons));
    tracer.Count("linkage.pruned", static_cast<double>(result.pruned_comparisons));
    tracer.Count("linkage.hits", static_cast<double>(hits));
  }
  return result;
}

void PreloadEngine(pprl::OnlineLinkageEngine& engine, const std::vector<std::string>& parties,
                   const std::vector<const pprl::EncodedShard*>& shards,
                   const std::vector<size_t>& rows) {
  for (size_t p = 0; p < parties.size(); ++p) {
    const uint32_t db = engine.RegisterDatabase(parties[p]);
    const pprl::EncodedDatabase filters = pprl::EncodedDatabaseFromShard(*shards[p]);
    for (size_t r = 0; r < rows[p]; ++r) {
      auto appended = engine.Append(db, filters.ids[r], filters.filters[r]);
      if (!appended.ok()) throw std::runtime_error("preload: " + appended.status().ToString());
    }
  }
}

void TracedOnlineReplay(Tracer& tracer, uint32_t parent, pprl::OnlineLinkageEngine& engine,
                        const std::vector<uint32_t>& party_db,
                        const std::vector<const pprl::EncodedShard*>& party_shards,
                        const pprl::EncodedShard& queries, const std::vector<OnlineOp>& ops) {
  std::vector<pprl::EncodedDatabase> parties;
  for (const pprl::EncodedShard* shard : party_shards) {
    parties.push_back(pprl::EncodedDatabaseFromShard(*shard));
  }
  const pprl::EncodedDatabase query_filters = pprl::EncodedDatabaseFromShard(queries);
  double candidates = 0;
  double matched = 0;
  double edge_appends = 0;
  double query_count = 0;
  for (const OnlineOp& op : ops) {
    if (op.kind == OnlineOp::kAppend) {
      const uint64_t edges_before = engine.edges();
      pprl::Result<uint32_t> appended = 0u;
      {
        Scope span(tracer, "online.append", parent);
        appended = engine.Append(party_db[op.party], parties[op.party].ids[op.row],
                                 parties[op.party].filters[op.row]);
      }
      if (!appended.ok()) throw std::runtime_error("replay append: " + appended.status().ToString());
      if (engine.edges() > edges_before) ++edge_appends;
    } else {
      pprl::Result<pprl::OnlineQueryResult> result = pprl::OnlineQueryResult{};
      {
        Scope span(tracer, op.want_clusters ? "online.query.labels" : "online.query.nolabels",
                   parent);
        result = engine.Query(query_filters.filters[op.row],
                              pprl::OnlineLinkageEngine::kNoDatabase, op.want_clusters, 0);
      }
      if (!result.ok()) throw std::runtime_error("replay query: " + result.status().ToString());
      ++query_count;
      candidates += result->candidates;
      if (!result->matches.empty()) ++matched;
    }
  }
  tracer.Count("online.queries", query_count);
  tracer.Count("online.candidates", candidates);
  tracer.Count("online.matched", matched);
  tracer.Count("online.edge_appends", edge_appends);
}

void LayerMetrics(const Tracer& t, Report& out) {
  const double csv_s = t.Total("io.csv_read");
  out.Set("io.csv_read_s", csv_s, "s");
  out.Set("io.csv_mb_per_s", Ratio(t.Counter("io.csv_bytes") / 1e6, csv_s), "MB/s");
  out.Set("io.pclk_write_s", t.Total("io.pclk_write"), "s");
  for (const char* scheme : {"double", "hmac"}) {
    out.Set(std::string("crypto.token_ns.") + scheme,
            Ratio(t.Total(std::string("crypto.token.") + scheme) * 1e9,
                  t.Counter(std::string("crypto.tokens.") + scheme)),
            "ns");
  }
  const double encode_s = t.Total("encoding.encode");
  const double records = t.Counter("encoding.records");
  out.Set("encoding.encode_s", encode_s, "s");
  out.Set("encoding.records_per_s", Ratio(records, encode_s), "records/s");
  out.Set("encoding.tokens_per_record", Ratio(t.Counter("encoding.tokens"), records), "tokens");

  const double candidates = t.Counter("blocking.candidates");
  out.Set("blocking.index_s", t.Total("blocking.index"), "s");
  out.Set("blocking.candidates_s", t.Total("blocking.candidates"), "s");
  out.Set("blocking.index_free_s", t.Total("blocking.index_free"), "s");
  out.Set("blocking.candidates", candidates, "pairs");
  out.Set("blocking.candidates_per_record", Ratio(candidates, t.Counter("blocking.records")),
          "pairs");
  out.Set("blocking.max_block_size", t.Counter("blocking.max_block_size"), "records");

  const double compare_s = t.Total("linkage.compare");
  const double comparisons = t.Counter("linkage.comparisons");
  out.Set("linkage.compare_s", compare_s, "s");
  out.Set("linkage.pairs_per_s", Ratio(comparisons, compare_s), "pairs/s");
  out.Set("linkage.pruned_share", Ratio(t.Counter("linkage.pruned"), comparisons), "ratio");
  out.Set("linkage.hit_share", Ratio(t.Counter("linkage.hits"), candidates), "ratio");
  out.Set("linkage.classify_s", t.Total("linkage.classify"), "s");
  out.Set("linkage.cluster_s", t.Total("linkage.cluster"), "s");
  out.Set("pipeline.lu_link_s", t.Total("pipeline.lu_link"), "s");

  const auto us = [&](const char* span) {
    std::vector<double> d = t.Durations(span);
    for (double& v : d) v *= 1e6;
    return d;
  };
  const std::vector<double> append = us("online.append");
  const std::vector<double> labels = us("online.query.labels");
  const std::vector<double> nolabels = us("online.query.nolabels");
  out.Set("linkage.online_append_us.p50", Median(append), "us");
  out.Set("linkage.online_append_us.p99", Percentile(append, 99), "us");
  out.Set("linkage.online_query_us.labels.p50", Median(labels), "us");
  out.Set("linkage.online_query_us.labels.p99", Percentile(labels, 99), "us");
  out.Set("linkage.online_query_us.nolabels.p50", Median(nolabels), "us");
  out.Set("linkage.online_query_us.nolabels.p99", Percentile(nolabels, 99), "us");
  const double queries = t.Counter("online.queries");
  out.Set("linkage.online_candidates_per_query", Ratio(t.Counter("online.candidates"), queries),
          "pairs");
  out.Set("linkage.online_match_share", Ratio(t.Counter("online.matched"), queries), "ratio");
  out.Set("linkage.online_edge_appends", t.Counter("online.edge_appends"), "count");
}

}  // namespace perfbench
