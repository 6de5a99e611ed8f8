// Batch Hamming-LSH blocking runs on LshBandIndex: one band index per
// database, candidates from probing each A row against B's index. The
// string-keyed HammingLshBlocker (BuildIndex + CandidatePairs) stays the
// reference: the candidate sequence, the counters, the edges, the clusters
// and the matches must equal what it produces, at one thread and on the
// streamed scheduler path.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_blocking.h"
#include "blocking/lsh_index.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "datagen/generator.h"
#include "linkage/classifier.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "linkage/matching.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"

namespace pprl {
namespace {

constexpr size_t kRecordsPerDatabase = 600;
constexpr uint64_t kSeeds[] = {1, 2, 3};

std::vector<Database> Scenario(uint64_t seed, size_t num_databases) {
  GeneratorConfig generator;
  generator.seed = seed;
  DataGenerator gen(generator);
  LinkageScenarioConfig scenario;
  scenario.records_per_database = kRecordsPerDatabase;
  scenario.num_databases = num_databases;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = 2;
  scenario.corrupt_all_databases = true;
  auto dbs = gen.GenerateScenario(scenario);
  EXPECT_TRUE(dbs.ok()) << dbs.status().ToString();
  return std::move(dbs).value();
}

std::vector<BitVector> Encode(const Database& db, const PipelineConfig& config) {
  const ClkEncoder encoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
  auto filters = encoder.EncodeDatabase(db);
  EXPECT_TRUE(filters.ok()) << filters.status().ToString();
  return std::move(filters).value();
}

/// The string-keyed candidate list of two databases.
std::vector<CandidatePair> ReferenceCandidates(const std::vector<BitVector>& a,
                                               const std::vector<BitVector>& b,
                                               size_t filter_bits, size_t tables,
                                               size_t bits_per_key, uint64_t seed) {
  Rng rng(seed);
  const HammingLshBlocker blocker(filter_bits, tables, bits_per_key, rng);
  return HammingLshBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
}

/// Probing, materialized and streamed at several shard sizes, yields the
/// string-keyed candidate sequence exactly.
TEST(LshBatchParityTest, CandidateSequenceMatchesStringKeys) {
  const PipelineConfig config;
  for (const uint64_t seed : kSeeds) {
    const std::vector<Database> dbs = Scenario(seed, 2);
    const std::vector<BitVector> fa = Encode(dbs[0], config);
    const std::vector<BitVector> fb = Encode(dbs[1], config);
    const size_t bits = fa[0].size();
    const std::vector<CandidatePair> expected = ReferenceCandidates(
        fa, fb, bits, config.lsh_tables, config.lsh_bits_per_key, config.seed);
    ASSERT_FALSE(expected.empty());

    const LshBandIndex index_b(bits, config.lsh_tables, config.lsh_bits_per_key,
                               config.seed, BitMatrix::FromVectors(fb));
    const BitMatrix rows_a = BitMatrix::FromVectors(fa);
    EXPECT_EQ(index_b.CandidatePairs(rows_a), expected) << "seed " << seed;

    for (const size_t shard_size : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<CandidatePair> streamed;
      uint32_t next_id = 0;
      index_b.StreamCandidateRuns(rows_a, shard_size, [&](CandidateShard shard) {
        EXPECT_EQ(shard.shard_id, next_id++);
        EXPECT_TRUE(shard.pairs.empty());
        if (shard_size != 0) {
          EXPECT_LE(shard.num_pairs(), shard_size);
        }
        for (const PairRun& run : shard.runs) {
          for (uint32_t b = run.b_begin; b < run.b_end; ++b) streamed.push_back({run.a, b});
        }
      });
      EXPECT_EQ(streamed, expected) << "seed " << seed << ", shard size " << shard_size;
    }
  }
}

/// PprlPipeline::Link with kHammingLsh, at one and four threads, against
/// encode -> string-keyed blocking -> CompareMatrices -> classify.
TEST(LshBatchParityTest, PipelineLinkMatchesStringKeyedReference) {
  for (const uint64_t seed : kSeeds) {
    const std::vector<Database> dbs = Scenario(seed, 2);
    PipelineConfig config;
    config.blocking = BlockingScheme::kHammingLsh;
    config.seed = seed;

    const std::vector<BitVector> fa = Encode(dbs[0], config);
    const std::vector<BitVector> fb = Encode(dbs[1], config);
    const std::vector<CandidatePair> candidates = ReferenceCandidates(
        fa, fb, fa[0].size(), config.lsh_tables, config.lsh_bits_per_key, config.seed);
    const ComparisonEngine engine(SimilarityMeasure::kDice);
    const std::vector<ScoredPair> scored =
        engine.CompareMatrices(BitMatrix::FromVectors(fa), BitMatrix::FromVectors(fb),
                               candidates, config.match_threshold);
    const ThresholdClassifier classifier(config.match_threshold, config.match_threshold);
    const std::vector<ScoredPair> matches =
        GreedyOneToOne(classifier.SelectMatches(scored));
    ASSERT_FALSE(matches.empty());

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string label =
          "seed " + std::to_string(seed) + ", " + std::to_string(threads) + " threads";
      config.num_threads = threads;
      const auto out = PprlPipeline(config).Link(dbs[0], dbs[1]);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->candidate_pairs, candidates.size()) << label;
      EXPECT_EQ(out->comparisons, engine.last_comparison_count()) << label;
      EXPECT_EQ(out->pruned_comparisons, engine.last_pruned_count()) << label;
      EXPECT_EQ(out->matches, matches) << label;
    }
  }
}

/// What LinkageUnitService::Link must produce: the string-keyed pairwise
/// blocking, the same kernel and threshold tolerance, the same clustering.
MultiPartyLinkageResult ReferenceLink(const std::vector<EncodedDatabase>& shipments,
                                      const MultiPartyLinkageOptions& options) {
  const size_t bits = shipments[0].filters[0].size();
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  MultiPartyLinkageResult result;
  for (uint32_t d1 = 0; d1 < shipments.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < shipments.size(); ++d2) {
      const std::vector<CandidatePair> candidates =
          ReferenceCandidates(shipments[d1].filters, shipments[d2].filters, bits,
                              options.lsh_tables, options.lsh_bits_per_key,
                              options.lsh_seed);
      // An empty shipment packs to a 0-bit matrix, which the kernels may
      // not pair with a wider one; it has no candidates to score anyway.
      if (candidates.empty()) continue;
      result.candidate_pairs += candidates.size();
      const std::vector<ScoredPair> scored = engine.CompareMatrices(
          BitMatrix::FromVectors(shipments[d1].filters),
          BitMatrix::FromVectors(shipments[d2].filters), candidates,
          options.dice_threshold - 2e-12);
      result.comparisons += engine.last_comparison_count();
      result.pruned_comparisons += engine.last_pruned_count();
      for (const ScoredPair& pair : scored) {
        if (pair.score + 1e-12 >= options.dice_threshold) {
          result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
        }
      }
    }
  }
  result.clusters = options.use_star_clustering ? StarClustering(result.edges)
                                                : ConnectedComponents(result.edges);
  return result;
}

void ExpectSameLink(const MultiPartyLinkageResult& expected,
                    const MultiPartyLinkageResult& actual, const std::string& label) {
  EXPECT_EQ(actual.candidate_pairs, expected.candidate_pairs) << label;
  EXPECT_EQ(actual.comparisons, expected.comparisons) << label;
  EXPECT_EQ(actual.pruned_comparisons, expected.pruned_comparisons) << label;
  ASSERT_EQ(actual.edges.size(), expected.edges.size()) << label;
  for (size_t i = 0; i < expected.edges.size(); ++i) {
    EXPECT_EQ(actual.edges[i].x, expected.edges[i].x) << label << ", edge " << i;
    EXPECT_EQ(actual.edges[i].y, expected.edges[i].y) << label << ", edge " << i;
    EXPECT_EQ(actual.edges[i].score, expected.edges[i].score) << label << ", edge " << i;
  }
  EXPECT_EQ(actual.clusters, expected.clusters) << label;
}

/// LinkageUnitService::Link over three databases, at one and four threads,
/// with both clusterings, under the default bands and under wide (hashed)
/// ones.
TEST(LshBatchParityTest, ServiceLinkMatchesStringKeyedReference) {
  struct Bands {
    size_t tables;
    size_t bits_per_key;
  };
  const PipelineConfig encoding;
  for (const uint64_t seed : kSeeds) {
    const std::vector<Database> dbs = Scenario(seed, 3);
    std::vector<EncodedDatabase> shipments;
    LinkageUnitService unit("lu");
    for (size_t d = 0; d < dbs.size(); ++d) {
      EncodedDatabase shipment;
      for (const Record& r : dbs[d].records) shipment.ids.push_back(r.id);
      shipment.filters = Encode(dbs[d], encoding);
      ASSERT_TRUE(unit.Receive("owner-" + std::to_string(d), shipment).ok());
      shipments.push_back(std::move(shipment));
    }
    for (const Bands bands : {Bands{20, 18}, Bands{6, 80}}) {
      for (const bool star : {true, false}) {
        MultiPartyLinkageOptions options;
        options.lsh_tables = bands.tables;
        options.lsh_bits_per_key = bands.bits_per_key;
        options.lsh_seed = seed;
        options.use_star_clustering = star;
        const MultiPartyLinkageResult expected = ReferenceLink(shipments, options);
        ASSERT_FALSE(expected.edges.empty());
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          options.num_threads = threads;
          const auto actual = unit.Link(options);
          ASSERT_TRUE(actual.ok()) << actual.status().ToString();
          ExpectSameLink(expected, *actual,
                         "seed " + std::to_string(seed) + ", " +
                             std::to_string(bands.bits_per_key) + "-bit bands, " +
                             (star ? "star" : "cc") + ", " + std::to_string(threads) +
                             " threads");
        }
      }
    }
  }
}

/// An owner that shipped no records contributes no candidates, and the
/// others still link exactly as the reference does.
TEST(LshBatchParityTest, EmptyShipmentLinksLikeReference) {
  const std::vector<Database> dbs = Scenario(kSeeds[0], 2);
  const PipelineConfig encoding;
  std::vector<EncodedDatabase> shipments(3);
  for (size_t d = 0; d < dbs.size(); ++d) {
    for (const Record& r : dbs[d].records) shipments[2 * d].ids.push_back(r.id);
    shipments[2 * d].filters = Encode(dbs[d], encoding);
  }
  LinkageUnitService unit("lu");
  for (size_t d = 0; d < shipments.size(); ++d) {
    ASSERT_TRUE(unit.Receive("owner-" + std::to_string(d), shipments[d]).ok());
  }
  MultiPartyLinkageOptions options;
  const MultiPartyLinkageResult expected = ReferenceLink(shipments, options);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    options.num_threads = threads;
    const auto actual = unit.Link(options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameLink(expected, *actual, std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace pprl
