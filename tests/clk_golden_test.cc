/// Golden CLK digests: the encoder's output is pinned bit for bit, under
/// both hash schemes and through both encode entry points (in-memory
/// ClkEncoder::EncodeDatabase and the streaming io::EncodeCsvToShard), so
/// any change to the hash primitives or the encoder that moves a single bit
/// fails here. The digests are FNV-1a-64 over the raw CLK words and ids,
/// deliberately independent of the hash code under test. The pinned values
/// come from the straightforward allocating MD5/SHA-1/SHA-256/HMAC code the
/// current hash core replaced, and the edge-case digests from the
/// one-token-at-a-time encoder the 16-lane batch path replaced; they must
/// never change.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/io.h"
#include "encoding/bloom_filter.h"
#include "encoding/rbf.h"
#include "io/ingest.h"
#include "pipeline/pipeline.h"

namespace pprl {
namespace {

constexpr size_t kRecordsPerDatabase = 5000;  // two databases: 10k records

class Fnv64 {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Two overlapping, corrupted databases from a fixed generator seed.
const std::vector<Database>& GoldenDatabases() {
  static const std::vector<Database> dbs = [] {
    GeneratorConfig generator;
    generator.seed = 20260611;
    DataGenerator gen(generator);
    LinkageScenarioConfig scenario;
    scenario.records_per_database = kRecordsPerDatabase;
    scenario.num_databases = 2;
    scenario.corruption.mean_corruptions = 2;
    scenario.corrupt_all_databases = true;
    return gen.GenerateScenario(scenario).value();
  }();
  return dbs;
}

BloomFilterParams SchemeParams(BloomHashScheme scheme) {
  BloomFilterParams params = PipelineConfig{}.bloom;
  params.scheme = scheme;
  if (scheme == BloomHashScheme::kKeyedHmac) params.secret_key = "golden-clk-key";
  return params;
}

ClkEncoder GoldenEncoder(BloomHashScheme scheme) {
  return ClkEncoder(SchemeParams(scheme), PprlPipeline::DefaultFieldConfigs());
}

uint64_t EncodeDatabaseDigest(BloomHashScheme scheme) {
  const ClkEncoder encoder = GoldenEncoder(scheme);
  Fnv64 fnv;
  for (const Database& db : GoldenDatabases()) {
    auto clks = encoder.EncodeDatabase(db);
    EXPECT_TRUE(clks.ok()) << clks.status().ToString();
    if (!clks.ok()) return 0;
    fnv.Add(clks->size());
    for (const BitVector& clk : *clks) {
      fnv.Add(clk.size());
      fnv.Add(clk.words().data(), clk.words().size() * sizeof(uint64_t));
    }
  }
  return fnv.value();
}

uint64_t EncodeCsvDigest(BloomHashScheme scheme) {
  const ClkEncoder encoder = GoldenEncoder(scheme);
  Fnv64 fnv;
  for (size_t d = 0; d < GoldenDatabases().size(); ++d) {
    const std::string path =
        ::testing::TempDir() + "/clk_golden_" + std::to_string(d) + ".csv";
    EXPECT_TRUE(WriteDatabaseCsv(path, GoldenDatabases()[d]).ok());
    auto shard = io::EncodeCsvToShard(path, encoder);
    std::remove(path.c_str());
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    if (!shard.ok()) return 0;
    fnv.Add(shard->size());
    fnv.Add(shard->bits.num_bits());
    for (size_t r = 0; r < shard->size(); ++r) {
      fnv.Add(shard->ids[r]);
      fnv.Add(shard->bits.row(r), shard->bits.words_per_row() * sizeof(uint64_t));
    }
  }
  return fnv.value();
}

/// Token lengths on both sides of every padding boundary: a message of 55
/// bytes still fits one block, 56 needs two, and the HMAC input is the token
/// plus "\x1f" and the decimal hash index.
uint64_t TokenPositionsDigest(BloomHashScheme scheme) {
  Fnv64 fnv;
  for (const std::string& key : {std::string("k"), std::string(64, 'K'),
                                 std::string(100, 'x')}) {
    for (size_t num_bits : {size_t{64}, size_t{1000}, size_t{4093}}) {
      BloomFilterParams params = SchemeParams(scheme);
      if (scheme == BloomHashScheme::kKeyedHmac) params.secret_key = key;
      params.num_bits = num_bits;
      params.num_hashes = 12;
      const BloomFilterEncoder encoder(params);
      for (size_t len : {0, 1, 2, 3, 51, 52, 53, 54, 55, 56, 57, 62, 63, 64, 65,
                         118, 119, 120, 200}) {
        std::string token;
        for (size_t i = 0; i < len; ++i) token += static_cast<char>('a' + (i * 7) % 26);
        for (uint32_t pos : encoder.TokenPositions(token)) fnv.Add(pos);
      }
    }
    if (scheme == BloomHashScheme::kDoubleHashing) break;  // keyless
  }
  return fnv.value();
}

/// Record-level Bloom filters over the same databases: per-field filters of
/// different lengths and hash counts, sampled by weight under the shared
/// seed.
uint64_t RbfDigest(BloomHashScheme scheme) {
  RbfParams params;
  params.scheme = scheme;
  if (scheme == BloomHashScheme::kKeyedHmac) params.secret_key = "golden-rbf-key";
  const std::vector<RbfFieldConfig> fields = {{"first_name", 500, 15, 2.0, 2},
                                              {"last_name", 500, 15, 2.0, 2},
                                              {"dob", 300, 10, 1.0, 2},
                                              {"city", 300, 10, 0.5, 3}};
  auto encoder = RbfEncoder::Create(params, fields);
  EXPECT_TRUE(encoder.ok()) << encoder.status().ToString();
  if (!encoder.ok()) return 0;
  Fnv64 fnv;
  for (const Database& db : GoldenDatabases()) {
    auto rbfs = encoder->EncodeDatabase(db);
    EXPECT_TRUE(rbfs.ok()) << rbfs.status().ToString();
    if (!rbfs.ok()) return 0;
    fnv.Add(rbfs->size());
    for (const BitVector& rbf : *rbfs) {
      fnv.Add(rbf.size());
      fnv.Add(rbf.words().data(), rbf.words().size() * sizeof(uint64_t));
    }
  }
  return fnv.value();
}

/// Hand-built records around the batch encoder's edges, under one schema:
/// - `v` (q = 1, unpadded): values of 0, 1, 15, 16, 17, 32 and 33 bytes give
///   records of exactly that many tokens (one 16-lane group, partial and
///   spilling groups), with repeats that take '#' suffixes;
/// - 52- and 53-byte field names: their tokens are 55 bytes (the longest
///   one-block message) and 56 bytes (the shortest two-block one), and with
///   a '#' suffix 57 and more;
/// - `wide` (q = 60): 62-byte tokens, all on the scalar path;
/// - `age`, a numeric field with neighbourhood tokens.
uint64_t EdgeCaseDigest(BloomHashScheme scheme) {
  const std::string long_name(52, 'n');
  const std::string longer_name(53, 'm');
  Schema schema;
  for (const char* name : {"v", "wide", "age"}) schema.fields.push_back({name});
  schema.fields.push_back({long_name});
  schema.fields.push_back({longer_name});
  std::vector<ClkFieldConfig> all_fields(5);
  all_fields[0].field_name = "v";
  all_fields[0].q = 1;
  all_fields[0].num_hashes = 7;
  all_fields[1].field_name = "wide";
  all_fields[1].q = 60;
  all_fields[1].num_hashes = 3;
  all_fields[2].field_name = "age";
  all_fields[2].numeric_step = 1;
  all_fields[2].numeric_neighbors = 2;
  all_fields[2].num_hashes = 5;
  all_fields[3].field_name = long_name;
  all_fields[3].num_hashes = 4;
  all_fields[4].field_name = longer_name;
  all_fields[4].num_hashes = 6;

  std::vector<std::vector<std::string>> rows;
  for (size_t len : {0, 1, 15, 16, 17, 32, 33}) {
    std::string value;
    for (size_t i = 0; i < len; ++i) value += static_cast<char>('a' + (i * i) % 5);
    rows.push_back({value, "", "40", "", "jo"});
  }
  rows.push_back({"Zz", std::string(70, 'w') + "  X", "-3.5", "aaaaaaaaaaaaa", "ee"});
  rows.push_back({" ", "short", "1e3", "Anna  Maria", "Anna  Maria"});

  Fnv64 fnv;
  // Each field alone (so the token counts above are exact), then all five.
  for (size_t f = 0; f <= all_fields.size(); ++f) {
    std::vector<ClkFieldConfig> fields =
        f < all_fields.size() ? std::vector<ClkFieldConfig>{all_fields[f]} : all_fields;
    const ClkEncoder encoder(SchemeParams(scheme), fields);
    for (const auto& row : rows) {
      Record record;
      record.values = row;
      auto clk = encoder.Encode(schema, record);
      EXPECT_TRUE(clk.ok()) << clk.status().ToString();
      if (!clk.ok()) return 0;
      fnv.Add(clk->words().data(), clk->words().size() * sizeof(uint64_t));
    }
  }
  return fnv.value();
}

TEST(ClkGoldenTest, DoubleHashingEncodeDatabase) {
  EXPECT_EQ(EncodeDatabaseDigest(BloomHashScheme::kDoubleHashing),
            10288423212832515704ull);
}

TEST(ClkGoldenTest, KeyedHmacEncodeDatabase) {
  EXPECT_EQ(EncodeDatabaseDigest(BloomHashScheme::kKeyedHmac), 2070087141390524054ull);
}

TEST(ClkGoldenTest, DoubleHashingEncodeCsvToShard) {
  EXPECT_EQ(EncodeCsvDigest(BloomHashScheme::kDoubleHashing), 5750946860434527396ull);
}

TEST(ClkGoldenTest, KeyedHmacEncodeCsvToShard) {
  EXPECT_EQ(EncodeCsvDigest(BloomHashScheme::kKeyedHmac), 280948349391593814ull);
}

TEST(ClkGoldenTest, TokenPositions) {
  EXPECT_EQ(TokenPositionsDigest(BloomHashScheme::kDoubleHashing),
            9882549089864682066ull);
  EXPECT_EQ(TokenPositionsDigest(BloomHashScheme::kKeyedHmac), 2322824552408143386ull);
}

TEST(ClkGoldenTest, DoubleHashingEdgeCases) {
  EXPECT_EQ(EdgeCaseDigest(BloomHashScheme::kDoubleHashing), 18009710077277807353ull);
}

TEST(ClkGoldenTest, KeyedHmacEdgeCases) {
  EXPECT_EQ(EdgeCaseDigest(BloomHashScheme::kKeyedHmac), 38464446788605007ull);
}

TEST(ClkGoldenTest, DoubleHashingRbf) {
  EXPECT_EQ(RbfDigest(BloomHashScheme::kDoubleHashing), 4455362801593145105ull);
}

TEST(ClkGoldenTest, KeyedHmacRbf) {
  EXPECT_EQ(RbfDigest(BloomHashScheme::kKeyedHmac), 6118965781433719356ull);
}

}  // namespace
}  // namespace pprl
