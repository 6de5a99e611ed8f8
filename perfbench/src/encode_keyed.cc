// encode-keyed: the deployment-grade owner-side encoder, i.e.
// `pprl_cli encode in.csv out.pclk <key>`. Timed: io::ReadCsvSchema ->
// io::EncodeCsvToShard with BloomHashScheme::kKeyedHmac -> io::WriteShardFile
// (.pclk). Nearly all of it is HMAC-SHA256 and CLK encoding, a layer no
// other workload measures. The CSV holds two generated parties' records, so
// the encoded output can be linked afterwards to check its quality.
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "datagen/io.h"
#include "io/ingest.h"
#include "layers.h"
#include "pipeline/pipeline.h"

namespace perfbench {
namespace {

constexpr size_t kRecordsPerParty = 500;
constexpr size_t kReferenceRows = 64;
const char* const kSecretKey = "perfbench-owner-key";

/// The CLI's encoder configuration: keyed HMAC, default fields present in
/// the schema.
pprl::ClkEncoder KeyedEncoder(const pprl::Schema& schema) {
  pprl::PipelineConfig config;
  config.bloom.scheme = pprl::BloomHashScheme::kKeyedHmac;
  config.bloom.secret_key = kSecretKey;
  std::vector<pprl::ClkFieldConfig> fields;
  for (const pprl::ClkFieldConfig& field : pprl::PprlPipeline::DefaultFieldConfigs()) {
    if (schema.FieldIndex(field.field_name) >= 0) fields.push_back(field);
  }
  return pprl::ClkEncoder(config.bloom, fields);
}

bool SameShard(const pprl::EncodedShard& x, const pprl::EncodedShard& y) {
  if (x.ids != y.ids || x.size() != y.size() || x.bits.num_bits() != y.bits.num_bits()) {
    return false;
  }
  for (size_t r = 0; r < x.size(); ++r) {
    for (size_t w = 0; w < x.bits.words_per_row(); ++w) {
      if (x.bits.row(r)[w] != y.bits.row(r)[w]) return false;
    }
  }
  return true;
}

}  // namespace

void RunEncodeKeyed(const Args& args, WorkloadResult& result) {
  const size_t half = Scaled(args, kRecordsPerParty, 32);
  const std::string dir = args.out_dir + "/encode-keyed";
  MakeDirs(dir);
  const std::string in_csv = dir + "/in.csv";
  const std::string out_pclk = dir + "/out.pclk";

  std::vector<pprl::Database> dbs;
  pprl::Database combined;
  SetupTimer setup([&] {
    dbs = GenerateDatabases(args.seed, 2, half);
    combined.schema = dbs[0].schema;
    combined.records = dbs[0].records;
    for (pprl::Record record : dbs[1].records) {
      record.id += half;
      combined.records.push_back(std::move(record));
    }
    const pprl::Status status = pprl::WriteDatabaseCsv(in_csv, combined);
    if (!status.ok()) throw std::runtime_error("csv write: " + status.ToString());
  });
  setup.Run();
  const double records = static_cast<double>(combined.size());

  pprl::EncodedShard shard;
  auto rep = [&](Tracer& tracer) {
    const Clock::time_point start = Clock::now();
    Scope root(tracer, "workload", 0);
    tracer.Count("encoding.records", records);
    pprl::Result<pprl::Schema> schema = pprl::Schema{};
    {
      Scope span(tracer, "io.csv_schema", root.id());
      schema = pprl::io::ReadCsvSchema(in_csv);
    }
    if (!schema.ok()) throw std::runtime_error("schema: " + schema.status().ToString());
    const pprl::ClkEncoder encoder = KeyedEncoder(*schema);
    pprl::Result<pprl::EncodedShard> encoded = pprl::EncodedShard{};
    {
      Scope span(tracer, "encoding.encode", root.id());
      encoded = pprl::io::EncodeCsvToShard(in_csv, encoder);
    }
    if (!encoded.ok()) throw std::runtime_error("encode: " + encoded.status().ToString());
    shard = std::move(encoded).value();
    {
      Scope span(tracer, "io.pclk_write", root.id());
      const pprl::Status status = pprl::io::WriteShardFile(out_pclk, shard);
      if (!status.ok()) throw std::runtime_error("pclk write: " + status.ToString());
    }
    return SecondsSince(start);
  };

  // Links the two parties' halves of the written file, as a linkage unit
  // would, and scores the matches against the generator's entity ids.
  const pprl::PipelineConfig link_config;
  auto linked_f1 = [&](const pprl::EncodedShard& encoded) {
    const pprl::EncodedDatabase all = pprl::EncodedDatabaseFromShard(encoded);
    const std::vector<pprl::BitVector> fa(all.filters.begin(),
                                          all.filters.begin() + static_cast<long>(half));
    const std::vector<pprl::BitVector> fb(all.filters.begin() + static_cast<long>(half),
                                          all.filters.end());
    Tracer off(false);
    return TwoPartyF1(TracedTwoPartyLink(off, 0, link_config, fa, fb), dbs[0],
                      dbs[1]);
  };

  // The reference for the written rows: the same keyed encoder applied
  // record by record to the generated database.
  pprl::Database sample;
  sample.schema = combined.schema;
  for (size_t r = 0; r < combined.size(); r += std::max<size_t>(1, combined.size() / kReferenceRows)) {
    sample.records.push_back(combined.records[r]);
  }
  const pprl::ClkEncoder reference_encoder = KeyedEncoder(combined.schema);
  auto reference = reference_encoder.EncodeDatabase(sample);
  if (!reference.ok()) throw std::runtime_error("reference encode: " + reference.status().ToString());

  const Clock::time_point begin = Clock::now();
  std::vector<double> walls;
  std::vector<double> rss;
  std::vector<double> traced_walls;
  double f1 = -1;
  double file_bytes = 0;
  Tracer off(false);
  Tracer path(true);
  auto traced_rep = [&] {
    path.Clear();
    traced_walls.push_back(rep(path));
    path.Count("encoding.tokens",
               static_cast<double>(CountTokens(KeyedEncoder(combined.schema), combined)));
  };
  while (walls.size() < 2 || (SecondsSince(begin) < args.seconds && walls.size() < 50)) {
    // Traced runs alternate which repetition goes first (see link-daemon).
    const bool traced_first = args.trace && walls.size() % 2 == 1;
    if (traced_first) traced_rep();
    ResetPeakRss();
    walls.push_back(rep(off));
    rss.push_back(PeakRssMb());
    result.outcome.Op("encode", "timed", true);
    file_bytes = static_cast<double>(std::filesystem::file_size(out_pclk));
    auto written = pprl::io::ReadShardAuto(out_pclk);
    if (!written.ok()) throw std::runtime_error("pclk read: " + written.status().ToString());
    if (args.corrupt == "pclk" && walls.size() == 2) {
      written->bits.mutable_row(0)[0] ^= 1;
    }
    bool rows_ok = SameShard(*written, shard) && written->size() == combined.size();
    const pprl::EncodedDatabase written_rows = pprl::EncodedDatabaseFromShard(*written);
    for (size_t i = 0; rows_ok && i < sample.size(); ++i) {
      const size_t row = static_cast<size_t>(sample.records[i].id);
      rows_ok = written->ids[row] == sample.records[i].id &&
                written_rows.filters[row] == (*reference)[i];
    }
    result.outcome.Gate("encode-keyed.pclk-mismatch", rows_ok,
                        "repetition " + std::to_string(walls.size()) +
                            ": written shard differs from the keyed encoder's rows");
    if (f1 < 0) f1 = linked_f1(*written);
    if (args.trace && !traced_first) traced_rep();
    if (!args.trace) setup.RunIfDue();
  }
  result.extra.Set("records", records, "records");
  ReportWalls(walls, result);
  if (!args.trace) {
    setup.Report(result);
    result.metrics.Set("setup_s", setup.MedianSeconds(), "s");
    result.metrics.Set("records_per_s", records / Median(walls), "records/s");
    result.metrics.Set("peak_rss_mb", Median(rss), "MiB");
    result.metrics.Set("f1", f1, "ratio");
    result.metrics.Set("wire_bytes_per_record", file_bytes / records, "bytes");
    return;
  }
  TracedTokenPositions(path, 0, combined);
  FinishTracedRun(path, traced_walls, walls, result);
  result.metrics.Set("net.bytes_sent", 0, "bytes");
  result.metrics.Set("net.bytes_received", 0, "bytes");
  result.metrics.Set("net.retries", 0, "count");
}

}  // namespace perfbench
