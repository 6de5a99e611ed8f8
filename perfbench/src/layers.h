// The library's layers, called one public function at a time with a span
// around each call. A traced workload composes its path from these, so its
// spans describe the program being measured.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "common/bitvector.h"
#include "common/record.h"
#include "encoding/bloom_filter.h"
#include "linkage/online_linkage.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"

namespace perfbench {

/// io::ReadDatabaseCsvStream; span io.csv_read, counter io.csv_bytes.
pprl::Database TracedCsvRead(Tracer& tracer, uint32_t parent, const std::string& path);

/// ClkEncoder::EncodeDatabase; span encoding.encode, counter
/// encoding.records. Callers count encoding.tokens (CountTokens) outside
/// their timed root, since tokenising again is not the program's work.
std::vector<pprl::BitVector> TracedEncode(Tracer& tracer, uint32_t parent,
                                          const pprl::ClkEncoder& encoder,
                                          const pprl::Database& db);

/// Tokens the CLK encoder hashes for `db` (same tokenisation as
/// ClkEncoder::Encode).
size_t CountTokens(const pprl::ClkEncoder& encoder, const pprl::Database& db);

/// BloomFilterEncoder::TokenPositions over a fixed sample of the
/// databases' own CLK tokens, under both hash schemes; spans
/// crypto.token.{double,hmac}, counters crypto.tokens.{double,hmac}.
void TracedTokenPositions(Tracer& tracer, uint32_t parent,
                          const pprl::Database& db);

/// The serial two-party path of PprlPipeline::Link after encoding: LSH
/// index, candidate pairs, Dice compare, threshold + greedy 1:1. Spans
/// blocking.index, blocking.candidates, linkage.compare, linkage.classify,
/// blocking.index_free.
/// `scored` (optional) receives the compare output.
std::vector<pprl::ScoredPair> TracedTwoPartyLink(
    Tracer& tracer, uint32_t parent, const pprl::PipelineConfig& config,
    const std::vector<pprl::BitVector>& fa, const std::vector<pprl::BitVector>& fb,
    std::vector<pprl::ScoredPair>* scored = nullptr);

/// The serial path of LinkageUnitService::Receive + Link: span
/// pipeline.lu_link with children pipeline.receive, blocking.index,
/// linkage.pack, blocking.candidates, linkage.compare, linkage.cluster,
/// blocking.index_free.
pprl::MultiPartyLinkageResult TracedMultiPartyLink(
    Tracer& tracer, uint32_t parent, const std::vector<std::string>& owners,
    const std::vector<pprl::EncodedDatabase>& shipments,
    const pprl::MultiPartyLinkageOptions& options);

/// One operation of an online stream.
struct OnlineOp {
  enum Kind { kAppend, kQuery } kind = kAppend;
  uint32_t party = 0;  ///< appending party (0 = a, 1 = b)
  uint32_t row = 0;    ///< row of that party's shard, or of the query shard
  bool want_clusters = false;
};

/// Replays an op stream against an in-process OnlineLinkageEngine that
/// already holds the preloaded rows. Spans online.append,
/// online.query.labels, online.query.nolabels; counters online.queries,
/// online.candidates, online.matched, online.edge_appends.
void TracedOnlineReplay(Tracer& tracer, uint32_t parent,
                        pprl::OnlineLinkageEngine& engine,
                        const std::vector<uint32_t>& party_db,
                        const std::vector<const pprl::EncodedShard*>& party_shards,
                        const pprl::EncodedShard& queries,
                        const std::vector<OnlineOp>& ops);

/// Feeds rows [0, rows) of each party's shard into `engine` in order.
void PreloadEngine(pprl::OnlineLinkageEngine& engine,
                   const std::vector<std::string>& parties,
                   const std::vector<const pprl::EncodedShard*>& shards,
                   const std::vector<size_t>& rows);

/// Derives every per-layer metric from the tracer's spans and counters. A
/// layer the workload's path does not call has no spans and reports 0.
void LayerMetrics(const Tracer& tracer, Report& out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
