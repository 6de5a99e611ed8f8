#include "pipeline/party.h"

#include <deque>
#include <optional>

#include "blocking/lsh_blocking.h"
#include "blocking/lsh_index.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "linkage/comparison.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "similarity/similarity.h"

namespace pprl {

DatabaseOwner::DatabaseOwner(std::string name, Database database)
    : name_(std::move(name)), database_(std::move(database)) {}

Status DatabaseOwner::Encode(const ClkEncoder& encoder) {
  auto filters = encoder.EncodeDatabase(database_);
  if (!filters.ok()) return filters.status();
  filters_ = std::move(filters).value();
  encoded_ = true;
  return Status::OK();
}

namespace {

/// Bytes a shipment of `encoded` costs on any transport: one 8-byte id
/// plus the packed filter per record. Both the in-process channel path and
/// the wire serialisation (service/protocol.h) follow this formula, which
/// is what keeps their metered totals identical.
size_t ShipmentPayloadBytes(const EncodedDatabase& encoded) {
  const size_t filter_bytes =
      encoded.filters.empty() ? 0 : (encoded.filters[0].size() + 7) / 8;
  return encoded.filters.size() * (filter_bytes + 8);
}

/// A shipment's filters packed at the run's filter length: an owner that
/// shipped no records becomes a 0 x filter_bits matrix, not a 0-bit one the
/// compare kernels would reject as a length mismatch.
BitMatrix PackShipment(const EncodedDatabase& db, size_t filter_bits) {
  return db.filters.empty() ? BitMatrix(0, filter_bits)
                            : BitMatrix::FromVectors(db.filters);
}

}  // namespace

Result<EncodedDatabase> DatabaseOwner::ShipEncodings(Channel& channel,
                                                     const std::string& recipient) const {
  if (!encoded_) {
    return Status::FailedPrecondition("owner '" + name_ + "' has not encoded yet");
  }
  EncodedDatabase shipment;
  shipment.ids.reserve(database_.records.size());
  for (const Record& r : database_.records) shipment.ids.push_back(r.id);
  shipment.filters = filters_;
  channel.Send(name_, recipient, ShipmentPayloadBytes(shipment), "encoded-filters");
  return shipment;
}

Status DatabaseOwner::ShipEncodings(EncodingSink& sink) const {
  if (!encoded_) {
    return Status::FailedPrecondition("owner '" + name_ + "' has not encoded yet");
  }
  EncodedDatabase shipment;
  shipment.ids.reserve(database_.records.size());
  for (const Record& r : database_.records) shipment.ids.push_back(r.id);
  shipment.filters = filters_;
  return sink.Deliver(name_, shipment);
}

std::vector<uint64_t> DatabaseOwner::EntityIdsForEvaluation() const {
  std::vector<uint64_t> ids;
  ids.reserve(database_.records.size());
  for (const Record& r : database_.records) ids.push_back(r.entity_id);
  return ids;
}

LinkageUnitService::LinkageUnitService(std::string name) : name_(std::move(name)) {}

Status LinkageUnitService::Receive(const std::string& owner, EncodedDatabase encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  if (!databases_.empty() && !encoded.filters.empty() &&
      !databases_[0].filters.empty() &&
      encoded.filters[0].size() != databases_[0].filters[0].size()) {
    return Status::InvalidArgument("shipment filter length differs from earlier owners");
  }
  for (const std::string& existing : owners_) {
    if (existing == owner) {
      return Status::AlreadyExists("owner '" + owner + "' already shipped");
    }
  }
  owners_.push_back(owner);
  databases_.push_back(std::move(encoded));
  return Status::OK();
}

Result<MultiPartyLinkageResult> LinkageUnitService::Link(
    const MultiPartyLinkageOptions& options) const {
  if (databases_.size() < 2) {
    return Status::FailedPrecondition("linkage needs >= 2 shipped databases");
  }
  const size_t filter_bits =
      databases_[0].filters.empty() ? 0 : databases_[0].filters[0].size();
  if (filter_bits == 0) {
    return Status::InvalidArgument("first shipment is empty");
  }

  obs::GlobalMetrics()
      .GetCounter("pprl_linkage_runs_total",
                  "Multi-party linkage runs at a linkage unit")
      .Increment();
  MultiPartyLinkageResult result;
  // One Hamming-LSH band index per database, built over its packed rows;
  // the compare kernels read those rows straight from the index. A deque,
  // because an index is built in place and never moved.
  obs::StageTimer block_span("block");
  std::deque<LshBandIndex> indexes;
  for (const EncodedDatabase& db : databases_) {
    indexes.emplace_back(filter_bits, options.lsh_tables, options.lsh_bits_per_key,
                         options.lsh_seed, BitMatrix::FromVectors(db.filters));
  }
  block_span.Stop();

  // Parallel runs either borrow the caller's scheduler (the daemon shares
  // one across sessions) or spin one up for this Link() call.
  const bool parallel = options.scheduler != nullptr || options.num_threads > 1;
  std::optional<WorkStealingScheduler> owned_scheduler;
  WorkStealingScheduler* scheduler = options.scheduler;
  if (parallel && scheduler == nullptr) {
    WorkStealingScheduler::Options sched_options;
    sched_options.num_threads = options.num_threads;
    sched_options.max_pending = 64;
    owned_scheduler.emplace(sched_options);
    scheduler = &*owned_scheduler;
  }

  // The kernel's min_score sits 2e-12 under the acceptance test below, so
  // cardinality pruning can never skip a pair that `dice + 1e-12 >=
  // threshold` would have kept; the final filter reproduces the exact
  // tolerance semantics of the scalar path. The streaming branch scores the
  // same pairs in the same order with the same kernel, so edges are
  // identical at any worker count.
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  obs::StageTimer compare_span("compare");
  for (uint32_t d1 = 0; d1 < databases_.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < databases_.size(); ++d2) {
      std::vector<ScoredPair> scored;
      if (parallel) {
        ParallelLinkageOptions parallel_options;
        parallel_options.scheduler = scheduler;
        StreamCompareResult streamed = StreamCompareBlocked(
            SimilarityMeasure::kDice, indexes[d1].rows(), indexes[d2],
            options.dice_threshold - 2e-12, parallel_options);
        result.candidate_pairs += streamed.comparisons;
        result.comparisons += streamed.comparisons;
        result.pruned_comparisons += streamed.pruned;
        scored = std::move(streamed.hits);
      } else {
        // Probing each A row against B's index yields the candidates
        // already sorted by (a, b) and deduplicated.
        const auto candidates = indexes[d2].CandidatePairs(indexes[d1].rows());
        result.candidate_pairs += candidates.size();
        scored = engine.CompareMatrices(indexes[d1].rows(), indexes[d2].rows(),
                                        candidates, options.dice_threshold - 2e-12);
        result.comparisons += engine.last_comparison_count();
        result.pruned_comparisons += engine.last_pruned_count();
      }
      for (const ScoredPair& pair : scored) {
        if (pair.score + 1e-12 >= options.dice_threshold) {
          result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
        }
      }
    }
  }
  compare_span.Stop();
  obs::StageTimer cluster_span("cluster");
  if (options.use_star_clustering) {
    result.clusters = StarClustering(result.edges);
  } else if (parallel) {
    result.clusters = ParallelConnectedComponents(result.edges, *scheduler);
  } else {
    result.clusters = ConnectedComponents(result.edges);
  }
  cluster_span.Stop();
  return result;
}

Result<PartitionLinkResult> LinkageUnitService::LinkPartition(
    const MultiPartyLinkageOptions& options, const PartitionSpec& spec) const {
  if (databases_.size() < 2) {
    return Status::FailedPrecondition("linkage needs >= 2 shipped databases");
  }
  if (spec.num_workers == 0 || spec.worker_index >= spec.num_workers) {
    return Status::InvalidArgument(
        "partition worker " + std::to_string(spec.worker_index) +
        " outside ring of " + std::to_string(spec.num_workers));
  }
  const size_t filter_bits =
      databases_[0].filters.empty() ? 0 : databases_[0].filters[0].size();
  if (filter_bits == 0) {
    return Status::InvalidArgument("first shipment is empty");
  }

  obs::GlobalMetrics()
      .GetCounter("pprl_partition_runs_total",
                  "Partition compare runs at a worker linkage unit")
      .Increment();
  // Same seeded blocker as Link(): every worker holding the same
  // shipments derives the same indexes, so the partition rule needs no
  // coordination beyond the ring geometry in `spec`.
  Rng rng(options.lsh_seed);
  const HammingLshBlocker blocker(filter_bits, options.lsh_tables,
                                  options.lsh_bits_per_key, rng);
  obs::StageTimer block_span("block");
  std::vector<BlockIndex> indexes;
  std::vector<BitMatrix> matrices;
  indexes.reserve(databases_.size());
  matrices.reserve(databases_.size());
  for (const EncodedDatabase& db : databases_) {
    indexes.push_back(blocker.BuildIndex(db.filters));
    matrices.push_back(PackShipment(db, filter_bits));
  }
  block_span.Stop();

  const BlockPartitioner partitioner(spec.num_workers, spec.scheme);
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  PartitionLinkResult result;
  obs::StageTimer compare_span("compare");
  for (uint32_t d1 = 0; d1 < databases_.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < databases_.size(); ++d2) {
      const auto owned = OwnedCandidatePairs(indexes[d1], indexes[d2], partitioner,
                                             spec.worker_index);
      result.candidate_pairs += owned.size();
      // Identical threshold tolerance to Link(): the kernel's min_score
      // sits 2e-12 under the acceptance test so pruning never skips a
      // pair the `+ 1e-12` filter would have kept.
      const auto scored = engine.CompareMatrices(
          matrices[d1], matrices[d2], owned, options.dice_threshold - 2e-12);
      result.comparisons += engine.last_comparison_count();
      result.pruned_comparisons += engine.last_pruned_count();
      for (const ScoredPair& pair : scored) {
        if (pair.score + 1e-12 >= options.dice_threshold) {
          result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
        }
      }
    }
  }
  compare_span.Stop();
  return result;
}

Status LocalLinkageUnitSink::Deliver(const std::string& owner,
                                     const EncodedDatabase& encoded) {
  channel_.Send(owner, unit_.name(), ShipmentPayloadBytes(encoded), "encoded-filters");
  return unit_.Receive(owner, encoded);
}

}  // namespace pprl
