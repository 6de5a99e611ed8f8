#ifndef PPRL_BLOCKING_LSH_INDEX_H_
#define PPRL_BLOCKING_LSH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "blocking/blocking.h"
#include "blocking/lsh_blocking.h"
#include "common/bit_matrix.h"
#include "common/bitvector.h"
#include "common/random.h"

namespace pprl {

/// The Hamming-LSH band index: one collision relation behind both batch
/// blocking and online serving.
///
/// Two rows collide when they agree on every sampled bit of at least one
/// band table. `HammingLshBlocker` spells that relation as string keys;
/// this class keeps it as packed integer fingerprints in open-addressing
/// tables, which serves two callers:
///  - Batch (`LinkageUnitService::Link`, `PprlPipeline::Link` with
///    kHammingLsh): the block stage builds one index per database from its
///    packed rows (bulk constructor). A database pair's candidates come
///    from probing each A row against B's index (`CandidatePairs`,
///    `StreamCandidateRuns`). A probe returns distinct B rows in ascending
///    order, so the (a, b) sequence comes out sorted and deduplicated with
///    no string keys and no global sort, and the compare kernels read
///    `rows()` directly.
///  - Online (`OnlineLinkageEngine`): append-without-rebuild and one probe
///    per query in O(tables + candidates), which turns "link one new
///    record" from a batch job into a sub-millisecond query.
///
/// Design:
///  - Band geometry is the `HammingLshBlocker`'s own sampled positions
///    (constructed from the same seed), so the collision relation is
///    IDENTICAL to the batch blocker's: two rows collide here iff their
///    string keys in `HammingLshBlocker::Keys` are equal for some table.
///    For bits_per_key <= 64 the band fingerprint packs the sampled bits
///    into a u64 (injective, hence exact). Wider bands fingerprint by
///    FNV-1a-64 over the sampled bits, and a table slot matches a probe
///    only when its head row's sampled bits equal the probe's, so a hash
///    collision between two different bands never merges their chains.
///  - Each table is an open-addressing fingerprint -> bucket-head map with
///    per-row chain links ("next" array), so an append touches O(tables)
///    cache lines and never reallocates per-bucket storage.
///  - Row payloads live in one growable `BitMatrix`, so the fused
///    AND-popcount comparison kernels (linkage/compare_kernels.h) run
///    unchanged over candidate sets.
class LshBandIndex {
 public:
  /// Samples band geometry from `Rng(seed)` exactly like a
  /// `HammingLshBlocker` built from `Rng(seed)` (the string-keyed
  /// partitioned path in pipeline/party.cc), so every path with the same
  /// (filter_bits, num_tables, bits_per_key, seed) sees the same collisions.
  LshBandIndex(size_t filter_bits, size_t num_tables, size_t bits_per_key,
               uint64_t seed);

  /// Bulk build: indexes every row of `rows` in order, with the same band
  /// tables and band_checksum() as appending them one by one. `rows`
  /// becomes the backing matrix, so a caller hands over the matrix it
  /// packed instead of keeping a second copy. A matrix with no rows may
  /// have any width; otherwise it must be `filter_bits` wide.
  LshBandIndex(size_t filter_bits, size_t num_tables, size_t bits_per_key,
               uint64_t seed, BitMatrix rows);

  /// Appends `filter` as the next row and indexes it in every band table.
  /// O(tables) map operations + one O(row words) copy. Returns the row id.
  uint32_t Append(const BitVector& filter);

  /// Append() without the BitVector detour: copies row `src_row` of `src`
  /// (same bit length) straight into the backing matrix and indexes it.
  /// This is the checkpoint-recovery bulk path — band tables are a
  /// deterministic function of the row sequence, so restoring an index is
  /// re-appending its rows (docs/PROTOCOLS.md Appendix B).
  uint32_t AppendFrom(const BitMatrix& src, size_t src_row);

  /// All distinct indexed rows that collide with `probe` in at least one
  /// band table, ascending row order. Does not insert. `out` is cleared.
  void Probe(const BitVector& probe, std::vector<uint32_t>* out) const;

  /// Probe() over raw row words (the BitVector/BitMatrix layout,
  /// filter_bits() bits), so batch callers probe another matrix's rows
  /// without a BitVector detour.
  void ProbeWords(const uint64_t* words, std::vector<uint32_t>* out) const;

  /// Every pair (a, b) where row a of `a_rows` collides with indexed row b
  /// in at least one band table, ascending (a, b) and deduplicated:
  /// exactly `HammingLshBlocker::CandidatePairs` over the two databases'
  /// string-keyed indexes at equal geometry and seed.
  std::vector<CandidatePair> CandidatePairs(const BitMatrix& a_rows) const;

  /// The same candidate sequence as run shards of `shard_size` pairs (0:
  /// one shard per A row with candidates), cut by the RunShardEmitter that
  /// StreamBlockedPairRuns uses.
  void StreamCandidateRuns(const BitMatrix& a_rows, size_t shard_size,
                           const CandidateShardFn& emit) const;

  /// Band fingerprint of `bf` in `table` — equal fingerprints are exactly
  /// the string-key collisions of `HammingLshBlocker::Keys` when
  /// bits_per_key <= 64.
  uint64_t BandFingerprint(const BitVector& bf, size_t table) const;

  size_t size() const { return rows_.num_rows(); }
  size_t filter_bits() const { return blocker_.filter_bits(); }

  /// The backing row storage; row i is the filter passed to the i-th
  /// Append(). Pointers are invalidated by Append() (geometric growth).
  const BitMatrix& rows() const { return rows_; }

  const HammingLshBlocker& blocker() const { return blocker_; }

  /// Total bucket-chain entries scanned by all Probe() calls so far
  /// (pre-dedup candidate volume; cost observability for tuning).
  uint64_t probed_entries() const {
    return probed_entries_.load(std::memory_order_relaxed);
  }

  /// FNV-1a-64 over the little-endian band fingerprints of every indexed
  /// row in (row, table) order, maintained incrementally by appends. Two
  /// indexes with equal checksums over the same row count collide
  /// identically, so a checkpoint stores this instead of the band tables
  /// and recovery verifies the rebuild against it (seed or geometry drift
  /// cannot silently change the collision relation).
  uint64_t band_checksum() const { return band_checksum_; }

 private:
  /// One band table: open-addressing fingerprint -> head row, with bucket
  /// membership chained through `next` (row id == position; kNoRow ends the
  /// chain). Power-of-two capacity, linear probing, grown at 50% load.
  struct BandTable {
    std::vector<uint64_t> fingerprints;
    std::vector<uint32_t> heads;   ///< kNoRow marks an empty slot
    std::vector<uint32_t> next;    ///< per indexed row, previous head or kNoRow
    size_t used = 0;

    /// Head row of the chain whose band equals the probe's, or kNoRow.
    /// `same_band(head)` confirms a fingerprint match; it is only
    /// consulted on one, and only wide (hashed) bands can fail it.
    template <typename BandEq>
    uint32_t Find(uint64_t fp, const BandEq& same_band) const;
    /// Prepends `row` to its band's chain, opening a slot for a new band.
    template <typename BandEq>
    void Insert(uint64_t fp, uint32_t row, const BandEq& same_band);
    void Grow();
    /// Starts loading fp's home slot into the cache ahead of Find().
    void Prefetch(uint64_t fp) const;
  };

  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// BandFingerprint over raw row words (bit i of the filter is bit i%64
  /// of word i/64, the BitVector/BitMatrix layout).
  uint64_t FingerprintWords(const uint64_t* words, size_t table) const;
  /// Whether `words` and indexed row `row` agree on every sampled bit of
  /// `table`. Always true for bands of <= 64 bits, whose fingerprint is
  /// the band itself.
  bool SameBand(const uint64_t* words, uint32_t row, size_t table) const;
  /// Indexes an already-stored row in every band table and folds its
  /// fingerprints into band_checksum_.
  void IndexRow(uint32_t row);

  Rng rng_;  ///< consumed by blocker_'s construction; kept for init order
  HammingLshBlocker blocker_;
  std::vector<BandTable> tables_;
  BitMatrix rows_;
  uint64_t band_checksum_;
  /// Relaxed atomic so concurrent Probe() calls (readers under a shared
  /// lock in OnlineLinkageEngine) stay race-free.
  mutable std::atomic<uint64_t> probed_entries_{0};
};

}  // namespace pprl

#endif  // PPRL_BLOCKING_LSH_INDEX_H_
