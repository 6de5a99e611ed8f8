#include "blocking/lsh_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace pprl {

namespace {

/// splitmix64 finalizer — full-avalanche mix of a band fingerprint into a
/// table slot. Fingerprints are highly structured (packed filter bits), so
/// the raw value would cluster badly under power-of-two masking.
uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

template <typename BandEq>
uint32_t LshBandIndex::BandTable::Find(uint64_t fp, const BandEq& same_band) const {
  if (heads.empty()) return kNoRow;
  const size_t mask = heads.size() - 1;
  size_t i = MixHash(fp) & mask;
  while (heads[i] != kNoRow) {
    if (fingerprints[i] == fp && same_band(heads[i])) return heads[i];
    i = (i + 1) & mask;
  }
  return kNoRow;
}

template <typename BandEq>
void LshBandIndex::BandTable::Insert(uint64_t fp, uint32_t row,
                                     const BandEq& same_band) {
  assert(next.size() == row && "rows must be inserted in order");
  next.push_back(kNoRow);
  if (heads.empty() || (used + 1) * 2 > heads.size()) Grow();
  const size_t mask = heads.size() - 1;
  size_t i = MixHash(fp) & mask;
  while (heads[i] != kNoRow) {
    if (fingerprints[i] == fp && same_band(heads[i])) {
      next[row] = heads[i];
      heads[i] = row;
      return;
    }
    i = (i + 1) & mask;
  }
  fingerprints[i] = fp;
  heads[i] = row;
  ++used;
}

void LshBandIndex::BandTable::Prefetch(uint64_t fp) const {
  if (heads.empty()) return;
  const size_t i = MixHash(fp) & (heads.size() - 1);
  __builtin_prefetch(&heads[i]);
  __builtin_prefetch(&fingerprints[i]);
}

void LshBandIndex::BandTable::Grow() {
  const size_t capacity = heads.empty() ? 1024 : heads.size() * 2;
  std::vector<uint64_t> old_fps = std::move(fingerprints);
  std::vector<uint32_t> old_heads = std::move(heads);
  fingerprints.assign(capacity, 0);
  heads.assign(capacity, kNoRow);
  const size_t mask = capacity - 1;
  for (size_t s = 0; s < old_heads.size(); ++s) {
    if (old_heads[s] == kNoRow) continue;
    size_t i = MixHash(old_fps[s]) & mask;
    while (heads[i] != kNoRow) i = (i + 1) & mask;
    fingerprints[i] = old_fps[s];
    heads[i] = old_heads[s];
  }
}

LshBandIndex::LshBandIndex(size_t filter_bits, size_t num_tables,
                           size_t bits_per_key, uint64_t seed)
    : rng_(seed),
      blocker_(filter_bits, num_tables, bits_per_key, rng_),
      tables_(num_tables),
      rows_(0, filter_bits),
      band_checksum_(kFnvOffset) {}

LshBandIndex::LshBandIndex(size_t filter_bits, size_t num_tables,
                           size_t bits_per_key, uint64_t seed, BitMatrix rows)
    : LshBandIndex(filter_bits, num_tables, bits_per_key, seed) {
  if (rows.num_rows() == 0) return;
  assert(rows.num_bits() == filter_bits);
  rows_ = std::move(rows);
  for (BandTable& table : tables_) table.next.reserve(rows_.num_rows());
  for (size_t row = 0; row < rows_.num_rows(); ++row) {
    IndexRow(static_cast<uint32_t>(row));
  }
}

uint64_t LshBandIndex::FingerprintWords(const uint64_t* words,
                                        size_t table) const {
  const std::vector<uint32_t>& positions = blocker_.positions()[table];
  if (positions.size() <= 64) {
    // Packed sampled bits: injective, so fingerprint equality IS string-key
    // equality of HammingLshBlocker::Keys for this table.
    uint64_t fp = 0;
    for (size_t i = 0; i < positions.size(); ++i) {
      fp |= ((words[positions[i] >> 6] >> (positions[i] & 63)) & 1) << i;
    }
    return fp;
  }
  uint64_t h = kFnvOffset;
  for (uint32_t pos : positions) {
    h = (h ^ ((words[pos >> 6] >> (pos & 63)) & 1)) * kFnvPrime;
  }
  return h;
}

bool LshBandIndex::SameBand(const uint64_t* words, uint32_t row,
                            size_t table) const {
  const std::vector<uint32_t>& positions = blocker_.positions()[table];
  if (positions.size() <= 64) return true;
  const uint64_t* indexed = rows_.row(row);
  for (uint32_t pos : positions) {
    if (((words[pos >> 6] ^ indexed[pos >> 6]) >> (pos & 63)) & 1) return false;
  }
  return true;
}

uint64_t LshBandIndex::BandFingerprint(const BitVector& bf,
                                       size_t table) const {
  assert(bf.size() == filter_bits());
  return FingerprintWords(bf.words().data(), table);
}

void LshBandIndex::IndexRow(uint32_t row) {
  const uint64_t* words = rows_.row(row);
  for (size_t t = 0; t < tables_.size(); ++t) {
    const uint64_t fp = FingerprintWords(words, t);
    tables_[t].Insert(fp, row, [&](uint32_t head) {
      return SameBand(words, head, t);
    });
    for (int b = 0; b < 8; ++b) {
      band_checksum_ = (band_checksum_ ^ ((fp >> (8 * b)) & 0xff)) * kFnvPrime;
    }
  }
}

uint32_t LshBandIndex::Append(const BitVector& filter) {
  assert(filter.size() == filter_bits());
  const uint32_t row = static_cast<uint32_t>(rows_.AppendRow(filter));
  IndexRow(row);
  return row;
}

uint32_t LshBandIndex::AppendFrom(const BitMatrix& src, size_t src_row) {
  assert(src.num_bits() == rows_.num_bits());
  const uint32_t row = static_cast<uint32_t>(rows_.AppendRow());
  std::memcpy(rows_.mutable_row(row), src.row(src_row),
              rows_.words_per_row() * sizeof(uint64_t));
  rows_.RecountRow(row);
  IndexRow(row);
  return row;
}

void LshBandIndex::Probe(const BitVector& probe,
                         std::vector<uint32_t>* out) const {
  assert(probe.size() == filter_bits());
  ProbeWords(probe.words().data(), out);
}

void LshBandIndex::ProbeWords(const uint64_t* words,
                              std::vector<uint32_t>* out) const {
  out->clear();
  uint64_t scanned = 0;
  // Tables are probed in batches. A batch's home slots are prefetched
  // before any lookup, and its chains are walked in lockstep, one link of
  // every chain per round: the lookups and the links of different tables
  // are independent, so their cache misses overlap instead of queueing
  // behind one dependent load after another. The sort below restores
  // ascending row order.
  constexpr size_t kBatch = 32;
  uint64_t fps[kBatch];
  uint32_t cursor[kBatch];
  for (size_t first = 0; first < tables_.size(); first += kBatch) {
    const size_t n = std::min(kBatch, tables_.size() - first);
    for (size_t k = 0; k < n; ++k) {
      fps[k] = FingerprintWords(words, first + k);
      tables_[first + k].Prefetch(fps[k]);
    }
    for (size_t k = 0; k < n; ++k) {
      const size_t t = first + k;
      cursor[k] = tables_[t].Find(
          fps[k], [&](uint32_t row) { return SameBand(words, row, t); });
    }
    for (bool active = true; active;) {
      active = false;
      for (size_t k = 0; k < n; ++k) {
        const uint32_t row = cursor[k];
        if (row == kNoRow) continue;
        out->push_back(row);
        ++scanned;
        cursor[k] = tables_[first + k].next[row];
        active = true;
      }
    }
  }
  probed_entries_.fetch_add(scanned, std::memory_order_relaxed);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::vector<CandidatePair> LshBandIndex::CandidatePairs(
    const BitMatrix& a_rows) const {
  assert(a_rows.num_rows() == 0 || a_rows.num_bits() == filter_bits());
  std::vector<CandidatePair> pairs;
  std::vector<uint32_t> bs;
  for (size_t a = 0; a < a_rows.num_rows(); ++a) {
    ProbeWords(a_rows.row(a), &bs);
    for (uint32_t b : bs) pairs.push_back({static_cast<uint32_t>(a), b});
  }
  return pairs;
}

void LshBandIndex::StreamCandidateRuns(const BitMatrix& a_rows,
                                       size_t shard_size,
                                       const CandidateShardFn& emit) const {
  assert(a_rows.num_rows() == 0 || a_rows.num_bits() == filter_bits());
  RunShardEmitter shards(shard_size, emit);
  std::vector<uint32_t> bs;
  for (size_t a = 0; a < a_rows.num_rows(); ++a) {
    ProbeWords(a_rows.row(a), &bs);
    shards.AppendCandidates(static_cast<uint32_t>(a), bs);
  }
  shards.Flush();
}

}  // namespace pprl
