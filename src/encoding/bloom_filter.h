#ifndef PPRL_ENCODING_BLOOM_FILTER_H_
#define PPRL_ENCODING_BLOOM_FILTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"
#include "common/record.h"
#include "common/status.h"
#include "common/strings.h"
#include "crypto/hash.h"

namespace pprl {

/// How token -> bit positions are derived.
enum class BloomHashScheme {
  /// Classic double hashing h_j = MD5(t) + j * SHA1(t) mod l [33]. Fast but
  /// famously attackable when unkeyed.
  kDoubleHashing,
  /// k positions from HMAC-SHA256(secret_key, token || j): the keyed variant
  /// that defeats dictionary attacks as long as the key stays secret.
  kKeyedHmac,
};

/// Parameters of a Bloom-filter encoding (Figure 2 of the survey).
struct BloomFilterParams {
  size_t num_bits = 1000;        ///< l, the filter length
  size_t num_hashes = 30;        ///< k, hash functions per token
  BloomHashScheme scheme = BloomHashScheme::kDoubleHashing;
  std::string secret_key;        ///< required for kKeyedHmac

  /// Validates the parameter combination.
  Status Validate() const;
};

/// Encodes token sets into Bloom filters.
///
/// This is the survey's flagship probabilistic privacy technology (§3.4,
/// Figure 2 left): the q-gram set of a string QID is hash-mapped into a bit
/// array, and Dice similarity on the bit arrays approximates Dice similarity
/// on the q-gram sets.
class BloomFilterEncoder {
 public:
  /// Builds the HMAC key state once (kKeyedHmac), so hashing a token never
  /// touches the key again.
  explicit BloomFilterEncoder(BloomFilterParams params);

  /// Maps an explicit token set into a filter.
  BitVector EncodeTokens(const std::vector<std::string>& tokens) const;

  /// Convenience: q-gram tokenisation (after QID normalisation) followed by
  /// EncodeTokens.
  BitVector EncodeString(const std::string& value, const QGramOptions& qgrams = {}) const;

  /// Bit positions a single token maps to (exposed for the cryptanalysis
  /// attack module, which needs the same mapping the encoder uses).
  std::vector<uint32_t> TokenPositions(std::string_view token) const;

  /// Sets the token's k positions in `filter` (of params().num_bits bits).
  /// `scratch` holds the keyed scheme's per-hash message; passing the same
  /// string for every token keeps the hot path free of allocation.
  void AddToken(std::string_view token, BitVector& filter, std::string& scratch) const;

  const BloomFilterParams& params() const { return params_; }

 private:
  friend class ClkEncoder;  // hashes its tokens in batches, then sets positions here

  template <typename Sink>
  void ForEachPosition(std::string_view token, std::string& scratch, Sink&& sink) const;

  /// Double hashing's k positions (h1 + j * h2) mod l, j < k: the one
  /// mapping of seeds to positions, whether the seeds come from one token
  /// (ForEachPosition) or from a batch (ClkEncoder::Encode).
  template <typename Sink>
  void ForEachDoubleHashPosition(uint64_t h1, uint64_t h2, Sink&& sink) const;

  BloomFilterParams params_;
  HmacSha256Key hmac_;  ///< keyed by params_.secret_key; used by kKeyedHmac only
  ExactRemainder position_;  ///< x mod params_.num_bits
};

/// Per-field configuration of a record-level encoding.
struct ClkFieldConfig {
  std::string field_name;
  /// Hash functions used for this field's tokens; fields with higher
  /// discriminating power get more (weighted CLK).
  size_t num_hashes = 20;
  /// q-gram length for string fields; ignored for numeric fields.
  size_t q = 2;
  /// For numeric fields: tokens are generated for value, value +- step, ...
  /// (see NumericNeighborhoodTokens). 0 marks the field as a string field.
  double numeric_step = 0;
  size_t numeric_neighbors = 0;
};

/// Cryptographic Long-term Key (CLK): all QIDs of a record hashed into one
/// filter, the standard record-level encoding of Schnell et al. [33].
class ClkEncoder {
 public:
  /// `params.num_hashes` is ignored; per-field counts come from `fields`.
  /// The parameters are validated and the per-field encoders built here;
  /// invalid parameters make every Encode() call return the error.
  ClkEncoder(BloomFilterParams params, std::vector<ClkFieldConfig> fields);

  /// Encodes the configured fields of `record` under `schema` into one CLK.
  /// Fields missing from the schema are reported as InvalidArgument.
  Result<BitVector> Encode(const Schema& schema, const Record& record) const;

  /// Encodes every record of `db`; stops at the first error.
  Result<std::vector<BitVector>> EncodeDatabase(const Database& db) const;

  const BloomFilterParams& params() const { return params_; }
  const std::vector<ClkFieldConfig>& fields() const { return fields_; }

 private:
  /// Calls fn(field, gram, occurrence) for every token of `record`: the
  /// q-grams of each normalised string field, or a numeric field's
  /// neighbourhood tokens (occurrence 0).
  template <typename Fn>
  Status ForEachToken(const Schema& schema, const Record& record, Fn&& fn) const;

  BloomFilterParams params_;
  std::vector<ClkFieldConfig> fields_;
  Status params_status_;  ///< params_.Validate(), checked once
  /// One encoder per field (fields_[i].num_hashes hashes), built once.
  std::vector<BloomFilterEncoder> field_encoders_;
  /// fields_[i].field_name + '\x1e': the prefix that makes tokens field-distinct.
  std::vector<std::string> token_prefixes_;
};

}  // namespace pprl

#endif  // PPRL_ENCODING_BLOOM_FILTER_H_
