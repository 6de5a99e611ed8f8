#include "encoding/bloom_filter.h"

#include <charconv>
#include <cstring>

#include "crypto/hash.h"
#include "encoding/numeric_encoding.h"

namespace pprl {

namespace {

/// A CLK token: the field prefix, the gram and, for the i-th repeat of a
/// gram (i >= 1), '#' and i in decimal, as QGrams spells it.
class ClkToken {
 public:
  ClkToken(std::string_view prefix, std::string_view gram, size_t occurrence)
      : prefix_(prefix), gram_(gram) {
    if (occurrence > 0) {
      suffix_[0] = '#';
      suffix_size_ = static_cast<size_t>(
          std::to_chars(suffix_ + 1, suffix_ + sizeof(suffix_), occurrence).ptr - suffix_);
    }
  }

  size_t size() const { return prefix_.size() + gram_.size() + suffix_size_; }

  /// Writes the size() token bytes to `out`.
  void CopyTo(char* out) const {
    std::memcpy(out, prefix_.data(), prefix_.size());
    out += prefix_.size();
    if (!gram_.empty()) std::memcpy(out, gram_.data(), gram_.size());
    std::memcpy(out + gram_.size(), suffix_, suffix_size_);
  }

  void AssignTo(std::string& out) const {
    out.resize(size());
    CopyTo(out.data());
  }

 private:
  std::string_view prefix_;
  std::string_view gram_;
  char suffix_[24];
  size_t suffix_size_ = 0;
};

}  // namespace

Status BloomFilterParams::Validate() const {
  if (num_bits == 0) return Status::InvalidArgument("num_bits must be > 0");
  if (num_hashes == 0) return Status::InvalidArgument("num_hashes must be > 0");
  if (scheme == BloomHashScheme::kKeyedHmac && secret_key.empty()) {
    return Status::InvalidArgument("keyed HMAC scheme requires a secret key");
  }
  return Status::OK();
}

BloomFilterEncoder::BloomFilterEncoder(BloomFilterParams params)
    : params_(std::move(params)), hmac_(params_.secret_key), position_(params_.num_bits) {}

template <typename Sink>
void BloomFilterEncoder::ForEachDoubleHashPosition(uint64_t h1, uint64_t h2,
                                                   Sink&& sink) const {
  for (uint64_t j = 0; j < params_.num_hashes; ++j) {
    sink(static_cast<uint32_t>(position_(h1 + j * h2)));
  }
}

template <typename Sink>
void BloomFilterEncoder::ForEachPosition(std::string_view token, std::string& scratch,
                                         Sink&& sink) const {
  switch (params_.scheme) {
    case BloomHashScheme::kDoubleHashing: {
      ForEachDoubleHashPosition(DigestToUint64(Md5(token)), DigestToUint64(Sha1(token)),
                                sink);
      break;
    }
    case BloomHashScheme::kKeyedHmac: {
      // Message j is token || 0x1f || decimal(j), rewritten in place.
      scratch.assign(token);
      scratch += '\x1f';
      const size_t prefix = scratch.size();
      for (size_t j = 0; j < params_.num_hashes; ++j) {
        char digits[20];
        const auto end = std::to_chars(digits, digits + sizeof(digits), j).ptr;
        scratch.resize(prefix);
        scratch.append(digits, end);
        sink(static_cast<uint32_t>(position_(DigestToUint64(hmac_.Mac(scratch)))));
      }
      break;
    }
  }
}

std::vector<uint32_t> BloomFilterEncoder::TokenPositions(std::string_view token) const {
  std::vector<uint32_t> positions;
  positions.reserve(params_.num_hashes);
  std::string scratch;
  ForEachPosition(token, scratch, [&](uint32_t pos) { positions.push_back(pos); });
  return positions;
}

void BloomFilterEncoder::AddToken(std::string_view token, BitVector& filter,
                                  std::string& scratch) const {
  ForEachPosition(token, scratch, [&](uint32_t pos) { filter.Set(pos); });
}

BitVector BloomFilterEncoder::EncodeTokens(const std::vector<std::string>& tokens) const {
  BitVector filter(params_.num_bits);
  std::string scratch;
  for (const std::string& token : tokens) AddToken(token, filter, scratch);
  return filter;
}

BitVector BloomFilterEncoder::EncodeString(const std::string& value,
                                           const QGramOptions& qgrams) const {
  return EncodeTokens(QGrams(NormalizeQid(value), qgrams));
}

ClkEncoder::ClkEncoder(BloomFilterParams params, std::vector<ClkFieldConfig> fields)
    : params_(std::move(params)),
      fields_(std::move(fields)),
      params_status_(params_.Validate()) {
  field_encoders_.reserve(fields_.size());
  token_prefixes_.reserve(fields_.size());
  for (const ClkFieldConfig& field : fields_) {
    BloomFilterParams field_params = params_;
    field_params.num_hashes = field.num_hashes;
    field_encoders_.emplace_back(std::move(field_params));
    // Field-distinct tokens: "jo" in a first name and "jo" in a surname map
    // to different positions.
    token_prefixes_.push_back(field.field_name + '\x1e');
  }
}

template <typename Fn>
Status ClkEncoder::ForEachToken(const Schema& schema, const Record& record,
                                Fn&& fn) const {
  std::string normalized;
  for (size_t f = 0; f < fields_.size(); ++f) {
    const ClkFieldConfig& field = fields_[f];
    const int idx = schema.FieldIndex(field.field_name);
    if (idx < 0) {
      return Status::InvalidArgument("CLK field '" + field.field_name +
                                     "' not in schema");
    }
    if (static_cast<size_t>(idx) >= record.values.size()) {
      return Status::InvalidArgument("record has no value for field '" +
                                     field.field_name + "'");
    }
    const std::string& raw = record.values[static_cast<size_t>(idx)];
    if (field.numeric_step > 0) {
      auto numeric_tokens = NumericNeighborhoodTokens(raw, field.numeric_step,
                                                      field.numeric_neighbors);
      if (!numeric_tokens.ok()) return numeric_tokens.status();
      for (const std::string& token : *numeric_tokens) fn(f, token, size_t{0});
    } else {
      QGramOptions opts;
      opts.q = field.q;
      NormalizeQidInto(raw, normalized);
      ForEachQGram(normalized, opts, [&](std::string_view gram, size_t occurrence) {
        fn(f, gram, occurrence);
      });
    }
  }
  return Status::OK();
}

Result<BitVector> ClkEncoder::Encode(const Schema& schema, const Record& record) const {
  PPRL_RETURN_IF_ERROR(params_status_);
  BitVector clk(params_.num_bits);
  const auto set = [&clk](uint32_t pos) { clk.Set(pos); };
  // Double hashing: tokens that fit one padded MD5/SHA-1 block (55 bytes)
  // are written straight into lanes and hashed 16 at a time. Longer tokens,
  // and every token of the keyed scheme, take the single-token path.
  const bool batched = params_.scheme == BloomHashScheme::kDoubleHashing;
  char lane_tokens[kHashLanes][55];
  std::string_view lanes[kHashLanes];
  size_t lane_fields[kHashLanes];
  size_t num_lanes = 0;
  const auto hash_lanes = [&] {
    uint64_t h1[kHashLanes];
    uint64_t h2[kHashLanes];
    Md5Sha1Seeds(lanes, num_lanes, h1, h2);
    for (size_t l = 0; l < num_lanes; ++l) {
      field_encoders_[lane_fields[l]].ForEachDoubleHashPosition(h1[l], h2[l], set);
    }
    num_lanes = 0;
  };
  std::string token;
  std::string scratch;
  const Status status = ForEachToken(
      schema, record, [&](size_t f, std::string_view gram, size_t occurrence) {
        const ClkToken parts(token_prefixes_[f], gram, occurrence);
        if (batched && parts.size() <= sizeof(lane_tokens[0])) {
          parts.CopyTo(lane_tokens[num_lanes]);
          lanes[num_lanes] = std::string_view(lane_tokens[num_lanes], parts.size());
          lane_fields[num_lanes] = f;
          if (++num_lanes == kHashLanes) hash_lanes();
          return;
        }
        parts.AssignTo(token);
        field_encoders_[f].AddToken(token, clk, scratch);
      });
  PPRL_RETURN_IF_ERROR(status);
  if (num_lanes > 0) hash_lanes();
  return clk;
}

Result<std::vector<BitVector>> ClkEncoder::EncodeDatabase(const Database& db) const {
  std::vector<BitVector> out;
  out.reserve(db.records.size());
  for (const Record& record : db.records) {
    auto encoded = Encode(db.schema, record);
    if (!encoded.ok()) return encoded.status();
    out.push_back(std::move(encoded).value());
  }
  return out;
}

}  // namespace pprl
