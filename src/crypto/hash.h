#ifndef PPRL_CRYPTO_HASH_H_
#define PPRL_CRYPTO_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pprl {

/// MD5 digest (16 bytes). Used only as one leg of the classic
/// double-hashing scheme for Bloom-filter encodings [33]; not for security.
std::array<uint8_t, 16> Md5(std::string_view data);

/// SHA-1 digest (20 bytes).
std::array<uint8_t, 20> Sha1(std::string_view data);

/// SHA-256 digest (32 bytes).
std::array<uint8_t, 32> Sha256(std::string_view data);

/// HMAC-SHA-256 with the key-dependent work done once. Keyed hashing is the
/// survey's standard defence that keeps a dictionary-equipped adversary from
/// hashing candidate QID values itself.
///
/// The constructor compresses the ipad and opad key blocks into two SHA-256
/// midstates; Mac() resumes from them, so a message under 56 bytes costs
/// exactly two compressions instead of four. Build one per key and reuse it
/// for every value hashed under that key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::string_view key);

  std::array<uint8_t, 32> Mac(std::string_view data) const;

 private:
  std::array<uint32_t, 8> inner_;  ///< state after the (key ^ ipad) block
  std::array<uint32_t, 8> outer_;  ///< state after the (key ^ opad) block
};

/// One-shot HMAC-SHA-256; prefer HmacSha256Key when one key hashes many values.
inline std::array<uint8_t, 32> HmacSha256(std::string_view key, std::string_view data) {
  return HmacSha256Key(key).Mac(data);
}

/// The SHA-256 compression function every digest above runs through. Each
/// kernel folds `num_blocks` consecutive 64-byte blocks into `state`.
/// Sha256Compress picks the SHA-NI kernel once per process when the CPU has
/// the SHA extensions (the same __builtin_cpu_supports dispatch the
/// comparison and CSV kernels use) and the scalar kernel otherwise. The
/// kernels are exposed so tests can check them against each other.
void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t num_blocks);
void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks, size_t num_blocks);
#if defined(__x86_64__) && defined(__GNUC__)
#define PPRL_HAVE_SHA_NI_KERNEL 1
/// Requires ShaNiAvailable().
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t num_blocks);
#endif
/// True when this CPU has the SHA extensions, i.e. Sha256Compress runs the
/// SHA-NI kernel.
bool ShaNiAvailable();

/// First 8 bytes of a digest as a little-endian integer, for use as a hash
/// value in [0, 2^64).
template <size_t N>
uint64_t DigestToUint64(const std::array<uint8_t, N>& digest) {
  static_assert(N >= 8);
  uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | digest[static_cast<size_t>(i)];
  return out;
}

/// Lanes of the batch MD5+SHA-1 kernel behind Md5Sha1Seeds.
inline constexpr size_t kHashLanes = 16;

/// The two seeds of double hashing for `n` messages at once:
/// md5[i] = DigestToUint64(Md5(messages[i])) and
/// sha1[i] = DigestToUint64(Sha1(messages[i])).
///
/// A message under 56 bytes is one padded block. The block is built once per
/// lane and MD5 and SHA-1 run over 16 lanes together; SHA-1 reads the same
/// words byte-swapped. Longer messages take the scalar Md5/Sha1, which stay
/// the reference. Md5Sha1Seeds picks the widest 16-lane kernel build the CPU
/// runs (AVX-512F, AVX2, else the baseline ISA) once per process, like
/// Sha256Compress; the builds are exposed so tests can check each.
void Md5Sha1Seeds(const std::string_view* messages, size_t n, uint64_t* md5,
                  uint64_t* sha1);
void Md5Sha1SeedsBaseline(const std::string_view* messages, size_t n, uint64_t* md5,
                          uint64_t* sha1);
#if defined(__x86_64__) && defined(__GNUC__)
#define PPRL_HAVE_MD5_SHA1_X16_KERNELS 1
/// Requires __builtin_cpu_supports("avx2").
void Md5Sha1SeedsAvx2(const std::string_view* messages, size_t n, uint64_t* md5,
                      uint64_t* sha1);
/// Requires __builtin_cpu_supports("avx512f").
void Md5Sha1SeedsAvx512(const std::string_view* messages, size_t n, uint64_t* md5,
                        uint64_t* sha1);
#endif

/// x mod d for a fixed divisor without a division instruction: the exact
/// 128-bit-magic remainder of Lemire, Kaser & Kurz (2019),
/// M = floor((2^128 - 1) / d) + 1 and x mod d = ((M * x mod 2^128) * d) >> 128,
/// exact for every 64-bit x and d >= 1. Maps hash values to filter positions.
class ExactRemainder {
 public:
  /// `d` must be >= 1 (for d == 1, M wraps to 0 and every remainder is 0).
  explicit ExactRemainder(uint64_t d)
      : d_(d), m_(d == 0 ? 0 : ~Uint128{0} / d + 1) {}

  uint64_t operator()(uint64_t x) const {
    const Uint128 low = m_ * x;
    const auto lo = static_cast<uint64_t>(low);
    const auto hi = static_cast<uint64_t>(low >> 64);
    // Bits 128..191 of low * d, split as hi * d * 2^64 + lo * d.
    const Uint128 top = static_cast<Uint128>(hi) * d_ +
                        ((static_cast<Uint128>(lo) * d_) >> 64);
    return static_cast<uint64_t>(top >> 64);
  }

 private:
  __extension__ typedef unsigned __int128 Uint128;
  uint64_t d_;
  Uint128 m_;
};

/// Hex rendering of a digest (lower-case).
template <size_t N>
std::string DigestToHex(const std::array<uint8_t, N>& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(2 * N);
  for (uint8_t b : digest) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

/// 64-bit tabulation hash family: cheap, 3-independent, seedable.
/// Used for MinHash signatures and LSH where cryptographic strength is not
/// required but independence across seeds is.
class TabulationHash {
 public:
  /// Builds the 8x256 random table from `seed`.
  explicit TabulationHash(uint64_t seed);

  /// Hashes an arbitrary byte string.
  uint64_t Hash(std::string_view data) const;

  /// Hashes a 64-bit value.
  uint64_t Hash64(uint64_t x) const;

 private:
  std::array<std::array<uint64_t, 256>, 8> table_;
};

}  // namespace pprl

#endif  // PPRL_CRYPTO_HASH_H_
