#include "crypto/hash.h"

#include <algorithm>
#include <bit>
#include <cstring>

#ifdef PPRL_HAVE_SHA_NI_KERNEL
#include <immintrin.h>
#endif

#include "common/random.h"

namespace pprl {

namespace {

uint32_t RotL32(uint32_t x, int n) { return std::rotl(x, n); }
uint32_t RotR32(uint32_t x, int n) { return std::rotr(x, n); }

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// Whole-word stores (byte-by-byte ones get vectorised into long shuffle
/// chains that cost more than the compression they feed).
template <typename T>
void StoreBe(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
void StoreLe(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// Finishes a Merkle-Damgard hash (MD5, SHA-1, SHA-256): runs `compress`
/// over the full 64-byte blocks of `data` in place, then over the padded
/// tail (0x80, zeros, 64-bit bit length) built in a stack block — one block
/// when fewer than 56 bytes remain, two otherwise. `prefix_bytes` counts
/// bytes already compressed into the state (an HMAC key block) so the length
/// field covers the whole message. MD5 stores the length little-endian,
/// SHA-1/SHA-256 big-endian.
template <bool kBigEndianLength, typename Compress>
void AbsorbPadded(std::string_view data, uint64_t prefix_bytes, Compress compress) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(data.data());
  const size_t full = data.size() / 64;
  const size_t rest = data.size() % 64;
  if (full > 0) compress(bytes, full);
  alignas(16) uint8_t tail[128] = {};
  if (rest > 0) std::memcpy(tail, bytes + 64 * full, rest);
  tail[rest] = 0x80;
  const size_t tail_len = rest < 56 ? 64 : 128;
  const uint64_t bit_len = (prefix_bytes + data.size()) * 8;
  if constexpr (kBigEndianLength) {
    StoreBe(tail + tail_len - 8, bit_len);
  } else {
    StoreLe(tail + tail_len - 8, bit_len);
  }
  compress(tail, tail_len / 64);
}

constexpr uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

constexpr int kMd5Shift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                               5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                               4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                               6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

alignas(16) constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::array<uint32_t, 8> kSha256Init = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                 0x1f83d9ab, 0x5be0cd19};

/// One MD5 step; `F` is the round function of the step's quarter.
template <typename F>
inline void Md5Step(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d, uint32_t m,
                    int i, F f) {
  const uint32_t t = f(b, c, d) + a + kMd5K[i] + m;
  a = d;
  d = c;
  c = b;
  b = b + RotL32(t, kMd5Shift[i]);
}

/// The four quarters run as separate branch-free loops, which the compiler
/// unrolls with constant shifts and message indexes.
void Md5Compress(uint32_t state[4], const uint8_t* blocks, size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = LoadLe32(blocks + 4 * i);
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (int i = 0; i < 16; ++i) {
      Md5Step(a, b, c, d, m[i], i,
              [](uint32_t x, uint32_t y, uint32_t z) { return (x & y) | (~x & z); });
    }
    for (int i = 16; i < 32; ++i) {
      Md5Step(a, b, c, d, m[(5 * i + 1) % 16], i,
              [](uint32_t x, uint32_t y, uint32_t z) { return (z & x) | (~z & y); });
    }
    for (int i = 32; i < 48; ++i) {
      Md5Step(a, b, c, d, m[(3 * i + 5) % 16], i,
              [](uint32_t x, uint32_t y, uint32_t z) { return x ^ y ^ z; });
    }
    for (int i = 48; i < 64; ++i) {
      Md5Step(a, b, c, d, m[(7 * i) % 16], i,
              [](uint32_t x, uint32_t y, uint32_t z) { return y ^ (x | ~z); });
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  }
}

/// One SHA-1 round; `F` is the round function of the round's quarter.
template <typename F>
inline void Sha1Step(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d, uint32_t& e,
                     uint32_t w, uint32_t k, F f) {
  const uint32_t temp = RotL32(a, 5) + f(b, c, d) + e + k + w;
  e = d;
  d = c;
  c = RotL32(b, 30);
  b = a;
  a = temp;
}

/// Same shape as Md5Compress; GCC needs the unroll hints to fold the ring
/// indexes and round constants here.
void Sha1Compress(uint32_t state[5], const uint8_t* blocks, size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    // The message schedule lives in a 16-word ring: W[i] for i >= 16 is
    // computed in place of W[i - 16], just before round i uses it.
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(blocks + 4 * i);
    auto schedule = [&w](int i) {
      if (i >= 16) {
        w[i & 15] =
            RotL32(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
      }
      return w[i & 15];
    };
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
#pragma GCC unroll 20
    for (int i = 0; i < 20; ++i) {
      Sha1Step(a, b, c, d, e, schedule(i), 0x5a827999,
               [](uint32_t x, uint32_t y, uint32_t z) { return (x & y) | (~x & z); });
    }
#pragma GCC unroll 20
    for (int i = 20; i < 40; ++i) {
      Sha1Step(a, b, c, d, e, schedule(i), 0x6ed9eba1,
               [](uint32_t x, uint32_t y, uint32_t z) { return x ^ y ^ z; });
    }
#pragma GCC unroll 20
    for (int i = 40; i < 60; ++i) {
      Sha1Step(a, b, c, d, e, schedule(i), 0x8f1bbcdc,
               [](uint32_t x, uint32_t y, uint32_t z) {
                 return (x & y) | (x & z) | (y & z);
               });
    }
#pragma GCC unroll 20
    for (int i = 60; i < 80; ++i) {
      Sha1Step(a, b, c, d, e, schedule(i), 0xca62c1d6,
               [](uint32_t x, uint32_t y, uint32_t z) { return x ^ y ^ z; });
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

// ---- 16-lane MD5 + SHA-1 over one-block messages ----------------------------
//
// One source, written with GCC vector extensions: a U32x16 holds one 32-bit
// word of each of the 16 lanes. The body is force-inlined into one function
// per ISA build below, so the same code becomes 512-bit AVX-512 (where GCC
// turns the Boolean round functions into vpternlogd and the rotates into
// vprold), two 256-bit AVX2 halves, or four SSE2 quarters.

typedef uint32_t U32x16 __attribute__((vector_size(64)));

// The helpers below pass U32x16 by value but are always inlined, so the
// warning that their out-of-line ABI differs between ISA builds is moot. GCC
// reports it at the end of the file, so it stays off from here on.
#pragma GCC diagnostic ignored "-Wpsabi"

#define PPRL_LANES_INLINE inline __attribute__((always_inline))

PPRL_LANES_INLINE U32x16 RotL32x16(U32x16 x, int n) { return (x << n) | (x >> (32 - n)); }

PPRL_LANES_INLINE U32x16 ByteSwap32x16(U32x16 x) {
  return (x << 24) | ((x & 0xff00) << 8) | ((x >> 8) & 0xff00) | (x >> 24);
}

/// MD5 and SHA-1 of 16 one-block messages. words[k][lane] is word k of the
/// lane's padded block read little-endian, MD5's order; SHA-1 reads the same
/// words byte-swapped, except that its 64-bit length field is big-endian:
/// words 14 and 15 (the length's low and high halves for MD5) trade places
/// unswapped. state[0..1][lane] get MD5's first two state words and
/// state[2..3][lane] SHA-1's: the eight digest bytes double hashing uses.
PPRL_LANES_INLINE void Md5Sha1x16Body(const uint32_t (*words)[kHashLanes],
                                      uint32_t (*state)[kHashLanes]) {
  U32x16 m[16];
  for (int k = 0; k < 16; ++k) std::memcpy(&m[k], words[k], sizeof(U32x16));

  const U32x16 zero = {};
  U32x16 a = zero + 0x67452301u, b = zero + 0xefcdab89u;
  U32x16 c = zero + 0x98badcfeu, d = zero + 0x10325476u;
#pragma GCC unroll 64
  for (int i = 0; i < 64; ++i) {
    U32x16 f;
    int g;
    if (i < 16) {
      f = d ^ (b & (c ^ d));
      g = i;
    } else if (i < 32) {
      f = c ^ (d & (b ^ c));
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const U32x16 t = f + a + kMd5K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b = b + RotL32x16(t, kMd5Shift[i]);
  }
  a += 0x67452301u;
  b += 0xefcdab89u;
  std::memcpy(state[0], &a, sizeof(U32x16));
  std::memcpy(state[1], &b, sizeof(U32x16));

  U32x16 w[16];
  for (int k = 0; k < 14; ++k) w[k] = ByteSwap32x16(m[k]);
  w[14] = m[15];
  w[15] = m[14];
  a = zero + 0x67452301u;
  b = zero + 0xefcdab89u;
  c = zero + 0x98badcfeu;
  d = zero + 0x10325476u;
  U32x16 e = zero + 0xc3d2e1f0u;
#pragma GCC unroll 80
  for (int i = 0; i < 80; ++i) {
    if (i >= 16) {
      w[i & 15] =
          RotL32x16(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
    }
    U32x16 f;
    uint32_t k;
    if (i < 20) {
      f = d ^ (b & (c ^ d));
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (d & (b | c));
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    const U32x16 t = RotL32x16(a, 5) + f + e + k + w[i & 15];
    e = d;
    d = c;
    c = RotL32x16(b, 30);
    b = a;
    a = t;
  }
  a += 0x67452301u;
  b += 0xefcdab89u;
  std::memcpy(state[2], &a, sizeof(U32x16));
  std::memcpy(state[3], &b, sizeof(U32x16));
}

#undef PPRL_LANES_INLINE

using Md5Sha1x16Kernel = void (*)(const uint32_t (*)[kHashLanes],
                                  uint32_t (*)[kHashLanes]);

void Md5Sha1x16Baseline(const uint32_t (*words)[kHashLanes],
                        uint32_t (*state)[kHashLanes]) {
  Md5Sha1x16Body(words, state);
}

#ifdef PPRL_HAVE_MD5_SHA1_X16_KERNELS
__attribute__((target("avx2"))) void Md5Sha1x16Avx2(const uint32_t (*words)[kHashLanes],
                                                     uint32_t (*state)[kHashLanes]) {
  Md5Sha1x16Body(words, state);
}

__attribute__((target("avx512f"))) void Md5Sha1x16Avx512(
    const uint32_t (*words)[kHashLanes], uint32_t (*state)[kHashLanes]) {
  Md5Sha1x16Body(words, state);
}
#endif

/// Packs the one-block messages among `messages` into lanes, 16 per kernel
/// call, and hashes the rest with the scalar reference.
void Md5Sha1SeedsWith(Md5Sha1x16Kernel kernel, const std::string_view* messages,
                      size_t n, uint64_t* md5, uint64_t* sha1) {
  alignas(64) uint32_t words[16][kHashLanes];
  alignas(64) uint32_t state[4][kHashLanes];
  size_t lane_message[kHashLanes];
  size_t lanes = 0;
  const auto run = [&] {
    for (auto& word : words) std::fill(word + lanes, word + kHashLanes, 0u);
    kernel(words, state);
    for (size_t l = 0; l < lanes; ++l) {
      const size_t i = lane_message[l];
      md5[i] = state[0][l] | (uint64_t{state[1][l]} << 32);
      sha1[i] = __builtin_bswap32(state[2][l]) |
                (uint64_t{__builtin_bswap32(state[3][l])} << 32);
    }
    lanes = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    const std::string_view message = messages[i];
    if (message.size() >= 56) {
      md5[i] = DigestToUint64(Md5(message));
      sha1[i] = DigestToUint64(Sha1(message));
      continue;
    }
    alignas(16) uint8_t block[64] = {};
    if (!message.empty()) std::memcpy(block, message.data(), message.size());
    block[message.size()] = 0x80;
    StoreLe(block + 56, uint64_t{message.size()} * 8);
    for (size_t k = 0; k < 16; ++k) words[k][lanes] = LoadLe32(block + 4 * k);
    lane_message[lanes++] = i;
    if (lanes == kHashLanes) run();
  }
  if (lanes > 0) run();
}

/// Big-endian digest bytes of a SHA-256 state.
std::array<uint8_t, 32> Sha256Digest(const std::array<uint32_t, 8>& state) {
  std::array<uint8_t, 32> digest;
  for (size_t r = 0; r < 8; ++r) StoreBe(&digest[4 * r], state[r]);
  return digest;
}

}  // namespace

void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks, size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = RotR32(w[i - 15], 7) ^ RotR32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = RotR32(w[i - 2], 17) ^ RotR32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = RotR32(e, 6) ^ RotR32(e, 11) ^ RotR32(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const uint32_t s0 = RotR32(a, 2) ^ RotR32(a, 13) ^ RotR32(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef PPRL_HAVE_SHA_NI_KERNEL
/// SHA-NI kernel: sha256rnds2 runs two rounds per instruction on the state
/// held as ABEF/CDGH halves, and sha256msg1/msg2 extend the message schedule
/// four words at a time. Each of the 16 groups below is four rounds; the
/// unrolled loop keeps the four schedule registers in `msg` rotating.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(uint32_t state[8],
                                                              const uint8_t* blocks,
                                                              size_t num_blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                  // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);            // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = msg[g & 3];
      if (g < 4) {
        const auto* words = reinterpret_cast<const __m128i*>(blocks + 16 * g);
        cur = _mm_shuffle_epi8(_mm_loadu_si128(words), byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g <= 14) {  // finish the schedule words of group g + 1
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g <= 12) {  // start the schedule words of group g + 3
        __m128i& prev = msg[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }
  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}
#endif

bool ShaNiAvailable() {
#ifdef PPRL_HAVE_SHA_NI_KERNEL
  static const bool have =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  return have;
#else
  return false;
#endif
}

void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t num_blocks) {
#ifdef PPRL_HAVE_SHA_NI_KERNEL
  static const auto kernel =
      ShaNiAvailable() ? Sha256CompressShaNi : Sha256CompressScalar;
  kernel(state, blocks, num_blocks);
#else
  Sha256CompressScalar(state, blocks, num_blocks);
#endif
}

std::array<uint8_t, 16> Md5(std::string_view data) {
  uint32_t state[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  AbsorbPadded</*kBigEndianLength=*/false>(
      data, 0, [&](const uint8_t* blocks, size_t n) { Md5Compress(state, blocks, n); });
  std::array<uint8_t, 16> digest;
  for (size_t r = 0; r < 4; ++r) StoreLe(&digest[4 * r], state[r]);
  return digest;
}

std::array<uint8_t, 20> Sha1(std::string_view data) {
  uint32_t state[5] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0};
  AbsorbPadded</*kBigEndianLength=*/true>(
      data, 0, [&](const uint8_t* blocks, size_t n) { Sha1Compress(state, blocks, n); });
  std::array<uint8_t, 20> digest;
  for (size_t r = 0; r < 5; ++r) StoreBe(&digest[4 * r], state[r]);
  return digest;
}

void Md5Sha1SeedsBaseline(const std::string_view* messages, size_t n, uint64_t* md5,
                          uint64_t* sha1) {
  Md5Sha1SeedsWith(Md5Sha1x16Baseline, messages, n, md5, sha1);
}

#ifdef PPRL_HAVE_MD5_SHA1_X16_KERNELS
void Md5Sha1SeedsAvx2(const std::string_view* messages, size_t n, uint64_t* md5,
                      uint64_t* sha1) {
  Md5Sha1SeedsWith(Md5Sha1x16Avx2, messages, n, md5, sha1);
}

void Md5Sha1SeedsAvx512(const std::string_view* messages, size_t n, uint64_t* md5,
                        uint64_t* sha1) {
  Md5Sha1SeedsWith(Md5Sha1x16Avx512, messages, n, md5, sha1);
}
#endif

void Md5Sha1Seeds(const std::string_view* messages, size_t n, uint64_t* md5,
                  uint64_t* sha1) {
#ifdef PPRL_HAVE_MD5_SHA1_X16_KERNELS
  static const auto seeds = __builtin_cpu_supports("avx512f") ? Md5Sha1SeedsAvx512
                            : __builtin_cpu_supports("avx2")  ? Md5Sha1SeedsAvx2
                                                              : Md5Sha1SeedsBaseline;
  seeds(messages, n, md5, sha1);
#else
  Md5Sha1SeedsBaseline(messages, n, md5, sha1);
#endif
}

std::array<uint8_t, 32> Sha256(std::string_view data) {
  std::array<uint32_t, 8> state = kSha256Init;
  AbsorbPadded</*kBigEndianLength=*/true>(
      data, 0,
      [&](const uint8_t* blocks, size_t n) { Sha256Compress(state.data(), blocks, n); });
  return Sha256Digest(state);
}

HmacSha256Key::HmacSha256Key(std::string_view key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    const auto hashed = Sha256(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }
  uint8_t pad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = key_block[i] ^ 0x36;
  inner_ = kSha256Init;
  Sha256Compress(inner_.data(), pad, 1);
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = key_block[i] ^ 0x5c;
  outer_ = kSha256Init;
  Sha256Compress(outer_.data(), pad, 1);
}

std::array<uint8_t, 32> HmacSha256Key::Mac(std::string_view data) const {
  std::array<uint32_t, 8> inner = inner_;
  AbsorbPadded</*kBigEndianLength=*/true>(
      data, /*prefix_bytes=*/64,
      [&](const uint8_t* blocks, size_t n) { Sha256Compress(inner.data(), blocks, n); });
  // The outer message is the 64-byte opad block (already in outer_) plus the
  // 32-byte inner digest: one padded block of bit length 768.
  alignas(16) uint8_t block[64] = {};
  for (size_t r = 0; r < 8; ++r) StoreBe(&block[4 * r], inner[r]);
  block[32] = 0x80;
  block[62] = 0x03;  // 768 = 0x0300
  std::array<uint32_t, 8> outer = outer_;
  Sha256Compress(outer.data(), block, 1);
  return Sha256Digest(outer);
}

TabulationHash::TabulationHash(uint64_t seed) {
  Rng rng(seed);
  for (auto& row : table_) {
    for (auto& cell : row) cell = rng.NextUint64();
  }
}

uint64_t TabulationHash::Hash64(uint64_t x) const {
  uint64_t h = 0;
  for (size_t i = 0; i < 8; ++i) {
    h ^= table_[i][(x >> (8 * i)) & 0xff];
  }
  return h;
}

uint64_t TabulationHash::Hash(std::string_view data) const {
  // FNV-1a fold to 64 bits, then one tabulation round for independence
  // across differently seeded instances.
  uint64_t h = 1469598103934665603ull;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return Hash64(h);
}

}  // namespace pprl
