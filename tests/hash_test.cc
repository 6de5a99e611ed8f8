#include "crypto/hash.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace pprl {
namespace {

// RFC 1321 / FIPS 180 reference vectors.

TEST(Md5Test, ReferenceVectors) {
  EXPECT_EQ(DigestToHex(Md5("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(DigestToHex(Md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(DigestToHex(Md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(DigestToHex(Md5("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Sha1Test, ReferenceVectors) {
  EXPECT_EQ(DigestToHex(Sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(DigestToHex(Sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(DigestToHex(Sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256Test, ReferenceVectors) {
  EXPECT_EQ(DigestToHex(Sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MultiBlockMessage) {
  // One million 'a' characters (NIST long-message vector).
  const std::string million(1000000, 'a');
  EXPECT_EQ(DigestToHex(Sha256(million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const std::string long_key(200, 'k');
  // Consistency: must equal HMAC with SHA256(long_key) as the key material.
  const auto direct = HmacSha256(long_key, "data");
  const auto hashed_key = Sha256(long_key);
  const std::string key_str(reinterpret_cast<const char*>(hashed_key.data()),
                            hashed_key.size());
  EXPECT_EQ(DigestToHex(direct), DigestToHex(HmacSha256(key_str, "data")));
}

TEST(HmacTest, KeySeparation) {
  EXPECT_NE(DigestToHex(HmacSha256("key1", "data")),
            DigestToHex(HmacSha256("key2", "data")));
}

/// HMAC by its textbook definition, H((K ^ opad) || H((K ^ ipad) || m)),
/// over concatenated strings: no midstates, so it checks HmacSha256Key's
/// resumed-state arithmetic independently.
std::array<uint8_t, 32> ReferenceHmac(const std::string& key, const std::string& data) {
  std::string block = key.size() > 64 ? std::string(reinterpret_cast<const char*>(
                                                        Sha256(key).data()),
                                                    32)
                                      : key;
  block.resize(64, '\0');
  std::string inner, outer;
  for (char c : block) inner += static_cast<char>(c ^ 0x36);
  for (char c : block) outer += static_cast<char>(c ^ 0x5c);
  const auto inner_digest = Sha256(inner + data);
  outer.append(reinterpret_cast<const char*>(inner_digest.data()), inner_digest.size());
  return Sha256(outer);
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextUint64() & 0xff);
  return out;
}

/// RFC 4231 test cases 1-4, 6 and 7 (case 5 truncates the MAC), plus
/// Wikipedia's classic example.
TEST(HmacTest, Rfc4231Vectors) {
  struct Vector {
    std::string key, data, mac;
  };
  const std::string big_key(131, '\xaa');
  std::string tc4_key;
  for (int i = 1; i <= 25; ++i) tc4_key += static_cast<char>(i);
  const std::vector<Vector> vectors = {
      {std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::string(20, '\xaa'), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {tc4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {big_key, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {big_key,
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the HMAC "
       "algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
      {"key", "The quick brown fox jumps over the lazy dog",
       "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(DigestToHex(HmacSha256Key(v.key).Mac(v.data)), v.mac);
    EXPECT_EQ(DigestToHex(HmacSha256(v.key, v.data)), v.mac);
    EXPECT_EQ(DigestToHex(ReferenceHmac(v.key, v.data)), v.mac);
  }
}

/// Key lengths around the 64-byte block (longer keys are hashed first) and
/// message lengths around both padding boundaries of the inner hash.
TEST(HmacTest, PrecomputedKeyMatchesReferenceAcrossBoundaries) {
  Rng rng(4231);
  for (size_t key_len : {0, 63, 64, 65, 200}) {
    const std::string key = RandomBytes(rng, key_len);
    const HmacSha256Key keyed(key);
    for (size_t msg_len : {0, 55, 56, 63, 64, 119, 120, 300}) {
      const std::string msg = RandomBytes(rng, msg_len);
      EXPECT_EQ(DigestToHex(keyed.Mac(msg)), DigestToHex(ReferenceHmac(key, msg)))
          << "key " << key_len << " bytes, message " << msg_len << " bytes";
    }
  }
}

TEST(HmacTest, PrecomputedKeyIsReusable) {
  const HmacSha256Key keyed("key");
  const auto first = keyed.Mac("a");
  keyed.Mac(std::string(500, 'z'));
  EXPECT_EQ(keyed.Mac("a"), first);
}

TEST(Sha256KernelTest, ScalarMatchesNistVectorOnOneBlock) {
  // "abc" padded to one block; the digest is the state after one compression.
  uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Sha256CompressScalar(state, block, 1);
  EXPECT_EQ(state[0], 0xba7816bfu);
  EXPECT_EQ(state[7], 0xf20015adu);
}

TEST(Sha256KernelTest, ShaNiMatchesScalarOnRandomBlocks) {
#ifdef PPRL_HAVE_SHA_NI_KERNEL
  if (!ShaNiAvailable()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(256);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t num_blocks = 1 + rng.NextUint64() % 4;
    const std::string blocks = RandomBytes(rng, 64 * num_blocks);
    uint32_t scalar[8];
    for (uint32_t& word : scalar) word = static_cast<uint32_t>(rng.NextUint64());
    uint32_t sha_ni[8];
    std::copy(scalar, scalar + 8, sha_ni);
    const auto* bytes = reinterpret_cast<const uint8_t*>(blocks.data());
    Sha256CompressScalar(scalar, bytes, num_blocks);
    Sha256CompressShaNi(sha_ni, bytes, num_blocks);
    ASSERT_TRUE(std::equal(scalar, scalar + 8, sha_ni)) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

TEST(Sha256KernelTest, DispatchedKernelMatchesScalar) {
  Rng rng(512);
  const std::string blocks = RandomBytes(rng, 64 * 3);
  const auto* bytes = reinterpret_cast<const uint8_t*>(blocks.data());
  uint32_t scalar[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t dispatched[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Sha256CompressScalar(scalar, bytes, 3);
  Sha256Compress(dispatched, bytes, 3);
  EXPECT_TRUE(std::equal(scalar, scalar + 8, dispatched));
}

using SeedsFn = void (*)(const std::string_view*, size_t, uint64_t*, uint64_t*);

/// Checks one build of the batch MD5+SHA-1 seeds against the scalar
/// reference: every message length 0-130 (one block below 56 bytes, the
/// scalar path above), every batch size 1-33 (partial, full and spilling
/// lane groups), and the RFC 1321 / FIPS 180 vectors.
void ExpectSeedsMatchScalar(SeedsFn seeds) {
  Rng rng(1321);
  std::vector<std::string> messages;
  for (size_t len = 0; len <= 130; ++len) messages.push_back(RandomBytes(rng, len));
  for (const char* vector :
       {"", "abc", "message digest", "abcdefghijklmnopqrstuvwxyz",
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"}) {
    messages.emplace_back(vector);
  }
  auto check = [&](const std::vector<std::string_view>& batch) {
    std::vector<uint64_t> md5(batch.size()), sha1(batch.size());
    seeds(batch.data(), batch.size(), md5.data(), sha1.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(md5[i], DigestToUint64(Md5(batch[i])))
          << "MD5, message of " << batch[i].size() << " bytes, lane " << i << " of "
          << batch.size();
      ASSERT_EQ(sha1[i], DigestToUint64(Sha1(batch[i])))
          << "SHA-1, message of " << batch[i].size() << " bytes, lane " << i << " of "
          << batch.size();
    }
  };
  check(std::vector<std::string_view>(messages.begin(), messages.end()));
  for (size_t batch_size = 1; batch_size <= 33; ++batch_size) {
    std::vector<std::string_view> batch;
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(messages[rng.NextUint64() % messages.size()]);
    }
    check(batch);
  }
  // The reference vectors' digests themselves, not only agreement.
  const std::string_view abc = "abc";
  uint64_t md5 = 0, sha1 = 0;
  seeds(&abc, 1, &md5, &sha1);
  EXPECT_EQ(md5, 0xb04fd23c98500190ull);   // 90 01 50 98 3c d2 4f b0
  EXPECT_EQ(sha1, 0x6a810647363e99a9ull);  // a9 99 3e 36 47 06 81 6a
}

TEST(Md5Sha1SeedsTest, BaselineBuildMatchesScalar) {
  ExpectSeedsMatchScalar(Md5Sha1SeedsBaseline);
}

TEST(Md5Sha1SeedsTest, Avx2BuildMatchesScalar) {
#ifdef PPRL_HAVE_MD5_SHA1_X16_KERNELS
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  ExpectSeedsMatchScalar(Md5Sha1SeedsAvx2);
#else
  GTEST_SKIP() << "no AVX2 build on this architecture";
#endif
}

TEST(Md5Sha1SeedsTest, Avx512BuildMatchesScalar) {
#ifdef PPRL_HAVE_MD5_SHA1_X16_KERNELS
  if (!__builtin_cpu_supports("avx512f")) GTEST_SKIP() << "CPU lacks AVX-512F";
  ExpectSeedsMatchScalar(Md5Sha1SeedsAvx512);
#else
  GTEST_SKIP() << "no AVX-512 build on this architecture";
#endif
}

TEST(Md5Sha1SeedsTest, DispatchedBuildMatchesScalar) {
  ExpectSeedsMatchScalar(Md5Sha1Seeds);
}

TEST(ExactRemainderTest, MatchesModuloOperator) {
  Rng rng(2019);
  for (uint64_t d : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1000}, uint64_t{1024},
                     (uint64_t{1} << 31) - 1, (uint64_t{1} << 32) + 15,
                     (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    const ExactRemainder remainder(d);
    std::vector<uint64_t> xs = {0,          1,          d - 1,          d,
                                d + 1,      2 * d - 1,  2 * d,          ~uint64_t{0},
                                ~uint64_t{0} - 1,       uint64_t{1} << 63,
                                (uint64_t{1} << 63) - 1, ~uint64_t{0} - d};
    for (int i = 0; i < 20000; ++i) xs.push_back(rng.NextUint64());
    for (int i = 0; i < 1000; ++i) xs.push_back(rng.NextUint64() >> (rng.NextUint64() % 64));
    for (uint64_t x : xs) {
      ASSERT_EQ(remainder(x), x % d) << x << " mod " << d;
    }
  }
}

TEST(DigestHelpersTest, DigestToUint64LittleEndian) {
  std::array<uint8_t, 8> digest = {1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(DigestToUint64(digest), 1u);
  digest = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(DigestToUint64(digest), uint64_t{1} << 56);
}

TEST(TabulationHashTest, DeterministicPerSeed) {
  const TabulationHash h1(42), h2(42), h3(43);
  EXPECT_EQ(h1.Hash("hello"), h2.Hash("hello"));
  EXPECT_NE(h1.Hash("hello"), h3.Hash("hello"));
  EXPECT_EQ(h1.Hash64(12345), h2.Hash64(12345));
}

TEST(TabulationHashTest, SpreadsBits) {
  const TabulationHash h(7);
  // Rough avalanche check: flipping one input bit flips ~half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = h.Hash64(0);
    const uint64_t b = h.Hash64(uint64_t{1} << bit);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 20.0);
  EXPECT_LT(avg, 44.0);
}

}  // namespace
}  // namespace pprl
