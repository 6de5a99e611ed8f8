#include "common/strings.h"

#include <cctype>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

namespace pprl {
namespace {

TEST(StringsTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("\t\n hi \r"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"a", "", "b"};
  EXPECT_EQ(Join(parts, ","), "a,,b");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StripNonAlnum) {
  EXPECT_EQ(StripNonAlnum("o'brien-smith 3rd"), "obriensmith3rd");
  EXPECT_EQ(StripNonAlnum("!!!"), "");
}

TEST(StringsTest, NormalizeQid) {
  EXPECT_EQ(NormalizeQid("  John   SMITH "), "john smith");
  EXPECT_EQ(NormalizeQid("a\t\tb"), "a b");
  EXPECT_EQ(NormalizeQid(""), "");
}

TEST(QGramsTest, PaddedBigrams) {
  // "pete" padded -> _pete_ -> _p pe et te e_
  const auto grams = QGrams("pete");
  EXPECT_EQ(grams, (std::vector<std::string>{"_p", "pe", "et", "te", "e_"}));
}

TEST(QGramsTest, UnpaddedBigrams) {
  QGramOptions opts;
  opts.pad = false;
  EXPECT_EQ(QGrams("pete", opts), (std::vector<std::string>{"pe", "et", "te"}));
}

TEST(QGramsTest, TrigramCount) {
  QGramOptions opts;
  opts.q = 3;
  // padded length = 4 + 2*2 = 8 -> 6 trigrams
  EXPECT_EQ(QGrams("pete", opts).size(), 6u);
}

TEST(QGramsTest, PositionalDedupMakesSet) {
  QGramOptions opts;
  opts.pad = false;
  // "aaaa" -> aa, aa#1, aa#2 : all distinct
  const auto grams = QGrams("aaaa", opts);
  EXPECT_EQ(grams, (std::vector<std::string>{"aa", "aa#1", "aa#2"}));
}

TEST(QGramsTest, WithoutDedupRepeats) {
  QGramOptions opts;
  opts.pad = false;
  opts.positional_dedup = false;
  EXPECT_EQ(QGrams("aaaa", opts), (std::vector<std::string>{"aa", "aa", "aa"}));
}

TEST(QGramsTest, ShortAndEmptyInput) {
  QGramOptions opts;
  opts.pad = false;
  EXPECT_TRUE(QGrams("", opts).empty());
  EXPECT_EQ(QGrams("a", opts), (std::vector<std::string>{"a"}));
  // With padding even one char yields q-grams: _a a_ for q=2.
  EXPECT_EQ(QGrams("a").size(), 2u);
}

TEST(QGramsTest, ZeroQTreatedAsOne) {
  QGramOptions opts;
  opts.q = 0;
  opts.pad = false;
  EXPECT_EQ(QGrams("ab", opts).size(), 2u);
}

TEST(StringsTest, IsInteger) {
  EXPECT_TRUE(IsInteger("0"));
  EXPECT_TRUE(IsInteger("-15"));
  EXPECT_TRUE(IsInteger("123456789"));
  EXPECT_FALSE(IsInteger(""));
  EXPECT_FALSE(IsInteger("-"));
  EXPECT_FALSE(IsInteger("12a"));
  EXPECT_FALSE(IsInteger("1.5"));
}

class QGramLengthTest : public ::testing::TestWithParam<size_t> {};

/// Property: with padding, a string of length n yields n + q - 1 q-grams.
TEST_P(QGramLengthTest, PaddedGramCount) {
  const size_t q = GetParam();
  QGramOptions opts;
  opts.q = q;
  const std::string input = "abcdefghij";
  EXPECT_EQ(QGrams(input, opts).size(), input.size() + q - 1);
}

INSTANTIATE_TEST_SUITE_P(Qs, QGramLengthTest, ::testing::Values(1, 2, 3, 4, 5));

// The allocating tokenizer that ForEachQGram replaced, kept as the oracle:
// QGrams and NormalizeQid must reproduce it exactly, since every encoded
// CLK depends on them.

std::string OracleNormalizeQid(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  std::string lowered(s.substr(begin, end - begin));
  for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  std::string out;
  bool prev_space = false;
  for (char c : lowered) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!prev_space && !out.empty()) out += ' ';
      prev_space = true;
    } else {
      out += c;
      prev_space = false;
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::vector<std::string> OracleQGrams(std::string_view s, const QGramOptions& options) {
  const size_t q = options.q == 0 ? 1 : options.q;
  std::string padded;
  if (options.pad && q > 1) {
    padded.assign(q - 1, '_');
    padded += s;
    padded.append(q - 1, '_');
  } else {
    padded.assign(s);
  }
  std::vector<std::string> grams;
  if (padded.size() < q) {
    if (!padded.empty()) grams.push_back(padded);
    return grams;
  }
  std::map<std::string, int> seen;
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    std::string gram = padded.substr(i, q);
    if (options.positional_dedup) {
      const int occurrence = seen[gram]++;
      if (occurrence > 0) {
        gram += '#';
        gram += std::to_string(occurrence);
      }
    }
    grams.push_back(std::move(gram));
  }
  return grams;
}

/// Random values over a small alphabet, so grams repeat: letters of both
/// cases, all six isspace bytes, '_' (the pad byte), '#' and bytes >= 0x80.
std::string RandomValue(Rng& rng, size_t max_len) {
  static const std::string kAlphabet =
      std::string("aAbBzZ09_# \t\n\v\f\r") + "\x80\xc3\xa9\xff";
  std::string out(rng.NextUint64() % (max_len + 1), '\0');
  for (char& c : out) c = kAlphabet[rng.NextUint64() % kAlphabet.size()];
  return out;
}

TEST(TokenizerParityTest, NormalizeQidMatchesOracle) {
  Rng rng(1);
  std::string reused = "stale contents";
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string value = RandomValue(rng, trial % 2 == 0 ? 12 : 80);
    const std::string expected = OracleNormalizeQid(value);
    ASSERT_EQ(NormalizeQid(value), expected) << "trial " << trial;
    NormalizeQidInto(value, reused);
    ASSERT_EQ(reused, expected) << "trial " << trial;
  }
  EXPECT_EQ(NormalizeQid(""), "");
  EXPECT_EQ(NormalizeQid(" \t\n\v\f\r"), "");
}

TEST(TokenizerParityTest, QGramsMatchOracle) {
  Rng rng(2);
  for (size_t q : {1, 2, 3}) {
    for (bool pad : {false, true}) {
      for (bool dedup : {false, true}) {
        QGramOptions options;
        options.q = q;
        options.pad = pad;
        options.positional_dedup = dedup;
        EXPECT_EQ(QGrams("", options), OracleQGrams("", options));
        // Up to 300 bytes crosses both the pairwise-count limit (32 grams)
        // and the 256-byte stack buffer.
        for (int trial = 0; trial < 1000; ++trial) {
          const std::string value =
              RandomValue(rng, trial % 3 == 0 ? 300 : trial % 3 == 1 ? 40 : 6);
          ASSERT_EQ(QGrams(value, options), OracleQGrams(value, options))
              << "q=" << q << " pad=" << pad << " dedup=" << dedup << " trial "
              << trial;
        }
      }
    }
  }
}

TEST(TokenizerParityTest, ForEachQGramReportsOccurrences) {
  std::vector<std::pair<std::string, size_t>> seen;
  QGramOptions options;
  options.pad = false;
  ForEachQGram("abab", options, [&](std::string_view gram, size_t occurrence) {
    seen.emplace_back(std::string(gram), occurrence);
  });
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"ab", 0}, {"ba", 0}, {"ab", 1}};
  EXPECT_EQ(seen, expected);
}

/// A hostile 1 MiB one-character value: the occurrence count must stay
/// near-linear (a quadratic one would not finish within the test timeout)
/// and still match the oracle.
TEST(TokenizerParityTest, OneMebibyteRepeatMatchesOracle) {
  const std::string value(1 << 20, 'a');
  const QGramOptions options;
  const auto grams = QGrams(value, options);
  ASSERT_EQ(grams.size(), value.size() + 1);
  EXPECT_EQ(grams, OracleQGrams(value, options));
  EXPECT_EQ(grams[2], "aa#1");
  EXPECT_EQ(grams.back(), "a_");
  EXPECT_EQ(NormalizeQid(value), value);
}

}  // namespace
}  // namespace pprl
