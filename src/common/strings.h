#ifndef PPRL_COMMON_STRINGS_H_
#define PPRL_COMMON_STRINGS_H_

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace pprl {

/// Returns `s` lower-cased (ASCII only; QID normalisation in the survey's
/// pre-processing step operates on ASCII person data).
std::string ToLower(std::string_view s);

/// Returns `s` upper-cased (ASCII only).
std::string ToUpper(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits on `delim`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

/// Removes every character that is not an ASCII letter or digit.
std::string StripNonAlnum(std::string_view s);

/// Canonical QID normalisation used before encoding: lower-case, trim, and
/// collapse internal runs of whitespace to a single space.
std::string NormalizeQid(std::string_view s);

/// NormalizeQid into `out` (replacing its contents), so a caller that
/// normalises many values reuses one buffer.
void NormalizeQidInto(std::string_view s, std::string& out);

/// Options for q-gram extraction.
struct QGramOptions {
  /// Sub-string length (q). The survey's Bloom-filter examples use q = 2.
  size_t q = 2;
  /// If true, pad with q-1 leading/trailing '_' so boundary characters
  /// appear in q q-grams, as in Schnell-style CLK encodings.
  bool pad = true;
  /// If true, append a positional index to repeated q-grams so the output is
  /// a set even when the string has duplicate q-grams ("aa" in "aaaa").
  bool positional_dedup = true;
};

/// Extracts the q-gram token set of `s` (Figure 2, left).
///
/// With `positional_dedup`, the i-th occurrence of a repeated gram `g` is
/// emitted as `g` + '#' + i for i >= 1, preserving multiplicity information
/// in a set representation.
std::vector<std::string> QGrams(std::string_view s, const QGramOptions& options = {});

namespace strings_internal {
/// occurrences[i] = how many of the grams text.substr(j, q), j < i, equal
/// text.substr(i, q), for every gram of `text`. Sorts the positions by gram,
/// so a long value costs O(m log m) comparisons, never O(m^2).
void CountGramOccurrences(std::string_view text, size_t q,
                          std::vector<size_t>& occurrences);
}  // namespace strings_internal

/// The tokenizer behind QGrams without the allocation: calls
/// fn(gram, occurrence) for each q-gram of `s` in order, where `gram` views
/// the padded value and `occurrence` counts earlier identical grams (always 0
/// without `positional_dedup`; QGrams appends '#' + occurrence when > 0).
/// Padded values of up to 256 bytes stay on the stack.
template <typename Fn>
void ForEachQGram(std::string_view s, const QGramOptions& options, Fn&& fn) {
  const size_t q = options.q == 0 ? 1 : options.q;
  const size_t pad = options.pad && q > 1 ? q - 1 : 0;
  const size_t len = s.size() + 2 * pad;
  char stack_text[256];
  std::string heap_text;
  char* text = stack_text;
  if (len > sizeof(stack_text)) {
    heap_text.resize(len);
    text = heap_text.data();
  }
  std::memset(text, '_', pad);
  if (!s.empty()) std::memcpy(text + pad, s.data(), s.size());
  std::memset(text + pad + s.size(), '_', pad);
  const std::string_view padded(text, len);
  if (len < q) {
    if (len > 0) fn(padded, size_t{0});
    return;
  }
  const size_t num_grams = len - q + 1;
  if (!options.positional_dedup) {
    for (size_t i = 0; i < num_grams; ++i) fn(padded.substr(i, q), size_t{0});
    return;
  }
  // Short values (every name, date or city) count repeats by comparing
  // each gram with the ones before it; the quadratic cost is bounded here.
  constexpr size_t kPairwiseLimit = 32;
  if (num_grams <= kPairwiseLimit) {
    for (size_t i = 0; i < num_grams; ++i) {
      size_t occurrence = 0;
      for (size_t j = 0; j < i; ++j) {
        occurrence += text[j] == text[i] && std::memcmp(text + j, text + i, q) == 0;
      }
      fn(padded.substr(i, q), occurrence);
    }
    return;
  }
  std::vector<size_t> occurrences;
  strings_internal::CountGramOccurrences(padded, q, occurrences);
  for (size_t i = 0; i < num_grams; ++i) fn(padded.substr(i, q), occurrences[i]);
}

/// True if `s` consists only of ASCII digits (possibly with one leading '-').
bool IsInteger(std::string_view s);

}  // namespace pprl

#endif  // PPRL_COMMON_STRINGS_H_
