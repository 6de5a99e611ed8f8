#include "common/strings.h"

#include <algorithm>
#include <cctype>

namespace pprl {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      return parts;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string StripNonAlnum(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

namespace {

/// ASCII classes of the "C" locale, which the program never leaves: the six
/// isspace bytes, and A-Z for lower-casing. Bytes >= 0x80 are neither.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

char AsciiLower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c; }

}  // namespace

void NormalizeQidInto(std::string_view s, std::string& out) {
  out.clear();
  bool pending_space = false;
  for (char c : s) {
    if (IsAsciiSpace(c)) {
      pending_space = !out.empty();
    } else {
      if (pending_space) out += ' ';
      pending_space = false;
      out += AsciiLower(c);
    }
  }
}

std::string NormalizeQid(std::string_view s) {
  std::string out;
  NormalizeQidInto(s, out);
  return out;
}

namespace strings_internal {

void CountGramOccurrences(std::string_view text, size_t q,
                          std::vector<size_t>& occurrences) {
  const size_t num_grams = text.size() - q + 1;
  std::vector<size_t> order(num_grams);
  for (size_t i = 0; i < num_grams; ++i) order[i] = i;
  // Grams first, position second: a run of equal grams comes out in text
  // order, so a gram's rank in its run is its occurrence.
  const auto gram = [&](size_t i) { return text.substr(i, q); };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int c = gram(a).compare(gram(b));
    return c != 0 ? c < 0 : a < b;
  });
  occurrences.assign(num_grams, 0);
  for (size_t r = 1; r < num_grams; ++r) {
    if (gram(order[r]) == gram(order[r - 1])) {
      occurrences[order[r]] = occurrences[order[r - 1]] + 1;
    }
  }
}

}  // namespace strings_internal

std::vector<std::string> QGrams(std::string_view s, const QGramOptions& options) {
  std::vector<std::string> grams;
  ForEachQGram(s, options, [&](std::string_view gram, size_t occurrence) {
    std::string& token = grams.emplace_back(gram);
    if (occurrence > 0) {
      token += '#';
      token += std::to_string(occurrence);
    }
  });
  return grams;
}

bool IsInteger(std::string_view s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

}  // namespace pprl
