#include "util/blob.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace stpx::util {

namespace {

/// True when [p, p+n) is exactly std::to_string of some int64.
bool canonical_token(const char* p, std::size_t n) {
  const bool neg = n > 0 && p[0] == '-';
  const char* digits = p + (neg ? 1 : 0);
  const std::size_t len = n - (neg ? 1 : 0);
  if (len == 0 || len > 19) return false;
  if (digits[0] == '0') return len == 1 && !neg;  // "0"; never "-0", "007"
  for (std::size_t i = 0; i < len; ++i) {
    if (digits[i] < '0' || digits[i] > '9') return false;
  }
  if (len < 19) return true;
  const char* limit = neg ? "9223372036854775808" : "9223372036854775807";
  return std::memcmp(digits, limit, 19) <= 0;
}

/// Token count of canonical blob text; nullopt when the text is anything
/// BlobWriter would not have produced.
std::optional<std::size_t> canonical_count(const std::string& blob) {
  if (blob.empty()) return 0;
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    std::size_t end = blob.find(' ', start);
    if (end == std::string::npos) end = blob.size();
    if (!canonical_token(blob.data() + start, end - start)) return std::nullopt;
    ++count;
    if (end == blob.size()) return count;
    start = end + 1;
  }
}

}  // namespace

std::optional<std::vector<std::int64_t>> blob_tokens(const std::string& blob) {
  std::vector<std::int64_t> tokens;
  std::size_t i = 0;
  while (i < blob.size()) {
    while (i < blob.size() && blob[i] == ' ') ++i;
    if (i >= blob.size()) break;
    const std::size_t start = i;
    while (i < blob.size() && blob[i] != ' ') ++i;
    const std::string tok = blob.substr(start, i - start);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end == tok.c_str() || *end != '\0') return std::nullopt;
    tokens.push_back(static_cast<std::int64_t>(v));
  }
  return tokens;
}

std::string blob_join(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::int64_t v : values) {
    if (!out.empty()) out.push_back(' ');
    out += std::to_string(v);
  }
  return out;
}

void BlobWriter::i64(std::int64_t v) {
  if (!out_.empty()) out_.push_back(' ');
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
}

void BlobWriter::u64(std::uint64_t v) { i64(static_cast<std::int64_t>(v)); }

void BlobWriter::vec(const std::vector<std::int64_t>& vs) {
  i64(static_cast<std::int64_t>(vs.size()));
  for (std::int64_t v : vs) i64(v);
}

void BlobWriter::nested(const std::string& blob) {
  const auto count = canonical_count(blob);
  if (!count) {
    const auto tokens = blob_tokens(blob);
    vec(tokens ? *tokens : std::vector<std::int64_t>{});
    return;
  }
  i64(static_cast<std::int64_t>(*count));
  if (*count == 0) return;
  out_.push_back(' ');
  out_ += blob;
}

BlobReader::BlobReader(const std::string& blob) {
  auto tokens = blob_tokens(blob);
  if (!tokens) {
    ok_ = false;
    return;
  }
  tokens_ = std::move(*tokens);
}

bool BlobReader::i64(std::int64_t& out) {
  if (!ok_ || pos_ >= tokens_.size()) {
    ok_ = false;
    return false;
  }
  out = tokens_[pos_++];
  return true;
}

bool BlobReader::u64(std::uint64_t& out) {
  std::int64_t v = 0;
  if (!i64(v) || v < 0) {
    ok_ = false;
    return false;
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool BlobReader::boolean(bool& out) {
  std::int64_t v = 0;
  if (!i64(v) || (v != 0 && v != 1)) {
    ok_ = false;
    return false;
  }
  out = (v == 1);
  return true;
}

bool BlobReader::vec(std::vector<std::int64_t>& out) {
  std::int64_t n = 0;
  if (!i64(n) || n < 0 ||
      static_cast<std::size_t>(n) > tokens_.size() - pos_) {
    ok_ = false;
    return false;
  }
  out.assign(tokens_.begin() + static_cast<std::ptrdiff_t>(pos_),
             tokens_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

}  // namespace stpx::util
