#pragma once
// Tiny text serialization for durable process state ("blobs").
//
// A blob is a space-separated list of signed 64-bit integers.  Protocols
// use BlobWriter in save_state() and BlobReader in restore_state(); the
// reader is defensive — every accessor reports failure instead of
// throwing, so a truncated or corrupted blob (a storage fault that slid
// past the store's checksum, or a cross-protocol mixup) degrades to a
// failed restore and a cold start rather than undefined behaviour.
//
// The format is deliberately human-readable: record payloads show up
// as-is in store dumps and test failure messages.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace stpx::util {

/// Tokenize blob text into its raw values; nullopt on any malformed token.
/// Exposed so composite records (e.g. session manifests) can nest a whole
/// inner blob as one length-prefixed vec() and round-trip it losslessly.
std::optional<std::vector<std::int64_t>> blob_tokens(const std::string& blob);

/// Inverse of blob_tokens: render raw values back into blob text.
std::string blob_join(const std::vector<std::int64_t>& values);

class BlobWriter {
 public:
  void i64(std::int64_t v);
  void u64(std::uint64_t v);
  void boolean(bool v) { i64(v ? 1 : 0); }

  /// Length-prefixed run of values.
  void vec(const std::vector<std::int64_t>& vs);

  /// Nest a whole inner blob as one length-prefixed run.  Writes exactly
  /// what vec(blob_tokens(blob).value_or({})) writes: canonical BlobWriter
  /// text (single spaces, every token in std::to_string form) is appended
  /// verbatim after its token count; any other text takes the tokenize
  /// path, and unparsable text nests as the empty run.
  void nested(const std::string& blob);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::string& blob);

  /// Each accessor returns false (leaving `out` untouched) on exhaustion
  /// or a malformed token; once any read fails, ok() stays false.
  bool i64(std::int64_t& out);
  bool u64(std::uint64_t& out);
  bool boolean(bool& out);

  /// Reads a length prefix then that many values; rejects absurd lengths
  /// (longer than the remaining token count) without allocating.
  bool vec(std::vector<std::int64_t>& out);

  bool ok() const { return ok_; }
  /// True when every token has been consumed and no read failed.
  bool done() const { return ok_ && pos_ == tokens_.size(); }

 private:
  std::vector<std::int64_t> tokens_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace stpx::util
