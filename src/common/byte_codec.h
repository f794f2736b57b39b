// The one little-endian byte codec behind every persisted binary artefact:
// write-ahead journal records (serve/wal.cc), tree snapshots
// (hst/snapshot.cc), replay checkpoints (serve/checkpoint.cc) and the
// trace fingerprint's CRC input.
//
// Encoding: integers are little-endian regardless of the host; doubles
// are their IEEE-754 bit patterns as u64; strings are <len:u32><bytes>;
// leaf paths are <len:u32> followed by len u16 digits. The byte order is
// fixed whatever the host's, so every artefact is identical on every
// platform and readable by the stdlib-only validators in tools/.
//
// ByteWriter appends to a caller-owned std::string and stays inline, so
// a hot path that reuses a warmed-up buffer (the WAL's group buffer)
// allocates nothing. ByteReader is bounds-checked: every getter returns
// a Result, and a short read names the artefact (the `context` passed at
// construction, e.g. "wal record: short read") plus what was being read
// and where.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/result.h"

namespace tbf {

/// \brief Loads an unsigned little-endian integer from unaligned bytes
/// (bulk tables and frame headers decode through it). On little-endian
/// hosts the memcpy compiles to a plain load.
template <typename T>
T LoadLE(const void* src) {
  static_assert(std::is_unsigned_v<T>);
  const auto* p = static_cast<const unsigned char*>(src);
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }
}

/// \brief Appends little-endian fields to a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Append(v); }
  void U32(uint32_t v) { Append(v); }
  void U64(uint64_t v) { Append(v); }
  void I32(int32_t v) { Append(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { Append(static_cast<uint64_t>(v)); }
  void F64(double v) { Append(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  void Path(std::u16string_view p) {
    U32(static_cast<uint32_t>(p.size()));
    for (const char16_t digit : p) U16(static_cast<uint16_t>(digit));
  }

  /// Overwrites a u32 already in the buffer at byte `offset` (frame
  /// headers whose length and CRC are known only after the payload).
  void PatchU32(size_t offset, uint32_t v) { Store(out_->data() + offset, v); }

 private:
  template <typename T>
  static void Store(char* dst, T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(dst, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        dst[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
      }
    }
  }

  template <typename T>
  void Append(T v) {
    char buf[sizeof(T)];
    Store(buf, v);
    out_->append(buf, sizeof(T));  // one append, not per-byte push_backs
  }

  std::string* out_;
};

/// \brief Bounds-checked little-endian reader over one payload. The
/// payload must outlive the reader.
class ByteReader {
 public:
  /// `context` opens every short-read message, e.g. "snapshot: truncated
  /// payload" yields "snapshot: truncated payload (need 8 bytes for u64
  /// at byte 24, have 3)".
  ByteReader(std::string_view data, std::string_view context)
      : data_(data), context_(context) {}

  Result<uint8_t> U8() { return Load<uint8_t>("u8"); }
  Result<uint32_t> U32() { return Load<uint32_t>("u32"); }
  Result<uint64_t> U64() { return Load<uint64_t>("u64"); }
  Result<int32_t> I32() {
    TBF_ASSIGN_OR_RETURN(const uint32_t v, Load<uint32_t>("i32"));
    return static_cast<int32_t>(v);
  }
  Result<int64_t> I64() {
    TBF_ASSIGN_OR_RETURN(const uint64_t v, Load<uint64_t>("i64"));
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    TBF_ASSIGN_OR_RETURN(const uint64_t bits, Load<uint64_t>("f64"));
    return std::bit_cast<double>(bits);
  }
  Result<std::string> Str() {
    TBF_ASSIGN_OR_RETURN(const uint32_t len, U32());
    TBF_ASSIGN_OR_RETURN(const std::string_view body,
                         Bytes(len, "string body"));
    return std::string(body);
  }
  Result<std::u16string> Path() {
    TBF_ASSIGN_OR_RETURN(const uint32_t len, U32());
    TBF_ASSIGN_OR_RETURN(const std::string_view body,
                         Bytes(size_t{len} * 2, "leaf path body"));
    std::u16string p(len, u'\0');
    for (size_t i = 0; i < len; ++i) {
      p[i] = static_cast<char16_t>(LoadLE<uint16_t>(body.data() + 2 * i));
    }
    return p;
  }

  /// Raw view of the next `n` bytes (bulk tables decode through it).
  Result<std::string_view> Bytes(size_t n, const char* what) {
    TBF_RETURN_NOT_OK(Need(n, what));
    const std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  /// Reads a u64 element count and rejects it unless `count` elements of
  /// at least `min_element_bytes` each fit in the unread bytes — so a
  /// corrupt count fails here, before the caller reserves anything.
  Result<uint64_t> Count(size_t min_element_bytes, const char* what) {
    TBF_ASSIGN_OR_RETURN(const uint64_t count, Load<uint64_t>(what));
    if (count > remaining() / min_element_bytes) {
      return Status::InvalidArgument(
          std::string(context_) + " (" + std::to_string(count) + " " + what +
          " declared need at least " + std::to_string(min_element_bytes) +
          " bytes each, have " + std::to_string(remaining()) + ")");
    }
    return count;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  /// OK when at least `n` unread bytes remain; else the short-read error.
  Status Need(size_t n, const char* what) const {
    if (remaining() >= n) return Status::OK();
    return Status::InvalidArgument(
        std::string(context_) + " (need " + std::to_string(n) +
        " bytes for " + what + " at byte " + std::to_string(pos_) +
        ", have " + std::to_string(remaining()) + ")");
  }

  template <typename T>
  Result<T> Load(const char* what) {
    TBF_RETURN_NOT_OK(Need(sizeof(T), what));
    const T v = LoadLE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::string_view context_;
  size_t pos_ = 0;
};

}  // namespace tbf
