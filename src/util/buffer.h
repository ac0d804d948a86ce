// Buffer: the wire/storage representation of object states and RPC
// payloads.
//
// Arjuna marshalled object states through a stub-generated pack/unpack
// layer [15]; Buffer plays that role here. Encoding is little-endian,
// length-prefixed, and self-contained: a Buffer written by pack_* calls is
// decoded by the mirror-image unpack_* calls. Decoding is bounds-checked;
// a short or corrupt buffer yields Err::BadRequest rather than UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/uid.h"

namespace gv {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }
  void clear() noexcept {
    bytes_.clear();
    read_pos_ = 0;
  }

  // Pre-size the backing store before a run of pack_* calls: message
  // assembly in the RPC hot path knows its final size up front, and one
  // exact reservation replaces the vector's doubling reallocations.
  void reserve(std::size_t total) { bytes_.reserve(total); }
  std::size_t capacity() const noexcept { return bytes_.capacity(); }

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept { return a.bytes_ == b.bytes_; }
  friend bool operator!=(const Buffer& a, const Buffer& b) noexcept { return !(a == b); }

  // -- packing ------------------------------------------------------------
  Buffer& pack_u8(std::uint8_t v);
  Buffer& pack_u32(std::uint32_t v);
  Buffer& pack_u64(std::uint64_t v);
  Buffer& pack_i64(std::int64_t v);
  Buffer& pack_bool(bool v) { return pack_u8(v ? 1 : 0); }
  Buffer& pack_double(double v);
  Buffer& pack_string(const std::string& s);
  Buffer& pack_uid(const Uid& u);
  Buffer& pack_bytes(const Buffer& b);  // nested, length-prefixed
  Buffer& pack_u32_vector(const std::vector<std::uint32_t>& v);
  Buffer& pack_uid_vector(const std::vector<Uid>& v);

  // -- unpacking (sequential cursor) ---------------------------------------
  Result<std::uint8_t> unpack_u8();
  Result<std::uint32_t> unpack_u32();
  Result<std::uint64_t> unpack_u64();
  Result<std::int64_t> unpack_i64();
  Result<bool> unpack_bool();
  Result<double> unpack_double();
  Result<std::string> unpack_string();
  Result<Uid> unpack_uid();
  Result<Buffer> unpack_bytes();
  Result<std::vector<std::uint32_t>> unpack_u32_vector();
  Result<std::vector<Uid>> unpack_uid_vector();

  void rewind() noexcept { read_pos_ = 0; }
  // Drop the bytes already read, in place and without allocating: the
  // unread tail becomes the whole buffer, its cursor at the start. A
  // frame parsed up to its payload hands the payload on this way.
  Buffer& drop_read() {
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<long>(read_pos_));
    read_pos_ = 0;
    return *this;
  }
  std::size_t remaining() const noexcept { return bytes_.size() - read_pos_; }

  // 64-bit FNV-1a over content; used for cheap replica state comparison.
  std::uint64_t checksum() const noexcept;

 private:
  bool can_read(std::size_t n) const noexcept { return read_pos_ + n <= bytes_.size(); }
  void append(const void* p, std::size_t n);

  std::vector<std::uint8_t> bytes_;
  std::size_t read_pos_ = 0;
};

}  // namespace gv
