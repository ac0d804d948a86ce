#include "util/buffer.h"

namespace gv {

void Buffer::append(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  bytes_.insert(bytes_.end(), b, b + n);
}

Buffer& Buffer::pack_u8(std::uint8_t v) {
  bytes_.push_back(v);
  return *this;
}

Buffer& Buffer::pack_u32(std::uint32_t v) {
  std::uint8_t raw[4];
  for (int i = 0; i < 4; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(raw, 4);
  return *this;
}

Buffer& Buffer::pack_u64(std::uint64_t v) {
  std::uint8_t raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(raw, 8);
  return *this;
}

Buffer& Buffer::pack_i64(std::int64_t v) { return pack_u64(static_cast<std::uint64_t>(v)); }

Buffer& Buffer::pack_double(double v) {
  std::uint64_t raw;
  static_assert(sizeof(raw) == sizeof(v));
  std::memcpy(&raw, &v, sizeof(raw));
  return pack_u64(raw);
}

Buffer& Buffer::pack_string(const std::string& s) {
  pack_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
  return *this;
}

Buffer& Buffer::pack_uid(const Uid& u) {
  pack_u64(u.hi());
  return pack_u64(u.lo());
}

Buffer& Buffer::pack_bytes(const Buffer& b) {
  pack_u32(static_cast<std::uint32_t>(b.bytes().size()));
  append(b.bytes().data(), b.bytes().size());
  return *this;
}

Buffer& Buffer::pack_u32_vector(const std::vector<std::uint32_t>& v) {
  pack_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) pack_u32(x);
  return *this;
}

Buffer& Buffer::pack_uid_vector(const std::vector<Uid>& v) {
  pack_u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& u : v) pack_uid(u);
  return *this;
}

Result<std::uint8_t> Buffer::unpack_u8() {
  if (!can_read(1)) return Err::BadRequest;
  return bytes_[read_pos_++];
}

Result<std::uint32_t> Buffer::unpack_u32() {
  if (!can_read(4)) return Err::BadRequest;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[read_pos_ + i]) << (8 * i);
  read_pos_ += 4;
  return v;
}

Result<std::uint64_t> Buffer::unpack_u64() {
  if (!can_read(8)) return Err::BadRequest;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[read_pos_ + i]) << (8 * i);
  read_pos_ += 8;
  return v;
}

Result<std::int64_t> Buffer::unpack_i64() {
  auto r = unpack_u64();
  if (!r.ok()) return r.error();
  return static_cast<std::int64_t>(r.value());
}

Result<bool> Buffer::unpack_bool() {
  auto r = unpack_u8();
  if (!r.ok()) return r.error();
  return r.value() != 0;
}

Result<double> Buffer::unpack_double() {
  auto r = unpack_u64();
  if (!r.ok()) return r.error();
  double v;
  std::uint64_t raw = r.value();
  std::memcpy(&v, &raw, sizeof(v));
  return v;
}

Result<std::string> Buffer::unpack_string() {
  auto len = unpack_u32();
  if (!len.ok()) return len.error();
  if (!can_read(len.value())) return Err::BadRequest;
  std::string s(reinterpret_cast<const char*>(bytes_.data() + read_pos_), len.value());
  read_pos_ += len.value();
  return s;
}

Result<Uid> Buffer::unpack_uid() {
  auto hi = unpack_u64();
  if (!hi.ok()) return hi.error();
  auto lo = unpack_u64();
  if (!lo.ok()) return lo.error();
  return Uid{hi.value(), lo.value()};
}

Result<Buffer> Buffer::unpack_bytes() {
  auto len = unpack_u32();
  if (!len.ok()) return len.error();
  if (!can_read(len.value())) return Err::BadRequest;
  std::vector<std::uint8_t> out(bytes_.begin() + static_cast<long>(read_pos_),
                                bytes_.begin() + static_cast<long>(read_pos_ + len.value()));
  read_pos_ += len.value();
  return Buffer{std::move(out)};
}

Result<std::vector<std::uint32_t>> Buffer::unpack_u32_vector() {
  auto len = unpack_u32();
  if (!len.ok()) return len.error();
  // A corrupt count must not size the allocation: check it first.
  if (len.value() > remaining() / 4) return Err::BadRequest;
  std::vector<std::uint32_t> out;
  out.reserve(len.value());
  for (std::uint32_t i = 0; i < len.value(); ++i) {
    auto v = unpack_u32();
    if (!v.ok()) return v.error();
    out.push_back(v.value());
  }
  return out;
}

Result<std::vector<Uid>> Buffer::unpack_uid_vector() {
  auto len = unpack_u32();
  if (!len.ok()) return len.error();
  if (len.value() > remaining() / 16) return Err::BadRequest;
  std::vector<Uid> out;
  out.reserve(len.value());
  for (std::uint32_t i = 0; i < len.value(); ++i) {
    auto v = unpack_uid();
    if (!v.ok()) return v.error();
    out.push_back(v.value());
  }
  return out;
}

std::uint64_t Buffer::checksum() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto b : bytes_) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace gv
