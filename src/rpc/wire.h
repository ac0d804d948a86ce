// Typed wire codec: the one encoder and decoder behind every RPC argument
// list and reply, the group-invocation multicast and the naming
// databases' stable records. A format is declared once, as C++ types, and
// both directions are generated from it. The bytes are exactly those of
// the matching Buffer::pack_* sequence:
//
//   * bool, u32, u64, std::string, Uid and a nested Buffer use Buffer's
//     pack_*/unpack_* calls. An enum is a u8; when a
//     `wire_last(E)` overload names its last value, decode refuses more.
//   * A vector is a u32 count then its elements (the bytes of
//     pack_u32_vector and pack_uid_vector); a map the same, each element
//     a key then a value.
//   * An optional is a bool, then the value when one is present.
//   * A tuple or pair, or a struct naming its fields with GV_WIRE_FIELDS,
//     is those fields in order.
//
// decode() fills existing objects in place and returns false on a short
// or corrupt buffer; bytes after the last field are left unread. A count
// is checked against the bytes left before anything is reserved for it:
// every element takes at least one byte.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/buffer.h"
#include "util/uid.h"

// Inside a struct: the fields that travel, in wire order.
#define GV_WIRE_FIELDS(...)                            \
  auto wire_fields() { return std::tie(__VA_ARGS__); } \
  auto wire_fields() const { return std::tie(__VA_ARGS__); }

namespace gv::rpc {

namespace wire {

// Is<T, Tmpl>: T is an instance of the class template Tmpl.
template <typename T, template <typename...> class Tmpl>
struct Is : std::false_type {};
template <template <typename...> class Tmpl, typename... A>
struct Is<Tmpl<A...>, Tmpl> : std::true_type {};
template <typename T>
constexpr bool kTupleLike = Is<T, std::tuple>::value || Is<T, std::pair>::value;

// The Buffer calls of each scalar type.
template <typename T>
struct Scalar;
#define GV_WIRE_SCALAR(T, name)                                   \
  template <>                                                     \
  struct Scalar<T> {                                              \
    static void put(Buffer& b, const T& v) { b.pack_##name(v); } \
    static Result<T> get(Buffer& b) { return b.unpack_##name(); } \
  };
GV_WIRE_SCALAR(bool, bool)
GV_WIRE_SCALAR(std::uint32_t, u32)
GV_WIRE_SCALAR(std::uint64_t, u64)
GV_WIRE_SCALAR(std::string, string)
GV_WIRE_SCALAR(Uid, uid)
GV_WIRE_SCALAR(Buffer, bytes)
#undef GV_WIRE_SCALAR
static_assert(sizeof(Uid) == 16, "a Uid is two u64 on the wire");

// The encoded size of `v`, so a message is built in one exact allocation.
template <typename T>
std::size_t size(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return 1;
  } else if constexpr (Is<T, std::vector>::value || Is<T, std::map>::value) {
    std::size_t n = 4;
    for (const auto& x : v) n += wire::size(x);
    return n;
  } else if constexpr (Is<T, std::optional>::value) {
    return 1 + (v ? wire::size(*v) : 0);
  } else if constexpr (kTupleLike<T>) {
    return std::apply([](const auto&... f) { return (std::size_t{0} + ... + wire::size(f)); }, v);
  } else if constexpr (requires { v.wire_fields(); }) {
    return wire::size(v.wire_fields());
  } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, Buffer>) {
    return 4 + v.size();  // length prefix, then the bytes
  } else {
    return std::is_same_v<T, bool> ? 1 : sizeof(T);  // u32, u64, Uid: fixed width
  }
}

template <typename T>
void put(Buffer& b, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    static_assert(std::is_same_v<std::underlying_type_t<T>, std::uint8_t>, "a wire enum is a u8");
    b.pack_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (Is<T, std::vector>::value || Is<T, std::map>::value) {
    b.pack_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& x : v) wire::put(b, x);
  } else if constexpr (Is<T, std::optional>::value) {
    b.pack_bool(v.has_value());
    if (v) wire::put(b, *v);
  } else if constexpr (kTupleLike<T>) {
    std::apply([&b](const auto&... f) { (wire::put(b, f), ...); }, v);
  } else if constexpr (requires { v.wire_fields(); }) {
    wire::put(b, v.wire_fields());
  } else {
    Scalar<T>::put(b, v);
  }
}

template <typename T>
bool get(Buffer& b, T& v) {
  if constexpr (std::is_enum_v<T>) {
    auto r = b.unpack_u8();
    if (!r.ok()) return false;
    if constexpr (requires { wire_last(v); })
      if (r.value() > static_cast<std::uint8_t>(wire_last(v))) return false;
    v = static_cast<T>(r.value());
    return true;
  } else if constexpr (Is<T, std::vector>::value || Is<T, std::map>::value) {
    auto n = b.unpack_u32();
    if (!n.ok() || n.value() > b.remaining()) return false;
    v.clear();
    if constexpr (Is<T, std::vector>::value) {
      v.reserve(n.value());
      for (std::uint32_t i = 0; i < n.value(); ++i)
        if (!wire::get(b, v.emplace_back())) return false;
    } else {
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        std::pair<typename T::key_type, typename T::mapped_type> kv;
        if (!wire::get(b, kv)) return false;
        v.insert_or_assign(std::move(kv.first), std::move(kv.second));
      }
    }
    return true;
  } else if constexpr (Is<T, std::optional>::value) {
    auto present = b.unpack_bool();
    if (!present.ok()) return false;
    if (!present.value()) v.reset();
    return !present.value() || wire::get(b, v.emplace());
  } else if constexpr (kTupleLike<T>) {
    return std::apply([&b](auto&... f) { return (wire::get(b, f) && ...); }, v);
  } else if constexpr (requires { v.wire_fields(); }) {
    auto fields = v.wire_fields();
    return wire::get(b, fields);
  } else {
    auto r = Scalar<T>::get(b);
    if (r.ok()) v = std::move(r).value();
    return r.ok();
  }
}

}  // namespace wire

// Encode `v...` in order into one exactly-sized buffer.
template <typename... T>
Buffer encode(const T&... v) {
  Buffer b;
  b.reserve((std::size_t{0} + ... + wire::size(v)));
  (wire::put(b, v), ...);
  return b;
}

// Decode `v...` in order from `b`'s cursor; false if `b` is short or
// corrupt (the values are then unspecified).
template <typename... T>
bool decode(Buffer& b, T&... v) {
  return (wire::get(b, v) && ...);
}

}  // namespace gv::rpc
