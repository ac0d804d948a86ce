// Dense per-action marks keyed by UID.
//
// Action UIDs come from a UidGenerator: (seed, 1), (seed, 2), ... So a
// table of small per-action values (an outcome, a "terminated" flag) packs
// into bitmap pages of 4096 consecutive sequence numbers, keyed by
// (seed, seq / 4096): `Bits` bits per action, not a tree node. Any UID
// works; sparse ones just cost a page each.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "util/uid.h"

namespace gv {

template <unsigned Bits>
class DenseUidTable {
  static_assert(Bits == 1 || Bits == 2 || Bits == 4 || Bits == 8);

 public:
  // The value stored for `uid`; 0 if never set.
  std::uint8_t get(const Uid& uid) const {
    auto it = pages_.find(page_key(uid));
    if (it == pages_.end()) return 0;
    const std::uint64_t bit = (uid.lo() % kPageEntries) * Bits;
    return static_cast<std::uint8_t>((it->second[bit / 64] >> (bit % 64)) & kMask);
  }

  // Store `value` (< 2^Bits) for `uid`, replacing any earlier value.
  void set(const Uid& uid, std::uint8_t value) {
    std::uint64_t& word = pages_[page_key(uid)][(uid.lo() % kPageEntries) * Bits / 64];
    const std::uint64_t shift = (uid.lo() % kPageEntries) * Bits % 64;
    word = (word & ~(kMask << shift)) | (static_cast<std::uint64_t>(value & kMask) << shift);
  }

  void clear() noexcept { pages_.clear(); }

 private:
  static constexpr std::uint64_t kPageEntries = 4096;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << Bits) - 1;
  using Page = std::array<std::uint64_t, kPageEntries * Bits / 64>;  // value-initialised: zeros

  // (generator seed, page number) as one UID, hashed with std::hash<Uid>.
  static Uid page_key(const Uid& uid) noexcept { return Uid{uid.hi(), uid.lo() / kPageEntries}; }

  std::unordered_map<Uid, Page> pages_;
};

}  // namespace gv
