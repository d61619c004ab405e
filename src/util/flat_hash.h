// Open-addressing hash containers over dense integer ids.
//
// The grouping and churn hot paths key everything by small dense
// integers (path ids, AS ids, URL ids).  Node-based std::set/std::map
// spend most of their time allocating and chasing nodes there; these
// containers keep their slots in one flat array (linear probing,
// power-of-two capacity, load factor at most 1/2) and allocate nothing
// until the first insert.
//
// Neither container defines an iteration order: callers that need one
// (checkpoints serialize sets in ascending order) sort a copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace ct::util {

/// Finalizer of a 64-bit key into a well-spread hash (the splitmix64
/// output mix).
constexpr std::uint64_t hash_u64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Set of non-negative int32 ids.  -1 marks an empty slot, so a
/// negative id is a caller bug (checked by the callers, which reject
/// negative path ids before they get here).
class FlatIdSet {
 public:
  /// Inserts `id`; true iff it was not present.
  bool insert(std::int32_t id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = slot_of(id);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == id) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = id;
    ++size_;
    return true;
  }

  bool contains(std::int32_t id) const {
    if (slots_.empty()) return false;
    for (std::size_t i = slot_of(id);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == id) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }

  /// Calls fn(id) for every member, in slot (unspecified) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::int32_t id : slots_) {
      if (id != kEmpty) fn(id);
    }
  }

  /// Members in ascending order.
  std::vector<std::int32_t> sorted() const {
    std::vector<std::int32_t> out;
    out.reserve(size_);
    for_each([&](std::int32_t id) { out.push_back(id); });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  std::size_t slot_of(std::int32_t id) const {
    return static_cast<std::size_t>(hash_u64(static_cast<std::uint32_t>(id))) &
           (slots_.size() - 1);
  }

  void grow() {
    std::vector<std::int32_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), kEmpty);
    for (const std::int32_t id : old) {
      if (id == kEmpty) continue;
      std::size_t i = slot_of(id);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  std::vector<std::int32_t> slots_;
  std::size_t size_ = 0;
};

/// Map from a 64-bit key (typically two packed 32-bit ids) to a
/// non-negative int32 value; -1 marks an empty slot.
class FlatIndex {
 public:
  static constexpr std::int32_t kAbsent = -1;

  /// Value of `key`, or kAbsent.
  std::int32_t find(std::uint64_t key) const {
    if (values_.empty()) return kAbsent;
    for (std::size_t i = slot_of(key);; i = (i + 1) & (values_.size() - 1)) {
      if (values_[i] == kAbsent) return kAbsent;
      if (keys_[i] == key) return values_[i];
    }
  }

  /// Maps `key` to `value` unless it is already mapped; returns the
  /// key's value either way (std::map::emplace semantics).  `value`
  /// must be non-negative.
  std::int32_t emplace(std::uint64_t key, std::int32_t value) {
    if (2 * (size_ + 1) > values_.size()) grow();
    std::size_t i = slot_of(key);
    while (values_[i] != kAbsent) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (values_.size() - 1);
    }
    keys_[i] = key;
    values_[i] = value;
    ++size_;
    return value;
  }

  std::size_t size() const { return size_; }

  void clear() {
    keys_.clear();
    values_.clear();
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in slot (unspecified) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (values_[i] != kAbsent) fn(keys_[i], values_[i]);
    }
  }

 private:
  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash_u64(key)) & (values_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::int32_t> old_values = std::move(values_);
    const std::size_t cap = old_values.empty() ? 8 : 2 * old_values.size();
    keys_.assign(cap, 0);
    values_.assign(cap, kAbsent);
    for (std::size_t j = 0; j < old_values.size(); ++j) {
      if (old_values[j] == kAbsent) continue;
      std::size_t i = slot_of(old_keys[j]);
      while (values_[i] != kAbsent) i = (i + 1) & (cap - 1);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::int32_t> values_;
  std::size_t size_ = 0;
};

/// Packs two 32-bit ids into one FlatIndex key.
constexpr std::uint64_t pack_ids(std::int32_t hi, std::int32_t lo) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

}  // namespace ct::util
