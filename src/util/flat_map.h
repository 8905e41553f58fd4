#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace kgacc {

/// Hash map from 64-bit ids (cluster ids, triple ordinals) to `Value` in one
/// flat array of slots: linear probing, at most half full, no node per entry.
/// A key's home slot is the top bits of its Fibonacci product, which spreads
/// dense, strided and hash-selected id ranges alike. ~0 marks an empty slot
/// and is not a valid key. Growing moves every value, so a pointer into the
/// map lasts until the next TryEmplace.
template <typename Value>
class FlatMap64 {
 public:
  static constexpr uint64_t kNoKey = ~uint64_t{0};

  /// The value of `key`, and whether this call inserted it (value-
  /// initialized).
  std::pair<Value*, bool> TryEmplace(uint64_t key) {
    KGACC_CHECK(key != kNoKey) << "~0 is reserved for empty slots";
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kNoKey) {
        slot.key = key;
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  size_t size() const { return size_; }

  /// Calls `visit(value)` for every entry, in slot order.
  template <typename Visit>
  void ForEachValue(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kNoKey) visit(slot.value);
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint64_t key = kNoKey;
    [[no_unique_address]] Value value{};
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kMinSlots : 2 * old.size();
    slots_ = std::vector<Slot>(capacity);
    shift_ = 64 - std::countr_zero(capacity);
    for (Slot& slot : old) {
      if (slot.key == kNoKey) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != kNoKey) i = (i + 1) & (capacity - 1);
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 63;
};

/// A set of 64-bit ids: a FlatMap64 whose slots hold only the key.
class FlatSet64 {
 public:
  /// True when `key` was not in the set yet.
  bool Insert(uint64_t key) { return map_.TryEmplace(key).second; }
  size_t size() const { return map_.size(); }

 private:
  struct NoValue {};
  FlatMap64<NoValue> map_;
};

}  // namespace kgacc
