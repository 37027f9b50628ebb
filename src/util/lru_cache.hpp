// Bounded least-recently-used cache: the one eviction policy of the route
// caches at both layers. A hit refreshes the entry's recency; a miss first
// evicts the coldest entries until there is room and only then inserts, so
// the key being queried is never evicted. A reference returned by get()
// stays valid until that entry is evicted or the cache is cleared.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace spider::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity = std::size_t(-1)) {
    set_capacity(capacity);
  }
  // Move-only: the index holds iterators into the entry list.
  LruCache(LruCache&&) = default;
  LruCache& operator=(LruCache&&) = default;

  /// Caps the entry count (minimum 1); a lower cap applies at the next miss.
  void set_capacity(std::size_t capacity) {
    capacity_ = std::max<std::size_t>(capacity, 1);
  }

  /// The value cached under `key`, marked most recently used. On a miss,
  /// evicts least-recently-used entries until one slot is free, then
  /// caches and returns `make()`.
  template <typename Make>
  Value& get(const Key& key, Make&& make) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      entries_.splice(entries_.begin(), entries_, it->second);
      return it->second->second;
    }
    while (index_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
    ++misses_;
    entries_.emplace_front(key, make());
    index_.emplace(key, entries_.begin());
    return entries_.front().second;
  }

  /// Drops every entry; not counted as evictions.
  void clear() {
    index_.clear();
    entries_.clear();
  }

  std::size_t size() const { return index_.size(); }
  /// Values computed (misses) since construction, clears included.
  std::uint64_t misses() const { return misses_; }
  /// Entries dropped to make room since construction.
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Entry = std::pair<Key, Value>;
  std::list<Entry> entries_;  // most recently used first
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::size_t capacity_ = 1;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace spider::util
