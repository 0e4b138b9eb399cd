// FlatMap: a sorted-vector map with binary-search lookup.
//
// For the small, short-lived key sets in the scheduling hot paths (e.g. the
// OnlineSolver's buffered VarBatch batches, keyed by upcoming boundary round
// and color), a contiguous sorted vector beats a node-based std::map on both
// locality and allocation churn. Insertion is O(n) by shifting — fine for
// the dozens-of-entries regime this is built for; the E11 bench quantifies
// the crossover against std::map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace rrs {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  iterator find(const Key& key) {
    iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const Key& key) const {
    const_iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  bool contains(const Key& key) const { return find(key) != end(); }

  // Inserts default Value if absent.
  Value& operator[](const Key& key) {
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) return it->second;
    return entries_.insert(it, {key, Value{}})->second;
  }

  const Value& at(const Key& key) const {
    const_iterator it = find(key);
    RRS_CHECK(it != end()) << "FlatMap::at: missing key";
    return it->second;
  }

  // Returns (iterator, inserted).
  std::pair<iterator, bool> emplace(Key key, Value value) {
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    return {entries_.insert(it, {std::move(key), std::move(value)}), true};
  }

  void erase(iterator it) { entries_.erase(it); }
  size_t erase(const Key& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  // The smallest entry, if any (the map is sorted by key).
  const value_type& front() const {
    RRS_CHECK(!empty());
    return entries_.front();
  }

  bool CheckInvariants() const {
    return std::is_sorted(
        entries_.begin(), entries_.end(),
        [](const value_type& a, const value_type& b) { return a.first < b.first; });
  }

 private:
  iterator LowerBound(const Key& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }
  const_iterator LowerBound(const Key& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace rrs
