// LruTracker: maintains a set of keys ordered by (timestamp desc, key asc) and
// answers "the k most-recent keys" queries.
//
// This is the data structure behind the ΔLRU reconfiguration scheme
// (Section 3.1.1 of the paper): eligible colors are members, their paper
// timestamps are the recency values, and each reconfiguration phase asks for
// the top n/2 (ΔLRU) or n/4 (ΔLRU-EDF) members. Ties are broken by ascending
// key, matching the library-wide "consistent order of colors".
//
// Layout: flat arrays over the key universe (dense member list + per-key slot
// index), not an ordered tree. The scheduler hot path touches timestamps far
// more often than it asks for the top-k (every counter-wrap/boundary event vs
// once per reconfiguration phase), so Insert/Touch/Remove are O(1) with zero
// allocation and TopK does an O(members) selection against a preallocated
// scratch buffer. The key universe (color count) is small and fixed per run,
// which keeps the scan cache-friendly; the previous std::set implementation
// paid a node allocation plus rebalancing per touch and was the top
// non-engine entry in the BM_DlruEdf profile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "snapshot/codec.h"

namespace rrs {

class LruTracker {
 public:
  using key_type = uint32_t;

  explicit LruTracker(size_t capacity);

  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  // The member set in unspecified order (dense backing array). Lets callers
  // whose "universe of interest" is exactly the tracked set iterate it
  // without maintaining a second list.
  const std::vector<key_type>& members() const { return members_; }


  bool Contains(key_type key) const;

  // Inserts key with the given timestamp; key must be absent.
  void Insert(key_type key, int64_t timestamp);

  // Updates the timestamp of a present key.
  void Touch(key_type key, int64_t timestamp);

  // Removes a present key.
  void Remove(key_type key);

  int64_t TimestampOf(key_type key) const;

  // The up-to-k most recent keys, in (timestamp desc, key asc) order.
  std::vector<key_type> TopK(size_t k) const;

  // Appends the up-to-k most recent keys to out (avoids allocation in the
  // per-round scheduler hot path once the scratch buffer has warmed up).
  void TopK(size_t k, std::vector<key_type>& out) const;

  // The least recent member, or returns false if empty.
  bool Oldest(key_type& key) const;

  void Clear();

  // Empties the tracker and re-sizes the key universe, reusing all storage
  // (no allocation unless the universe grows). The session-reuse form of
  // construction: policies call this on every Reset instead of rebuilding
  // the tracker per run.
  void Reset(size_t capacity);

  // O(n) consistency check between the member list and the per-key index.
  bool CheckInvariants() const;

  // Checkpoint/restore. SaveState appends one self-checksummed section with
  // the member list, per-key index, and timestamps verbatim — dense-array
  // order included, because TopK ties and Oldest scans must replay
  // identically after a restore. LoadState requires a tracker Reset to the
  // same capacity.
  void SaveState(snapshot::Writer& w) const;
  void LoadState(snapshot::Reader& r);

 private:
  static constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);

  // Recency order: larger timestamp first, then smaller key. A functor (not
  // a function pointer) so the selection algorithms inline the comparison.
  struct MoreRecent {
    bool operator()(const std::pair<int64_t, key_type>& a,
                    const std::pair<int64_t, key_type>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };

  std::vector<key_type> members_;   // dense, unordered
  std::vector<uint32_t> slot_;      // key -> index in members_, or kAbsent
  // Timestamps parallel to members_ (slot-indexed, not key-indexed): TopK
  // and Oldest stream two dense arrays instead of gathering by key.
  std::vector<int64_t> timestamp_;
  // TopK selection scratch; mutable so const queries stay allocation-free.
  mutable std::vector<std::pair<int64_t, key_type>> scratch_;
};

}  // namespace rrs
