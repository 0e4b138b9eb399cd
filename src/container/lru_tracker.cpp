#include "container/lru_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {

LruTracker::LruTracker(size_t capacity) : slot_(capacity, kAbsent) {
  members_.reserve(capacity);
  timestamp_.reserve(capacity);
  scratch_.reserve(capacity);
}

bool LruTracker::Contains(key_type key) const {
  RRS_DCHECK(key < slot_.size());
  return slot_[key] != kAbsent;
}

void LruTracker::Insert(key_type key, int64_t timestamp) {
  RRS_CHECK(!Contains(key)) << "key " << key << " already tracked";
  slot_[key] = static_cast<uint32_t>(members_.size());
  members_.push_back(key);
  timestamp_.push_back(timestamp);
}

void LruTracker::Touch(key_type key, int64_t timestamp) {
  RRS_CHECK(Contains(key)) << "key " << key << " not tracked";
  timestamp_[slot_[key]] = timestamp;
}

void LruTracker::Remove(key_type key) {
  RRS_CHECK(Contains(key)) << "key " << key << " not tracked";
  const uint32_t at = slot_[key];
  const key_type last = members_.back();
  members_[at] = last;
  timestamp_[at] = timestamp_.back();
  slot_[last] = at;
  members_.pop_back();
  timestamp_.pop_back();
  slot_[key] = kAbsent;
}

int64_t LruTracker::TimestampOf(key_type key) const {
  RRS_CHECK(Contains(key));
  return timestamp_[slot_[key]];
}

std::vector<LruTracker::key_type> LruTracker::TopK(size_t k) const {
  std::vector<key_type> out;
  TopK(k, out);
  return out;
}

void LruTracker::TopK(size_t k, std::vector<key_type>& out) const {
  out.clear();
  if (k == 0 || members_.empty()) return;
  scratch_.clear();
  if (k < members_.size() && k <= 16) {
    // Bounded insertion select: keep the best k seen so far sorted in
    // scratch_. Most members lose the single comparison against the current
    // k-th entry, so this is ~one branch per member for the tiny k the
    // schedulers use (n/4 colors for n resources).
    const MoreRecent better;
    for (size_t i = 0; i < members_.size(); ++i) {
      const std::pair<int64_t, key_type> cand{timestamp_[i], members_[i]};
      if (scratch_.size() == k) {
        if (!better(cand, scratch_.back())) continue;
        scratch_.pop_back();
      }
      scratch_.insert(
          std::upper_bound(scratch_.begin(), scratch_.end(), cand, better),
          cand);
    }
  } else {
    for (size_t i = 0; i < members_.size(); ++i) {
      scratch_.emplace_back(timestamp_[i], members_[i]);
    }
    if (k < scratch_.size()) {
      std::partial_sort(scratch_.begin(), scratch_.begin() + k, scratch_.end(),
                        MoreRecent{});
      scratch_.resize(k);
    } else {
      std::sort(scratch_.begin(), scratch_.end(), MoreRecent{});
    }
  }
  for (const auto& [ts, key] : scratch_) out.push_back(key);
}

bool LruTracker::Oldest(key_type& key) const {
  if (members_.empty()) return false;
  key_type best = members_[0];
  int64_t best_ts = timestamp_[0];
  for (size_t i = 1; i < members_.size(); ++i) {
    const key_type candidate = members_[i];
    // Least recent: smaller timestamp first, ties by larger key (the reverse
    // of the recency order).
    if (timestamp_[i] < best_ts ||
        (timestamp_[i] == best_ts && candidate > best)) {
      best = candidate;
      best_ts = timestamp_[i];
    }
  }
  key = best;
  return true;
}

void LruTracker::Clear() {
  for (key_type key : members_) slot_[key] = kAbsent;
  members_.clear();
  timestamp_.clear();
}

void LruTracker::Reset(size_t capacity) {
  Clear();
  // Clear() already re-marked every tracked key absent; only a grown
  // universe needs new (absent) entries.
  slot_.resize(capacity, kAbsent);
  members_.reserve(capacity);
  timestamp_.reserve(capacity);
  scratch_.reserve(capacity);
}

void LruTracker::SaveState(snapshot::Writer& w) const {
  w.BeginSection(snapshot::kTagLruTracker);
  w.PutVec(members_);
  w.PutVec(slot_);
  w.PutVec(timestamp_);
  w.EndSection();
}

void LruTracker::LoadState(snapshot::Reader& r) {
  r.BeginSection(snapshot::kTagLruTracker);
  const size_t capacity = slot_.size();
  r.GetVec(members_);
  r.GetVec(slot_);
  r.GetVec(timestamp_);
  r.EndSection();
  RRS_CHECK_EQ(slot_.size(), capacity)
      << "LruTracker restored into a different key universe";
  RRS_CHECK(CheckInvariants());
}

bool LruTracker::CheckInvariants() const {
  size_t present_count = 0;
  for (size_t key = 0; key < slot_.size(); ++key) {
    if (slot_[key] == kAbsent) continue;
    ++present_count;
    if (slot_[key] >= members_.size()) return false;
    if (members_[slot_[key]] != static_cast<key_type>(key)) return false;
  }
  return present_count == members_.size() &&
         timestamp_.size() == members_.size();
}

}  // namespace rrs
