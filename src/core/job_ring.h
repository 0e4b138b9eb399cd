// Per-color pending FIFO: a power-of-two ring over SoA (job id, deadline)
// arrays. A color's deadlines arrive in nondecreasing order, so FIFO order
// is earliest-deadline order. Capacity starts small and doubles on demand,
// so a ring holds roughly the color's *maximum backlog* — typically orders
// of magnitude below its total job count — which keeps the working set
// cache-resident and round-over-round memory reuse high (unlike a
// total-jobs-sized slab, whose tail writes only ever touch cold lines).
// Capacity is session-owned: clear() empties the ring but keeps the arrays,
// so a reused session serves its next tenant allocation-free.
//
// Extracted from core/engine.cpp so the lane-parallel fleet core
// (fleet/batch_engine) can step per-lane rings through the same structure
// the scalar Engine uses — bit-identical ring contents are the foundation
// of the batched path's differential guarantee.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "snapshot/codec.h"
#include "util/check.h"

namespace rrs {

class JobRing {
 public:
  bool empty() const { return size_ == 0; }
  uint32_t size() const { return size_; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  JobId front_job() const {
    RRS_DCHECK(size_ > 0);
    return job_[head_];
  }
  Round front_deadline() const {
    RRS_DCHECK(size_ > 0);
    return deadline_[head_];
  }
  // The i-th entry after the front (i < size()).
  Round deadline_at(uint32_t i) const {
    RRS_DCHECK(i < size_);
    return deadline_[(head_ + i) & mask_];
  }
  JobId job_at(uint32_t i) const {
    RRS_DCHECK(i < size_);
    return job_[(head_ + i) & mask_];
  }

  // Grows (never shrinks) to hold at least `n` entries. Sessions call this
  // at bind time with the tenant's per-color backlog bound
  // (Instance::max_backlog), so the round loop never grows a ring mid-run:
  // all ring allocation happens at the tenant boundary, where a warm session
  // of sufficient capacity performs none at all.
  void Reserve(uint32_t n) {
    while (n > capacity()) Grow();
  }

  // Appends `count` jobs with consecutive ids [first, first + count) and a
  // common deadline.
  void push_run(JobId first, Round deadline, uint32_t count) {
    while (size_ + count > capacity()) Grow();
    uint32_t at = (head_ + size_) & mask_;
    for (uint32_t m = 0; m < count; ++m) {
      job_[at] = first + m;
      deadline_[at] = deadline;
      at = (at + 1) & mask_;
    }
    size_ += count;
  }

  void pop_n(uint32_t n) {
    RRS_DCHECK(n <= size_);
    head_ = (head_ + n) & mask_;
    size_ -= n;
  }

  // True when the first n entries are contiguous in memory (no wraparound),
  // i.e. they can be exposed as a span without copying.
  bool front_contiguous(uint32_t n) const { return head_ + n <= capacity(); }
  const JobId* front_ptr() const { return &job_[head_]; }

  // Checkpoint/restore: entries in FIFO order. Capacity and head position
  // are deliberately not saved — they are layout, not state; a restored ring
  // re-packs from index 0 and regrows on demand. LoadState checks the layout
  // only; the engine codec (core/round_loop.h) checks the deadlines against
  // the run.
  void SaveState(snapshot::Writer& w) const {
    w.PutU64(size_);
    for (uint32_t i = 0; i < size_; ++i) w.PutU64(job_at(i));
    for (uint32_t i = 0; i < size_; ++i) w.PutI64(deadline_at(i));
  }
  void LoadState(snapshot::Reader& r) {
    clear();
    const uint32_t n = r.GetU32();
    // Two words per entry: check the count before growing to it.
    RRS_CHECK_LE(uint64_t{2} * n, r.remaining())
        << "snapshot ring overruns section";
    while (n > capacity()) Grow();
    const std::span<const uint64_t> words = r.GetWords(uint64_t{2} * n);
    for (uint32_t i = 0; i < n; ++i) {
      RRS_CHECK_LE(words[i], 0xffffffffULL) << "snapshot u32 overflow";
      job_[i] = static_cast<JobId>(words[i]);
      deadline_[i] = static_cast<Round>(words[n + i]);
    }
    size_ = n;
  }

 private:
  uint32_t capacity() const { return static_cast<uint32_t>(job_.size()); }

  void Grow() {
    const uint32_t old_cap = capacity();
    const uint32_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
    std::vector<JobId> job(new_cap);
    std::vector<Round> deadline(new_cap);
    for (uint32_t i = 0; i < size_; ++i) {
      const uint32_t at = (head_ + i) & mask_;
      job[i] = job_[at];
      deadline[i] = deadline_[at];
    }
    job_ = std::move(job);
    deadline_ = std::move(deadline);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<JobId> job_;
  std::vector<Round> deadline_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;  // capacity - 1 (capacity is a power of two, or 0)
};

}  // namespace rrs
