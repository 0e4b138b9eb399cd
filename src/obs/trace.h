// Phase-scoped tracer with a ring-buffer sink and a Chrome trace_event
// exporter.
//
// Model: a Tracer owns a set of named *tracks* (rendered as rows in
// chrome://tracing / Perfetto, one synthetic tid per track). Each track is a
// fixed-capacity ring of complete events — when a track overflows, the
// oldest events are overwritten and the drop is counted, so tracing is
// always bounded-memory and safe to leave attached to a long run.
//
// Concurrency contract: RegisterTrack/ThreadTrack are thread-safe (mutex);
// Emit on a given track is lock- and allocation-free but single-writer —
// exactly one thread writes a track at a time. Engine runs register their
// own per-phase tracks (one writer: the run's thread); ParallelFor workers
// get per-thread tracks via ThreadTrack(), so sweep tasks running on the
// pool trace concurrently without sharing a ring. Export (ToChromeJson)
// takes the mutex and must only run after writers quiesce.
//
// The export is standard Chrome trace_event JSON ("X" complete events with
// per-track thread_name metadata), loadable in chrome://tracing and
// https://ui.perfetto.dev. One event per line, which also keeps it trivially
// greppable and machine-checkable (tests/obs_test.cpp round-trips it).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/level.h"

namespace rrs {
namespace obs {

// Monotonic timestamp in nanoseconds (steady_clock).
uint64_t NowNs();

// One track's ring. Opaque to callers; obtained from Tracer::RegisterTrack.
class TraceTrack {
 public:
  struct Event {
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;
    const char* name = nullptr;  // must outlive the tracer (string literals)
    uint64_t arg = 0;            // exported as args.round
  };

  const std::string& name() const { return name_; }
  uint64_t emitted() const { return emitted_; }
  uint64_t dropped() const {
    return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  }

 private:
  friend class Tracer;

  TraceTrack(std::string name, uint32_t tid, size_t capacity)
      : name_(std::move(name)), tid_(tid), ring_(capacity) {}

  void Push(const Event& e) {
    ring_[next_] = e;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++emitted_;
  }

  std::string name_;
  uint32_t tid_;
  std::vector<Event> ring_;
  size_t next_ = 0;
  uint64_t emitted_ = 0;
};

class Tracer {
 public:
  struct Options {
    size_t events_per_track = size_t{1} << 14;  // 16K events, ~640KB/track
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(Options options);

  // Creates a named track. The returned pointer is stable for the tracer's
  // lifetime. Thread-safe.
  TraceTrack* RegisterTrack(std::string name);

  // The calling thread's auto-registered track ("thread-<n>"), cached
  // per-thread so repeat calls are a pointer compare. Thread-safe.
  TraceTrack* ThreadTrack();

  // Records a complete event on `track`. Single-writer per track (see file
  // comment); lock-free and allocation-free.
  void Emit(TraceTrack* track, const char* name, uint64_t ts_ns,
            uint64_t dur_ns, uint64_t arg = 0) {
    track->Push({ts_ns, dur_ns, name, arg});
  }

  uint64_t epoch_ns() const { return epoch_ns_; }
  size_t num_tracks() const;
  uint64_t dropped_events() const;  // total across tracks

  // Chrome trace_event JSON. Call after all writers have finished.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  const Options options_;
  const uint64_t epoch_ns_;
  // Process-unique, never reused: the per-thread track cache keys on it, so
  // a tracer constructed at a destroyed tracer's address misses the cache.
  const uint64_t id_;
  mutable std::mutex mutex_;        // guards tracks_ structure, not rings
  std::deque<TraceTrack> tracks_;   // deque: stable element addresses
};

#if RRS_OBS_LEVEL >= 1

// RAII span: times its scope and emits one complete event on destruction.
// A null tracer (or track) makes the span free apart from one branch.
class Span {
 public:
  Span(Tracer* tracer, TraceTrack* track, const char* name, uint64_t arg = 0)
      : tracer_(track != nullptr ? tracer : nullptr),
        track_(track),
        name_(name),
        arg_(arg),
        start_ns_(tracer_ != nullptr ? NowNs() : 0) {}

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Emit(track_, name_, start_ns_, NowNs() - start_ns_, arg_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  TraceTrack* track_;
  const char* name_;
  uint64_t arg_;
  uint64_t start_ns_;
};

#else  // RRS_OBS_LEVEL == 0: spans erase to nothing.

class Span {
 public:
  Span(Tracer*, TraceTrack*, const char*, uint64_t = 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif

}  // namespace obs
}  // namespace rrs
