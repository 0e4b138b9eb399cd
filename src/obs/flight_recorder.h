// Crash-time flight recorder: fixed-size single-writer rings of structured
// binary events, dumpable from a signal handler.
//
// The fleet runners record tick boundaries, fault injections, slab occupancy
// transitions, and SLO budget exhaustion into per-worker rings (one writer
// per ring, no locks, no allocation after construction). When the process
// aborts mid-run, a SIGABRT/SIGSEGV handler installed via
// InstallFlightCrashHandler writes every ring to a post-mortem file using
// only async-signal-safe calls (open/write/close); tools/flight_decode
// pretty-prints the dump.
//
// The dump tolerates a torn in-flight event (the crash may interrupt a
// writer mid-Record): head is published with a release store after the slot
// is fully written, and the decoder drops any slot whose type field is out
// of range.
//
// At RRS_OBS_LEVEL=0 the recorder allocates nothing and Ring() returns
// nullptr; DumpToFd still writes a valid zero-ring dump so crash-handler
// wiring needs no level checks. The decoder half (DecodeFlightDump,
// FormatFlightEvent) is compiled at every level — a level-0 build must still
// read dumps produced by instrumented builds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/level.h"

namespace rrs {
namespace obs {

// Event vocabulary. Values are part of the dump format: append only.
// Values 4, 5 and 7 are retired (never reuse them, so an old dump's events
// never read as another kind).
enum FlightEventType : uint32_t {
  kFlightInvalid = 0,  // never recorded; what a torn/empty slot decodes as
  kFlightTick = 1,            // arg0=shard/worker, arg1=tick index
  kFlightAdmit = 2,           // arg0=shard/worker, arg1=job index
  kFlightFinish = 3,          // arg0=shard/worker, arg1=job index
  kFlightRestore = 6,         // arg0=worker, arg1=job index
  kFlightSlabOpen = 8,        // arg0=shard, arg1=live slabs after open
  kFlightSlabClose = 9,       // arg0=shard, arg1=live slabs after close
  kFlightSloExhausted = 10,   // arg0=shard, arg1=tenant, arg2=window index
  kFlightMark = 11,           // free-form marker (tests, tools)
  kNumFlightEventTypes = 12,
};

// Stable short name for an event type ("tick", "restore", ...); "invalid"
// for retired or out-of-range values.
const char* FlightEventTypeName(uint32_t type);

// One 32-byte slot. Field meaning depends on type (see enum comments).
struct FlightEvent {
  uint64_t ts_ns = 0;  // CLOCK_MONOTONIC, absolute
  uint32_t type = 0;
  uint32_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};
static_assert(sizeof(FlightEvent) == 32, "dump format assumes 32-byte slots");

inline constexpr size_t kFlightRingNameLen = 32;  // incl. NUL, dump format

// One single-writer ring. Record is wait-free: a relaxed head read, a slot
// write, a release head store. Readers (the dump path) take an acquire load
// of head and accept that the slot at head may be torn.
class FlightRing {
 public:
  void Record(uint32_t type, uint32_t arg0 = 0, uint64_t arg1 = 0,
              uint64_t arg2 = 0);
  // Record with a caller-supplied CLOCK_MONOTONIC stamp. Hot loops that emit
  // many events per tick (the fleet runners: one admit + one finish per
  // session) read the clock once at the tick barrier and stamp every event
  // in the tick with it — tick-granular timestamps, but ring order still
  // gives exact event ordering, and the per-event clock read (the dominant
  // Record cost at fleet scale) disappears.
  void RecordAt(uint64_t ts_ns, uint32_t type, uint32_t arg0 = 0,
                uint64_t arg1 = 0, uint64_t arg2 = 0);

  // Total events ever recorded (>= retained count once the ring wraps).
  uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  std::string_view name() const { return name_; }

 private:
  friend class FlightRecorder;

  char name_[kFlightRingNameLen] = {};
  FlightEvent* events_ = nullptr;  // capacity slots inside the recorder slab
  uint64_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
};

// Owns the ring directory and one pre-allocated event slab. Rings are
// registered once per worker (a mutex-guarded name lookup, cold) and
// recorded into lock-free afterwards; pointers stay stable for the
// recorder's lifetime.
class FlightRecorder {
 public:
  struct Options {
    uint32_t ring_capacity = 1024;  // events per ring; rounded up to 2^k
    uint32_t max_rings = 64;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);

  // Get-or-register the ring named `name` (truncated to 31 chars). Returns
  // nullptr when the directory is full or at RRS_OBS_LEVEL=0 — callers keep
  // the null and simply never record.
  FlightRing* Ring(std::string_view name);

  // Writes the dump using only async-signal-safe calls (write(2) loop, no
  // allocation). Safe to call from a signal handler while writers are live;
  // returns false on short/failed write.
  bool DumpToFd(int fd) const;

  // Convenience wrapper: open(path, TRUNC) + DumpToFd + close.
  bool DumpToFile(const char* path) const;

  uint32_t num_rings() const {
    return num_rings_.load(std::memory_order_acquire);
  }
  uint64_t ring_capacity() const { return capacity_; }

 private:
  uint64_t capacity_ = 0;
  uint32_t max_rings_ = 0;
  std::unique_ptr<FlightEvent[]> slab_;
  std::unique_ptr<FlightRing[]> rings_;
  std::atomic<uint32_t> num_rings_{0};
  std::mutex register_mutex_;
};

// Installs a SIGABRT+SIGSEGV handler that dumps `recorder` to `path` and
// re-raises with the default disposition (SA_RESETHAND), so the process
// still dies with the original signal after the dump. One recorder/path per
// process (static slots); pass nullptr to uninstall the hook's state (the
// handlers stay but become no-ops).
void InstallFlightCrashHandler(const FlightRecorder* recorder,
                               const char* path);

// ---- Decoder (compiled at every obs level) --------------------------------

struct DecodedFlightRing {
  std::string name;
  uint64_t recorded = 0;  // total ever recorded (retained <= capacity)
  std::vector<FlightEvent> events;  // oldest first, torn slots dropped
};

struct DecodedFlight {
  uint32_t version = 0;
  uint64_t ring_capacity = 0;
  std::vector<DecodedFlightRing> rings;
};

// Parses dump bytes. Returns false (with *error set) on bad magic, version,
// or truncation.
bool DecodeFlightDump(std::string_view bytes, DecodedFlight* out,
                      std::string* error);

// "+123.456ms tick worker=2 arg1=17 arg2=0" — timestamp relative to
// `epoch_ns` (pass the dump's earliest timestamp for aligned output).
std::string FormatFlightEvent(const FlightEvent& event, uint64_t epoch_ns);

}  // namespace obs
}  // namespace rrs
