#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace rrs {
namespace obs {

namespace {

constexpr char kFlightMagic[8] = {'R', 'R', 'S', 'F', 'L', 'T', 'R', 'C'};
constexpr uint32_t kFlightVersion = 1;

// write(2) loop, EINTR-tolerant. The only I/O primitive the dump path uses,
// so the whole path stays async-signal-safe.
bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

const char* FlightEventTypeName(uint32_t type) {
  switch (type) {
    case kFlightTick: return "tick";
    case kFlightAdmit: return "admit";
    case kFlightFinish: return "finish";
    case kFlightRestore: return "restore";
    case kFlightSlabOpen: return "slab-open";
    case kFlightSlabClose: return "slab-close";
    case kFlightSloExhausted: return "slo-exhausted";
    case kFlightMark: return "mark";
    default: return "invalid";
  }
}

void FlightRing::Record(uint32_t type, uint32_t arg0, uint64_t arg1,
                        uint64_t arg2) {
  RecordAt(NowNs(), type, arg0, arg1, arg2);
}

void FlightRing::RecordAt(uint64_t ts_ns, uint32_t type, uint32_t arg0,
                          uint64_t arg1, uint64_t arg2) {
  const uint64_t seq = head_.load(std::memory_order_relaxed);
  FlightEvent& e = events_[seq & mask_];
  e.ts_ns = ts_ns;
  e.type = type;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  head_.store(seq + 1, std::memory_order_release);
}

FlightRecorder::FlightRecorder(Options options) {
#if RRS_OBS_LEVEL >= 1
  capacity_ = std::bit_ceil(
      static_cast<uint64_t>(options.ring_capacity < 2 ? 2
                                                      : options.ring_capacity));
  max_rings_ = options.max_rings;
  slab_ = std::make_unique<FlightEvent[]>(capacity_ * max_rings_);
  rings_ = std::make_unique<FlightRing[]>(max_rings_);
#else
  (void)options;  // level 0: no slab, Ring() stays null, dumps are empty
#endif
}

FlightRing* FlightRecorder::Ring(std::string_view name) {
  if (max_rings_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(register_mutex_);
  const uint32_t n = num_rings_.load(std::memory_order_relaxed);
  char truncated[kFlightRingNameLen] = {};
  std::memcpy(truncated, name.data(),
              std::min(name.size(), kFlightRingNameLen - 1));
  for (uint32_t i = 0; i < n; ++i) {
    if (std::strcmp(rings_[i].name_, truncated) == 0) return &rings_[i];
  }
  if (n >= max_rings_) return nullptr;
  FlightRing& ring = rings_[n];
  std::memcpy(ring.name_, truncated, kFlightRingNameLen);
  ring.events_ = slab_.get() + static_cast<uint64_t>(n) * capacity_;
  ring.mask_ = capacity_ - 1;
  num_rings_.store(n + 1, std::memory_order_release);
  return &ring;
}

bool FlightRecorder::DumpToFd(int fd) const {
  const uint32_t n = num_rings_.load(std::memory_order_acquire);
  char header[24];
  std::memcpy(header, kFlightMagic, 8);
  std::memcpy(header + 8, &kFlightVersion, 4);
  std::memcpy(header + 12, &n, 4);
  std::memcpy(header + 16, &capacity_, 8);
  if (!WriteAll(fd, header, sizeof(header))) return false;
  for (uint32_t i = 0; i < n; ++i) {
    const FlightRing& ring = rings_[i];
    const uint64_t head = ring.head_.load(std::memory_order_acquire);
    if (!WriteAll(fd, ring.name_, kFlightRingNameLen)) return false;
    if (!WriteAll(fd, &head, 8)) return false;
    if (!WriteAll(fd, ring.events_, capacity_ * sizeof(FlightEvent))) {
      return false;
    }
  }
  return true;
}

bool FlightRecorder::DumpToFile(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = DumpToFd(fd);
  ::close(fd);
  return ok;
}

// ---- Crash handler --------------------------------------------------------

namespace {

// Static slots: signal handlers get no arguments, so the recorder and path
// live in process globals written before any fault can fire.
const FlightRecorder* g_crash_recorder = nullptr;
char g_crash_path[256] = {};

void FlightCrashHandler(int sig) {
  const FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->DumpToFd(fd);
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition before we ran; re-raising
  // terminates with the original signal (keeps exit status and core dumps).
  ::raise(sig);
}

}  // namespace

void InstallFlightCrashHandler(const FlightRecorder* recorder,
                               const char* path) {
  g_crash_recorder = recorder;
  if (path != nullptr) {
    std::strncpy(g_crash_path, path, sizeof(g_crash_path) - 1);
    g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  } else {
    g_crash_path[0] = '\0';
  }
  if (recorder == nullptr) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FlightCrashHandler;
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGABRT, &action, nullptr);
  ::sigaction(SIGSEGV, &action, nullptr);
}

// ---- Decoder --------------------------------------------------------------

bool DecodeFlightDump(std::string_view bytes, DecodedFlight* out,
                      std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (bytes.size() < 24) return fail("truncated header");
  if (std::memcmp(bytes.data(), kFlightMagic, 8) != 0) {
    return fail("bad magic");
  }
  uint32_t version = 0, ring_count = 0;
  uint64_t capacity = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&ring_count, bytes.data() + 12, 4);
  std::memcpy(&capacity, bytes.data() + 16, 8);
  if (version != kFlightVersion) return fail("unsupported version");
  out->version = version;
  out->ring_capacity = capacity;
  out->rings.clear();
  size_t at = 24;
  const size_t ring_bytes =
      kFlightRingNameLen + 8 + capacity * sizeof(FlightEvent);
  for (uint32_t i = 0; i < ring_count; ++i) {
    if (bytes.size() - at < ring_bytes) return fail("truncated ring");
    DecodedFlightRing ring;
    const char* name = bytes.data() + at;
    ring.name.assign(name, strnlen(name, kFlightRingNameLen));
    uint64_t head = 0;
    std::memcpy(&head, bytes.data() + at + kFlightRingNameLen, 8);
    ring.recorded = head;
    const char* slots = bytes.data() + at + kFlightRingNameLen + 8;
    // Oldest retained event first: below one wrap that is slot 0; after a
    // wrap it is the slot head points at (about to be overwritten next).
    const uint64_t retained = head < capacity ? head : capacity;
    const uint64_t start = head < capacity ? 0 : head & (capacity - 1);
    ring.events.reserve(retained);
    for (uint64_t k = 0; k < retained; ++k) {
      FlightEvent event;
      std::memcpy(&event, slots + ((start + k) & (capacity - 1)) * 32, 32);
      // A crash can tear the slot the writer was filling; drop anything the
      // vocabulary does not cover rather than mislead the post-mortem.
      if (event.type == kFlightInvalid ||
          event.type >= kNumFlightEventTypes) {
        continue;
      }
      ring.events.push_back(event);
    }
    out->rings.push_back(std::move(ring));
    at += ring_bytes;
  }
  return true;
}

std::string FormatFlightEvent(const FlightEvent& event, uint64_t epoch_ns) {
  const double ms =
      static_cast<double>(event.ts_ns - epoch_ns) / 1e6;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "+%10.3fms %-13s arg0=%u arg1=%llu arg2=%llu", ms,
                FlightEventTypeName(event.type), event.arg0,
                static_cast<unsigned long long>(event.arg1),
                static_cast<unsigned long long>(event.arg2));
  return buf;
}

}  // namespace obs
}  // namespace rrs
