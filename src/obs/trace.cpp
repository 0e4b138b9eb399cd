#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace rrs {
namespace obs {

namespace {

// Tracer ids start at 1, so 0 never matches a live tracer.
uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(Options options)
    : options_(options), epoch_ns_(NowNs()), id_(NextTracerId()) {}

TraceTrack* Tracer::RegisterTrack(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t tid = static_cast<uint32_t>(tracks_.size());
  tracks_.emplace_back(
      TraceTrack(std::move(name), tid, std::max<size_t>(options_.events_per_track, 1)));
  return &tracks_.back();
}

TraceTrack* Tracer::ThreadTrack() {
  // Cached per (thread, tracer id). A thread that alternates between tracers
  // re-registers; our usage is one tracer per process at a time.
  thread_local uint64_t cached_id = 0;
  thread_local TraceTrack* cached_track = nullptr;
  if (cached_id != id_) {
    TraceTrack* track = RegisterTrack("thread");
    track->name_ += "-" + std::to_string(track->tid_);
    cached_track = track;
    cached_id = id_;
  }
  return cached_track;
}

size_t Tracer::num_tracks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracks_.size();
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (const TraceTrack& t : tracks_) dropped += t.dropped();
  return dropped;
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  auto append = [&](const char* line) {
    if (!first) out += ",\n";
    out += line;
    first = false;
  };
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                "\"args\":{\"name\":\"rrsched\"}}");
  append(buf);
  for (const TraceTrack& track : tracks_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  track.tid_, track.name_.c_str());
    append(buf);
  }
  for (const TraceTrack& track : tracks_) {
    const size_t cap = track.ring_.size();
    const size_t stored = static_cast<size_t>(
        std::min<uint64_t>(track.emitted_, static_cast<uint64_t>(cap)));
    // Oldest-first: when the ring wrapped, the oldest event sits at next_.
    const size_t start = track.emitted_ > cap ? track.next_ : 0;
    for (size_t i = 0; i < stored; ++i) {
      const TraceTrack::Event& e = track.ring_[(start + i) % cap];
      // ts/dur in microseconds (Chrome's unit), relative to tracer epoch.
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\":\"%s\",\"cat\":\"rrs\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%llu}}",
          e.name, track.tid_,
          static_cast<double>(e.ts_ns - epoch_ns_) / 1000.0,
          static_cast<double>(e.dur_ns) / 1000.0,
          static_cast<unsigned long long>(e.arg));
      append(buf);
    }
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace obs
}  // namespace rrs
