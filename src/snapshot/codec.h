// Versioned binary snapshot codec for session cores.
//
// Every Session type (Engine, the registry policies, reduce::OnlineSolver,
// reduce::PipelineSession) can serialize its mutable run state into a flat
// word stream and restore it into a freshly Reset session, producing runs
// bit-identical to the uninterrupted original. The codec is the one wire
// format behind checkpoint/restore, the dist fleet's tenant migration and
// failover (fleet/dist/), and the checkpoint-differential fuzz tests.
//
// Format (all little-endian uint64 words, arena-friendly: one contiguous
// vector, no per-field framing):
//
//   word 0: magic  ("rrsSnap1")
//   word 1: format version (kVersion)
//   then a sequence of sections, each:
//     [tag][payload word count][FNV-1a checksum of payload][payload...]
//
// Sections are flat, not nested: a composite object writes its own section
// and then asks its components to append theirs, so the stream reads back in
// the exact call order of the save. Readers name the tag they expect, which
// turns any save/load order drift into an immediate checked failure instead
// of silently misinterpreted state. Checksums catch truncation/corruption of
// stored snapshots (worker loss can hand back damaged bytes).
//
// Values narrower than a word (uint32, bool, uint8 flags) are widened; spans
// are written as a count word followed by one word per element. This trades
// space for simplicity and random-access debuggability — snapshots of 10k
// round sessions are a few KiB and cost well under 5% of simulate time
// (gated by bench/bench_snapshot).
//
// All decode errors are RRS_CHECK failures (abort): a snapshot is produced
// by this process or a peer replica, so a malformed one is a bug or storage
// fault, never user input to be recovered from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace rrs {
namespace snapshot {

inline constexpr uint64_t kMagic = 0x72727353'6e617031ULL;  // "rrsSnap1"
inline constexpr uint64_t kVersion = 1;

// Section tags, one per component that owns serialized state. Tag mismatch
// on read aborts with both tags in the message. Tags 2, 12, 16–20 and 22 are
// retired: never reuse them, so no stale checkpoint section or frame reads
// as another component's.
enum Tag : uint64_t {
  kTagEngine = 1,
  kTagLruTracker = 3,
  kTagCacheSlots = 4,
  kTagColorState = 5,
  kTagPolicyDlru = 6,
  kTagPolicyDlruEdf = 7,
  kTagPolicyStatic = 8,
  kTagOnlineSolver = 9,
  kTagPipelineSession = 10,
  kTagRng = 11,
  kTagPolicyBatched = 13,
  kTagPolicyInstrumented = 14,
  // Distributed-fleet control protocol (fleet/dist/protocol.h): every frame
  // payload is a codec word stream holding one section of this tag, so
  // messages inherit the checksum and version-skew checks.
  kTagDistMsg = 15,
  // Streaming arrival generators (workload/arrival_source.h): one section
  // per source.
  kTagArrivalSource = 21,
};

// FNV-1a over 64-bit words (the repo-wide checksum; same constants as the
// offline solver's state hash).
inline uint64_t FnvWords(std::span<const uint64_t> words) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t w : words) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return h;
}

class Writer {
 public:
  Writer() { Clear(); }

  // Restarts the stream (magic + version header), keeping capacity — one
  // Writer checkpoints an unbounded series of sessions allocation-free once
  // warm.
  void Clear() {
    RRS_CHECK(section_start_ == kNone) << "Writer::Clear inside a section";
    words_.clear();
    words_.push_back(kMagic);
    words_.push_back(kVersion);
  }

  void BeginSection(Tag tag) {
    RRS_CHECK(section_start_ == kNone) << "nested snapshot section";
    words_.push_back(static_cast<uint64_t>(tag));
    words_.push_back(0);  // payload word count, patched by EndSection
    words_.push_back(0);  // checksum, patched by EndSection
    section_start_ = words_.size();
  }

  void EndSection() {
    RRS_CHECK(section_start_ != kNone) << "EndSection without BeginSection";
    const size_t payload = words_.size() - section_start_;
    words_[section_start_ - 2] = payload;
    words_[section_start_ - 1] =
        FnvWords(std::span<const uint64_t>(words_.data() + section_start_,
                                           payload));
    section_start_ = kNone;
  }

  void PutU64(uint64_t v) {
    RRS_DCHECK(section_start_ != kNone);
    words_.push_back(v);
  }
  void PutU32(uint32_t v) { PutU64(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU64(v ? 1 : 0); }

  // Count word followed by one word per element. T: any integral type whose
  // values survive a round-trip through uint64 (all the repo's state types).
  template <typename T>
  void PutSpan(std::span<const T> values) {
    PutU64(values.size());
    for (const T& v : values) PutU64(static_cast<uint64_t>(v));
  }
  template <typename T>
  void PutVec(const std::vector<T>& values) {
    PutSpan(std::span<const T>(values));
  }

  const std::vector<uint64_t>& words() const {
    RRS_CHECK(section_start_ == kNone) << "snapshot read back mid-section";
    return words_;
  }
  size_t size_bytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  std::vector<uint64_t> words_;
  size_t section_start_ = kNone;
};

class Reader {
 public:
  // The span must outlive the reader. Validates the header immediately.
  // Version skew gets a directional diagnostic: a snapshot stamped with a
  // *future* version was produced by a newer writer (a mixed-version worker
  // pool shipping checkpoints backwards), which is a deployment error worth
  // naming precisely, not a generic mismatch.
  explicit Reader(std::span<const uint64_t> words) : words_(words) {
    RRS_CHECK_GE(words_.size(), 2u) << "snapshot truncated: no header";
    RRS_CHECK_EQ(words_[0], kMagic) << "snapshot magic mismatch";
    RRS_CHECK_LE(words_[1], kVersion)
        << "snapshot from future codec version " << words_[1]
        << " (this build reads version " << kVersion
        << "): refusing to guess at a newer format — upgrade this reader "
           "or re-snapshot with a matching writer";
    RRS_CHECK_EQ(words_[1], kVersion)
        << "snapshot version mismatch (snapshot " << words_[1]
        << ", reader " << kVersion << ")";
    pos_ = 2;
  }

  // Opens the next section, which must carry `expected` and a valid
  // checksum.
  void BeginSection(Tag expected) {
    RRS_CHECK(section_end_ == kNone) << "nested snapshot section";
    RRS_CHECK_LE(pos_ + 3, words_.size()) << "snapshot truncated: no section";
    const uint64_t tag = words_[pos_];
    const uint64_t payload = words_[pos_ + 1];
    const uint64_t checksum = words_[pos_ + 2];
    RRS_CHECK_EQ(tag, static_cast<uint64_t>(expected))
        << "snapshot section order mismatch";
    pos_ += 3;
    RRS_CHECK_LE(payload, words_.size() - pos_)
        << "snapshot truncated inside section " << tag;
    RRS_CHECK_EQ(checksum, FnvWords(words_.subspan(pos_, payload)))
        << "snapshot checksum mismatch in section " << tag;
    section_end_ = pos_ + payload;
  }

  // Closes the current section; the payload must be fully consumed.
  void EndSection() {
    RRS_CHECK(section_end_ != kNone) << "EndSection without BeginSection";
    RRS_CHECK_EQ(pos_, section_end_) << "snapshot section not fully consumed";
    section_end_ = kNone;
  }

  uint64_t GetU64() {
    RRS_CHECK(section_end_ != kNone && pos_ < section_end_)
        << "snapshot read past section end";
    return words_[pos_++];
  }
  uint32_t GetU32() {
    const uint64_t v = GetU64();
    RRS_CHECK_LE(v, 0xffffffffULL) << "snapshot u32 overflow";
    return static_cast<uint32_t>(v);
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  bool GetBool() {
    const uint64_t v = GetU64();
    RRS_CHECK_LE(v, 1u) << "snapshot bool out of range";
    return v != 0;
  }

  template <typename T>
  void GetVec(std::vector<T>& out) {
    const std::span<const uint64_t> words = GetWords(GetU64());
    out.resize(words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      out[i] = static_cast<T>(words[i]);
      if constexpr (sizeof(T) < 8) {
        RRS_CHECK_EQ(static_cast<uint64_t>(out[i]), words[i])
            << "snapshot narrow value overflow";
      }
    }
  }

  // Consumes the next n words of the open section.
  std::span<const uint64_t> GetWords(uint64_t n) {
    RRS_CHECK(section_end_ != kNone && n <= section_end_ - pos_)
        << "snapshot span overruns section";
    const std::span<const uint64_t> words = words_.subspan(pos_, n);
    pos_ += n;
    return words;
  }

  // Words left in the open section: a bound for counts read before the
  // elements they announce.
  size_t remaining() const {
    RRS_CHECK(section_end_ != kNone) << "remaining() outside a section";
    return section_end_ - pos_;
  }

  bool AtEnd() const {
    return section_end_ == kNone && pos_ == words_.size();
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  std::span<const uint64_t> words_;
  size_t pos_ = 0;
  size_t section_end_ = kNone;
};

}  // namespace snapshot
}  // namespace rrs
