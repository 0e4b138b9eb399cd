// Minimal SHA-256 (FIPS 180-4) for content-addressed test artifacts.
//
// Used by the golden-trace regression suite to fingerprint per-round
// execution timelines: a 64-hex-character digest per (scenario, policy)
// pair is stable across platforms and standard libraries, unlike hashes
// built on std:: primitives. This is an integrity fingerprint for test
// artifacts, not an authentication primitive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace rrs {

class Sha256 {
 public:
  Sha256() { Reset(); }

  // Restarts the hash (one object can fingerprint a series of inputs).
  void Reset();

  void Update(const void* data, size_t len);
  void Update(std::span<const uint8_t> bytes) {
    Update(bytes.data(), bytes.size());
  }
  void Update(std::string_view text) { Update(text.data(), text.size()); }

  // Appends one little-endian 64-bit word (the natural unit of the repo's
  // timelines and snapshot streams).
  void UpdateU64(uint64_t v);

  // Finalizes and returns the 32-byte digest. The object must be Reset()
  // before further Update calls.
  std::array<uint8_t, 32> Finish();

  // Finalizes and returns the digest as 64 lowercase hex characters.
  std::string FinishHex();

 private:
  void Compress(const uint8_t block[64]);

  uint32_t h_[8];
  uint64_t length_ = 0;  // total bytes absorbed
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

}  // namespace rrs
