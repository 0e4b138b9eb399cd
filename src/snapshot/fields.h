// Declared layouts over the snapshot codec's words.
//
// A type that travels between processes declares its layout once, as a
// field list found by argument-dependent lookup next to the type:
//
//   template <class Io>
//   void Fields(Io& io, TickCmd& m) {
//     io(m.tick, m.checkpoint);
//   }
//
// FieldWriter and FieldReader walk that one list in both directions, so a
// writer and its reader cannot drift apart. Both work inside the caller's
// open section and add no framing of their own: one word per integer, bool,
// enum or double (its bit pattern); a length word plus eight bytes per word
// for a string; a count word plus the elements for a vector or a map (key,
// value, key, value, ...); a declared type's fields in list order.
//
// The reader is bounded. Before it sizes anything from a count or a string
// length, it checks that the section's remaining words can hold that many
// elements at the fewest words one element takes (MinWords). A frame
// therefore cannot make the reader allocate more than a small multiple of
// the frame's own size, whatever count it announces. The codec's value
// checks apply too: u32 and bool range checks, narrower integers must
// round-trip, and strings are capped at 1 MiB.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/codec.h"
#include "util/check.h"

namespace rrs {
namespace snapshot {

namespace fields_internal {

template <class T>
struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};

template <class T>
struct IsMap : std::false_type {};
template <class K, class V, class C, class A>
struct IsMap<std::map<K, V, C, A>> : std::true_type {};

// One word on the wire: integers, bools, enums and doubles.
template <class T>
inline constexpr bool kScalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

}  // namespace fields_internal

// The fewest words one value of T takes: 1 for a scalar, a string, a
// vector or a map (the word, or the count or length word alone), and the
// sum over its fields for a declared type.
template <class T>
size_t MinWords();

namespace fields_internal {

// An Io that sums the fewest words of each field it is shown.
struct MinWordsCounter {
  template <class... Ts>
  void operator()(Ts&...) {
    ((words += MinWords<Ts>()), ...);
  }
  size_t words = 0;
};

}  // namespace fields_internal

template <class T>
size_t MinWords() {
  using namespace fields_internal;
  if constexpr (kScalar<T> || IsVector<T>::value || IsMap<T>::value ||
                std::is_same_v<T, std::string>) {
    return 1;
  } else {
    static const size_t words = [] {
      T probe{};
      MinWordsCounter counter;
      Fields(counter, probe);
      return std::max<size_t>(counter.words, 1);
    }();
    return words;
  }
}

class FieldWriter {
 public:
  explicit FieldWriter(Writer& w) : w_(w) {}

  template <class... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }

 private:
  template <class T>
  void Put(const T& v) {
    using namespace fields_internal;
    if constexpr (std::is_same_v<T, bool>) {
      w_.PutBool(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.PutU64(std::bit_cast<uint64_t>(v));
    } else if constexpr (kScalar<T>) {
      w_.PutU64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.PutU64(v.size());
      for (size_t i = 0; i < v.size(); i += 8) {
        uint64_t word = 0;
        std::memcpy(&word, v.data() + i, std::min<size_t>(8, v.size() - i));
        w_.PutU64(word);
      }
    } else if constexpr (IsVector<T>::value) {
      w_.PutU64(v.size());
      for (const auto& element : v) Put(element);
    } else if constexpr (IsMap<T>::value) {
      w_.PutU64(v.size());
      for (const auto& [key, value] : v) {
        Put(key);
        Put(value);
      }
    } else {
      // Fields lists take mutable references so one list serves both
      // directions; the writer only reads through them.
      Fields(*this, const_cast<T&>(v));
    }
  }

  Writer& w_;
};

class FieldReader {
 public:
  explicit FieldReader(Reader& r) : r_(r) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (Get(fields), ...);
  }

 private:
  // Reads a count of elements that take at least `min_words` each.
  uint64_t Count(size_t min_words) {
    const uint64_t count = r_.GetU64();
    RRS_CHECK_LE(count, r_.remaining() / min_words)
        << "wire count exceeds the words left in the section";
    return count;
  }

  template <class T>
  void Get(T& v) {
    using namespace fields_internal;
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.GetBool();
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      v = r_.GetU32();
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(r_.GetU64());
    } else if constexpr (kScalar<T>) {
      const uint64_t word = r_.GetU64();
      v = static_cast<T>(word);
      RRS_CHECK_EQ(static_cast<uint64_t>(v), word)
          << "snapshot narrow value overflow";
    } else if constexpr (std::is_same_v<T, std::string>) {
      const uint64_t len = r_.GetU64();
      RRS_CHECK_LE(len, 8 * r_.remaining())
          << "wire string length exceeds the words left in the section";
      RRS_CHECK_LE(len, 1u << 20) << "wire string implausibly long";
      v.assign(len, '\0');
      for (size_t i = 0; i < len; i += 8) {
        const uint64_t word = r_.GetU64();
        std::memcpy(v.data() + i, &word, std::min<size_t>(8, len - i));
      }
    } else if constexpr (IsVector<T>::value) {
      v.resize(Count(MinWords<typename T::value_type>()));
      for (auto& element : v) Get(element);
    } else if constexpr (IsMap<T>::value) {
      using Key = typename T::key_type;
      const uint64_t count =
          Count(MinWords<Key>() + MinWords<typename T::mapped_type>());
      v.clear();
      for (uint64_t i = 0; i < count; ++i) {
        Key key;
        Get(key);
        Get(v[std::move(key)]);
      }
    } else {
      Fields(*this, v);
    }
  }

  Reader& r_;
};

}  // namespace snapshot
}  // namespace rrs
