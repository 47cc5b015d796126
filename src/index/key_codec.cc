#include "index/key_codec.h"

#include <cmath>
#include <limits>

namespace pier {
namespace index {

uint64_t EncodeInt64(int64_t v) {
  return static_cast<uint64_t>(v) ^ (1ull << 63);
}

uint64_t EncodeString(std::string_view s) {
  uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    uint8_t byte = i < static_cast<int>(s.size())
                       ? static_cast<uint8_t>(s[i])
                       : 0;
    key = (key << 8) | byte;
  }
  return key;
}

namespace {

/// Doubles entering an INT64-keyed trie round toward the widening side.
bool EncodeDoubleAsInt64(double d, BoundSide side, uint64_t* out) {
  if (std::isnan(d)) return false;
  double rounded = side == BoundSide::kUpper ? std::ceil(d) : std::floor(d);
  constexpr double kMin = -9223372036854775808.0;  // -2^63
  constexpr double kMax = 9223372036854775808.0;   // 2^63
  if (rounded <= kMin) {
    *out = EncodeInt64(std::numeric_limits<int64_t>::min());
  } else if (rounded >= kMax) {
    *out = EncodeInt64(std::numeric_limits<int64_t>::max());
  } else {
    *out = EncodeInt64(static_cast<int64_t>(rounded));
  }
  return true;
}

}  // namespace

bool EncodeValue(const Value& v, ValueType col_type, BoundSide side,
                 uint64_t* out) {
  switch (col_type) {
    case ValueType::kInt64:
      if (v.type() == ValueType::kInt64) {
        *out = EncodeInt64(v.int64_value());
        return true;
      }
      if (v.type() == ValueType::kDouble) {
        return EncodeDoubleAsInt64(v.double_value(), side, out);
      }
      return false;
    case ValueType::kString:
      if (v.type() == ValueType::kString) {
        *out = EncodeString(v.string_value());
        return true;
      }
      return false;
    default:
      return false;
  }
}

std::string Prefix(uint64_t key, int depth) {
  std::string out;
  out.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    out.push_back(Bit(key, i) != 0 ? '1' : '0');
  }
  return out;
}

uint64_t PrefixFirstKey(const std::string& prefix) {
  uint64_t key = 0;
  for (size_t b = 0; b < prefix.size(); ++b) {
    if (prefix[b] == '1') key |= 1ull << (kKeyBits - 1 - b);
  }
  return key;
}

bool NextKeyAfterPrefix(const std::string& prefix, uint64_t* out) {
  // Increment the prefix as a binary number; keys below the incremented
  // prefix (padded with zeros) are exactly the keys above everything the
  // original prefix covers.
  std::string p = prefix;
  int i = static_cast<int>(p.size()) - 1;
  for (; i >= 0; --i) {
    if (p[i] == '0') {
      p[i] = '1';
      break;
    }
    p[i] = '0';
  }
  if (i < 0) return false;  // prefix was all ones
  *out = PrefixFirstKey(p);
  return true;
}

}  // namespace index
}  // namespace pier
