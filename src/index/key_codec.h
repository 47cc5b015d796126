// Order-preserving binary key encoding for the Prefix Hash Tree.
//
// Every indexable attribute value maps to a 64-bit key whose unsigned
// integer order agrees with SQL value order, so a bit-prefix of the key is
// a contiguous value range and the PHT trie can answer range predicates:
//
//   INT64   sign bit flipped, big-endian (two's-complement order fix);
//   DOUBLE  floored/ceiled into the INT64 lattice (bound side chooses the
//           rounding so encoded ranges are always supersets of value
//           ranges — the runtime re-filters with the exact predicate);
//   STRING  first 8 bytes big-endian, zero padded. Truncation is monotone
//           (a <= b implies Enc(a) <= Enc(b)), so strings sharing an
//           8-byte prefix collide into one key — again a superset the
//           downstream filter resolves.
//
// Prefixes are materialized as '0'/'1' character strings because they double
// as DHT resource names: the trie node for prefix p lives at the owner of
// hash(index namespace, p).

#ifndef PIER_INDEX_KEY_CODEC_H_
#define PIER_INDEX_KEY_CODEC_H_

#include <cstdint>
#include <string>

#include "common/value.h"

namespace pier {
namespace index {

/// Bits in an encoded key == maximum trie depth.
inline constexpr int kKeyBits = 64;

/// Order-preserving encodings (see header comment).
uint64_t EncodeInt64(int64_t v);
uint64_t EncodeString(std::string_view s);

/// Which side of a range a Value is encoded for. Matters only for DOUBLE
/// bounds on INT64 columns, where flooring/ceiling must widen the range.
enum class BoundSide { kLower, kUpper, kExact };

/// Encodes `v` as a key for a column of `col_type`. Returns false when the
/// value's runtime type cannot be ordered against the column's lattice
/// (e.g. BOOL in an INT64 column) — such rows are not indexed and such
/// bounds disqualify index selection.
bool EncodeValue(const Value& v, ValueType col_type, BoundSide side,
                 uint64_t* out);

/// First `depth` bits of `key` as a '0'/'1' string (the DHT resource of the
/// trie node covering that prefix).
std::string Prefix(uint64_t key, int depth);

/// Smallest key a '0'/'1' `prefix` covers: the inverse of Prefix.
uint64_t PrefixFirstKey(const std::string& prefix);

/// Bit `i` (0 = most significant) of `key`.
inline int Bit(uint64_t key, int i) {
  return static_cast<int>((key >> (kKeyBits - 1 - i)) & 1u);
}

/// Smallest key strictly above every key covered by `prefix`; false when
/// `prefix` is all ones (nothing above — the walk is done).
bool NextKeyAfterPrefix(const std::string& prefix, uint64_t* out);

}  // namespace index
}  // namespace pier

#endif  // PIER_INDEX_KEY_CODEC_H_
