// Variable-length integer codec (LEB128) used by the CSR-DU `ctl` stream.
//
// The paper (§IV) stores the per-unit column jump `ujmp` as "a variable
// length integer". We use unsigned LEB128: 7 payload bits per byte, high bit
// set on all but the final byte. Values below 128 — the common case for
// column jumps — cost a single byte.
#pragma once

#include <cstdint>
#include <vector>

#include "spc/support/error.hpp"

namespace spc {

/// Maximum encoded size of a 64-bit LEB128 value.
inline constexpr int kVarintMaxBytes = 10;

/// Appends the LEB128 encoding of `v` to `out`. Returns bytes written.
inline int varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out) {
  int n = 0;
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
    ++n;
  }
  out.push_back(static_cast<std::uint8_t>(v));
  return n + 1;
}

/// Writes the LEB128 encoding of `v` at `p`, which must have room for
/// varint_size(v) bytes; returns one past the last byte written.
inline std::uint8_t* varint_write(std::uint64_t v, std::uint8_t* p) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Decodes a LEB128 value starting at `p`, advancing `p` past it.
/// The caller guarantees the buffer holds a complete encoding (the CSR-DU
/// decoder owns its ctl stream, so this is a structural invariant there).
inline std::uint64_t varint_decode(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
    SPC_DCHECK(shift < 64);
  }
}

/// Bounds-checked decode for untrusted buffers; throws ParseError when the
/// encoding runs past `end` or overflows 64 bits.
std::uint64_t varint_decode_checked(const std::uint8_t*& p,
                                    const std::uint8_t* end);

/// Number of bytes the LEB128 encoding of `v` occupies.
inline int varint_size(std::uint64_t v) {
  int n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag transform for signed deltas (used by matrix statistics, where row
/// reordering can produce negative column jumps).
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace spc
