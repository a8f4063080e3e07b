#include "common/crc32.h"

#include <array>

namespace xftl {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C polynomial

// Slice-by-8 tables: kTables[0] is the bytewise table; kTables[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups advance the
// CRC over eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian load that does not depend on the host's byte order or on
// alignment; compilers turn it into one load on little-endian targets.
inline uint32_t Load32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = crc ^ Load32(p);
    uint32_t hi = Load32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace xftl
