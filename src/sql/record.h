// Record serialization: a row (or index key) is a vector of Values encoded
// as a compact, order-preserving-enough byte string. Layout:
//
//   u16 count | per value: u8 type tag + payload
//     int  -> 8 bytes LE        real -> 8 bytes LE (IEEE)
//     text -> u32 len + bytes   blob -> u32 len + bytes
//
// Records are compared value by value in Value::Compare's order, not by
// memcmp, so the encoding only needs to round-trip.
#ifndef XFTL_SQL_RECORD_H_
#define XFTL_SQL_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/value.h"

namespace xftl::sql {

using Row = std::vector<Value>;

// Serializes `row` into bytes.
std::vector<uint8_t> EncodeRecord(const Row& row);

// Parses a record; fails on truncation or bad tags.
StatusOr<Row> DecodeRecord(const uint8_t* data, size_t size);
inline StatusOr<Row> DecodeRecord(const std::vector<uint8_t>& buf) {
  return DecodeRecord(buf.data(), buf.size());
}

// Lexicographic comparison of two encoded records, value by value with
// Value::Compare's semantics, read in place without decoding; of two records
// where one is a prefix of the other, the shorter sorts first.
int CompareEncodedRecords(const uint8_t* a, size_t a_size, const uint8_t* b,
                          size_t b_size);

// One value of an encoded record, read in place: text and blob bytes point
// into the record.
struct EncodedValue {
  ValueType type = ValueType::kNull;
  int64_t i = 0;
  double r = 0;
  const uint8_t* bytes = nullptr;
  uint32_t len = 0;
};

// An encoded record decoded once, for comparing against many encoded records
// (a B-tree seek): Compare(b, n) == CompareEncodedRecords(key, size, b, n).
// The probe points into `key`, which must outlive it.
class RecordProbe {
 public:
  RecordProbe(const uint8_t* key, size_t size);
  int Compare(const uint8_t* b, size_t b_size) const;

 private:
  std::vector<EncodedValue> values_;
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_RECORD_H_
