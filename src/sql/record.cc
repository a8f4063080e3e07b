#include "sql/record.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace xftl::sql {

namespace {

// Reads the value at data[*off] and advances *off past it. Returns nullptr,
// or what is wrong with the encoding.
const char* ReadValue(const uint8_t* data, size_t size, size_t* off,
                      EncodedValue* v) {
  if (*off >= size) return "record truncated";
  v->type = ValueType(data[(*off)++]);
  switch (v->type) {
    case ValueType::kNull:
      return nullptr;
    case ValueType::kInt:
    case ValueType::kReal:
      if (size - *off < 8) return "record truncated";
      if (v->type == ValueType::kInt) {
        v->i = int64_t(DecodeFixed64(data + *off));
      } else {
        std::memcpy(&v->r, data + *off, 8);
      }
      *off += 8;
      return nullptr;
    case ValueType::kText:
    case ValueType::kBlob:
      if (size - *off < 4) return "record truncated";
      v->len = DecodeFixed32(data + *off);
      *off += 4;
      if (size - *off < v->len) return "record truncated";
      v->bytes = data + *off;
      *off += v->len;
      return nullptr;
  }
  return "bad value tag";
}

// Type classes of Value::Compare: null(0) < numeric(1) < text(2) < blob(3).
int TypeClass(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kReal:
      return 1;
    case ValueType::kText:
      return 2;
    case ValueType::kBlob:
      return 3;
  }
  return 0;
}

// Value::Compare on encoded values: int against int exactly, any other
// numeric pair as doubles (NaN compares equal to everything), text and blob
// bytewise unsigned with the shorter first on a common prefix.
int CompareValues(const EncodedValue& a, const EncodedValue& b) {
  int ca = TypeClass(a.type), cb = TypeClass(b.type);
  if (ca != cb) return ca < cb ? -1 : 1;
  switch (ca) {
    case 0:
      return 0;
    case 1: {
      if (a.type == ValueType::kInt && b.type == ValueType::kInt) {
        return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      double x = a.type == ValueType::kInt ? double(a.i) : a.r;
      double y = b.type == ValueType::kInt ? double(b.i) : b.r;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      uint32_t n = std::min(a.len, b.len);
      int c = n == 0 ? 0 : std::memcmp(a.bytes, b.bytes, n);
      if (c != 0) return c < 0 ? -1 : 1;
      if (a.len == b.len) return 0;
      return a.len < b.len ? -1 : 1;
    }
  }
}

}  // namespace

std::vector<uint8_t> EncodeRecord(const Row& row) {
  std::vector<uint8_t> out;
  out.resize(2);
  EncodeFixed16(out.data(), uint16_t(row.size()));
  for (const Value& v : row) {
    out.push_back(uint8_t(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        uint8_t buf[8];
        EncodeFixed64(buf, uint64_t(v.AsInt()));
        out.insert(out.end(), buf, buf + 8);
        break;
      }
      case ValueType::kReal: {
        uint8_t buf[8];
        double d = v.AsReal();
        std::memcpy(buf, &d, 8);
        out.insert(out.end(), buf, buf + 8);
        break;
      }
      case ValueType::kText: {
        const std::string& s = v.text();
        uint8_t buf[4];
        EncodeFixed32(buf, uint32_t(s.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), s.begin(), s.end());
        break;
      }
      case ValueType::kBlob: {
        const auto& b = v.blob();
        uint8_t buf[4];
        EncodeFixed32(buf, uint32_t(b.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), b.begin(), b.end());
        break;
      }
    }
  }
  return out;
}

StatusOr<Row> DecodeRecord(const uint8_t* data, size_t size) {
  if (size < 2) return Status::Corruption("record too short");
  uint16_t count = DecodeFixed16(data);
  size_t off = 2;
  Row row;
  row.reserve(count);
  EncodedValue v;
  for (uint16_t i = 0; i < count; ++i) {
    if (const char* err = ReadValue(data, size, &off, &v)) {
      return Status::Corruption(err);
    }
    switch (v.type) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInt:
        row.push_back(Value::Int(v.i));
        break;
      case ValueType::kReal:
        row.push_back(Value::Real(v.r));
        break;
      case ValueType::kText:
        row.push_back(Value::Text(
            std::string(reinterpret_cast<const char*>(v.bytes), v.len)));
        break;
      case ValueType::kBlob:
        row.push_back(Value::Blob(std::vector<uint8_t>(v.bytes,
                                                       v.bytes + v.len)));
        break;
    }
  }
  return row;
}

int CompareEncodedRecords(const uint8_t* a, size_t a_size, const uint8_t* b,
                          size_t b_size) {
  CHECK(a_size >= 2 && b_size >= 2) << "comparing corrupt records";
  const uint16_t a_count = DecodeFixed16(a);
  const uint16_t b_count = DecodeFixed16(b);
  const uint16_t n = std::min(a_count, b_count);
  size_t a_off = 2, b_off = 2;
  EncodedValue x, y;
  for (uint16_t i = 0; i < n; ++i) {
    const char* a_err = ReadValue(a, a_size, &a_off, &x);
    const char* b_err = ReadValue(b, b_size, &b_off, &y);
    CHECK(a_err == nullptr && b_err == nullptr)
        << "comparing corrupt records";
    int c = CompareValues(x, y);
    if (c != 0) return c;
  }
  if (a_count == b_count) return 0;
  return a_count < b_count ? -1 : 1;
}

RecordProbe::RecordProbe(const uint8_t* key, size_t size) {
  CHECK(size >= 2) << "comparing corrupt records";
  values_.resize(DecodeFixed16(key));
  size_t off = 2;
  for (EncodedValue& v : values_) {
    CHECK(ReadValue(key, size, &off, &v) == nullptr)
        << "comparing corrupt records";
  }
}

int RecordProbe::Compare(const uint8_t* b, size_t b_size) const {
  CHECK(b_size >= 2) << "comparing corrupt records";
  const size_t b_count = DecodeFixed16(b);
  const size_t n = std::min(values_.size(), b_count);
  size_t off = 2;
  EncodedValue y;
  for (size_t i = 0; i < n; ++i) {
    CHECK(ReadValue(b, b_size, &off, &y) == nullptr)
        << "comparing corrupt records";
    int c = CompareValues(values_[i], y);
    if (c != 0) return c;
  }
  if (values_.size() == b_count) return 0;
  return values_.size() < b_count ? -1 : 1;
}

}  // namespace xftl::sql
