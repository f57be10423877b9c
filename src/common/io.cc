#include "common/io.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace incdb {

namespace {

// The on-disk format is explicitly little-endian; on big-endian hosts these
// helpers would need byte swaps. All current targets are little-endian.
template <typename T>
void EncodeLE(T value, unsigned char* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

template <typename T>
T DecodeLE(const unsigned char* in) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace

void BinaryWriter::WriteRaw(const void* data, size_t size) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

void BinaryWriter::WriteU32(uint32_t value) {
  unsigned char buf[4];
  EncodeLE(value, buf);
  WriteRaw(buf, sizeof(buf));
}

void BinaryWriter::WriteU64(uint64_t value) {
  unsigned char buf[8];
  EncodeLE(value, buf);
  WriteRaw(buf, sizeof(buf));
}

void BinaryWriter::WriteDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteRaw(value.data(), value.size());
}

void BinaryWriter::WriteU32Vector(const std::vector<uint32_t>& values) {
  WriteU64(values.size());
  for (uint32_t v : values) WriteU32(v);
}

void BinaryWriter::WriteU64Vector(const std::vector<uint64_t>& values) {
  WriteU64(values.size());
  for (uint64_t v : values) WriteU64(v);
}

void BinaryWriter::WriteI32Vector(const std::vector<int32_t>& values) {
  WriteU64(values.size());
  for (int32_t v : values) WriteI32(v);
}

Status BinaryWriter::status() const {
  if (!out_) return Status::IOError("stream write failed");
  return Status::OK();
}

Status BinaryReader::ReadRaw(void* data, size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_.gcount()) != size) {
    return Status::IOError("unexpected end of input");
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  uint8_t value;
  INCDB_RETURN_IF_ERROR(ReadRaw(&value, 1));
  return value;
}

Result<uint32_t> BinaryReader::ReadU32() {
  unsigned char buf[4];
  INCDB_RETURN_IF_ERROR(ReadRaw(buf, sizeof(buf)));
  return DecodeLE<uint32_t>(buf);
}

Result<uint64_t> BinaryReader::ReadU64() {
  unsigned char buf[8];
  INCDB_RETURN_IF_ERROR(ReadRaw(buf, sizeof(buf)));
  return DecodeLE<uint64_t>(buf);
}

Result<int32_t> BinaryReader::ReadI32() {
  INCDB_ASSIGN_OR_RETURN(uint32_t raw, ReadU32());
  return static_cast<int32_t>(raw);
}

Result<double> BinaryReader::ReadDouble() {
  INCDB_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string> BinaryReader::ReadString(uint64_t max_len) {
  INCDB_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > max_len) {
    return Status::IOError("string length " + std::to_string(len) +
                           " exceeds limit (corrupted input?)");
  }
  // Grow by what the input delivers, so a corrupted length allocates no
  // more than the bytes actually present.
  std::string value;
  while (value.size() < len) {
    const size_t old_size = value.size();
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(len - old_size, kReadChunkBytes));
    value.resize(old_size + n);
    INCDB_RETURN_IF_ERROR(ReadRaw(value.data() + old_size, n));
  }
  return value;
}

template <typename T>
Result<std::vector<T>> BinaryReader::ReadVector(uint64_t max_len) {
  INCDB_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > max_len) {
    return Status::IOError("vector length " + std::to_string(len) +
                           " exceeds limit (corrupted input?)");
  }
  // Read whole chunks and append only what was read: a corrupted length
  // fails at the end of the input instead of allocating `len` elements.
  std::vector<T> values;
  unsigned char chunk[kReadChunkBytes];
  while (values.size() < len) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(len - values.size(), sizeof(chunk) / sizeof(T)));
    INCDB_RETURN_IF_ERROR(ReadRaw(chunk, n * sizeof(T)));
    for (size_t i = 0; i < n; ++i) {
      values.push_back(static_cast<T>(
          DecodeLE<std::make_unsigned_t<T>>(chunk + i * sizeof(T))));
    }
  }
  return values;
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vector(uint64_t max_len) {
  return ReadVector<uint32_t>(max_len);
}

Result<std::vector<uint64_t>> BinaryReader::ReadU64Vector(uint64_t max_len) {
  return ReadVector<uint64_t>(max_len);
}

Result<std::vector<int32_t>> BinaryReader::ReadI32Vector(uint64_t max_len) {
  return ReadVector<int32_t>(max_len);
}

}  // namespace incdb
