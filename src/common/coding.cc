#include "common/coding.h"

#include <cstring>

namespace medvault {

void EncodeFixed64(char* dst, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, 8);
}

uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result = 0;
  for (int i = 3; i >= 0; i--) {
    result = (result << 8) | static_cast<unsigned char>(ptr[i]);
  }
  return result;
}

uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result = 0;
  for (int i = 7; i >= 0; i--) {
    result = (result << 8) | static_cast<unsigned char>(ptr[i]);
  }
  return result;
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->RemovePrefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->RemovePrefix(8);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    auto byte = static_cast<unsigned char>((*input)[0]);
    input->RemovePrefix(1);
    if (byte & 0x80) {
      result |= (static_cast<uint64_t>(byte & 0x7f) << shift);
    } else {
      result |= (static_cast<uint64_t>(byte) << shift);
      *value = result;
      return true;
    }
  }
  return false;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v64 = 0;
  if (!GetVarint64(input, &v64) || v64 > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v64);
  return true;
}

bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->RemovePrefix(len);
  return true;
}

bool GetLengthPrefixedString(Slice* input, std::string* result) {
  Slice s;
  if (!GetLengthPrefixed(input, &s)) return false;
  result->assign(s.data(), s.size());
  return true;
}

int VarintLength(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    len++;
  }
  return len;
}

}  // namespace medvault
