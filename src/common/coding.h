#ifndef MEDVAULT_COMMON_CODING_H_
#define MEDVAULT_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace medvault {

/// Little-endian fixed-width and varint encodings, plus length-prefixed
/// strings. All on-disk structures in MedVault are built from these.

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Varint length followed by raw bytes.
void PutLengthPrefixed(std::string* dst, const Slice& value);

/// Inline: the WOTS chain walk calls it once per lane per step.
inline void EncodeFixed32(char* dst, uint32_t value) {
  dst[0] = static_cast<char>(value & 0xff);
  dst[1] = static_cast<char>((value >> 8) & 0xff);
  dst[2] = static_cast<char>((value >> 16) & 0xff);
  dst[3] = static_cast<char>((value >> 24) & 0xff);
}
void EncodeFixed64(char* dst, uint64_t value);

uint32_t DecodeFixed32(const char* ptr);
uint64_t DecodeFixed64(const char* ptr);

/// Each Get* consumes bytes from `input` on success and returns true;
/// on malformed input returns false with `input` unspecified.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixed(Slice* input, Slice* result);
/// Copying variant of GetLengthPrefixed.
bool GetLengthPrefixedString(Slice* input, std::string* result);

/// Number of bytes VarintNN encoding of `value` occupies.
int VarintLength(uint64_t value);

}  // namespace medvault

#endif  // MEDVAULT_COMMON_CODING_H_
