#include "storage/checksum.h"

#include "simd/simd.h"

namespace incdb {
namespace storage {

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return simd::ActiveKernels().crc32(data, size, seed);
}

}  // namespace storage
}  // namespace incdb
