#ifndef INCDB_STORAGE_CHECKSUM_H_
#define INCDB_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace incdb {
namespace storage {

/// Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG CRC).
/// Guards every on-disk section against bit rot and truncation; see
/// docs/STORAGE.md. Incremental use: pass the previous return value as
/// `seed` to continue a running checksum over multiple buffers.
///
/// Runs the runtime-dispatched simd::Kernels::crc32 of the active level
/// (simd::ActiveKernels()): a PCLMULQDQ fold at sse2/avx2, slicing-by-8 at
/// scalar. Every level returns the same value, so `INCDB_SIMD` never
/// changes what is written or accepted.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Accumulates a CRC-32 over a stream of buffers (the section writer's
/// running checksum).
class Crc32Accumulator {
 public:
  void Update(const void* data, size_t size) {
    crc_ = Crc32(data, size, crc_);
    bytes_ += size;
  }
  uint32_t crc() const { return crc_; }
  uint64_t bytes() const { return bytes_; }
  void Reset() {
    crc_ = 0;
    bytes_ = 0;
  }

 private:
  uint32_t crc_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace storage
}  // namespace incdb

#endif  // INCDB_STORAGE_CHECKSUM_H_
