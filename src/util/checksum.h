#ifndef TENDAX_UTIL_CHECKSUM_H_
#define TENDAX_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tendax {

/// The one 32-bit checksum behind page payloads, WAL records, wire frames
/// and metrics snapshots.
///
/// It reads 32-bit words, four at a time, into four independent lanes. Each
/// lane step is a bijection of the lane for a fixed word and of the word for
/// a fixed lane, and so is the step that folds the lanes together. So
/// changing one word, and in particular flipping one bit, always changes the
/// result. A murmur3-style finalizer then spreads every input bit over all
/// 32 output bits. Its speed is bound by memory, not by a multiply per byte
/// as FNV-1a is.
uint32_t Checksum32(const char* data, size_t n);

}  // namespace tendax

#endif  // TENDAX_UTIL_CHECKSUM_H_
