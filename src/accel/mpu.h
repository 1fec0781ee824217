// Memory Protection Unit: the Enc/IV engine of Figure 1.
//
// Every device access to untrusted memory flows through here:
//  * writes are AES-CTR encrypted with a counter formed from the 128-bit
//    block address and the caller-supplied version number (Section II-D.2);
//  * with integrity enabled, a 64-bit MAC over (address, VN, ciphertext) is
//    stored per 512 B chunk in a dedicated MAC region — the data-movement-
//    granularity MACs that let GuardNN skip the counter tree;
//  * reads decrypt with the caller's VN and, when integrity is on, verify
//    the chunk MACs; verification failure poisons the MPU, after which all
//    further reads fail (the device aborts the session).
//
// Confidentiality never depends on the VN being *correct* — a wrong read VN
// just yields garbage plaintext — which is why GuardNN can let the untrusted
// host supply CTR_F,R.
#pragma once

#include <atomic>
#include <vector>

#include "accel/memory.h"
#include "crypto/aes128.h"
#include "crypto/mem_mac.h"

namespace guardnn::accel {

class MpuExportStream;
class MpuImportStream;

/// Monotonic byte counters at the MPU seam, for the ops/telemetry surface:
/// how many bytes went through the AES-CTR engine (encrypt *and* decrypt —
/// keystream work is symmetric) and how many were CMAC'd (tag generation and
/// verification). Owned by the device (one per accelerator, shared by every
/// session's MPU on it); increments are relaxed atomics on the bulk path —
/// one fetch_add per chunk group, never per byte.
struct MpuByteCounters {
  std::atomic<u64> bytes_encrypted{0};
  std::atomic<u64> bytes_macd{0};
};

class MemoryProtectionUnit {
 public:
  static constexpr u64 kChunkBytes = 512;
  /// MAC table lives in untrusted memory above the data space.
  static constexpr u64 kMacRegionBase = 0x80'0000'0000ULL;

  MemoryProtectionUnit(UntrustedMemory& memory, const crypto::AesKey& enc_key,
                       const crypto::AesKey& mac_key, bool integrity_enabled);

  /// Encrypts and stores `plaintext` at `address` (16 B aligned; the start
  /// must be 512 B aligned when integrity is enabled).
  void write(u64 address, BytesView plaintext, u64 version);

  /// Decrypts `out.size()` bytes from `address` using `version`. Returns
  /// false when integrity verification fails (or the MPU is poisoned).
  [[nodiscard]] bool read(u64 address, MutBytesView out, u64 version);

  bool integrity_enabled() const { return integrity_enabled_; }
  bool poisoned() const { return poisoned_; }

  /// Wipes K_MEnc / K_MMac key schedules and the cached CMAC subkeys
  /// (CloseSession). The MPU is unusable afterwards; it is also poisoned so
  /// any stray read fails closed.
  void zeroize() {
    enc_.zeroize();
    mac_.zeroize();
    secure_zero(mac_subkeys_.k1.data(), mac_subkeys_.k1.size());
    secure_zero(mac_subkeys_.k2.data(), mac_subkeys_.k2.size());
    poisoned_ = true;
  }
  bool zeroized() const {
    if (!enc_.zeroized() || !mac_.zeroized()) return false;
    for (u8 b : mac_subkeys_.k1)
      if (b != 0) return false;
    for (u8 b : mac_subkeys_.k2)
      if (b != 0) return false;
    return true;
  }

  /// Sequence of (address, is_write) the MPU issued — the memory side
  /// channel an adversary can observe. Tests assert it is independent of
  /// data values. Recorded only after set_trace_enabled(true): a long-lived
  /// session would otherwise grow it by every access it ever makes.
  const std::vector<std::pair<u64, bool>>& access_trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }
  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }

  /// Attaches the device-owned telemetry counters (nullptr detaches). Set
  /// once right after session construction, before any traffic; the MPU does
  /// not own the struct.
  void set_byte_counters(MpuByteCounters* counters) { counters_ = counters; }

 private:
  friend class MpuExportStream;
  friend class MpuImportStream;

  void note_access(u64 address, bool is_write) {
    if (trace_enabled_) trace_.emplace_back(address, is_write);
  }

  u64 mac_slot_address(u64 chunk_address) const {
    return kMacRegionBase + chunk_address / kChunkBytes * 8;
  }

  /// Verifies the chunk MACs of `data.size()` ciphertext bytes already read
  /// from `address` (chunk tags computed kCmacLanes at a time, stored tags
  /// read and traced in chunk order, first mismatch poisons). Does not
  /// decrypt.
  [[nodiscard]] bool verify_chunks(u64 address, BytesView data, u64 version);

  /// Encrypts `plaintext` (whole-group staging on the stack, no heap
  /// ciphertext), writes it at `address` and stores the lane-batched chunk
  /// MACs. Factored out of write() so the import stream shares one code path.
  void write_chunks(u64 address, BytesView plaintext, u64 version);

  void count_crypt(std::size_t n) {
    if (counters_ != nullptr)
      counters_->bytes_encrypted.fetch_add(n, std::memory_order_relaxed);
  }
  void count_mac(std::size_t n) {
    if (counters_ != nullptr)
      counters_->bytes_macd.fetch_add(n, std::memory_order_relaxed);
  }

  UntrustedMemory& memory_;
  crypto::Aes128 enc_;
  crypto::Aes128 mac_;
  /// CMAC subkeys derived once per MAC key and reused for every chunk, so the
  /// per-chunk MAC costs no subkey re-derivation (and no heap allocation).
  crypto::CmacSubkeys mac_subkeys_;
  bool integrity_enabled_;
  bool poisoned_ = false;
  MpuByteCounters* counters_ = nullptr;
  bool trace_enabled_ = false;
  std::vector<std::pair<u64, bool>> trace_;
};

/// Streaming verified export — the read side of the fused seal pipeline.
///
/// Walks the protection chunks of one region exactly once, front to back:
/// each burst is read from untrusted memory, its chunk MACs verified
/// crypto::kCmacLanes CBC chains at a time, and the plaintext decrypted
/// *directly into the caller's destination buffer* (e.g. a SealedBlobWriter
/// payload), so no intermediate full-plaintext copy ever exists. The
/// protected region is the chunk-padded superset of the logical byte count;
/// the final chunk is verified whole and its pad tail discarded inside the
/// stream.
///
/// Usage: construct, call next() with destination slices of any size until
/// the logical byte count is consumed, then finish(). A false return from
/// next()/finish() means a chunk MAC failed — the MPU is poisoned, nothing
/// further is delivered, and every plaintext byte already delivered came
/// from a verified chunk.
///
/// Trace: one data-read entry at construction plus one MAC-slot entry per
/// chunk, exactly like a monolithic MemoryProtectionUnit::read() of the
/// padded region.
class MpuExportStream {
 public:
  /// `address` follows read()'s alignment rules (512 B aligned with
  /// integrity, 16 B otherwise). `bytes` is the logical plaintext size; it
  /// need not be chunk- or block-aligned.
  MpuExportStream(MemoryProtectionUnit& mpu, u64 address, u64 bytes,
                  u64 version);
  ~MpuExportStream();

  MpuExportStream(const MpuExportStream&) = delete;
  MpuExportStream& operator=(const MpuExportStream&) = delete;

  /// Verifies and decrypts the next out.size() logical bytes into `out`.
  /// out.size() must not exceed remaining().
  [[nodiscard]] bool next(MutBytesView out);

  /// True once every logical byte was delivered with all chunks verified.
  [[nodiscard]] bool finish();

  u64 remaining() const { return logical_end_ - logical_pos_; }

 private:
  bool fill_carry();

  MemoryProtectionUnit& mpu_;
  u64 chunk_addr_;    ///< Physical address of the next unprocessed chunk.
  u64 logical_pos_;   ///< Next logical (physical-space) byte to deliver.
  u64 logical_end_;
  u64 padded_end_;    ///< Region end rounded up to a whole chunk *relative to
                      ///< the start address* (chunk windows are anchored at
                      ///< the region start, which is only 512 B aligned when
                      ///< integrity is on).
  u64 version_;
  bool ok_ = true;
  /// One decrypted chunk held back when the caller's slice ends mid-chunk.
  u8 carry_[MemoryProtectionUnit::kChunkBytes];
  std::size_t carry_len_ = 0;
  std::size_t carry_off_ = 0;
};

/// Streaming import — the write side of the fused unseal pipeline.
///
/// Accepts plaintext in slices of any size, encrypts and MACs it in
/// whole-chunk groups (crypto::kCmacLanes chunks per AES/CMAC burst, fixed
/// stack staging, no heap ciphertext), and zero-pads the final chunk at
/// finish() — byte-identical off-chip state to a monolithic write() of a
/// zero-padded buffer, without the caller ever allocating one.
///
/// Trace: one data-write entry at construction plus one MAC-slot entry per
/// chunk, exactly like the equivalent monolithic write().
class MpuImportStream {
 public:
  /// `address` follows write()'s alignment rules. `bytes` is the logical
  /// plaintext size the caller will deliver through next(); the stream owns
  /// zero-padding up to the chunk boundary.
  MpuImportStream(MemoryProtectionUnit& mpu, u64 address, u64 bytes,
                  u64 version);
  ~MpuImportStream();

  MpuImportStream(const MpuImportStream&) = delete;
  MpuImportStream& operator=(const MpuImportStream&) = delete;

  /// Appends src.size() plaintext bytes. Total across calls must not exceed
  /// the construction-time byte count.
  void next(BytesView src);

  /// Flushes the zero-padded final chunk. Must be called after exactly
  /// `bytes` were delivered; throws std::logic_error otherwise.
  void finish();

  u64 remaining() const { return logical_end_ - logical_pos_; }

 private:
  void flush_staging();

  MemoryProtectionUnit& mpu_;
  u64 chunk_addr_;   ///< Physical address the staged bytes start at.
  u64 logical_pos_;
  u64 logical_end_;
  u64 padded_end_;   ///< Region end padded relative to the start address.
  u64 version_;
  bool finished_ = false;
  /// Partial-group staging: up to kCmacLanes chunks buffered so the AES and
  /// CMAC bursts always run at full lane width.
  u8 staging_[MemoryProtectionUnit::kChunkBytes * crypto::kCmacLanes];
  std::size_t staged_ = 0;
};

}  // namespace guardnn::accel
