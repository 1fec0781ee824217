#include "accel/mpu.h"

#include <cstring>
#include <stdexcept>

namespace guardnn::accel {

namespace {
/// Chunks per AES/CMAC burst: the staging and tag arrays below live on the
/// stack, and crypto::cmac_many runs the chunk MACs this many CBC chains at
/// a time.
constexpr std::size_t kGroupChunks = crypto::kCmacLanes;
constexpr std::size_t kGroupBytes =
    kGroupChunks * MemoryProtectionUnit::kChunkBytes;
}  // namespace

MemoryProtectionUnit::MemoryProtectionUnit(UntrustedMemory& memory,
                                           const crypto::AesKey& enc_key,
                                           const crypto::AesKey& mac_key,
                                           bool integrity_enabled)
    : memory_(memory), enc_(enc_key), mac_(mac_key),
      mac_subkeys_(crypto::cmac_derive_subkeys(mac_)),
      integrity_enabled_(integrity_enabled) {}

void MemoryProtectionUnit::write_chunks(u64 address, BytesView plaintext,
                                        u64 version) {
  // Encrypt-then-write one chunk group at a time through a fixed stack
  // scratch: no heap ciphertext buffer, and the group is still hot in cache
  // when its MACs are computed (kCmacLanes CBC chains in lockstep).
  u8 scratch[kGroupBytes];
  u64 tags[kGroupChunks];
  for (std::size_t off = 0; off < plaintext.size(); off += kGroupBytes) {
    const std::size_t n =
        std::min<std::size_t>(kGroupBytes, plaintext.size() - off);
    const u64 group_addr = address + off;
    std::memcpy(scratch, plaintext.data() + off, n);
    crypto::memory_xcrypt(enc_, group_addr / crypto::kAesBlockBytes, version,
                          MutBytesView(scratch, n));
    count_crypt(n);
    memory_.write(group_addr, BytesView(scratch, n));

    if (integrity_enabled_) {
      const std::size_t n_chunks = (n + kChunkBytes - 1) / kChunkBytes;
      crypto::memory_mac_many(mac_, mac_subkeys_, group_addr, version,
                              kChunkBytes, BytesView(scratch, n), tags,
                              n_chunks);
      count_mac(n);
      // The group's MAC slots are contiguous: store the tags with one
      // memory write (trace still records each slot).
      u8 tag_bytes[kGroupChunks * 8];
      for (std::size_t c = 0; c < n_chunks; ++c) {
        store_be64(tag_bytes + c * 8, tags[c]);
        note_access(mac_slot_address(group_addr + c * kChunkBytes), true);
      }
      memory_.write(mac_slot_address(group_addr),
                    BytesView(tag_bytes, n_chunks * 8));
    }
  }
}

void MemoryProtectionUnit::write(u64 address, BytesView plaintext, u64 version) {
  if (address % 16 != 0)
    throw std::invalid_argument("MPU::write: address must be 16 B aligned");
  if (plaintext.size() % 16 != 0)
    throw std::invalid_argument("MPU::write: size must be a multiple of 16");
  if (integrity_enabled_ && address % kChunkBytes != 0)
    throw std::invalid_argument("MPU::write: integrity requires 512 B alignment");

  note_access(address, true);
  write_chunks(address, plaintext, version);
}

bool MemoryProtectionUnit::verify_chunks(u64 address, BytesView data,
                                         u64 version) {
  u64 tags[kGroupChunks];
  for (std::size_t off = 0; off < data.size(); off += kGroupBytes) {
    const std::size_t n = std::min<std::size_t>(kGroupBytes, data.size() - off);
    const std::size_t n_chunks = (n + kChunkBytes - 1) / kChunkBytes;
    crypto::memory_mac_many(mac_, mac_subkeys_, address + off, version,
                            kChunkBytes, BytesView(data.data() + off, n), tags,
                            n_chunks);
    count_mac(n);
    // The group's MAC slots are contiguous: fetch the stored tags with one
    // memory read (trace still records each slot, and a mismatch stops the
    // walk at its chunk like the chunk-at-a-time path did).
    u8 stored[kGroupChunks * 8];
    memory_.read(mac_slot_address(address + off),
                 MutBytesView(stored, n_chunks * 8));
    for (std::size_t c = 0; c < n_chunks; ++c) {
      note_access(mac_slot_address(address + off + c * kChunkBytes), false);
      if (load_be64(stored + c * 8) != tags[c]) {
        poisoned_ = true;
        return false;
      }
    }
  }
  return true;
}

bool MemoryProtectionUnit::read(u64 address, MutBytesView out, u64 version) {
  if (poisoned_) return false;
  if (address % 16 != 0 || out.size() % 16 != 0)
    throw std::invalid_argument("MPU::read: alignment");
  if (integrity_enabled_ && address % kChunkBytes != 0)
    throw std::invalid_argument("MPU::read: integrity requires 512 B alignment");

  memory_.read(address, out);
  note_access(address, false);

  if (integrity_enabled_ && !verify_chunks(address, out, version)) return false;

  crypto::memory_xcrypt(enc_, address / crypto::kAesBlockBytes, version, out);
  count_crypt(out.size());
  return true;
}

// --- MpuExportStream ---------------------------------------------------------

MpuExportStream::MpuExportStream(MemoryProtectionUnit& mpu, u64 address,
                                 u64 bytes, u64 version)
    : mpu_(mpu), chunk_addr_(address), logical_pos_(address),
      logical_end_(address + bytes),
      padded_end_(address + (bytes + MemoryProtectionUnit::kChunkBytes - 1) /
                                MemoryProtectionUnit::kChunkBytes *
                                MemoryProtectionUnit::kChunkBytes),
      version_(version) {
  if (address % 16 != 0)
    throw std::invalid_argument("MpuExportStream: address must be 16 B aligned");
  if (mpu_.integrity_enabled_ && address % MemoryProtectionUnit::kChunkBytes != 0)
    throw std::invalid_argument(
        "MpuExportStream: integrity requires 512 B alignment");
  ok_ = !mpu_.poisoned_;
  mpu_.note_access(address, false);
}

MpuExportStream::~MpuExportStream() { secure_zero(carry_, sizeof(carry_)); }

bool MpuExportStream::fill_carry() {
  // Read, verify and decrypt one whole protection chunk into the carry
  // buffer (the region's final chunk, or an unaligned caller slice).
  u8* dst = carry_;
  const auto n = MemoryProtectionUnit::kChunkBytes;
  mpu_.memory_.read(chunk_addr_, MutBytesView(dst, n));
  if (mpu_.integrity_enabled_ &&
      !mpu_.verify_chunks(chunk_addr_, BytesView(dst, n), version_))
    return false;
  crypto::memory_xcrypt(mpu_.enc_, chunk_addr_ / crypto::kAesBlockBytes,
                        version_, MutBytesView(dst, n));
  mpu_.count_crypt(n);
  chunk_addr_ += n;
  carry_len_ = n;
  carry_off_ = 0;
  return true;
}

bool MpuExportStream::next(MutBytesView out) {
  if (!ok_ || mpu_.poisoned_) return ok_ = false;
  if (out.size() > remaining())
    throw std::invalid_argument("MpuExportStream::next: past end of region");

  std::size_t produced = 0;
  while (produced < out.size()) {
    // Drain held-back plaintext first.
    if (carry_off_ < carry_len_) {
      const std::size_t take =
          std::min(carry_len_ - carry_off_, out.size() - produced);
      std::memcpy(out.data() + produced, carry_ + carry_off_, take);
      carry_off_ += take;
      produced += take;
      logical_pos_ += take;
      continue;
    }
    const std::size_t want = out.size() - produced;
    const std::size_t whole =
        want / MemoryProtectionUnit::kChunkBytes *
        MemoryProtectionUnit::kChunkBytes;
    if (whole > 0) {
      // Fast path: whole chunks decrypt straight into the caller's buffer,
      // tiled so each span is read, verified and decrypted while still hot
      // in cache (one logical walk, three passes over an L2-sized window).
      constexpr std::size_t kTileBytes =
          512 * MemoryProtectionUnit::kChunkBytes;  // 256 KiB
      std::size_t done = 0;
      while (done < whole) {
        const std::size_t tile = std::min(kTileBytes, whole - done);
        MutBytesView dst(out.data() + produced + done, tile);
        mpu_.memory_.read(chunk_addr_, dst);
        if (mpu_.integrity_enabled_ &&
            !mpu_.verify_chunks(chunk_addr_, dst, version_)) {
          secure_zero(out.data() + produced, whole);
          return ok_ = false;
        }
        crypto::memory_xcrypt(mpu_.enc_, chunk_addr_ / crypto::kAesBlockBytes,
                              version_, dst);
        mpu_.count_crypt(tile);
        chunk_addr_ += tile;
        done += tile;
      }
      produced += whole;
      logical_pos_ += whole;
      continue;
    }
    if (!fill_carry()) return ok_ = false;
  }
  return true;
}

bool MpuExportStream::finish() {
  if (!ok_ || mpu_.poisoned_) return ok_ = false;
  if (remaining() != 0)
    throw std::logic_error("MpuExportStream::finish: logical bytes undelivered");
  // Verify the trailing pad chunk (logical end mid-chunk, not yet read via
  // the carry): the region was written whole-chunk, so it must verify whole.
  while (chunk_addr_ < padded_end_) {
    if (!fill_carry()) return ok_ = false;
    carry_off_ = carry_len_;  // pad tail: verified, then discarded
  }
  secure_zero(carry_, sizeof(carry_));
  carry_len_ = carry_off_ = 0;
  return true;
}

// --- MpuImportStream ---------------------------------------------------------

MpuImportStream::MpuImportStream(MemoryProtectionUnit& mpu, u64 address,
                                 u64 bytes, u64 version)
    : mpu_(mpu), chunk_addr_(address), logical_pos_(address),
      logical_end_(address + bytes),
      padded_end_(address + (bytes + MemoryProtectionUnit::kChunkBytes - 1) /
                                MemoryProtectionUnit::kChunkBytes *
                                MemoryProtectionUnit::kChunkBytes),
      version_(version) {
  if (address % 16 != 0)
    throw std::invalid_argument("MpuImportStream: address must be 16 B aligned");
  if (mpu_.integrity_enabled_ && address % MemoryProtectionUnit::kChunkBytes != 0)
    throw std::invalid_argument(
        "MpuImportStream: integrity requires 512 B alignment");
  mpu_.note_access(address, true);
}

MpuImportStream::~MpuImportStream() { secure_zero(staging_, sizeof(staging_)); }

void MpuImportStream::flush_staging() {
  if (staged_ == 0) return;
  mpu_.write_chunks(chunk_addr_, BytesView(staging_, staged_), version_);
  chunk_addr_ += staged_;
  staged_ = 0;
}

void MpuImportStream::next(BytesView src) {
  if (finished_)
    throw std::logic_error("MpuImportStream::next: already finished");
  if (src.size() > remaining())
    throw std::invalid_argument("MpuImportStream::next: past end of region");

  std::size_t consumed = 0;
  while (consumed < src.size()) {
    if (staged_ == 0) {
      // Fast path: whole chunk groups go straight through write_chunks'
      // stack staging without buffering here first.
      const std::size_t whole =
          (src.size() - consumed) / kGroupBytes * kGroupBytes;
      if (whole > 0) {
        mpu_.write_chunks(chunk_addr_, BytesView(src.data() + consumed, whole),
                          version_);
        chunk_addr_ += whole;
        consumed += whole;
        logical_pos_ += whole;
        continue;
      }
    }
    const std::size_t take =
        std::min(sizeof(staging_) - staged_, src.size() - consumed);
    std::memcpy(staging_ + staged_, src.data() + consumed, take);
    staged_ += take;
    consumed += take;
    logical_pos_ += take;
    if (staged_ == sizeof(staging_)) flush_staging();
  }
}

void MpuImportStream::finish() {
  if (finished_) return;
  if (remaining() != 0)
    throw std::logic_error("MpuImportStream::finish: logical bytes missing");
  // Zero-pad the final chunk so the off-chip bytes match a monolithic
  // write() of a chunk-padded buffer. The pad target is the region end
  // rounded up *relative to the start address* — with integrity off the
  // start need not be 512 B aligned, and padding to an absolute boundary
  // would spill zeros past the translated region.
  const u64 written_end = chunk_addr_ + staged_;
  const std::size_t pad = static_cast<std::size_t>(padded_end_ - written_end);
  if (pad > 0) {
    // finish() is the only producer of a non-group-aligned staging level, so
    // the pad always fits (staging holds whole chunks once it wraps).
    std::memset(staging_ + staged_, 0, pad);
    staged_ += pad;
  }
  flush_staging();
  secure_zero(staging_, sizeof(staging_));
  finished_ = true;
}

}  // namespace guardnn::accel
