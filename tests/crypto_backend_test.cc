// Backend-equivalence and allocation-behaviour tests for the crypto data
// path.
//
// The AES encrypt core has several runtime-dispatched implementations
// (scalar reference, T-table, AES-NI / ARMv8-CE when compiled in); a bug in a
// fast path must never hide behind whichever backend happens to be the
// default, so every KAT and a large random cross-check run against *all*
// backends available on the build machine. The streaming CmacState gets the
// RFC 4493 official vectors including every possible update() split, and the
// memory_mac / MPU::write hot paths are pinned to zero heap allocations in
// steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "accel/mpu.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/mem_mac.h"
#include "crypto/sha256.h"

// --- Global allocation counter ----------------------------------------------
// Counts every operator-new in this binary so tests can assert that a code
// region performs no heap allocation. The replacement is intentionally thin:
// malloc + counter, so ASan still sees every allocation.

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace guardnn::crypto {
namespace {

AesKey key_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  AesKey key{};
  std::copy(raw.begin(), raw.end(), key.begin());
  return key;
}

/// Pins a backend for the duration of a scope, restoring the previous one.
class BackendGuard {
 public:
  explicit BackendGuard(Aes128Backend backend) : previous_(aes_active_backend()) {
    aes_force_backend(backend);
  }
  ~BackendGuard() { aes_force_backend(previous_); }

 private:
  Aes128Backend previous_;
};

// --- Backend plumbing --------------------------------------------------------

TEST(AesBackend, PortableBackendsAlwaysAvailable) {
  EXPECT_TRUE(aes_backend_available(Aes128Backend::kReference));
  EXPECT_TRUE(aes_backend_available(Aes128Backend::kTtable));
  const auto backends = aes_available_backends();
  EXPECT_GE(backends.size(), 2u);
  // The dispatcher must never *default* to the reference core (an explicit
  // GUARDNN_AES_BACKEND pin is allowed to pick anything).
  if (std::getenv("GUARDNN_AES_BACKEND") == nullptr) {
    EXPECT_NE(aes_active_backend(), Aes128Backend::kReference);
  }
}

TEST(AesBackend, ForceUnavailableBackendThrows) {
  for (Aes128Backend b : {Aes128Backend::kAesni, Aes128Backend::kArmCe}) {
    if (!aes_backend_available(b)) {
      EXPECT_THROW(aes_force_backend(b), std::invalid_argument)
          << aes_backend_name(b);
    }
  }
}

TEST(AesBackend, NamesAreStable) {
  EXPECT_STREQ(aes_backend_name(Aes128Backend::kReference), "reference");
  EXPECT_STREQ(aes_backend_name(Aes128Backend::kTtable), "ttable");
  EXPECT_STREQ(aes_backend_name(Aes128Backend::kAesni), "aesni");
  EXPECT_STREQ(aes_backend_name(Aes128Backend::kArmCe), "armce");
}

// --- Known-answer tests on every backend ------------------------------------

TEST(AesBackendKat, Fips197AndSp80038aOnEveryBackend) {
  for (Aes128Backend backend : aes_available_backends()) {
    BackendGuard guard(backend);
    SCOPED_TRACE(aes_backend_name(backend));

    // FIPS-197 Appendix C.1.
    {
      const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
      AesBlock block{};
      const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
      std::copy(pt.begin(), pt.end(), block.begin());
      aes.encrypt_block(block.data());
      EXPECT_EQ(to_hex(BytesView(block.data(), block.size())),
                "69c4e0d86a7b0430d8cdb78070b4c55a");
    }
    // NIST SP 800-38A F.1.1 ECB-AES128.
    {
      const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
      AesBlock block{};
      const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
      std::copy(pt.begin(), pt.end(), block.begin());
      aes.encrypt_block(block.data());
      EXPECT_EQ(to_hex(BytesView(block.data(), block.size())),
                "3ad77bb40d7a3660a89ecaf32466ef97");
    }
    // NIST SP 800-38A F.5.1 CTR-AES128 (exercises the batched keystream).
    {
      const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
      AesBlock counter0{};
      const Bytes c0 = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
      std::copy(c0.begin(), c0.end(), counter0.begin());
      Bytes data = from_hex(
          "6bc1bee22e409f96e93d7e117393172a"
          "ae2d8a571e03ac9c9eb76fac45af8e51"
          "30c81c46a35ce411e5fbc1191a0a52ef"
          "f69f2445df4f9b17ad2b417be66c3710");
      ctr_xcrypt(aes, counter0, data);
      EXPECT_EQ(to_hex(data),
                "874d6191b620e3261bef6864990db6ce"
                "9806f66b7970fdff8617187bb9fffdff"
                "5ae4df3edbd5d35e5b4f09020db03eab"
                "1e031dda2fbe03d1792170a0f3009cee");
    }
    // RFC 4493 CMAC example 3 (40 B message).
    {
      const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
      const Bytes m = from_hex(
          "6bc1bee22e409f96e93d7e117393172a"
          "ae2d8a571e03ac9c9eb76fac45af8e51"
          "30c81c46a35ce411");
      const AesBlock tag = cmac_aes128(aes, m);
      EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())),
                "dfa66747de9ae63030ca32611497c827");
    }
  }
}

// --- Random cross-checks: every backend must agree byte-for-byte ------------

TEST(AesBackendCrossCheck, SingleBlockRandomVectors) {
  const auto backends = aes_available_backends();
  Xoshiro256 rng(0xAE5BEEF);
  for (int trial = 0; trial < 1000; ++trial) {
    AesKey key{};
    rng.fill(MutBytesView(key.data(), key.size()));
    AesBlock pt{};
    rng.fill(MutBytesView(pt.data(), pt.size()));
    const Aes128 aes(key);

    AesBlock expected{};
    {
      BackendGuard guard(Aes128Backend::kReference);
      expected = aes.encrypt(pt);
    }
    EXPECT_EQ(aes.decrypt(expected), pt);
    for (Aes128Backend backend : backends) {
      BackendGuard guard(backend);
      EXPECT_EQ(aes.encrypt(pt), expected)
          << aes_backend_name(backend) << " trial " << trial;
    }
  }
}

TEST(AesBackendCrossCheck, BatchMatchesSingleBlockAtEveryCount) {
  Xoshiro256 rng(0xBA7C4);
  AesKey key{};
  rng.fill(MutBytesView(key.data(), key.size()));
  const Aes128 aes(key);

  // Covers every remainder path of the 8-wide AES-NI and 2-wide T-table loops.
  for (std::size_t n = 1; n <= 33; ++n) {
    Bytes in(n * kAesBlockBytes);
    rng.fill(in);
    for (Aes128Backend backend : aes_available_backends()) {
      BackendGuard guard(backend);
      Bytes batch(in.size());
      aes.encrypt_blocks(in.data(), batch.data(), n);
      Bytes single = in;
      for (std::size_t b = 0; b < n; ++b)
        aes.encrypt_block(single.data() + b * kAesBlockBytes);
      EXPECT_EQ(batch, single) << aes_backend_name(backend) << " n=" << n;
      // In-place batch must agree with out-of-place.
      Bytes inplace = in;
      aes.encrypt_blocks(inplace.data(), inplace.data(), n);
      EXPECT_EQ(inplace, batch) << aes_backend_name(backend) << " n=" << n;
    }
  }
}

TEST(AesBackendCrossCheck, AesBlockArrayOverload) {
  Xoshiro256 rng(0xB10C);
  AesKey key{};
  rng.fill(MutBytesView(key.data(), key.size()));
  const Aes128 aes(key);
  std::array<AesBlock, 5> in{};
  std::array<AesBlock, 5> out{};
  for (auto& b : in) rng.fill(MutBytesView(b.data(), b.size()));
  for (Aes128Backend backend : aes_available_backends()) {
    BackendGuard guard(backend);
    aes.encrypt_blocks(in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
      EXPECT_EQ(out[i], aes.encrypt(in[i])) << aes_backend_name(backend);
  }
}

TEST(AesBackendCrossCheck, CtrAndCmacRandomVectors) {
  const auto backends = aes_available_backends();
  Xoshiro256 rng(0xC7C7C7);
  for (int trial = 0; trial < 1000; ++trial) {
    AesKey key{};
    rng.fill(MutBytesView(key.data(), key.size()));
    const Aes128 aes(key);
    const std::size_t len = 1 + rng.next_below(200);
    Bytes message(len);
    rng.fill(message);
    const AesBlock counter0 = make_counter_block(rng.next(), rng.next());

    Bytes expected_ct;
    AesBlock expected_tag{};
    {
      BackendGuard guard(Aes128Backend::kReference);
      expected_ct = message;
      ctr_xcrypt(aes, counter0, expected_ct);
      expected_tag = cmac_aes128(aes, message);
    }
    for (Aes128Backend backend : backends) {
      BackendGuard guard(backend);
      Bytes ct = message;
      ctr_xcrypt(aes, counter0, ct);
      EXPECT_EQ(ct, expected_ct) << aes_backend_name(backend) << " trial " << trial;
      EXPECT_EQ(cmac_aes128(aes, message), expected_tag)
          << aes_backend_name(backend) << " trial " << trial;
    }
  }
}

TEST(AesBackendCrossCheck, MemoryXcryptAndMemoryMacAgree) {
  const auto backends = aes_available_backends();
  Xoshiro256 rng(0x3E3E);
  for (int trial = 0; trial < 100; ++trial) {
    AesKey key{};
    rng.fill(MutBytesView(key.data(), key.size()));
    const Aes128 aes(key);
    Bytes data((1 + rng.next_below(40)) * kAesBlockBytes);
    rng.fill(data);
    const u64 base = rng.next();
    const u64 vn = rng.next();

    Bytes expected_ct;
    u64 expected_mac = 0;
    {
      BackendGuard guard(Aes128Backend::kReference);
      expected_ct = data;
      memory_xcrypt(aes, base, vn, expected_ct);
      expected_mac = memory_mac(aes, base, vn, data);
    }
    for (Aes128Backend backend : backends) {
      BackendGuard guard(backend);
      Bytes ct = data;
      memory_xcrypt(aes, base, vn, ct);
      EXPECT_EQ(ct, expected_ct) << aes_backend_name(backend);
      EXPECT_EQ(memory_mac(aes, base, vn, data), expected_mac)
          << aes_backend_name(backend);
    }
  }
}

// --- RFC 4493 official vectors for the streaming CmacState -------------------

struct Rfc4493Case {
  std::size_t len;
  const char* tag_hex;
};

TEST(CmacStream, Rfc4493Examples1Through4) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes m64 = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Rfc4493Case cases[] = {
      {0, "bb1d6929e95937287fa37d129b756746"},   // Example 1
      {16, "070a16b46b4d4144f79bdd9dd04a287c"},  // Example 2
      {40, "dfa66747de9ae63030ca32611497c827"},  // Example 3
      {64, "51f0bebf7e3b9d92fc49741779363cfe"},  // Example 4
  };

  for (const auto& c : cases) {
    const BytesView message(m64.data(), c.len);

    // One-shot.
    CmacState one_shot(aes);
    one_shot.update(message);
    AesBlock tag = one_shot.finish();
    EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())), c.tag_hex)
        << "one-shot len=" << c.len;

    // Split at every offset: update(m[0:split]) + update(m[split:]).
    for (std::size_t split = 0; split <= c.len; ++split) {
      CmacState st(aes);
      st.update(BytesView(message.data(), split));
      st.update(BytesView(message.data() + split, c.len - split));
      tag = st.finish();
      EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())), c.tag_hex)
          << "len=" << c.len << " split=" << split;
    }

    // Byte-at-a-time.
    CmacState dribble(aes);
    for (std::size_t i = 0; i < c.len; ++i)
      dribble.update(BytesView(message.data() + i, 1));
    tag = dribble.finish();
    EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())), c.tag_hex)
        << "byte-at-a-time len=" << c.len;
  }
}

TEST(CmacStream, ResetReusesState) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes m = from_hex("6bc1bee22e409f96e93d7e117393172a");
  CmacState st(aes);
  st.update(m);
  const AesBlock first = st.finish();
  st.reset();
  st.update(m);
  EXPECT_EQ(st.finish(), first);
}

TEST(CmacStream, RandomSplitsMatchOneShot) {
  Xoshiro256 rng(0x5717);
  AesKey key{};
  rng.fill(MutBytesView(key.data(), key.size()));
  const Aes128 aes(key);
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);

  for (int trial = 0; trial < 200; ++trial) {
    Bytes message(rng.next_below(300));
    rng.fill(message);
    const AesBlock expected = cmac_aes128(aes, message);

    CmacState st(aes, subkeys);
    std::size_t offset = 0;
    while (offset < message.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_below(48), message.size() - offset);
      st.update(BytesView(message.data() + offset, n));
      offset += n;
    }
    EXPECT_EQ(st.finish(), expected) << "trial " << trial;
  }
}

// --- Zero heap allocation on the hot paths -----------------------------------

// --- Lane-batched CMAC (the fused seal pipeline's MAC kernel) ---------------

TEST(CmacLanes, CmacManyMatchesSerialOnEveryBackend) {
  Xoshiro256 rng(0x77);
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);

  for (Aes128Backend backend : aes_available_backends()) {
    BackendGuard guard(backend);
    // Geometries covering both call sites (16 B address/version prefix over
    // 512 B chunks, 8 B index prefix over 64 KiB chunks) plus edge shapes:
    // empty bodies, sub-block messages, non-block-multiple totals, and lane
    // counts below/at/above kCmacLanes.
    const struct {
      std::size_t prefix, body, count;
    } shapes[] = {{16, 512, 16},  {8, 65536, 3},   {16, 512, 1},
                  {8, 0, 5},      {0, 1, 9},       {0, 16, 17},
                  {16, 48, 33},   {8, 513, 2 * kCmacLanes + 1}};
    for (const auto& shape : shapes) {
      Bytes prefixes(shape.prefix * shape.count);
      Bytes bodies(shape.body * shape.count + 1);  // +1: never zero-sized
      rng.fill(prefixes);
      rng.fill(bodies);
      std::vector<CmacMessage> messages(shape.count);
      for (std::size_t i = 0; i < shape.count; ++i) {
        messages[i].prefix = BytesView(
            shape.prefix ? prefixes.data() + i * shape.prefix : nullptr,
            shape.prefix);
        messages[i].body = BytesView(
            shape.body ? bodies.data() + i * shape.body : nullptr, shape.body);
      }
      std::vector<AesBlock> tags(shape.count);
      cmac_many(aes, subkeys, messages.data(), shape.count, tags.data());
      for (std::size_t i = 0; i < shape.count; ++i) {
        Bytes serial(messages[i].prefix.begin(), messages[i].prefix.end());
        serial.insert(serial.end(), messages[i].body.begin(),
                      messages[i].body.end());
        EXPECT_EQ(tags[i], cmac_aes128(aes, serial))
            << aes_backend_name(backend) << " prefix=" << shape.prefix
            << " body=" << shape.body << " lane " << i;
      }
    }
  }
}

TEST(CmacLanes, MixedGeometryRejected) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  const Bytes a(32, 1), b(48, 2);
  CmacMessage messages[2] = {{BytesView(), BytesView(a)},
                             {BytesView(), BytesView(b)}};
  AesBlock tags[2];
  EXPECT_THROW(cmac_many(aes, subkeys, messages, 2, tags),
               std::invalid_argument);
}

TEST(CmacLanes, MemoryMacManyMatchesPerChunkIncludingRaggedTail) {
  Xoshiro256 rng(0x78);
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  // 37 full chunks plus a 320-byte tail.
  Bytes region(37 * 512 + 320);
  rng.fill(region);
  const std::size_t n_chunks = 38;
  std::vector<u64> tags(n_chunks);
  memory_mac_many(aes, subkeys, 0x4000, 9, 512, region, tags.data(), n_chunks);
  for (std::size_t i = 0; i < n_chunks; ++i) {
    const std::size_t off = i * 512;
    const std::size_t len = std::min<std::size_t>(512, region.size() - off);
    EXPECT_EQ(tags[i], memory_mac(aes, subkeys, 0x4000 + off, 9,
                                  BytesView(region.data() + off, len)))
        << "chunk " << i;
  }
}

// --- SHA-256 backends --------------------------------------------------------

TEST(Sha256Backend, ScalarAlwaysAvailableAndNamesStable) {
  EXPECT_TRUE(sha256_backend_available(Sha256Backend::kScalar));
  EXPECT_STREQ(sha256_backend_name(Sha256Backend::kScalar), "scalar");
  EXPECT_STREQ(sha256_backend_name(Sha256Backend::kShani), "shani");
}

TEST(Sha256Backend, BackendsAgreeOnRandomVectorsAndSplits) {
  const Sha256Backend original = sha256_active_backend();
  Xoshiro256 rng(0x79);
  // Lengths straddling block boundaries and the bulk multi-block path.
  const std::size_t lengths[] = {0, 1, 55, 56, 63, 64, 65, 127, 128, 1000, 8191};
  for (const std::size_t n : lengths) {
    Bytes data(n + 1);
    rng.fill(data);
    data.resize(n);

    std::vector<Sha256Digest> digests;
    for (Sha256Backend backend :
         {Sha256Backend::kScalar, Sha256Backend::kShani}) {
      if (!sha256_backend_available(backend)) continue;
      sha256_force_backend(backend);
      digests.push_back(Sha256::hash(data));
      // Split updates must hit the same buffered/bulk paths consistently.
      Sha256 split;
      split.update(BytesView(data.data(), n / 3));
      split.update(BytesView(data.data() + n / 3, n - n / 3));
      EXPECT_EQ(split.finalize(), digests.back())
          << sha256_backend_name(backend) << " n=" << n;
    }
    for (const Sha256Digest& digest : digests)
      EXPECT_EQ(digest, digests.front()) << "backend divergence at n=" << n;
  }
  sha256_force_backend(original);
}

TEST(Sha256Backend, ForceUnavailableBackendThrows) {
  if (!sha256_backend_available(Sha256Backend::kShani)) {
    EXPECT_THROW(sha256_force_backend(Sha256Backend::kShani),
                 std::invalid_argument);
  }
}

TEST(ZeroAlloc, CmacManySteadyState) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  Bytes region(kCmacLanes * 512, 0xcd);
  u8 prefixes[kCmacLanes][16];
  CmacMessage messages[kCmacLanes];
  AesBlock tags[kCmacLanes];
  for (std::size_t i = 0; i < kCmacLanes; ++i) {
    store_be64(prefixes[i], i);
    store_be64(prefixes[i] + 8, 42);
    messages[i].prefix = BytesView(prefixes[i], 16);
    messages[i].body = BytesView(region.data() + i * 512, 512);
  }
  cmac_many(aes, subkeys, messages, kCmacLanes, tags);  // warm up
  const std::size_t before = g_alloc_count.load();
  cmac_many(aes, subkeys, messages, kCmacLanes, tags);
  u64 chunk_tags[kCmacLanes];
  memory_mac_many(aes, subkeys, 0x8000, 3, 512, region, chunk_tags,
                  kCmacLanes);
  EXPECT_EQ(g_alloc_count.load(), before)
      << "lane-batched CMAC allocated on the heap";
}

TEST(ZeroAlloc, MemoryMacSteadyState) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const CmacSubkeys subkeys = cmac_derive_subkeys(aes);
  Bytes chunk(512, 0xab);

  volatile u64 sink = memory_mac(aes, subkeys, 0x1000, 1, chunk);  // warm up
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 16; ++i)
    sink = memory_mac(aes, subkeys, 0x1000 + 512 * u64(i), u64(i), chunk);
  EXPECT_EQ(g_alloc_count.load(), before) << "memory_mac allocated on the heap";
  (void)sink;

  // The subkey-deriving overload must also be allocation-free.
  const std::size_t before2 = g_alloc_count.load();
  sink = memory_mac(aes, 0x2000, 7, chunk);
  EXPECT_EQ(g_alloc_count.load(), before2);
}

TEST(ZeroAlloc, MpuWriteSteadyState) {
  accel::UntrustedMemory mem;
  AesKey enc_key{};
  AesKey mac_key{};
  enc_key[0] = 1;
  mac_key[0] = 2;
  accel::MemoryProtectionUnit mpu(mem, enc_key, mac_key, /*integrity=*/true);
  mpu.set_trace_enabled(true);  // the traced path must not allocate either

  Bytes data(1024, 0x5a);
  // Warm up: touch the data and MAC pages and grow the trace vector's
  // capacity past what the measured writes will append.
  for (int i = 0; i < 8; ++i) mpu.write(0, data, u64(i));
  mpu.clear_trace();  // keeps capacity

  const std::size_t before = g_alloc_count.load();
  mpu.write(0, data, 100);
  EXPECT_EQ(g_alloc_count.load(), before) << "MPU::write allocated on the heap";

  Bytes out(1024);
  ASSERT_TRUE(mpu.read(0, out, 100));
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace guardnn::crypto
