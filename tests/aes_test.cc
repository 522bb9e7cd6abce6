#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "crypto/drbg.h"

namespace scab::crypto {
namespace {

// FIPS-197 Appendix C.3: AES-256 known-answer test.
TEST(Aes256, Fips197KnownAnswer) {
  const Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  Aes256 cipher(key);
  uint8_t block[16];
  std::copy(pt.begin(), pt.end(), block);
  cipher.encrypt_block(block);
  EXPECT_EQ(hex_encode(BytesView(block, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

// The software path never runs on an AES-NI host unless called directly.
TEST(Aes256, SoftwarePathMatchesFips197) {
  const Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  Aes256 cipher(key);
  uint8_t block[16];
  std::copy(pt.begin(), pt.end(), block);
  cipher.encrypt_block_soft(block);
  EXPECT_EQ(hex_encode(BytesView(block, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, SoftwarePathMatchesDispatchedPathOnRandomBlocks) {
  if (!Aes256::has_aesni()) {
    GTEST_SKIP() << "no AES-NI: encrypt_block already is the software path";
  }
  Drbg rng(to_bytes("aes-soft-vs-ni"));
  for (int k = 0; k < 8; ++k) {
    Aes256 cipher(rng.generate(kAes256KeySize));
    for (int i = 0; i < 64; ++i) {
      const Bytes pt = rng.generate(kAesBlockSize);
      uint8_t soft[16];
      uint8_t hw[16];
      std::copy(pt.begin(), pt.end(), soft);
      std::copy(pt.begin(), pt.end(), hw);
      cipher.encrypt_block_soft(soft);
      cipher.encrypt_block(hw);
      ASSERT_EQ(hex_encode(BytesView(soft, 16)), hex_encode(BytesView(hw, 16)))
          << "key " << k << " block " << i;
    }
  }
}

// NIST SP 800-38A F.5.5: CTR-AES256 encryption (first two blocks; the
// counter carry stays within the low 8 bytes here).
TEST(Aes256Ctr, Sp80038aVector) {
  const Bytes key = hex_decode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes ctr = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = hex_decode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const Bytes ct = aes256_ctr(key, ctr, pt);
  EXPECT_EQ(hex_encode(ct),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5");
}

TEST(Aes256Ctr, IsItsOwnInverse) {
  const Bytes key(32, 0x77);
  const Bytes nonce(16, 0x01);
  const Bytes msg = to_bytes("arbitrary-length message, not block aligned!");
  const Bytes ct = aes256_ctr(key, nonce, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(aes256_ctr(key, nonce, ct), msg);
}

TEST(Aes256Ctr, EmptyMessage) {
  const Bytes key(32, 0x01);
  const Bytes nonce(16, 0x02);
  EXPECT_TRUE(aes256_ctr(key, nonce, Bytes{}).empty());
}

TEST(Aes256Ctr, CounterCarryAcrossBytes) {
  // Counter low byte 0xff: the second block must carry into byte 14.
  const Bytes key(32, 0x10);
  Bytes nonce(16, 0x00);
  nonce[15] = 0xff;
  const Bytes msg(48, 0xab);
  const Bytes ct = aes256_ctr(key, nonce, msg);
  EXPECT_EQ(aes256_ctr(key, nonce, ct), msg);
  // Blocks must not repeat keystream.
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16), Bytes(ct.begin() + 16, ct.begin() + 32));
}

TEST(Aes256Ctr, DistinctNoncesDistinctStreams) {
  const Bytes key(32, 0x33);
  const Bytes msg(32, 0x00);
  Bytes n1(16, 0), n2(16, 0);
  n2[0] = 1;
  EXPECT_NE(aes256_ctr(key, n1, msg), aes256_ctr(key, n2, msg));
}

TEST(Aes256, RejectsBadKeySize) {
  EXPECT_THROW(Aes256(Bytes(16, 0)), std::invalid_argument);
  EXPECT_THROW(aes256_ctr(Bytes(31, 0), Bytes(16, 0), Bytes{1}), std::invalid_argument);
  EXPECT_THROW(aes256_ctr(Bytes(32, 0), Bytes(12, 0), Bytes{1}), std::invalid_argument);
}

}  // namespace
}  // namespace scab::crypto
