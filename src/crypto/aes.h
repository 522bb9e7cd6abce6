// AES-256 block cipher (FIPS 197) and CTR-mode keystream, from scratch.
//
// The paper's private channels use CTR(AES-256) + HMAC (encrypt-then-MAC,
// §VI-A); CTR is also the workhorse behind the hybrid threshold encryption
// of CP0 and the HMAC-DRBG fallback expansions.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace scab::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes256KeySize = 32;

/// AES-256 with a precomputed key schedule. Encrypt-only: CTR mode never
/// needs the inverse cipher.  Uses AES-NI when the CPU has it (runtime
/// detection) and a T-table software path otherwise.
class Aes256 {
 public:
  /// `key` must be exactly 32 bytes; throws std::invalid_argument otherwise.
  explicit Aes256(BytesView key);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(uint8_t block[kAesBlockSize]) const;

  /// True when the hardware path is in use (exposed for tests/benches).
  static bool has_aesni();

  /// The T-table software path, whatever the CPU (exposed so tests can
  /// check it on hosts where encrypt_block never takes it).
  void encrypt_block_soft(uint8_t block[kAesBlockSize]) const;

 private:
  void encrypt_block_ni(uint8_t block[kAesBlockSize]) const;

  // 15 round keys of 16 bytes each (14 rounds + initial whitening), both as
  // big-endian words (software path) and as raw bytes (AES-NI loads).
  std::array<uint32_t, 60> round_keys_;
  std::array<uint8_t, 240> round_key_bytes_;
};

/// CTR-mode en/decryption (the operation is its own inverse).  `nonce` must
/// be 16 bytes and is used as the initial counter block; the counter
/// occupies the last 8 bytes (big-endian increment).
Bytes aes256_ctr(BytesView key, BytesView nonce, BytesView data);

}  // namespace scab::crypto
