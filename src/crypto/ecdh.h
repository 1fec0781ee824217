// ECDHE key agreement over P-256 plus HKDF session-key derivation.
//
// This is the InitSession key exchange from the paper: the remote user and
// the accelerator each contribute an ephemeral key pair; the shared secret is
// expanded into the symmetric session key K_Session and a MAC key for the
// secure channel.
#pragma once

#include "crypto/drbg.h"
#include "crypto/p256.h"

namespace guardnn::crypto {

/// An ephemeral key pair. Every copy wipes its private scalar when it is
/// destroyed, so a handshake's secret does not outlive the object holding it.
struct EcdhKeyPair {
  U256 private_key;
  AffinePoint public_key;

  ~EcdhKeyPair() { secure_zero(private_key.limb.data(), sizeof(private_key.limb)); }
};

/// Derived session keys: AES-128 session key and an HMAC key.
struct SessionKeys {
  std::array<u8, 16> enc_key{};
  std::array<u8, 32> mac_key{};
};

/// Generates an ephemeral ECDH key pair.
EcdhKeyPair ecdh_generate_key(HmacDrbg& drbg);

/// Computes the raw shared secret (x-coordinate of d*Q_peer) in constant
/// time. The caller wipes it once the session keys are derived.
/// Throws std::invalid_argument on the point at infinity (degenerate peer key).
U256 ecdh_shared_secret(const U256& private_key, const AffinePoint& peer_public);

/// Derives session keys from the shared secret and both public keys
/// (transcript-bound so a MITM swapping keys changes the derived secret).
SessionKeys derive_session_keys(const U256& shared_x, const AffinePoint& user_pub,
                                const AffinePoint& accel_pub);

}  // namespace guardnn::crypto
