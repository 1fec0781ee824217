#include "host/user_client.h"

#include <stdexcept>

namespace guardnn::host {

RemoteUser::RemoteUser(const crypto::AffinePoint& ca_public, BytesView entropy)
    : ca_public_(ca_public), drbg_(entropy, Bytes{'u', 's', 'e', 'r'}) {}

bool RemoteUser::attest_device(const accel::GetPkResponse& response) {
  if (!crypto::verify_certificate(response.certificate, ca_public_)) return false;
  if (!(response.certificate.device_public == response.public_key)) return false;
  device_identity_ = response.public_key;
  return true;
}

crypto::AffinePoint RemoteUser::begin_session() {
  ephemeral_ = crypto::ecdh_generate_key(drbg_);
  return ephemeral_->public_key;
}

bool RemoteUser::complete_session(const accel::InitSessionResponse& response) {
  if (!device_identity_ || !ephemeral_) return false;
  if (response.status != accel::DeviceStatus::kOk ||
      response.session_id == accel::kInvalidSession)
    return false;
  // Verify the ECDHE transcript signature (defeats MITM key substitution).
  Bytes transcript = crypto::encode_point(ephemeral_->public_key);
  const Bytes device_share = crypto::encode_point(response.device_ephemeral);
  transcript.insert(transcript.end(), device_share.begin(), device_share.end());
  if (!crypto::ecdsa_verify(*device_identity_, transcript, response.signature))
    return false;

  crypto::U256 shared =
      crypto::ecdh_shared_secret(ephemeral_->private_key, response.device_ephemeral);
  const crypto::SessionKeys keys = crypto::derive_session_keys(
      shared, ephemeral_->public_key, response.device_ephemeral);
  secure_zero(shared.limb.data(), sizeof(shared.limb));
  ephemeral_.reset();  // the handshake is done: wipe the ephemeral scalar
  to_device_.emplace(keys);
  from_device_.emplace(keys);
  expected_chain_.reset();
  session_id_ = response.session_id;
  return true;
}

crypto::SealedRecord RemoteUser::seal(BytesView plaintext) {
  if (!to_device_) throw std::logic_error("RemoteUser::seal: no session");
  return to_device_->seal(plaintext);
}

std::optional<Bytes> RemoteUser::open_output(const crypto::SealedRecord& record) {
  if (!from_device_) throw std::logic_error("RemoteUser::open_output: no session");
  return from_device_->open(record);
}

void RemoteUser::expect_instruction(accel::Opcode op, BytesView operands) {
  expected_chain_.absorb(op, operands);
}

void RemoteUser::expect_input(BytesView plaintext) {
  expected_input_hash_ = crypto::Sha256::hash(plaintext);
}

void RemoteUser::expect_weights(BytesView plaintext) {
  expected_weight_hash_ = crypto::Sha256::hash(plaintext);
}

void RemoteUser::expect_output(BytesView plaintext) {
  expected_output_hash_ = crypto::Sha256::hash(plaintext);
}

bool RemoteUser::verify_attestation(const accel::SignOutputResponse& report) const {
  if (!device_identity_) return false;
  if (report.input_hash != expected_input_hash_) return false;
  if (report.weight_hash != expected_weight_hash_) return false;
  if (report.output_hash != expected_output_hash_) return false;
  if (report.instruction_hash != expected_chain_.value()) return false;
  return crypto::ecdsa_verify_digest(*device_identity_, report.report_digest(),
                                     report.signature);
}

}  // namespace guardnn::host
