#include "fleet.h"

#include "spans.h"

namespace hostbench {

using guardnn::accel::DeviceStatus;
using guardnn::serving::InferenceResult;
using guardnn::serving::RequestOutcome;
using guardnn::serving::ServerConfig;

namespace {
Bytes seed_bytes(u64 seed, u8 tag) {
  Bytes out(9);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<u8>(seed >> (8 * i));
  out[8] = tag;
  return out;
}
}  // namespace

ServerConfig base_config(std::size_t devices, std::size_t workers) {
  ServerConfig config;
  config.num_devices = devices;
  config.num_workers = workers;
  config.emulate_device_latency = false;
  config.default_deadline_ms = 0.0;
  return config;
}

Fleet::Fleet(const ServerConfig& config, u64 seed)
    : ca_drbg_(seed_bytes(seed, 0xca)), ca_(ca_drbg_), rng_(seed ^ 0xf1ee7ULL) {
  ring_epoch_ns_ = spans::now_ns();
  server_ = std::make_unique<guardnn::serving::InferenceServer>(
      ca_, config, seed_bytes(seed, 0xde));
}

double Fleet::modeled_device_ms() {
  double ms = 0;
  for (std::size_t d = 0; d < server_->device_count(); ++d)
    ms += server_->device(d).elapsed_ms();
  return ms;
}

void LoopTally::start(Fleet& fleet) {
  start_ = Clock::now();
  modeled_device_ms = -fleet.modeled_device_ms();
}

bool LoopTally::running(double seconds) const {
  return ms_between(start_, Clock::now()) < seconds * 1e3;
}

void LoopTally::cycle_done() {
  if (++cycles == kRssCycles) rss_mb = peak_rss_mb();
}

void LoopTally::finish(Fleet& fleet) {
  wall_s = ms_between(start_, Clock::now()) / 1e3;
  if (cycles < kRssCycles) rss_mb = peak_rss_mb();
  modeled_device_ms += fleet.modeled_device_ms();
}

std::unique_ptr<guardnn::host::RemoteUser> Fleet::new_user() {
  return std::make_unique<guardnn::host::RemoteUser>(ca_.public_key(),
                                                     seed_bytes(rng_.next(), 0x05));
}

bool Fleet::connect(Client& client, u64 request) {
  if (!client.user) client.user = new_user();
  guardnn::crypto::AffinePoint share;
  {
    Span span("host.begin_session", request);
    share = client.user->begin_session();
  }
  guardnn::serving::InferenceServer::ConnectResult connected;
  {
    Span span("serving.connect", request);
    connected = server_->connect(share, /*integrity=*/true);
  }
  if (connected.tenant == 0) return false;
  bool ok = false;
  {
    Span span("host.attest_device", request);
    ok = client.user->attest_device(server_->get_pk(connected.device_index));
  }
  if (ok) {
    Span span("host.complete_session", request);
    ok = client.user->complete_session(connected.response);
  }
  if (!ok) {
    server_->disconnect(connected.tenant);
    return false;
  }
  client.tenant = connected.tenant;
  client.device = connected.device_index;
  return true;
}

bool Fleet::migrate(Client& client, std::size_t target, u64 request) {
  guardnn::crypto::AffinePoint share;
  {
    Span span("host.begin_session", request);
    share = client.user->begin_session();
  }
  guardnn::serving::InferenceServer::ConnectResult moved;
  {
    Span span("serving.migrate", request);
    moved = server_->migrate_tenant(client.tenant, target, share, /*integrity=*/true);
  }
  if (moved.tenant == 0) return false;
  bool ok = false;
  {
    Span span("host.attest_device", request);
    ok = client.user->attest_device(server_->get_pk(moved.device_index));
  }
  if (ok) {
    Span span("host.complete_session", request);
    ok = client.user->complete_session(moved.response);
  }
  client.device = moved.device_index;
  return ok;
}

bool open_matches(Client& client, const InferenceResult& result,
                  const Bytes& expected, u64 request) {
  if (result.outcome != RequestOutcome::kOk) return false;
  std::optional<Bytes> output;
  {
    Span span("host.user_open", request);
    output = client.user->open_output(result.sealed_output);
  }
  return output && *output == expected;
}

bool load_weights(Fleet& fleet, Client& client,
                  const guardnn::serving::ModelHandle& model) {
  guardnn::crypto::SealedRecord sealed;
  {
    Span span("host.user_seal", client.tenant);
    sealed = client.user->seal(model.plan->weight_blob);
  }
  Span span("serving.load_model", client.tenant);
  return fleet.server().load_model(client.tenant, model, sealed) == DeviceStatus::kOk;
}

}  // namespace hostbench
