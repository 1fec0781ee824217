// A GuardNN serving fleet plus the remote users that talk to it, built from
// the run's seed. Every call into the serving and host layers that the
// workloads share is wrapped in a Span here.
#pragma once

#include <memory>

#include "bench.h"
#include "serving/inference_server.h"

namespace hostbench {

/// One remote user and its tenant on the fleet.
struct Client {
  std::unique_ptr<guardnn::host::RemoteUser> user;
  guardnn::serving::TenantId tenant = 0;
  std::size_t device = 0;
};

class Fleet {
 public:
  /// Fabricates the devices (identities certified by a CA drawn from
  /// `seed`) and starts the server's worker pool and monitor.
  Fleet(const guardnn::serving::ServerConfig& config, u64 seed);

  guardnn::serving::InferenceServer& server() { return *server_; }
  const guardnn::crypto::ManufacturerCa& ca() const { return ca_; }
  /// Span-clock nanoseconds at which the server's span ring started; the
  /// ring's timestamps count from here.
  u64 ring_epoch_ns() const { return ring_epoch_ns_; }

  /// Device time the paper's model has charged on every device so far
  /// (modeled, not host time).
  double modeled_device_ms();

  /// A fresh remote user pinned to this fleet's CA, entropy from the seed.
  std::unique_ptr<guardnn::host::RemoteUser> new_user();

  /// begin_session → connect → attest_device → complete_session. Returns
  /// false (and leaves client.tenant 0) on any failure.
  bool connect(Client& client, u64 request);

  /// Migrates `client` to `target` with a fresh ECDHE share and completes
  /// the new session on the user side.
  bool migrate(Client& client, std::size_t target, u64 request);

 private:
  guardnn::crypto::HmacDrbg ca_drbg_;
  guardnn::crypto::ManufacturerCa ca_;
  guardnn::Xoshiro256 rng_;
  u64 ring_epoch_ns_ = 0;
  std::unique_ptr<guardnn::serving::InferenceServer> server_;
};

/// The bookkeeping every closed loop shares: cycles run, wall time, modeled
/// device time, and the peak RSS after the first kRssCycles cycles — a fixed
/// amount of work, so memory that grows with work done (the device's
/// per-session MPU access trace does) reads the same however fast the host
/// runs.
struct LoopTally {
  static constexpr std::size_t kRssCycles = 10;
  std::size_t cycles = 0;
  double wall_s = 0;
  double modeled_device_ms = 0;
  double rss_mb = 0;

  void start(Fleet& fleet);
  /// True while fewer than `seconds` have passed since start().
  bool running(double seconds) const;
  void cycle_done();
  void finish(Fleet& fleet);

 private:
  Clock::time_point start_{};
};

/// The serving configuration every workload starts from: host time only
/// (device-latency emulation off), no deadlines.
guardnn::serving::ServerConfig base_config(std::size_t devices,
                                           std::size_t workers);

/// Opens `result` as `client`'s user and compares it with `expected`.
bool open_matches(Client& client, const guardnn::serving::InferenceResult& result,
                  const Bytes& expected, u64 request);

/// Seals the plan's weight blob for the client and loads it (SetWeight).
bool load_weights(Fleet& fleet, Client& client,
                  const guardnn::serving::ModelHandle& model);

}  // namespace hostbench
