// model_checkpoint: one tenant, closed loop, a 4 MiB model.
//
// Each cycle stands in for one training step's checkpoint: the tenant's user
// uploads the next weight version (two versions alternate, so every seal
// hashes new weights), the server seals the loaded model into the store
// (seal = write), then loads it back from the store on the same device and
// on a second device (unseal = read), checking each load with a request
// against the reference. The store, SHA-256 and bulk AES-CTR/CMAC dominate.
//
// Fleet: 2 devices, 1 worker (+ monitor + client thread = 3 threads). A second
// session of the same model owner sits on device 1; its replicas of both
// versions are re-wrapped once during set-up.
#include "fleet.h"
#include "host/model_codec.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"

namespace hostbench {
namespace {

using guardnn::Xoshiro256;
using guardnn::accel::DeviceStatus;
using guardnn::host::FuncNetwork;
using guardnn::serving::InferenceResult;

constexpr std::size_t kDevices = 2;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kVersions = 2;

struct Version {
  FuncNetwork net;
  guardnn::serving::ModelHandle model;
  guardnn::store::ContentId content{};
  Bytes descriptor;
  Bytes input;
  Bytes expected;
};

struct Rig {
  std::unique_ptr<Fleet> fleet;
  Client writer;  ///< Device 0: uploads, seals, reloads.
  Client reader;  ///< Device 1: loads the re-wrapped replica.
};

std::unique_ptr<Rig> set_up(std::vector<Version>& versions, u64 seed, Report& report) {
  auto rig = std::make_unique<Rig>();
  rig->fleet = std::make_unique<Fleet>(base_config(kDevices, kWorkers), seed);
  auto& server = rig->fleet->server();
  report.check(rig->fleet->connect(rig->writer, 1) && rig->writer.device == 0,
               "writer connect on device 0");
  report.check(rig->fleet->connect(rig->reader, 2) && rig->reader.device == 1,
               "reader connect on device 1");
  for (Version& v : versions) {
    v.model = server.register_model(v.net);
    report.check(load_weights(*rig->fleet, rig->writer, v.model), "writer upload");
    report.check(server.seal_tenant_model(rig->writer.tenant, v.descriptor, v.content) ==
                     DeviceStatus::kOk,
                 "initial seal");
    report.check(server.load_model_from_store(rig->reader.tenant, v.content, v.model) ==
                     DeviceStatus::kOk,
                 "initial re-wrap to device 1");
  }
  return rig;
}

struct Samples : LoopTally {
  std::vector<double> cycle_ms, update_ms, seal_ms, unseal_ms, unseal_warm_ms, request_ms;
  std::vector<double> queue_ms, service_ms;
  std::vector<double> cpu_ms;  ///< Process CPU per cycle.
};

Samples run_cycles(Rig& rig, std::vector<Version>& versions, double seconds, Report& report) {
  auto& server = rig.fleet->server();
  Samples s;
  s.start(*rig.fleet);
  auto request = [&](Client& c, const Version& v, u64 id) {
    guardnn::crypto::SealedRecord record;
    {
      Span span("host.user_seal", id);
      record = c.user->seal(v.input);
    }
    const auto t0 = Clock::now();
    InferenceResult result;
    {
      Span span("serving.request", id);
      result = server.submit(c.tenant, record);
    }
    s.request_ms.push_back(ms_between(t0, Clock::now()));
    s.queue_ms.push_back(result.queue_ms);
    s.service_ms.push_back(result.service_ms);
    report.op(open_matches(c, result, v.expected, id),
              "output after a store load differs from the reference");
  };
  while (s.running(seconds)) {
    const u64 id = s.cycles + 1;
    Version& v = versions[s.cycles % kVersions];
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    report.op(load_weights(*rig.fleet, rig.writer, v.model), "weight upload");
    const auto t1 = Clock::now();
    // The new checkpoint replaces the stored replica of the same content.
    server.model_store().erase(v.content, server.device_binding(0));
    guardnn::store::ContentId content{};
    bool ok = false;
    {
      Span span("serving.seal_tenant_model", id);
      ok = server.seal_tenant_model(rig.writer.tenant, v.descriptor, content) ==
           DeviceStatus::kOk;
    }
    const auto t2 = Clock::now();
    report.op(ok && content == v.content, "seal_tenant_model");
    {
      Span span("serving.load_model_from_store", id);
      ok = server.load_model_from_store(rig.writer.tenant, v.content, v.model) ==
           DeviceStatus::kOk;
    }
    const auto t3 = Clock::now();
    report.op(ok, "load_model_from_store (same device)");
    request(rig.writer, v, id);
    const auto t4 = Clock::now();
    {
      Span span("serving.load_model_from_store", id);
      ok = server.load_model_from_store(rig.reader.tenant, v.content, v.model) ==
           DeviceStatus::kOk;
    }
    const auto t5 = Clock::now();
    report.op(ok, "load_model_from_store (second device)");
    request(rig.reader, v, id);
    s.cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
    s.cycle_ms.push_back(ms_between(t0, Clock::now()));
    s.update_ms.push_back(ms_between(t0, t1));
    s.seal_ms.push_back(ms_between(t1, t2));
    s.unseal_ms.push_back(ms_between(t2, t3));
    s.unseal_warm_ms.push_back(ms_between(t4, t5));
    s.cycle_done();
  }
  s.finish(*rig.fleet);
  return s;
}

double gbps(double bytes, double ms) { return ms > 0 ? bytes / (ms * 1e6) : 0; }

}  // namespace

void run_checkpoint(const Options& options, Report& report) {
  std::vector<Version> versions(kVersions);
  Xoshiro256 rng(options.seed ^ 0xc0ffeeULL);
  for (std::size_t i = 0; i < kVersions; ++i) {
    Version& v = versions[i];
    v.net = checkpoint_mlp(options.seed * kVersions + i);
    v.descriptor = guardnn::host::serialize_descriptor(v.net);
    v.input = random_input(v.net, rng);
    v.expected = reference_forward(v.net, v.input);
  }
  const double model_bytes =
      static_cast<double>(guardnn::host::HostScheduler::compile(versions[0].net)
                              .weight_blob.size());

  spans::enable(options.trace);
  std::unique_ptr<Rig> rig;
  const double setup_s =
      timed_setups(rig, [&](u64 i) { return set_up(versions, options.seed + i, report); });
  auto& server = rig->fleet->server();

  report.phase("probes");
  // Property: a stored checkpoint with one byte flipped is refused with no
  // change to the session's weight counter; the genuine one still loads and
  // serves the reference output.
  {
    const Version& v = versions[0];
    const auto [device, sid] = server.tenant_session(rig->writer.tenant);
    std::optional<guardnn::store::SealedBlob> blob =
        server.model_store().get(v.content, server.device_binding(device));
    report.check(blob.has_value(), "checkpoint replica present");
    if (blob) {
      blob->ciphertext[blob->ciphertext.size() / 3] ^= 0x80;
      const u64 vn_before = server.device(device).vn_generator(sid).weight_vn();
      Bytes descriptor;
      report.check(server.device(device).unseal_model(sid, *blob, v.model.plan->weight_base,
                                                      descriptor) == DeviceStatus::kBadRecord,
                   "tampered checkpoint was not refused");
      report.check(server.device(device).vn_generator(sid).weight_vn() == vn_before,
                   "refused checkpoint advanced the weight counter");
    }
    report.check(server.load_model_from_store(rig->writer.tenant, v.content, v.model) ==
                         DeviceStatus::kOk &&
                     open_matches(rig->writer,
                                  server.submit(rig->writer.tenant,
                                                rig->writer.user->seal(v.input)),
                                  v.expected, 0),
                 "genuine checkpoint after a refused tamper did not serve the reference");
  }

  const double S = options.seconds;
  if (!options.trace) {
    report.phase("cycles");
    const Samples s = run_cycles(*rig, versions, S, report);
    const double n = static_cast<double>(s.cycles);
    report.metric("p50_ms", median(s.cycle_ms), "ms");
    report.metric("cpu_ms_per_op", median(s.cpu_ms), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("rss_mb", s.rss_mb, "MiB");
    report.detail("cycles_per_s", n / s.wall_s, "1/s");
    report.detail("seal_gbps", gbps(model_bytes, median(s.seal_ms)), "GB/s");
    report.detail("unseal_gbps", gbps(model_bytes, median(s.unseal_ms)), "GB/s");
    report.detail("unseal_second_device_gbps", gbps(model_bytes, median(s.unseal_warm_ms)),
                  "GB/s");
    report.detail("upload_p50_ms", median(s.update_ms), "ms");
    report.detail("req_p50_ms", median(s.request_ms), "ms");
    report.detail("model_bytes", model_bytes, "B");
    report.detail("modeled_device_ms_per_cycle", s.modeled_device_ms / n, "ms");
    report.detail("cycles", n, "count");
  } else {
    traced_run(
        versions[0].net, *rig->fleet, S,
        [&](double seconds, int /*half*/) {
          return run_cycles(*rig, versions, seconds, report);
        },
        [](const Samples& s) { return median(s.cycle_ms); }, report);
  }
}

}  // namespace hostbench
