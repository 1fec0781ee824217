// tenant_lifecycle: one caller, closed loop, sequential. Each cycle a new
// remote user connects, attests the device and completes the ECDHE session,
// loads the model from the sealed store, sends one attested request and
// verifies the report, replicates the model to a device that lacks it,
// migrates to the third device, checks one more request there, and
// disconnects. P-256 (ECDH, ECDSA sign/verify) and the provisioning re-wrap
// dominate; the model is the tiny CNN so bulk crypto stays minor.
//
// Fleet: 3 devices, 1 worker (+ monitor + client thread = 3 threads). The model's
// home replica lives on device 0; the replicas a cycle creates on the other
// two devices are dropped from the store at the end of the cycle, so every
// cycle re-wraps twice.
#include "fleet.h"
#include "host/model_codec.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"

namespace hostbench {
namespace {

using guardnn::Xoshiro256;
using guardnn::accel::DeviceStatus;
using guardnn::accel::Opcode;
using guardnn::host::FuncNetwork;
using guardnn::serving::InferenceResult;

constexpr std::size_t kDevices = 3;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kInputs = 16;

struct Rig {
  std::unique_ptr<Fleet> fleet;
  guardnn::serving::ModelHandle model;
  guardnn::store::ContentId content{};
  Bytes descriptor;
};

/// Fabricates the fleet and publishes the model: a first tenant uploads the
/// weights to device 0 and seals them into the store.
std::unique_ptr<Rig> set_up(const FuncNetwork& net, u64 seed, Report& report) {
  auto rig = std::make_unique<Rig>();
  rig->fleet = std::make_unique<Fleet>(base_config(kDevices, kWorkers), seed);
  auto& server = rig->fleet->server();
  rig->model = server.register_model(net);
  rig->descriptor = guardnn::host::serialize_descriptor(net);
  Client publisher;
  report.check(rig->fleet->connect(publisher, 0), "publisher connect");
  report.check(publisher.device == 0, "publisher placed on device 0");
  report.check(load_weights(*rig->fleet, publisher, rig->model), "publisher load");
  report.check(server.seal_tenant_model(publisher.tenant, rig->descriptor, rig->content) ==
                   DeviceStatus::kOk,
               "publisher seal");
  report.check(server.disconnect(publisher.tenant) == DeviceStatus::kOk,
               "publisher disconnect");
  return rig;
}

/// The user's view of what its session executed: UnsealModel of the stored
/// model, then one request.
void expect_session(guardnn::host::RemoteUser& user, const guardnn::host::ExecutionPlan& plan,
                    const guardnn::store::ContentId& content) {
  u8 operand[8 + 32];
  guardnn::store_be64(operand, plan.weight_base);
  std::copy(content.begin(), content.end(), operand + 8);
  user.expect_instruction(Opcode::kUnsealModel, BytesView(operand, sizeof(operand)));
  u8 addr[8];
  guardnn::store_be64(addr, plan.input_addr);
  user.expect_instruction(Opcode::kSetInput, BytesView(addr, 8));
  for (const auto& op : plan.ops) user.expect_instruction(Opcode::kForward, op.serialize());
  u8 out[16];
  guardnn::store_be64(out, plan.output_addr);
  guardnn::store_be64(out + 8, plan.output_bytes);
  user.expect_instruction(Opcode::kExportOutput, BytesView(out, 16));
}

struct Samples : LoopTally {
  std::vector<double> lifecycle_ms, onboard_ms, attest_ms, replicate_ms, migrate_ms,
      request_ms;
  std::vector<double> queue_ms, service_ms;
  std::vector<double> cpu_ms;  ///< Process CPU per cycle.
};

/// Runs whole cycles until `seconds` have passed.
Samples run_cycles(Rig& rig, const std::vector<Bytes>& inputs,
                   const std::vector<Bytes>& expected, double seconds, u64 seed,
                   Report& report) {
  auto& server = rig.fleet->server();
  const auto& plan = *rig.model.plan;
  Xoshiro256 rng(seed);
  Samples s;
  s.start(*rig.fleet);
  while (s.running(seconds)) {
    const u64 id = s.cycles + 1;
    const std::size_t in = static_cast<std::size_t>(rng.next_below(kInputs));
    Client c;
    c.user = rig.fleet->new_user();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();

    // Onboard: handshake + load from the store.
    bool ok = rig.fleet->connect(c, id) && c.device == 0;
    if (ok) {
      Span span("serving.load_model_from_store", id);
      ok = server.load_model_from_store(c.tenant, rig.content, rig.model) ==
           DeviceStatus::kOk;
    }
    const auto t1 = Clock::now();
    report.op(ok, "onboard (connect + load from store)");

    // One attested request, verified against the user's own expectations.
    guardnn::crypto::SealedRecord record;
    {
      Span span("host.user_seal", id);
      record = c.user->seal(inputs[in]);
    }
    InferenceResult result;
    {
      Span span("serving.request_attested", id);
      result = server.submit(c.tenant, record, /*attest=*/true);
    }
    ok = open_matches(c, result, expected[in], id) && result.attested;
    if (ok) {
      c.user->expect_weights(plan.weight_blob);
      c.user->expect_input(inputs[in]);
      c.user->expect_output(expected[in]);
      expect_session(*c.user, plan, rig.content);
      Span span("host.verify_attestation", id);
      ok = c.user->verify_attestation(result.report);
    }
    const auto t2 = Clock::now();
    report.op(ok, "attested request");
    s.queue_ms.push_back(result.queue_ms);
    s.service_ms.push_back(result.service_ms);

    // Replicate to the first device without the replica, migrate to the other.
    const std::size_t replica_target = c.device == 1 ? 2 : 1;
    const std::size_t migrate_target = 3 - replica_target - c.device;
    {
      Span span("serving.replicate", id);
      ok = server.replicate_model(rig.content, replica_target) == DeviceStatus::kOk;
    }
    const auto t3 = Clock::now();
    report.op(ok, "replicate_model");
    ok = rig.fleet->migrate(c, migrate_target, id);
    const auto t4 = Clock::now();
    report.op(ok, "migrate_tenant");

    // The migrated session still computes the reference output.
    const std::size_t in2 = static_cast<std::size_t>(rng.next_below(kInputs));
    {
      Span span("host.user_seal", id);
      record = c.user->seal(inputs[in2]);
    }
    const auto t5 = Clock::now();
    {
      Span span("serving.request", id);
      result = server.submit(c.tenant, record);
    }
    const auto t6 = Clock::now();
    report.op(open_matches(c, result, expected[in2], id),
              "output after migration differs from the reference");
    s.queue_ms.push_back(result.queue_ms);
    s.service_ms.push_back(result.service_ms);

    // Disconnect: the session slot must hold no key material afterwards.
    const auto [device, sid] = server.tenant_session(c.tenant);
    {
      Span span("serving.disconnect", id);
      ok = server.disconnect(c.tenant) == DeviceStatus::kOk;
    }
    const auto t7 = Clock::now();
    report.op(ok && server.device(device).slot_zeroized(sid & 0xff),
              "disconnect left key material in the session slot");

    s.cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
    s.lifecycle_ms.push_back(ms_between(t0, t7));
    s.onboard_ms.push_back(ms_between(t0, t1));
    s.attest_ms.push_back(ms_between(t1, t2));
    s.replicate_ms.push_back(ms_between(t2, t3));
    s.migrate_ms.push_back(ms_between(t3, t4));
    s.request_ms.push_back(ms_between(t5, t6));
    s.cycle_done();
    for (std::size_t d = 1; d < kDevices; ++d)
      server.model_store().erase(rig.content, server.device_binding(d));
  }
  s.finish(*rig.fleet);
  return s;
}

}  // namespace

void run_lifecycle(const Options& options, Report& report) {
  const FuncNetwork net = tiny_cnn(options.seed);
  Xoshiro256 rng(options.seed ^ 0x11fec7c1eULL);
  std::vector<Bytes> inputs, expected;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(net, rng));
    expected.push_back(reference_forward(net, inputs.back()));
  }

  spans::enable(options.trace);
  std::unique_ptr<Rig> rig;
  const double setup_s =
      timed_setups(rig, [&](u64 i) { return set_up(net, options.seed + i, report); });
  auto& server = rig->fleet->server();

  report.phase("probes");
  // Property: a stored blob with one byte flipped is refused by UnsealModel
  // and leaves the session's weight counter where it was; the genuine blob
  // then loads and serves the reference output.
  {
    Client c;
    report.check(rig->fleet->connect(c, 0), "tamper probe connect");
    const auto [device, sid] = server.tenant_session(c.tenant);
    std::optional<guardnn::store::SealedBlob> blob =
        server.model_store().get(rig->content, server.device_binding(device));
    report.check(blob.has_value(), "home replica present");
    if (blob) {
      blob->ciphertext[blob->ciphertext.size() / 2] ^= 0x01;
      const u64 vn_before = server.device(device).vn_generator(sid).weight_vn();
      Bytes descriptor;
      report.check(server.device(device).unseal_model(sid, *blob, rig->model.plan->weight_base,
                                                      descriptor) == DeviceStatus::kBadRecord,
                   "tampered sealed blob was not refused");
      report.check(server.device(device).vn_generator(sid).weight_vn() == vn_before,
                   "refused blob advanced the weight counter");
    }
    report.check(server.load_model_from_store(c.tenant, rig->content, rig->model) ==
                         DeviceStatus::kOk &&
                     open_matches(c, server.submit(c.tenant, c.user->seal(inputs[0])),
                                  expected[0], 0),
                 "genuine blob after a refused tamper did not serve the reference");
    report.check(server.disconnect(c.tenant) == DeviceStatus::kOk, "tamper probe disconnect");
  }

  const double S = options.seconds;
  if (!options.trace) {
    report.phase("cycles");
    const Samples s = run_cycles(*rig, inputs, expected, S, options.seed ^ 0xc1, report);
    const double n = static_cast<double>(s.cycles);
    report.metric("p50_ms", median(s.lifecycle_ms), "ms");
    report.metric("cpu_ms_per_op", median(s.cpu_ms), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("rss_mb", s.rss_mb, "MiB");
    report.detail("lifecycles_per_s", n / s.wall_s, "1/s");
    report.detail("onboard_p50_ms", median(s.onboard_ms), "ms");
    report.detail("attest_p50_ms", median(s.attest_ms), "ms");
    report.detail("replicate_p50_ms", median(s.replicate_ms), "ms");
    report.detail("migrate_p50_ms", median(s.migrate_ms), "ms");
    report.detail("req_p50_ms", median(s.request_ms), "ms");
    report.detail("modeled_device_ms_per_lifecycle", s.modeled_device_ms / n, "ms");
    report.detail("cycles", n, "count");
  } else {
    traced_run(
        net, *rig->fleet, S,
        [&](double seconds, int half) {
          return run_cycles(*rig, inputs, expected, seconds,
                          options.seed ^ (0xc1 + static_cast<u64>(half)), report);
        },
        [](const Samples& s) { return median(s.lifecycle_ms); }, report);
  }
}

}  // namespace hostbench
