#include <future>
#include <map>
#include <optional>

#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/mem_mac.h"
#include "crypto/sha256.h"
#include "functional/quant_ops.h"
#include "host/model_codec.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"
#include "store/model_store.h"

namespace hostbench {
namespace {

using guardnn::Xoshiro256;
using guardnn::accel::DeviceStatus;
using guardnn::accel::ForwardOp;
using guardnn::accel::GuardNnDevice;
using guardnn::host::ExecutionPlan;
using guardnn::host::FuncNetwork;
using guardnn::host::HostScheduler;
using guardnn::serving::InferenceResult;
using guardnn::serving::RequestOutcome;

constexpr u64 kChunk = guardnn::accel::MemoryProtectionUnit::kChunkBytes;
u64 pad_chunk(u64 n) { return (n + kChunk - 1) / kChunk * kChunk; }

double med_us(const char* name) { return median(spans::durations_us(name)); }

/// Per-request sums of the spans called `name` (grouped by request id).
std::vector<double> per_request_us(const char* name) {
  std::map<u64, double> sums;
  for (const SpanRecord& r : spans::all())
    if (std::string(name) == r.name)
      sums[r.request] += static_cast<double>(r.end_ns - r.start_ns) / 1e3;
  std::vector<double> out;
  for (const auto& [request, us] : sums) out.push_back(us);
  return out;
}

/// The program's plaintext int8 operators (src/functional) run the way the
/// device runs them: the compute floor under one request.
struct FunctionalNet {
  struct Layer {
    const guardnn::host::FuncLayer* layer;
    std::optional<guardnn::functional::ConvWeights> conv;
    std::optional<guardnn::functional::FcWeights> fc;
  };
  std::vector<Layer> layers;

  explicit FunctionalNet(const FuncNetwork& net) {
    const auto shapes = guardnn::host::infer_shapes(net);
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const auto& l = net.layers[i];
      Layer out{&l, std::nullopt, std::nullopt};
      const auto& in = shapes[i];
      if (l.kind == ForwardOp::Kind::kConv) {
        out.conv.emplace(l.out_c, in[0], l.kernel, net.bits);
        std::copy(l.weights.begin(), l.weights.end(),
                  reinterpret_cast<u8*>(out.conv->data.data()));
      } else if (l.kind == ForwardOp::Kind::kFc) {
        out.fc.emplace(l.out_c, in[0] * in[1] * in[2], net.bits);
        std::copy(l.weights.begin(), l.weights.end(),
                  reinterpret_cast<u8*>(out.fc->data.data()));
      }
      layers.push_back(std::move(out));
    }
  }

  Bytes run(const FuncNetwork& net, const Bytes& input) const {
    using guardnn::functional::Tensor;
    Tensor x(net.in_c, net.in_h, net.in_w, net.bits);
    std::copy(input.begin(), input.end(), x.mutable_bytes().begin());
    for (const Layer& l : layers) {
      switch (l.layer->kind) {
        case ForwardOp::Kind::kConv:
          x = guardnn::functional::conv2d_gemm(x, *l.conv, l.layer->stride,
                                               l.layer->pad, l.layer->requant_shift);
          break;
        case ForwardOp::Kind::kRelu:
          guardnn::functional::relu(x);
          break;
        case ForwardOp::Kind::kMaxPool:
          x = guardnn::functional::maxpool2d(x, l.layer->kernel, l.layer->stride);
          break;
        case ForwardOp::Kind::kFc: {
          const std::vector<guardnn::i8> out = guardnn::functional::fully_connected(
              x.data(), *l.fc, l.layer->requant_shift, net.bits);
          x = Tensor(static_cast<int>(out.size()), 1, 1, net.bits);
          std::copy(out.begin(), out.end(), x.data().begin());
          break;
        }
        default:
          break;
      }
    }
    return Bytes(x.bytes().begin(), x.bytes().end());
  }
};

/// Direct-device probes: one GuardNN device driven through its instruction
/// set by a remote user, exactly as the server's worker does per request.
void probe_device(const FuncNetwork& net, Fleet& fleet, Report& report) {
  using guardnn::host::RemoteUser;
  Xoshiro256 rng(0x1ed9e7);
  guardnn::accel::UntrustedMemory mem_a, mem_b;
  GuardNnDevice dev_a("ledger-a", fleet.ca(), mem_a, random_bytes(16, rng));
  GuardNnDevice dev_b("ledger-b", fleet.ca(), mem_b, random_bytes(16, rng));
  RemoteUser user(fleet.ca().public_key(), random_bytes(16, rng));
  report.check(user.attest_device(dev_a.get_pk()), "ledger: device certificate");

  // Sessions: open a few, keep the last.
  guardnn::accel::InitSessionResponse session;
  for (int i = 0; i < 4; ++i) {
    const auto share = user.begin_session();
    {
      Span span("accel.init_session", static_cast<u64>(i));
      session = dev_a.init_session(share, true);
    }
    report.check(user.complete_session(session), "ledger: session handshake");
    if (i + 1 < 4) dev_a.close_session(session.session_id);
  }
  const guardnn::accel::SessionId sid = session.session_id;

  ExecutionPlan plan;
  for (int i = 0; i < 20; ++i) {
    Span span("host.compile", static_cast<u64>(i));
    plan = HostScheduler::compile(net);
  }
  report.check(dev_a.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) ==
                   DeviceStatus::kOk,
               "ledger: SetWeight");

  // Requests: even ones through HostScheduler::execute, odd ones issuing
  // each Forward directly so the device's share can be timed per op.
  const FunctionalNet functional_net(net);
  HostScheduler scheduler(dev_a, sid);
  const int requests = plan.weight_blob.size() > (1u << 20) ? 10 : 60;
  std::vector<double> mpu_bytes;
  Bytes input, output;
  for (int r = 0; r < requests; ++r) {
    const u64 id = 1000 + static_cast<u64>(r);
    input = random_input(net, rng);
    const Bytes expected = reference_forward(net, input);
    guardnn::crypto::SealedRecord record;
    {
      Span span("host.user_seal", id);
      record = user.seal(input);
    }
    const auto& counters = dev_a.mpu_byte_counters();
    const u64 before = counters.bytes_encrypted.load() + counters.bytes_macd.load();
    DeviceStatus st;
    {
      Span span("accel.set_input", id);
      st = dev_a.set_input(sid, record, plan.input_addr);
    }
    scheduler.note_input();
    if (r % 2 == 0) {
      Span span("host.execute", id);
      st = st == DeviceStatus::kOk ? scheduler.execute(plan) : st;
    } else {
      for (std::size_t i = 0; i < plan.ops.size() && st == DeviceStatus::kOk; ++i) {
        const ForwardOp& op = plan.ops[i];
        st = dev_a.set_read_ctr(sid, op.input_addr, pad_chunk(op.input_bytes()),
                                scheduler.read_vn_for(i));
        if (st != DeviceStatus::kOk) break;
        Span span("accel.forward", id);
        st = dev_a.forward(sid, op);
      }
      if (st == DeviceStatus::kOk)
        st = dev_a.set_read_ctr(sid, plan.output_addr, pad_chunk(plan.output_bytes),
                                scheduler.output_read_vn(plan.ops.size()));
    }
    guardnn::crypto::SealedRecord sealed_out;
    if (st == DeviceStatus::kOk) {
      Span span("accel.export_output", id);
      st = dev_a.export_output(sid, plan.output_addr, plan.output_bytes, sealed_out);
    }
    mpu_bytes.push_back(static_cast<double>(
        counters.bytes_encrypted.load() + counters.bytes_macd.load() - before));
    std::optional<Bytes> opened;
    {
      Span span("host.user_open", id);
      opened = user.open_output(sealed_out);
    }
    report.check(st == DeviceStatus::kOk && opened && *opened == expected,
                 "ledger: direct-device output differs from the reference");
    output = opened.value_or(Bytes{});
    Bytes floor;
    {
      Span span("functional.reference", id);
      floor = functional_net.run(net, input);
    }
    report.check(floor == expected, "ledger: functional ops differ from the reference");
  }
  report.metric("accel.mpu_bytes_per_req", median(mpu_bytes), "count");

  // Attestation: sign on the device, verify as the user.
  user.expect_weights(plan.weight_blob);
  user.expect_input(input);
  user.expect_output(output);
  {
    u8 addr[8];
    guardnn::store_be64(addr, plan.weight_base);
    user.expect_instruction(guardnn::accel::Opcode::kSetWeight, BytesView(addr, 8));
    for (int r = 0; r < requests; ++r) {
      guardnn::store_be64(addr, plan.input_addr);
      user.expect_instruction(guardnn::accel::Opcode::kSetInput, BytesView(addr, 8));
      for (const ForwardOp& op : plan.ops)
        user.expect_instruction(guardnn::accel::Opcode::kForward, op.serialize());
      u8 operand[16];
      guardnn::store_be64(operand, plan.output_addr);
      guardnn::store_be64(operand + 8, plan.output_bytes);
      user.expect_instruction(guardnn::accel::Opcode::kExportOutput,
                              BytesView(operand, 16));
    }
  }
  for (int i = 0; i < 4; ++i) {
    guardnn::accel::SignOutputResponse signed_report;
    DeviceStatus st;
    {
      Span span("accel.sign_output", static_cast<u64>(i));
      st = dev_a.sign_output(sid, signed_report);
    }
    bool verified = false;
    {
      Span span("host.verify_attestation", static_cast<u64>(i));
      verified = user.verify_attestation(signed_report);
    }
    report.check(st == DeviceStatus::kOk && verified, "ledger: attestation");
  }

  // Sealed model: each seal follows a fresh SetWeight of the same blob, as a
  // checkpoint follows a training step, so it hashes the weights afresh (an
  // UnsealModel would leave the content id cached); each unseal opens a blob
  // the device has not verified before.
  const Bytes descriptor = guardnn::host::serialize_descriptor(net);
  guardnn::store::SealedBlob blob;
  for (int i = 0; i < 5; ++i) {
    DeviceStatus st = dev_a.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base);
    if (st == DeviceStatus::kOk) {
      Span span("accel.seal_model", static_cast<u64>(i));
      st = dev_a.seal_model(sid, plan.weight_base, plan.weight_blob.size(), descriptor,
                            blob);
    }
    report.check(st == DeviceStatus::kOk, "ledger: SealModel");
    Bytes desc_out;
    {
      Span span("accel.unseal_model", static_cast<u64>(i));
      st = dev_a.unseal_model(sid, blob, plan.weight_base, desc_out);
    }
    report.check(st == DeviceStatus::kOk && desc_out == descriptor, "ledger: UnsealModel");
  }

  // Store: put/get of the sealed replica on a fresh in-memory store.
  guardnn::store::ModelStore store;
  for (int i = 0; i < 10; ++i) {
    std::optional<guardnn::store::ContentId> content;
    {
      Span span("store.put", static_cast<u64>(i));
      content = store.put(blob);
    }
    std::optional<guardnn::store::SealedBlob> got;
    {
      Span span("store.get", static_cast<u64>(i));
      got = store.get(blob.content_id(), dev_a.store_binding());
    }
    report.check(content && got && got->ciphertext == blob.ciphertext, "ledger: store");
    store.erase(blob.content_id(), dev_a.store_binding());
  }

  // Provisioning: the attested three-step re-wrap from A to B.
  for (int i = 0; i < 3; ++i) {
    guardnn::accel::ProvisionRequest request;
    guardnn::accel::ProvisionGrant grant;
    guardnn::store::SealedBlob wrapped, rebound;
    DeviceStatus st;
    {
      Span span("accel.provision", static_cast<u64>(i));
      st = dev_b.provision_begin(request);
      if (st == DeviceStatus::kOk) st = dev_a.export_for_device(blob, request, wrapped, grant);
      if (st == DeviceStatus::kOk) st = dev_b.provision_finish(wrapped, grant, rebound);
    }
    report.check(st == DeviceStatus::kOk, "ledger: provisioning re-wrap");
  }
}

/// Crypto primitives at the workload's bulk size and record size.
void probe_crypto(const FuncNetwork& net, std::size_t bulk_bytes, Report& report) {
  Xoshiro256 rng(0xc1a55);
  Bytes data = random_bytes(bulk_bytes, rng);
  guardnn::crypto::AesKey key{};
  for (auto& b : key) b = static_cast<u8>(rng.next());
  const guardnn::crypto::Aes128 aes(key);
  const auto subkeys = guardnn::crypto::cmac_derive_subkeys(aes);
  std::vector<u64> tags(bulk_bytes / kChunk);
  for (int i = 0; i < 20; ++i) {
    {
      Span span("crypto.ctr", static_cast<u64>(i));
      guardnn::crypto::memory_xcrypt(aes, 0, static_cast<u64>(i), data);
    }
    {
      Span span("crypto.cmac", static_cast<u64>(i));
      guardnn::crypto::memory_mac_many(aes, subkeys, 0, static_cast<u64>(i), kChunk,
                                       data, tags.data(), tags.size());
    }
    Span span("crypto.sha256", static_cast<u64>(i));
    const auto digest = guardnn::crypto::Sha256::hash(data);
    report.check(digest != guardnn::crypto::Sha256Digest{}, "ledger: sha256");
  }
  const double gb = static_cast<double>(bulk_bytes) / 1e9;
  report.metric("crypto.ctr_gbps", gb / (med_us("crypto.ctr") / 1e6), "GB/s");
  report.metric("crypto.cmac_gbps", gb / (med_us("crypto.cmac") / 1e6), "GB/s");
  report.metric("crypto.sha256_gbps", gb / (med_us("crypto.sha256") / 1e6), "GB/s");

  guardnn::crypto::HmacDrbg drbg(random_bytes(16, rng));
  const auto alice = guardnn::crypto::ecdh_generate_key(drbg);
  const auto signer = guardnn::crypto::ecdsa_generate_key(drbg);
  for (int i = 0; i < 8; ++i) {
    const auto bob = guardnn::crypto::ecdh_generate_key(drbg);
    guardnn::crypto::U256 shared;
    {
      Span span("crypto.ecdh", static_cast<u64>(i));
      shared = guardnn::crypto::ecdh_shared_secret(alice.private_key, bob.public_key);
    }
    report.check(shared == guardnn::crypto::ecdh_shared_secret(bob.private_key,
                                                               alice.public_key),
                 "ledger: ECDH agreement");
    const Bytes message = random_bytes(64, rng);
    guardnn::crypto::EcdsaSignature sig;
    {
      Span span("crypto.ecdsa_sign", static_cast<u64>(i));
      sig = guardnn::crypto::ecdsa_sign(signer.private_key, message);
    }
    bool ok = false;
    {
      Span span("crypto.ecdsa_verify", static_cast<u64>(i));
      ok = guardnn::crypto::ecdsa_verify(signer.public_key, message, sig);
    }
    report.check(ok, "ledger: ECDSA verify");
  }

  guardnn::crypto::SessionKeys keys;
  for (auto& b : keys.enc_key) b = static_cast<u8>(rng.next());
  for (auto& b : keys.mac_key) b = static_cast<u8>(rng.next());
  guardnn::crypto::ChannelSender sender(keys);
  guardnn::crypto::ChannelReceiver receiver(keys);
  const Bytes record_plain = random_input(net, rng);
  for (int i = 0; i < 200; ++i) {
    guardnn::crypto::SealedRecord record;
    {
      Span span("crypto.channel_seal", static_cast<u64>(i));
      record = sender.seal(record_plain);
    }
    std::optional<Bytes> opened;
    {
      Span span("crypto.channel_open", static_cast<u64>(i));
      opened = receiver.open(record);
    }
    report.check(opened && *opened == record_plain, "ledger: channel round trip");
  }
}

/// Serving control-plane probes on the workload's fleet: connect, migrate
/// (each one re-wrapping the model to a device without the replica), and a
/// back-to-back burst against one tenant's queue quota.
u64 probe_serving(const FuncNetwork& net, Fleet& fleet, Report& report) {
  auto& server = fleet.server();
  const auto model = server.register_model(net);
  Xoshiro256 rng(0x5e4f);
  const Bytes input = random_input(net, rng);
  const Bytes expected = reference_forward(net, input);
  Client probe;
  report.check(fleet.connect(probe, 9001), "ledger: probe connect");
  report.check(load_weights(fleet, probe, model), "ledger: probe load");
  guardnn::store::ContentId content{};
  report.check(server.seal_tenant_model(probe.tenant,
                                        guardnn::host::serialize_descriptor(net),
                                        content) == DeviceStatus::kOk,
               "ledger: probe seal");
  for (int i = 0; i < 3; ++i) {
    const std::size_t target = (probe.device + 1) % server.device_count();
    server.model_store().erase(content, server.device_binding(target));
    report.check(fleet.migrate(probe, target, 9100 + static_cast<u64>(i)),
                 "ledger: probe migrate");
    report.check(open_matches(probe, server.submit(probe.tenant, probe.user->seal(input)),
                              expected, 9200 + static_cast<u64>(i)),
                 "ledger: output after migration differs from the reference");
  }

  // Burst: 256 requests back-to-back against the default 64-deep quota. A
  // refused record is retried once the oldest in-flight one resolves, so the
  // tenant's channel stays in order.
  std::vector<guardnn::crypto::SealedRecord> records;
  for (int i = 0; i < 256; ++i) records.push_back(probe.user->seal(input));
  // Results are opened strictly in submission order (the channel is
  // sequenced), including ones already resolved when first polled.
  struct Slot {
    std::future<InferenceResult> future;
    std::optional<InferenceResult> result;
    InferenceResult take() { return result ? std::move(*result) : future.get(); }
  };
  std::deque<Slot> inflight;
  auto open_oldest = [&] {
    report.check(open_matches(probe, inflight.front().take(), expected, 9300),
                 "ledger: burst output differs from the reference");
    inflight.pop_front();
  };
  u64 rejected = 0;
  std::size_t next = 0;
  while (next < records.size() || !inflight.empty()) {
    if (next == records.size()) {
      open_oldest();
      continue;
    }
    Slot slot;
    {
      Span span("serving.submit", 9400 + next);
      slot.future = server.submit_async(probe.tenant, records[next]);
    }
    if (slot.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      InferenceResult r = slot.future.get();
      if (r.outcome == RequestOutcome::kQueueFull ||
          r.outcome == RequestOutcome::kBackpressure) {
        ++rejected;
        report.check(!inflight.empty(), "ledger: refused with nothing queued");
        if (inflight.empty()) break;
        open_oldest();
        continue;
      }
      slot.result = std::move(r);
    }
    inflight.push_back(std::move(slot));
    ++next;
  }
  report.check(server.disconnect(probe.tenant) == DeviceStatus::kOk, "ledger: disconnect");
  return rejected;
}

}  // namespace

void measure_layers(const FuncNetwork& net, Fleet& fleet, const ServingSample& sample,
                    Report& report) {
  const ExecutionPlan plan = HostScheduler::compile(net);
  const std::size_t bulk = std::max<std::size_t>(64 << 10, pad_chunk(plan.weight_blob.size()));
  probe_crypto(net, bulk, report);
  probe_device(net, fleet, report);
  const u64 burst_rejected = probe_serving(net, fleet, report);

  report.metric("crypto.ecdh_ms", med_us("crypto.ecdh") / 1e3, "ms");
  report.metric("crypto.ecdsa_sign_ms", med_us("crypto.ecdsa_sign") / 1e3, "ms");
  report.metric("crypto.ecdsa_verify_ms", med_us("crypto.ecdsa_verify") / 1e3, "ms");
  report.metric("crypto.channel_seal_us", med_us("crypto.channel_seal"), "us");
  report.metric("crypto.channel_open_us", med_us("crypto.channel_open"), "us");
  report.metric("accel.init_session_ms", med_us("accel.init_session") / 1e3, "ms");
  report.metric("accel.provision_ms", med_us("accel.provision") / 1e3, "ms");
  report.metric("accel.sign_output_ms", med_us("accel.sign_output") / 1e3, "ms");
  report.metric("accel.set_input_us", med_us("accel.set_input"), "us");
  report.metric("accel.export_output_us", med_us("accel.export_output"), "us");
  report.metric("accel.forward_us", median(per_request_us("accel.forward")), "us");
  report.metric("accel.seal_model_ms", med_us("accel.seal_model") / 1e3, "ms");
  report.metric("accel.unseal_model_ms", med_us("accel.unseal_model") / 1e3, "ms");
  report.metric("host.execute_us", med_us("host.execute"), "us");
  report.metric("host.compile_us", med_us("host.compile"), "us");
  report.metric("host.user_seal_us", med_us("host.user_seal"), "us");
  report.metric("host.user_open_us", med_us("host.user_open"), "us");
  report.metric("host.verify_attestation_ms", med_us("host.verify_attestation") / 1e3, "ms");
  report.metric("functional.reference_us", med_us("functional.reference"), "us");
  report.metric("store.put_ms", med_us("store.put") / 1e3, "ms");
  report.metric("store.get_ms", med_us("store.get") / 1e3, "ms");

  report.metric("serving.queue_p50_ms", median(sample.queue_ms), "ms");
  report.metric("serving.service_p50_ms", median(sample.service_ms), "ms");
  report.metric("serving.submit_us", med_us("serving.submit"), "us");
  report.metric("serving.batch_mean",
                sample.batches ? static_cast<double>(sample.requests) / sample.batches : 0,
                "count");
  report.metric("serving.rejected", static_cast<double>(sample.rejected + burst_rejected),
                "count");
  report.metric("serving.connect_ms", med_us("serving.connect") / 1e3, "ms");
  report.metric("serving.migrate_ms", med_us("serving.migrate") / 1e3, "ms");

  // Stage split from the server's own span ring (armed for the traced
  // phase): device execution and output sealing per request, and the ring's
  // spans per request.
  const auto ring = fleet.server().trace().snapshot();
  std::map<u64, std::map<guardnn::obs::SpanKind, u64>> chains;
  for (const auto& s : ring)
    if (s.kind != guardnn::obs::SpanKind::kMigrate) chains[s.trace_id][s.kind] = s.t_ns;
  std::vector<double> execute_us, export_us;
  u64 ring_spans = 0, ring_requests = 0;
  for (const auto& s : ring)
    if (s.kind != guardnn::obs::SpanKind::kMigrate) ++ring_spans;
  for (const auto& [id, stages] : chains) {
    using K = guardnn::obs::SpanKind;
    if (!stages.count(K::kSubmit)) continue;
    ++ring_requests;
    const u64 base = fleet.ring_epoch_ns();
    auto edge = [&](K a, K b, const char* name, std::vector<double>& out) {
      const auto ia = stages.find(a), ib = stages.find(b);
      if (ia == stages.end() || ib == stages.end()) return;
      out.push_back(static_cast<double>(ib->second - ia->second) / 1e3);
      spans::add(name, base + ia->second, base + ib->second, id, 2);
    };
    std::vector<double> unused;
    edge(K::kSubmit, K::kPickup, "ring.queue", unused);
    edge(K::kPickup, K::kUnseal, "ring.set_input", unused);
    edge(K::kUnseal, K::kDevice, "ring.execute", execute_us);
    edge(K::kDevice, K::kSeal, "ring.export_output", export_us);
    edge(K::kSeal, K::kResolve, "ring.resolve", unused);
  }
  report.metric("serving.ring_execute_us", median(execute_us), "us");
  report.metric("serving.ring_export_us", median(export_us), "us");
  report.metric("obs.ring_spans_per_req",
                ring_requests ? static_cast<double>(ring_spans) / ring_requests : 0, "count");
}

}  // namespace hostbench
