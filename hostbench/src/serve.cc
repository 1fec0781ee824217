// serve_heavy: open-loop inference traffic on a fleet of 2 devices and
// 2 workers serving 8 tenants a CNN of about a millisecond per request.
//
// Arrivals are Poisson on a schedule drawn from the seed; every input is
// sealed for its tenant before the timed phase starts, and each request is
// timed from when it was due, so a stall also delays the requests behind it.
// The driving thread is the only client thread: server workers (2) +
// monitor (1) + this thread (1) stay within 4 threads.
//
// Phases: a fixed nominal rate (latency and CPU per request), then a ladder
// of fixed rates that finds the highest one meeting the p99 limit with no
// growing backlog (max rate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>

#include "fleet.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"

namespace hostbench {
namespace {

using guardnn::Xoshiro256;
using guardnn::accel::DeviceStatus;
using guardnn::crypto::SealedRecord;
using guardnn::host::FuncNetwork;
using guardnn::serving::InferenceResult;
using guardnn::serving::RequestOutcome;

constexpr std::size_t kTenants = 8;
constexpr std::size_t kDevices = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kInputs = 16;
/// Ladder rates sit on one fixed geometric grid: rate(k) = base * 1.03^k.
/// The coarse pass climbs 16 grid steps (1.6x) at a time, then bisects.
constexpr double kGridRatio = 1.03;
constexpr int kCoarseStep = 16;
constexpr int kMaxGrid = 128;

/// Fixed rate for the latency figures. It sits well under the measured
/// capacity (see README), so they measure the request path rather than
/// queueing collapse.
constexpr double kNominalRps = 200.0;
/// Latency limit of the max-rate ladder.
constexpr double kP99LimitMs = 25.0;
constexpr double kLadderBaseRps = 300.0;

struct Rig {
  std::unique_ptr<Fleet> fleet;
  std::vector<Client> clients;
  guardnn::serving::ModelHandle model;
};

std::unique_ptr<Rig> set_up(const FuncNetwork& net, u64 seed, Report& report) {
  auto rig = std::make_unique<Rig>();
  rig->fleet = std::make_unique<Fleet>(base_config(kDevices, kWorkers), seed);
  {
    Span span("serving.register_model");
    rig->model = rig->fleet->server().register_model(net);
  }
  rig->clients.resize(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    Client& client = rig->clients[t];
    report.check(rig->fleet->connect(client, t + 1), "tenant connect");
    report.check(load_weights(*rig->fleet, client, rig->model), "tenant load_model");
  }
  return rig;
}

struct Arrival {
  double at_s = 0;
  std::size_t tenant = 0;
  std::size_t input = 0;
};

/// Poisson arrivals conditioned on their count: rate * duration arrival
/// times drawn uniformly over the phase and sorted. Every run of a phase
/// then does the same amount of work, whatever the seed.
std::vector<Arrival> poisson(double rate, double duration_s, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<Arrival> out(static_cast<std::size_t>(std::llround(rate * duration_s)));
  for (Arrival& a : out) a.at_s = rng.next_double() * duration_s;
  std::sort(out.begin(), out.end(),
            [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  for (Arrival& a : out) {
    a.tenant = static_cast<std::size_t>(rng.next_below(kTenants));
    a.input = static_cast<std::size_t>(rng.next_below(kInputs));
  }
  return out;
}

/// A rung's verdict is taken per window of due times, and the rung passes
/// when the median window meets the limit: a slow spell of the host that
/// spans a minority of the rung does not decide the max rate, a backlog that
/// keeps growing fails every later window.
constexpr std::size_t kWindows = 5;

struct PhaseResult {
  double rate = 0;
  std::size_t requests = 0;
  std::size_t over_limit = 0;  ///< Late past the limit, or rejected once.
  std::vector<std::vector<double>> window_ms{kWindows};  ///< Rejected = +inf.
  std::size_t rejected = 0;    ///< Submits answered kQueueFull/kBackpressure.
  std::vector<double> latency_ms;
  std::vector<double> lateness_us;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  /// Process CPU (minus the generator's idle waiting) per completed request,
  /// one figure per tenth of the phase.
  std::vector<double> cpu_ms_per_op;
  double modeled_device_ms = 0;  ///< Device time the paper's model charges.
  double last_done_s = 0;   ///< Last completion, seconds after the start.

  double p(double q) const { return quantile(latency_ms, q); }
  /// Median over the windows of each window's p99.
  double window_p99() const {
    std::vector<double> p99s;
    for (const auto& w : window_ms) p99s.push_back(quantile(w, 0.99));
    return median(p99s);
  }
  bool passes(double limit_ms) const { return requests > 0 && window_p99() <= limit_ms; }
};

/// Runs one open-loop phase: every arrival of `schedule` is submitted at
/// its due time (retrying the same sealed record after a rejection, so each
/// tenant's channel stays in order) and every output is opened and checked.
PhaseResult run_phase(Rig& rig, const std::vector<Bytes>& inputs,
                      const std::vector<Bytes>& expected, double rate,
                      double duration_s, double limit_ms, u64 seed, Report& report) {
  auto& server = rig.fleet->server();
  const std::vector<Arrival> schedule = poisson(rate, duration_s, seed);
  std::vector<SealedRecord> sealed(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Span span("host.user_seal", i);
    sealed[i] = rig.clients[schedule[i].tenant].user->seal(inputs[schedule[i].input]);
  }

  struct Waiting {
    std::size_t index;
    bool rejected;
  };
  struct InFlight {
    std::future<InferenceResult> future;
    std::optional<InferenceResult> result;  ///< Already resolved when polled.
    std::size_t index;
    Clock::time_point submitted;
    bool rejected;
  };
  std::vector<std::deque<Waiting>> backlog(kTenants);
  std::vector<std::deque<InFlight>> inflight(kTenants);

  PhaseResult out;
  out.rate = rate;
  out.requests = schedule.size();
  out.latency_ms.reserve(schedule.size());
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].at_s));
  };
  std::size_t next = 0;
  std::size_t outstanding = 0;
  double idle_cpu = 0;
  std::size_t done = 0;
  const double modeled0 = rig.fleet->modeled_device_ms();
  // CPU per request is taken per tenth of the phase and reported as the
  // median tenth, so a slow spell of the host moves it less.
  constexpr std::size_t kCpuWindows = 10;
  std::size_t cpu_window = 0;
  double window_cpu0 = process_cpu_s(), window_idle0 = 0;
  std::size_t window_done0 = 0;
  auto close_cpu_window = [&] {
    const double cpu = process_cpu_s();
    if (done > window_done0)
      out.cpu_ms_per_op.push_back((cpu - window_cpu0 - (idle_cpu - window_idle0)) * 1e3 /
                                  static_cast<double>(done - window_done0));
    window_cpu0 = cpu;
    window_idle0 = idle_cpu;
    window_done0 = done;
    ++cpu_window;
  };

  auto finish = [&](std::size_t tenant, InFlight& f, const InferenceResult& r) {
    const double lat = ms_between(due(f.index), f.submitted) + r.queue_ms + r.service_ms;
    out.latency_ms.push_back(lat);
    out.queue_ms.push_back(r.queue_ms);
    out.service_ms.push_back(r.service_ms);
    if (f.rejected || lat > limit_ms) ++out.over_limit;
    const std::size_t w = std::min(
        kWindows - 1,
        static_cast<std::size_t>(schedule[f.index].at_s / duration_s * kWindows));
    out.window_ms[w].push_back(f.rejected ? std::numeric_limits<double>::infinity() : lat);
    const double done_s =
        std::chrono::duration<double>(f.submitted - start).count() +
        (r.queue_ms + r.service_ms) / 1e3;
    out.last_done_s = std::max(out.last_done_s, done_s);
    const Arrival& a = schedule[f.index];
    report.op(open_matches(rig.clients[tenant], r, expected[a.input], f.index),
              std::string("request output differs from the reference (") +
                  guardnn::serving::outcome_name(r.outcome) + ")");
    --outstanding;
    ++done;
  };

  while (next < schedule.size() || outstanding > 0) {
    auto now = Clock::now();
    while (next < schedule.size() && due(next) <= now) {
      backlog[schedule[next].tenant].push_back({next, false});
      ++next;
      ++outstanding;
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      while (!backlog[t].empty()) {
        Waiting& w = backlog[t].front();
        const auto submitted = Clock::now();
        std::future<InferenceResult> future;
        {
          Span span("serving.submit", w.index);
          future = server.submit_async(rig.clients[t].tenant, sealed[w.index]);
        }
        std::optional<InferenceResult> early;
        if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          InferenceResult r = future.get();
          if (r.outcome == RequestOutcome::kQueueFull ||
              r.outcome == RequestOutcome::kBackpressure) {
            ++out.rejected;
            w.rejected = true;
            break;  // same record again on a later pass
          }
          early = std::move(r);
        }
        out.lateness_us.push_back(
            std::chrono::duration<double, std::micro>(submitted - due(w.index)).count());
        inflight[t].push_back(
            {std::move(future), std::move(early), w.index, submitted, w.rejected});
        backlog[t].pop_front();
      }
    }
    bool any_backlog = false;
    for (std::size_t t = 0; t < kTenants; ++t) {
      // Outputs open in submission order: the channel is sequenced.
      while (!inflight[t].empty() &&
             (inflight[t].front().result ||
              inflight[t].front().future.wait_for(std::chrono::seconds(0)) ==
                  std::future_status::ready)) {
        InFlight f = std::move(inflight[t].front());
        inflight[t].pop_front();
        const InferenceResult r = f.result ? std::move(*f.result) : f.future.get();
        finish(t, f, r);
      }
      any_backlog = any_backlog || !backlog[t].empty();
    }
    now = Clock::now();
    if (cpu_window < kCpuWindows &&
        now >= start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                           duration_s * static_cast<double>(cpu_window + 1) / kCpuWindows)))
      close_cpu_window();
    if (next < schedule.size()) {
      // Completions are timed by the server, so harvesting them can wait
      // for the next arrival; rejected heads are retried then too.
      idle_cpu += wait_until(due(next));
    } else if (any_backlog) {
      idle_cpu += wait_until(now + std::chrono::microseconds(50));
    } else {
      for (auto& q : inflight)
        if (!q.empty()) {
          if (!q.front().result) q.front().future.wait();
          break;
        }
    }
  }
  if (out.cpu_ms_per_op.empty()) close_cpu_window();
  out.modeled_device_ms = rig.fleet->modeled_device_ms() - modeled0;
  return out;
}

double grid_rate(int k) { return kLadderBaseRps * std::pow(kGridRatio, k); }

}  // namespace

void run_serve(const Options& options, Report& report) {
  const FuncNetwork net = heavy_cnn(options.seed);
  Xoshiro256 rng(options.seed ^ 0x5e77eULL);
  std::vector<Bytes> inputs, expected;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(net, rng));
    expected.push_back(reference_forward(net, inputs.back()));
  }

  // Set-up: fabricate the fleet, connect and attest 8 tenants, load the
  // model. Done kSetups times; the median is setup_s.
  spans::enable(options.trace);
  std::unique_ptr<Rig> rig;
  const double setup_s =
      timed_setups(rig, [&](u64 i) { return set_up(net, options.seed + i, report); });
  auto& server = rig->fleet->server();

  // Property: a sealed input with one byte flipped is refused and changes no
  // channel state — the genuine record with the same sequence number still
  // opens and computes the reference output.
  report.phase("probes");
  {
    Client& c = rig->clients[0];
    const SealedRecord genuine = c.user->seal(inputs[0]);
    SealedRecord tampered = genuine;
    tampered.ciphertext[tampered.ciphertext.size() / 2] ^= 0x01;
    const InferenceResult bad = server.submit(c.tenant, tampered);
    report.check(bad.outcome == RequestOutcome::kDeviceError &&
                     bad.device_status == DeviceStatus::kBadRecord,
                 "tampered input record was not refused");
    report.check(open_matches(c, server.submit(c.tenant, genuine), expected[0], 0),
                 "genuine record after a refused tamper did not match the reference");
  }

  const double S = options.seconds;
  if (!options.trace) {
    report.phase("nominal");
    const PhaseResult nominal = run_phase(*rig, inputs, expected, kNominalRps,
                                          0.7 * S, kP99LimitMs,
                                          options.seed ^ 0xa0, report);
    // Peak RSS before the ladder: the ladder's length follows the host's
    // speed, and the device's per-session MPU access trace grows with every
    // request served, so a later reading would measure the host's speed.
    const double rss_mb = peak_rss_mb();
    // Max-rate ladder on the fixed grid.
    report.phase("ladder");
    const double rung_s = 0.03 * S;
    std::size_t rungs = 0;
    std::size_t ladder_rejected = 0;
    auto rung = [&](int k) {
      PhaseResult r = run_phase(*rig, inputs, expected, grid_rate(k), rung_s,
                                kP99LimitMs,
                                options.seed ^ (0xb000 + static_cast<u64>(k)), report);
      ++rungs;
      ladder_rejected += r.rejected;
      std::fprintf(stderr,
                   "  rung %3d  %9.1f req/s  p99 %8.3f ms  window p99 %8.3f ms  "
                   "over %5zu/%-6zu  %s\n",
                   k, r.rate, r.p(0.99), r.window_p99(), r.over_limit, r.requests,
                   r.passes(kP99LimitMs) ? "pass" : "FAIL");
      return r;
    };
    int lo = 0;
    PhaseResult best = rung(0);
    int hi = -1;
    if (best.passes(kP99LimitMs)) {
      for (int k = kCoarseStep; k <= kMaxGrid; k += kCoarseStep) {
        PhaseResult r = rung(k);
        if (!r.passes(kP99LimitMs)) {
          hi = k;
          break;
        }
        lo = k;
        best = std::move(r);
      }
      if (hi < 0) hi = lo;  // never failed up to the grid's end
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        PhaseResult r = rung(mid);
        if (r.passes(kP99LimitMs)) {
          lo = mid;
          best = std::move(r);
        } else {
          hi = mid;
        }
      }
    } else {
      report.check(false, "the lowest ladder rate missed the p99 limit");
    }
    const double max_rate =
        best.last_done_s > 0 ? static_cast<double>(best.requests) / best.last_done_s : 0;

    report.metric("p50_ms", nominal.p(0.5), "ms");
    report.metric("cpu_ms_per_op", median(nominal.cpu_ms_per_op), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("rss_mb", rss_mb, "MiB");
    report.detail("req_p50_ms", nominal.p(0.5), "ms");
    report.detail("req_p99_ms", nominal.p(0.99), "ms");
    report.detail("max_rate_rps", max_rate, "1/s");
    report.detail("nominal_rate_rps", kNominalRps, "1/s");
    report.detail("p99_limit_ms", kP99LimitMs, "ms");
    report.detail("nominal_requests", static_cast<double>(nominal.requests), "count");
    report.detail("generator_late_p50_us", quantile(nominal.lateness_us, 0.5), "us");
    report.detail("generator_late_p99_us", quantile(nominal.lateness_us, 0.99), "us");
    report.detail("modeled_device_ms_per_req",
                  nominal.modeled_device_ms / static_cast<double>(nominal.requests), "ms");
    report.detail("ladder_rungs", static_cast<double>(rungs), "count");
    report.detail("ladder_rejected", static_cast<double>(ladder_rejected), "count");
    report.detail("max_rate_grid_rps", grid_rate(lo), "1/s");
  } else {
    traced_run(
        net, *rig->fleet, S,
        [&](double seconds, int half) {
          return run_phase(*rig, inputs, expected, kNominalRps, seconds, kP99LimitMs,
                           options.seed ^ (0xa0 + static_cast<u64>(half)), report);
        },
        [](const PhaseResult& r) { return r.p(0.5); }, report);
  }

  // Property: a disconnected tenant's session slot holds no key material.
  report.phase("disconnect");
  for (Client& c : rig->clients) {
    const auto [device, sid] = server.tenant_session(c.tenant);
    report.check(server.disconnect(c.tenant) == DeviceStatus::kOk, "disconnect");
    report.check(server.device(device).slot_zeroized(sid & 0xff),
                 "disconnected tenant's slot still holds key material");
  }
}

}  // namespace hostbench
