// Per-layer ledger of the traced run (--trace 1).
#pragma once

#include "bench.h"
#include "fleet.h"
#include "spans.h"

namespace hostbench {

/// Serving-layer figures a workload collected during its traced phase.
struct ServingSample {
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  u64 requests = 0;
  u64 batches = 0;
  u64 rejected = 0;
};

/// Drives each layer's public functions at the workload's model shapes with
/// a Span around every call — crypto primitives, the device instructions,
/// the host scheduler and user client, the plaintext functional ops, the
/// sealed store, and serving control-plane probes on the workload's own
/// fleet — then turns every span recorded during the run (the workload's
/// and these) plus the server's span ring into the per-layer metrics.
/// Outputs the probes produce are checked against the reference too.
void measure_layers(const guardnn::host::FuncNetwork& net, Fleet& fleet,
                    const ServingSample& sample, Report& report);

/// The traced run of every workload: `run_half(seconds, half)` runs the
/// workload's timed loop for half the run with tracing off (half 0), then
/// again with the benchmark's spans and the server's span ring on (half 1).
/// Reports the tracing overhead on `p50(result)` and the per-layer ledger,
/// its serving figures taken from the traced half.
template <class RunHalf, class P50>
void traced_run(const guardnn::host::FuncNetwork& net, Fleet& fleet, double seconds,
                RunHalf run_half, P50 p50, Report& report) {
  auto& server = fleet.server();
  report.phase("untraced_half");
  spans::enable(false);
  const auto plain = run_half(0.5 * seconds, 0);
  report.phase("traced_half");
  spans::enable(true);
  server.trace().set_enabled(true);
  const auto before = server.stats();
  const auto traced = run_half(0.5 * seconds, 1);
  const auto after = server.stats();
  server.trace().set_enabled(false);
  report.detail("untraced_p50_ms", p50(plain), "ms");
  report.detail("traced_p50_ms", p50(traced), "ms");
  report.detail("trace_overhead_pct", 100.0 * (p50(traced) / p50(plain) - 1.0), "%");
  ServingSample sample;
  sample.queue_ms = traced.queue_ms;
  sample.service_ms = traced.service_ms;
  sample.requests = after.requests - before.requests;
  sample.batches = after.batches - before.batches;
  if constexpr (requires { traced.rejected; }) sample.rejected = traced.rejected;
  report.phase("ledger");
  measure_layers(net, fleet, sample, report);
}

}  // namespace hostbench
