// Shared pieces of the host-path benchmark: options, the report every
// workload fills, host-time helpers, and the model shapes the workloads serve.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host/scheduler.h"

namespace hostbench {

using guardnn::Bytes;
using guardnn::BytesView;
using guardnn::u64;
using guardnn::u8;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event file written by a traced run.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations and checks counted in one phase of a run: set-up, the
/// property probes, each timed phase, the per-layer ledger.
struct PhaseCount {
  std::string name;
  u64 attempted = 0;  ///< Timed operations.
  u64 failed = 0;
  u64 checks = 0;  ///< Correctness checks outside the timed operations.
  u64 checks_failed = 0;
};

/// What one run reports. `metrics` are the contract metrics (end-to-end in an
/// untraced run, per-layer in a traced one); `details` are printed for people
/// only (the workload's own named figures, generator lateness, counts).
/// `attempted`/`failed` total the timed operations of every phase.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<PhaseCount> phases{{"setup"}};

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts what follows into a new phase.
  void phase(std::string name) { phases.push_back({std::move(name)}); }
  /// A correctness check: a false `ok` fails the run and says why on stderr.
  void check(bool ok, const std::string& what);
  /// Counts one attempted operation of a timed phase; a false `ok` fails
  /// the run like a failed check.
  void op(bool ok, const std::string& what);

 private:
  void fail(const std::string& what);
};

double ms_between(Clock::time_point a, Clock::time_point b);
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Busy-waits (sleeping while far off) until `t`. Returns the calling
/// thread's CPU seconds spent waiting, so a generator can leave its own idle
/// time out of CPU-per-op figures.
double wait_until(Clock::time_point t);

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 3;

/// Builds a workload's rig kSetups times with `make(i)`, keeps the last, and
/// returns the median set-up time in seconds.
template <class Rig, class Make>
double timed_setups(std::unique_ptr<Rig>& rig, Make make) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = make(static_cast<u64>(i));
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return median(std::move(seconds));
}

// --- Models ----------------------------------------------------------------
// Every weight and input byte is drawn from the run's --seed.

/// The 3x8x8 -> 10 CNN of the serving benches: microseconds per request.
guardnn::host::FuncNetwork tiny_cnn(u64 seed);
/// 4x32x32 -> 10 CNN: ~0.6 M MACs and 150 KB of MPU traffic (encrypted plus
/// MACed bytes) per request.
guardnn::host::FuncNetwork heavy_cnn(u64 seed);
/// 64x64 -> 1024 -> 10 MLP: a 4 MiB weight blob for checkpointing.
guardnn::host::FuncNetwork checkpoint_mlp(u64 seed);

Bytes random_bytes(std::size_t n, guardnn::Xoshiro256& rng);
Bytes random_input(const guardnn::host::FuncNetwork& net,
                   guardnn::Xoshiro256& rng);

// --- Workloads ---------------------------------------------------------------

void run_serve(const Options& options, Report& report);
void run_lifecycle(const Options& options, Report& report);
void run_checkpoint(const Options& options, Report& report);

}  // namespace hostbench
