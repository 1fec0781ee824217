#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace hostbench {

using guardnn::Xoshiro256;
using guardnn::host::FuncLayer;
using guardnn::host::FuncNetwork;
using Kind = guardnn::accel::ForwardOp::Kind;

void Report::fail(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

void Report::check(bool ok, const std::string& what) {
  ++phases.back().checks;
  if (ok) return;
  ++phases.back().checks_failed;
  fail(what);
}

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  ++phases.back().attempted;
  if (ok) return;
  ++failed;
  ++phases.back().failed;
  fail(what);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM is this process image's own peak; getrusage's ru_maxrss would also
  // carry the peak of the process that exec'd it (the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

double wait_until(Clock::time_point t) {
  auto now = Clock::now();
  if (now >= t) return 0.0;
  const double cpu0 = thread_cpu_s();
  // Sleep through most of a long gap; spin the last stretch so arrivals are
  // not late by the scheduler's wake-up granularity.
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (t - now > kSpin) std::this_thread::sleep_until(t - kSpin);
  while (Clock::now() < t) {
  }
  return thread_cpu_s() - cpu0;
}

Bytes random_bytes(std::size_t n, Xoshiro256& rng) {
  Bytes out(n);
  rng.fill(out);
  return out;
}

Bytes random_input(const FuncNetwork& net, Xoshiro256& rng) {
  return random_bytes(static_cast<std::size_t>(net.in_c) * net.in_h * net.in_w, rng);
}

namespace {
FuncLayer conv(int out_c, int in_c, int shift, Xoshiro256& rng) {
  return FuncLayer{Kind::kConv, out_c, 3, 1, 1, shift,
                   random_bytes(static_cast<std::size_t>(out_c) * in_c * 9, rng)};
}
FuncLayer fc(int out, int in, int shift, Xoshiro256& rng) {
  return FuncLayer{Kind::kFc, out, 0, 1, 0, shift,
                   random_bytes(static_cast<std::size_t>(out) * in, rng)};
}
FuncLayer relu() { return FuncLayer{Kind::kRelu, 0, 0, 1, 0, 0, {}}; }
FuncLayer pool2() { return FuncLayer{Kind::kMaxPool, 0, 2, 2, 0, 0, {}}; }
}  // namespace

// Requantize shifts keep activations inside the int8 range without pinning
// most of them at the clamp, so a wrong output rarely matches by accident.
FuncNetwork tiny_cnn(u64 seed) {
  Xoshiro256 rng(seed ^ 0x7119ULL);
  FuncNetwork net;
  net.in_c = 3;
  net.in_h = net.in_w = 8;
  net.layers = {conv(4, 3, 8, rng), relu(), pool2(), fc(10, 4 * 4 * 4, 9, rng)};
  return net;
}

FuncNetwork heavy_cnn(u64 seed) {
  Xoshiro256 rng(seed ^ 0x4eaeULL);
  FuncNetwork net;
  net.in_c = 4;
  net.in_h = net.in_w = 32;
  net.layers = {conv(8, 4, 9, rng),  relu(), pool2(),
                conv(16, 8, 9, rng), relu(), pool2(),
                fc(10, 16 * 8 * 8, 11, rng)};
  return net;
}

FuncNetwork checkpoint_mlp(u64 seed) {
  Xoshiro256 rng(seed ^ 0xc4eccULL);
  FuncNetwork net;
  net.in_c = 1;
  net.in_h = net.in_w = 64;
  net.layers = {fc(1024, 64 * 64, 12, rng), relu(), fc(10, 1024, 10, rng)};
  return net;
}

}  // namespace hostbench
