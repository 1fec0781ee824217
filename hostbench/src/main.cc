// hostbench — the GuardNN host-path benchmark.
//
//   hostbench --workload <serve_heavy|tenant_lifecycle|model_checkpoint>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints the workload's figures by name and unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones (host time, device-latency emulation
// off); with --trace 1 they are the per-layer ledger, and the spans are
// written as Chrome trace-event JSON to --trace-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "spans.h"

namespace {

using hostbench::Metric;
using hostbench::Options;
using hostbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      o.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      o.trace_path = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void print_line(const Metric& m) {
  std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "serve_heavy") {
      hostbench::run_serve(options, report);
    } else if (options.workload == "tenant_lifecycle") {
      hostbench::run_lifecycle(options, report);
    } else if (options.workload == "model_checkpoint") {
      hostbench::run_checkpoint(options, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }

  report.phase("output");
  if (options.trace && !options.trace_path.empty() &&
      !hostbench::spans::write_chrome_trace(options.trace_path))
    report.check(false, "could not write " + options.trace_path);

  // Times and rates must be positive; a count (a per-layer figure such as
  // serving.rejected) may be 0.
  for (Metric& m : report.metrics) {
    const bool ok = m.unit == "count" ? m.value >= 0 : m.value > 0;
    report.check(std::isfinite(m.value) && ok,
                 "metric " + m.name + (m.unit == "count" ? " is not a count"
                                                         : " is not a positive number"));
    if (!std::isfinite(m.value)) m.value = 0;
  }

  std::printf("%s (seed %llu, %.0f s, %s)\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced: per-layer ledger" : "untraced: end to end");
  for (const Metric& m : report.details) print_line(m);
 std::printf(" phases:                  ops attempted  ops failed  checks  checks failed\n");
  for (const hostbench::PhaseCount& p : report.phases)
    std::printf("  %-22s %13llu %11llu %7llu %14llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.checks),
                static_cast<unsigned long long>(p.checks_failed));
  std::printf(" metrics:\n");
  for (const Metric& m : report.metrics) print_line(m);
  std::printf("  attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "yes" : "NO");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
