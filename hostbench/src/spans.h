// In-memory spans for the traced run (--trace 1).
//
// The benchmark wraps its own calls into each layer's public functions in a
// Span; nothing inside src/ is instrumented. Spans keep (name, start, end,
// parent, request id) in memory and are written once, at exit, as Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing). With
// tracing off a Span costs one branch.
//
// Single-threaded by design: only the benchmark's driving thread records.
// Server-side stage spans (the server's own obs span ring) are merged in
// afterwards with add() on their own track.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/types.h"

namespace hostbench {

struct SpanRecord {
  const char* name = "";
  guardnn::u64 start_ns = 0;
  guardnn::u64 end_ns = 0;
  guardnn::u32 id = 0;
  guardnn::u32 parent = 0;   ///< 0 = root.
  guardnn::u64 request = 0;  ///< Shared by every span of one request or op.
  int track = 1;             ///< Trace-viewer thread row.
};

namespace spans {

void enable(bool on);
bool enabled();
/// Nanoseconds on the span clock (steady, process-relative).
guardnn::u64 now_ns();
/// The span clock value of a steady_clock time point.
guardnn::u64 to_ns(std::chrono::steady_clock::time_point t);

guardnn::u32 begin(const char* name, guardnn::u64 request);
void end(guardnn::u32 id);
/// Adds a finished span recorded elsewhere (no parent).
void add(const char* name, guardnn::u64 start_ns, guardnn::u64 end_ns,
         guardnn::u64 request, int track);

const std::vector<SpanRecord>& all();
/// Durations of every span called `name`, in microseconds.
std::vector<double> durations_us(const std::string& name);

/// Writes Chrome trace-event JSON. Returns false on an I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace spans

/// RAII span around one call.
class Span {
 public:
  explicit Span(const char* name, guardnn::u64 request = 0)
      : id_(spans::enabled() ? spans::begin(name, request) : 0) {}
  ~Span() {
    if (id_ != 0) spans::end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  guardnn::u32 id_;
};

}  // namespace hostbench
