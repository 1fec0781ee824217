#include "spans.h"

#include <chrono>
#include <cstdio>

namespace hostbench::spans {
namespace {

using guardnn::u32;
using guardnn::u64;

/// Enough for a traced run at the highest rates; later spans are dropped
/// (and counted) rather than growing without bound.
constexpr std::size_t kMaxSpans = 1 << 21;

struct State {
  bool on = false;
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::vector<SpanRecord> records;
  std::vector<u32> open;  ///< Stack of open span ids (index + 1).
  u64 dropped = 0;
};

State& state() {
  static State s;
  return s;
}

}  // namespace

void enable(bool on) { state().on = on; }
bool enabled() { return state().on; }

u64 to_ns(std::chrono::steady_clock::time_point t) {
  const auto d = t - state().epoch;
  return d.count() < 0 ? 0
                       : static_cast<u64>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                                 .count());
}

u64 now_ns() { return to_ns(std::chrono::steady_clock::now()); }

u32 begin(const char* name, u64 request) {
  State& s = state();
  if (s.records.size() >= kMaxSpans) {
    ++s.dropped;
    return 0;
  }
  SpanRecord r;
  r.name = name;
  r.id = static_cast<u32>(s.records.size() + 1);
  r.parent = s.open.empty() ? 0 : s.open.back();
  r.request = request;
  r.start_ns = now_ns();
  s.records.push_back(r);
  s.open.push_back(r.id);
  return r.id;
}

void end(u32 id) {
  State& s = state();
  s.records[id - 1].end_ns = now_ns();
  // Spans are scoped, so the one ending is the innermost open one.
  while (!s.open.empty()) {
    const u32 top = s.open.back();
    s.open.pop_back();
    if (top == id) break;
  }
}

void add(const char* name, u64 start_ns, u64 end_ns, u64 request, int track) {
  State& s = state();
  if (s.records.size() >= kMaxSpans) {
    ++s.dropped;
    return;
  }
  SpanRecord r;
  r.name = name;
  r.id = static_cast<u32>(s.records.size() + 1);
  r.start_ns = start_ns;
  r.end_ns = end_ns < start_ns ? start_ns : end_ns;
  r.request = request;
  r.track = track;
  s.records.push_back(r);
}

const std::vector<SpanRecord>& all() { return state().records; }

std::vector<double> durations_us(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& r : state().records)
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%llu},"
                  "\"traceEvents\":[\n",
               static_cast<unsigned long long>(state().dropped));
  std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                  "\"args\":{\"name\":\"benchmark client\"}},\n"
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
                  "\"args\":{\"name\":\"server span ring\"}}");
  for (const SpanRecord& r : state().records) {
    const std::string full(r.name);
    const std::string cat = full.substr(0, full.find('.'));
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"request\":%llu}}",
                 r.name, cat.c_str(), r.track, static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id, r.parent,
                 static_cast<unsigned long long>(r.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hostbench::spans
