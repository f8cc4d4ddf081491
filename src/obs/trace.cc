#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace sofa {
namespace obs {

QueryTrace::QueryTrace(std::size_t max_spans)
    : origin_(std::chrono::steady_clock::now()) {
  spans_.resize(max_spans == 0 ? 1 : max_spans);
  counters_.reserve(16);
}

double QueryTrace::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int QueryTrace::BeginSpan(const char* name, int parent) {
  const int span = AllocateSpan(name, parent);
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].start_ms = NowMs();
  }
  return span;
}

void QueryTrace::EndSpan(int span) {
  if (span < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(span)].end_ms = NowMs();
}

int QueryTrace::AllocateSpan(const char* name, int parent) {
  const std::size_t slot = used_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    // Out of slots: back out so Finish() sees a consistent count.
    used_.fetch_sub(1, std::memory_order_relaxed);
    return -1;
  }
  TraceSpan& span = spans_[slot];
  span.name = name;
  span.parent = parent;
  span.start_ms = 0.0;
  span.end_ms = 0.0;
  span.perf = SpanPerf{};
  return static_cast<int>(slot);
}

void QueryTrace::StampSpanPerf(int span, const SpanPerf& perf) {
  if (span < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(span)].perf = perf;
}

void QueryTrace::AddCounter(const char* name, std::uint64_t value) {
  counters_.push_back(TraceCounterSample{name, value});
}

TraceRecord QueryTrace::Finish(std::uint64_t query_id, double total_ms,
                               bool deadline_expired) {
  TraceRecord record;
  record.query_id = query_id;
  record.total_ms = total_ms;
  record.deadline_expired = deadline_expired;
  const std::size_t used =
      std::min(used_.load(std::memory_order_relaxed), spans_.size());
  record.spans.assign(spans_.begin(),
                      spans_.begin() + static_cast<std::ptrdiff_t>(used));
  record.counters = std::move(counters_);
  return record;
}

std::string FormatTrace(const TraceRecord& record) {
  char line[256];
  std::snprintf(line, sizeof(line), "query %llu: %.3f ms%s\n",
                static_cast<unsigned long long>(record.query_id),
                record.total_ms,
                record.deadline_expired ? " (deadline expired)" : "");
  std::string out = line;
  // Indent by nesting depth (parent chain); spans are in allocation
  // order, which matches begin order for the coordinator's stages.
  for (const TraceSpan& span : record.spans) {
    int depth = 0;
    for (int p = span.parent; p >= 0 && depth < 8;
         p = record.spans[static_cast<std::size_t>(p)].parent) {
      ++depth;
    }
    std::snprintf(line, sizeof(line), "  %*s[%9.3f .. %9.3f] %s",
                  depth * 2, "", span.start_ms, span.end_ms, span.name);
    out += line;
    if (span.perf.Any()) {
      std::snprintf(line, sizeof(line),
                    " (cyc=%llu ins=%llu llc=%llu stall=%llu%s)",
                    static_cast<unsigned long long>(span.perf.cycles),
                    static_cast<unsigned long long>(span.perf.instructions),
                    static_cast<unsigned long long>(span.perf.llc_misses),
                    static_cast<unsigned long long>(span.perf.stalled_cycles),
                    span.perf.hardware ? "" : " tsc");
      out += line;
    }
    out += "\n";
  }
  if (!record.counters.empty()) {
    out += "  counters:";
    for (const TraceCounterSample& counter : record.counters) {
      std::snprintf(line, sizeof(line), " %s=%llu", counter.name,
                    static_cast<unsigned long long>(counter.value));
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace sofa
