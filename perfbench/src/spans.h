// In-memory span recorder for the traced run.
//
// Spans carry a name, start and end (steady clock, ns), the enclosing span
// and the operation they belong to. They stay in memory while the run
// measures and are written once at exit through src/obs's TraceRecorder, so
// the file loads in Perfetto next to the program's own traces.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t beginNs = 0;
    uint64_t endNs = 0;
  };

  /// Opens a span nested in the innermost open one.
  size_t open(const std::string& name, uint64_t op) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    s.beginNs = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(size_t id) {
    spans_[id].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// RAII span; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const std::string& name, uint64_t op) : rec_(rec) {
      if (rec_) id_ = rec_->open(name, op);
    }
    ~Scope() {
      if (rec_) rec_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    size_t id_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in ms: each span's duration minus the part
  /// its direct children cover (children nest and do not overlap).
  std::map<std::string, double> selfMs() const {
    std::vector<uint64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) childNs[static_cast<size_t>(s.parent)] += s.endNs - s.beginNs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const uint64_t dur = spans_[i].endNs - spans_[i].beginNs;
      const uint64_t self = dur > childNs[i] ? dur - childNs[i] : 0;
      out[spans_[i].name] += static_cast<double>(self) / 1e6;
    }
    return out;
  }

  /// Summed duration per span name in ms (children included).
  std::map<std::string, double> totalMs() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += static_cast<double>(s.endNs - s.beginNs) / 1e6;
    return out;
  }

  /// Number of spans per name.
  std::map<std::string, uint64_t> counts() const {
    std::map<std::string, uint64_t> out;
    for (const Span& s : spans_) ++out[s.name];
    return out;
  }

  /// Writes the spans through src/obs's TraceRecorder (Chrome trace-event
  /// JSON, wall microseconds from the first span), one B/E pair per span
  /// with its operation id and parent span index as the detail.
  bool writeChromeTrace(const std::string& path, const std::string& process,
                        std::string& error) const {
    constexpr uint32_t kPid = 1;
    twill::TraceRecorder trace;
    trace.setProcessName(kPid, process);
    const twill::TraceRecorder::StrId cat = trace.intern("layer");
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().beginNs;
    for (const Span& s : spans_)
      trace.span(kPid, 0, cat, trace.intern(s.name), (s.beginNs - t0) / 1000,
                 (s.endNs - t0) / 1000,
                 trace.intern("op " + std::to_string(s.op) + " parent " +
                              std::to_string(s.parent)));
    return trace.writeFile(path, error);
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

}  // namespace perfbench
