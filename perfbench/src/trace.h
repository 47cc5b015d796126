// In-memory span recorder for the benchmark's traced runs.
//
// Wall spans wrap the benchmark's own calls into the stack (boot, load, the
// idle window, and per query its parse, plan, Execute and RunUntil slices);
// they nest on a stack, so a span's parent is the span open when it began.
// Virtual spans record a query's issue-to-answer interval in simulated
// time. Nothing is written until WriteJson(), after the measured phases.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pierbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;        ///< index of the enclosing span, -1 at top level
    int64_t start = 0;      ///< wall ns (steady clock) or virtual us
    int64_t end = 0;
    uint64_t query = 0;     ///< engine query id, 0 when not query-scoped
    bool virt = false;
  };

  /// Per-name totals. `self_ns` excludes time covered by child spans.
  struct Totals {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  /// Opens a wall span under the innermost open span; returns its index.
  int Begin(const char* name, uint64_t query = 0);
  void End(int span);
  /// Re-labels an open or closed span's query id (known after Execute).
  void SetQuery(int span, uint64_t query) { spans_[span].query = query; }
  /// Records a closed virtual-time span (microseconds of simulated time).
  void Virtual(const char* name, uint64_t query, int64_t start_us,
               int64_t end_us);

  /// Wall spans summed by name, with self times.
  std::map<std::string, Totals> WallTotals() const;

  /// Writes every span plus the per-name totals as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII wall span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query = 0)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetQuery(uint64_t query) {
    if (tracer_ != nullptr) tracer_->SetQuery(span_, query);
  }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace pierbench

#endif  // PERFBENCH_TRACE_H_
