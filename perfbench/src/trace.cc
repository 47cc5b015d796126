#include "trace.h"

#include <chrono>
#include <cstdio>

namespace pierbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* name, uint64_t query) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  s.start = NowNs();
  spans_.push_back(s);
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  spans_[span].end = NowNs();
  // Spans close in stack order (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Virtual(const char* name, uint64_t query, int64_t start_us,
                     int64_t end_us) {
  Span s;
  s.name = name;
  s.query = query;
  s.start = start_us;
  s.end = end_us;
  s.virt = true;
  spans_.push_back(s);
}

std::map<std::string, Tracer::Totals> Tracer::WallTotals() const {
  // Children nest inside their parent and never overlap each other (one
  // thread, stack discipline), so a parent's covered time is the sum of
  // its children's durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (!s.virt && s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.virt) continue;
    Totals& t = out[s.name];
    double dur = static_cast<double>(s.end - s.start);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"totals\": {");
  bool first = true;
  for (const auto& [name, t] : WallTotals()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                 t.self_ns / 1e6);
    first = false;
  }
  std::fprintf(f, "\n},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"clock\": \"%s\", "
                 "\"parent\": %d, \"query\": %llu, \"start\": %lld, "
                 "\"end\": %lld}",
                 i == 0 ? "" : ",", i, s.name, s.virt ? "virt_us" : "wall_ns",
                 s.parent, static_cast<unsigned long long>(s.query),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pierbench
