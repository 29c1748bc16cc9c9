#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::Begin(const char* name) {
  auto [it, inserted] = name_ids_.try_emplace(
      std::string_view(name), static_cast<uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  Span span;
  span.name = it->second;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  int64_t id = static_cast<int64_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans nest strictly (RAII on one thread), so the ended span is the
  // innermost open one.
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

int Tracer::NameIndex(std::string_view name) const {
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? -1 : static_cast<int>(it->second);
}

std::vector<double> Tracer::ChildMicros() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return child;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  int id = NameIndex(name);
  if (id < 0) return out;
  for (const Span& s : spans_) {
    if (static_cast<int>(s.name) == id) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SumPerOp(std::string_view name,
                                     const std::vector<uint64_t>& ops) const {
  return SumPerOpImpl(name, ops, /*self=*/false);
}

std::vector<double> Tracer::SelfSumPerOp(
    std::string_view name, const std::vector<uint64_t>& ops) const {
  return SumPerOpImpl(name, ops, /*self=*/true);
}

std::vector<double> Tracer::SumPerOpImpl(std::string_view name,
                                         const std::vector<uint64_t>& ops,
                                         bool self) const {
  std::unordered_map<uint64_t, double> sums;
  for (uint64_t op : ops) sums[op] = 0;
  int id = NameIndex(name);
  if (id >= 0) {
    std::vector<double> child;
    if (self) child = ChildMicros();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (static_cast<int>(s.name) != id) continue;
      auto it = sums.find(s.op);
      if (it == sums.end()) continue;
      it->second += static_cast<double>(s.end_ns - s.start_ns) / 1e3 -
                    (self ? child[i] : 0.0);
    }
  }
  std::vector<double> out;
  out.reserve(ops.size());
  for (uint64_t op : ops) out.push_back(sums[op]);
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  std::vector<double> child = ChildMicros();
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    Totals& t = out[names_[s.name]];
    ++t.count;
    t.total_ms += us / 1e3;
    t.self_ms += (us - child[i]) / 1e3;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json,
                              size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::min(max_spans, spans_.size());
  std::fprintf(f,
               "{\"metadata\": {%s, \"spans_total\": %zu, "
               "\"spans_written\": %zu},\n\"traceEvents\": [\n",
               metadata_json.c_str(), spans_.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string FormatTotals(const std::map<std::string, Tracer::Totals>& totals) {
  double all_self = 0;
  for (const auto& [name, t] : totals) all_self += t.self_ms;
  std::string out =
      "  span                        count    total_ms     self_ms  self%\n";
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-24s %9llu %11.2f %11.2f %5.1f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms,
                  100.0 * Ratio(t.self_ms, all_self));
    out += line;
  }
  return out;
}

}  // namespace perfbench
