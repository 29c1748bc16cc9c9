#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "report.h"
#include "runtime/wrapper.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded from
/// the benchmark's own code around calls into the library's modules
/// (and from the decorators below), kept in memory, and written out
/// once when the run ends. Single-threaded: every call into the library
/// that it wraps happens on the driver thread.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int64_t parent = -1;  // index of the enclosing span, -1 at the top
    uint64_t op = 0;      // operation the span belongs to (0: none)
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the child spans each one covers
  };

  Tracer();

  int64_t Begin(const char* name);
  void End(int64_t span);
  /// Operation id stamped on spans begun from now on.
  void set_op(uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> Durations(std::string_view name) const;
  /// Per-operation sums (µs) of the spans called `name`, for the given
  /// operations (ops with no such span contribute 0).
  std::vector<double> SumPerOp(std::string_view name,
                               const std::vector<uint64_t>& ops) const;
  /// Like SumPerOp, but of self times: each span minus the child spans
  /// it covers.
  std::vector<double> SelfSumPerOp(std::string_view name,
                                   const std::vector<uint64_t>& ops) const;
  std::map<std::string, Totals> TotalsByName() const;

  /// Writes the first `max_spans` spans in Chrome trace-event format
  /// (one "X" event per span; parent and operation ids in args),
  /// loadable by Perfetto. `metadata_json` is an object body without
  /// braces; the span counts are appended to it.
  bool WriteChromeTrace(const std::string& path, const std::string& metadata_json,
                        size_t max_spans) const;

 private:
  std::vector<double> ChildMicros() const;
  std::vector<double> SumPerOpImpl(std::string_view name,
                                   const std::vector<uint64_t>& ops,
                                   bool self) const;
  int NameIndex(std::string_view name) const;

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::unordered_map<std::string_view, uint32_t> name_ids_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  uint64_t op_ = 0;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths
/// pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Network decorator: spans "net.submit" and "net.deliver" around the
/// transport calls the runtime makes. On the simulator, encode happens
/// inside Submit and decode inside DeliverDue.
class TracingNetwork : public wdl::Network {
 public:
  TracingNetwork(std::unique_ptr<wdl::Network> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  wdl::Status Submit(wdl::Envelope envelope, double now) override {
    ScopedSpan span(tracer_, "net.submit");
    return inner_->Submit(std::move(envelope), now);
  }
  std::vector<wdl::Envelope> DeliverDue(double now) override {
    ScopedSpan span(tracer_, "net.deliver");
    return inner_->DeliverDue(now);
  }
  bool HasInFlight() const override { return inner_->HasInFlight(); }
  wdl::NetworkStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  std::vector<std::string> TakePeerResets() override {
    return inner_->TakePeerResets();
  }

 private:
  std::unique_ptr<wdl::Network> inner_;
  Tracer* tracer_;
};

/// Wrapper decorator: spans "wrappers.setup" and "wrappers.sync".
class TracingWrapper : public wdl::Wrapper {
 public:
  TracingWrapper(std::unique_ptr<wdl::Wrapper> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& peer_name() const override { return inner_->peer_name(); }
  wdl::Status Setup(wdl::Peer* peer) override {
    ScopedSpan span(tracer_, "wrappers.setup");
    return inner_->Setup(peer);
  }
  wdl::Status Sync(wdl::Peer* peer) override {
    ScopedSpan span(tracer_, "wrappers.sync");
    return inner_->Sync(peer);
  }

 private:
  std::unique_ptr<wdl::Wrapper> inner_;
  Tracer* tracer_;
};

/// Human-readable self-time table of a traced run.
std::string FormatTotals(const std::map<std::string, Tracer::Totals>& totals);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
