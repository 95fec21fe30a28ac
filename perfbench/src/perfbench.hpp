/// \file perfbench.hpp
/// Shared pieces of the benchmark program: named metrics, sample statistics,
/// and the in-memory span log of the traced run.
///
/// Spans are recorded only around calls the benchmark itself makes into
/// the library (a factorization, a kernel, an SPMD run, a model query); the
/// library is not instrumented. Everything here runs on the benchmark's
/// own thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name; std::map keeps the printed order stable.
using Metrics = std::map<std::string, Metric>;

/// Host seconds since an arbitrary steady-clock epoch.
[[nodiscard]] double now_s();

/// Median of `v` (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> v);

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples above
/// it, as {percentile, value}; {0, 0} when there are fewer than 20 samples.
[[nodiscard]] std::pair<int, double> tail_percentile(std::vector<double> v);

/// Time `fn` until `min_reps` repetitions and `min_seconds` have both
/// passed, after one untimed warm-up; `prepare` runs untimed before every
/// call (it restores in-place inputs). Returns the median repetition time.
template <typename Prepare, typename Fn>
double time_median(int min_reps, double min_seconds, Prepare&& prepare,
                   Fn&& fn) {
  prepare();
  fn();
  std::vector<double> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < min_reps ||
         now_s() - start < min_seconds) {
    prepare();
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(std::move(samples));
}

/// One span: a call into a library layer, made by the benchmark.
struct SpanRecord {
  std::string name;
  int op = -1;      ///< operation id; -1 for calls outside an operation
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double start_s = 0;
  double end_s = 0;
};

/// Spans of the traced run, kept in memory and written once at the end.
class SpanLog {
 public:
  SpanLog();

  int open(std::string name, int op);
  void close(int index);

  /// Fresh operation id (one per factorization or microbenchmark).
  int next_op() { return next_op_++; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self seconds per span name: each span's duration minus the time its
  /// direct children cover (children run on the same thread, so they
  /// never overlap one another).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write every span as JSON (`{"spans": [...]}`, times in seconds from
  /// the log's creation). Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  double epoch_s_;
  int next_op_ = 0;
};

/// RAII span; a null log records nothing, so untraced calls pay one
/// pointer test per call.
class Span {
 public:
  Span(SpanLog* log, std::string name, int op = -1)
      : log_(log), index_(log ? log->open(std::move(name), op) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Kernel microbenchmarks (linalg public entry points): GF/s per shape,
/// plus each shape's flop count and computed bytes moved.
void run_kernel_micro(Metrics& out, SpanLog* spans);

/// Fabric microbenchmarks (simnet::run_spmd, Comm, multicast, bcast):
/// host nanoseconds per simulated message in both execution modes.
void run_fabric_micro(Metrics& out, SpanLog* spans);

}  // namespace perfbench
