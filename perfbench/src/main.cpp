/// perfbench — the repository's benchmark program.
///
///   perfbench --workload lu-virtual|chol-virtual|numeric --seed N
///             --seconds S --trace 0|1 [--spans PATH]
///
/// With --trace 0 it sets the workload up several times (setup_s is the
/// median), then runs passes over the workload's factorizations for about
/// S seconds and reports the end-to-end metrics. With --trace 1 it runs
/// every factorization of every workload untraced and then traced, plus the
/// kernel and fabric microbenchmarks, and reports the per-layer metrics;
/// spans go to PATH.
/// Every factorization is one operation: an exception or a watchdog stall
/// fails it. The last line of standard output is the JSON result.
/// README.md beside this file explains the workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/cholesky_common.hpp"
#include "factor/numerics.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "models/machines.hpp"
#include "models/phase_model.hpp"
#include "perfbench.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

namespace cx = conflux;

/// The scaled-residual tolerance test_lu_numeric and test_cholesky_numeric
/// hold every numeric factorization to.
constexpr double kResidualTol = 1e-11;

/// A factorization still running after this long is a stall.
constexpr double kOpStallSeconds = 60;
/// Wall-clock budget of the whole process; an operation still running at
/// this point is a stall too, so the process ends inside its limit.
constexpr double kProcessBudgetSeconds = 165;

// --- output ----------------------------------------------------------------

std::mutex g_out_mutex;

void emit(const std::string& line) {
  const std::lock_guard<std::mutex> lock(g_out_mutex);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string num(double v, int digits = 10) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string result_json(bool correct, long attempted, long failed,
                        const Metrics& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num(m.value, 17) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

// --- operations and the watchdog ---------------------------------------------

struct Op {
  std::string workload;
  std::string key;   ///< "lu.COnfLUX", "chol.COnfCHOX", ...
  std::string algo;  ///< backend name for make_algorithm
  bool cholesky = false;
  cx::factor::FactorConfig cfg;
  const cx::linalg::Matrix* a = nullptr;

  [[nodiscard]] std::string describe() const {
    std::string s = "{\"workload\": \"" + workload + "\", \"op\": \"" +
                    key + "\", \"n\": " +
                    std::to_string(cfg.n) + ", \"p\": " +
                    std::to_string(cfg.p) + ", \"mode\": \"";
    s += cfg.mode == cx::factor::Mode::Numeric ? "Numeric" : "DryRun";
    s += "\", \"exec\": \"";
    s += cfg.fabric.mode == cx::simnet::ExecMode::VirtualTime ? "VirtualTime"
                                                              : "Threaded";
    return s + "\", \"seed\": " + std::to_string(cfg.seed) + "}";
  }
};

struct Outcome {
  bool ok = false;
  std::string error;
  double host_s = 0;  ///< host seconds of the whole call
  double run_s = 0;   ///< FactorResult::seconds: the SPMD run alone
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  double bytes_per_rank = 0;
  double predicted_s = 0;
  double residual = 0;
  std::string grid;
};

/// Counts operations and fails the one in flight when it stalls. It runs on
/// its own thread, outside the configuration under test: no RunPolicy is
/// attached, so the receive path being timed is the default one. A stall
/// cannot be unwound, so the watchdog prints the stalled configuration and
/// the result line, then ends the process.
class Watchdog {
 public:
  Watchdog() : start_s_(now_s()), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void begin(const Op& op) {
    const std::lock_guard<std::mutex> lock(mu_);
    current_ = op.describe();
    op_start_s_ = now_s();
    ++attempted_;
  }
  void end(bool ok) {
    const std::lock_guard<std::mutex> lock(mu_);
    current_.clear();
    if (!ok) ++failed_;
  }
  [[nodiscard]] long attempted() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  [[nodiscard]] long failed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (stop_ || current_.empty()) continue;
      const double now = now_s();
      if (now - op_start_s_ < kOpStallSeconds &&
          now - start_s_ < kProcessBudgetSeconds)
        continue;
      emit("# stall " + current_ + " after " + num(now - op_start_s_, 4) +
           " s");
      std::fprintf(stderr, "perfbench: operation stalled: %s\n",
                   current_.c_str());
      emit(result_json(false, attempted_, failed_ + 1, {}));
      std::_Exit(0);
    }
  }

  double start_s_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string current_;  ///< describe() of the operation in flight
  double op_start_s_ = 0;
  long attempted_ = 0;
  long failed_ = 0;
  std::thread thread_;  ///< last: it reads the members above
};

template <typename Result>
void fill(Outcome& o, const Result& r) {
  o.run_s = r.seconds;
  o.bytes = r.total.bytes_sent;
  o.messages = r.total.messages_sent;
  o.bytes_per_rank = r.bytes_per_rank();
  o.predicted_s = r.predicted_seconds;
  o.residual = r.residual;
  o.grid = r.grid;
}

/// Run `op` in `mode` (its own mode, or DryRun for the DryRun == Numeric
/// check), with `board` attached when tracing.
Outcome run_op(Op op, Watchdog& dog, cx::factor::Mode mode,
               cx::telemetry::TelemetryBoard* board, SpanLog* spans) {
  op.cfg.mode = mode;
  op.cfg.telemetry = board;
  Outcome o;
  const Span span(spans, op.workload + "." + op.key + ".run",
                  spans ? spans->next_op() : -1);
  dog.begin(op);
  const double t0 = now_s();
  try {
    if (op.cholesky) {
      cx::cholesky::CholConfig cfg;
      static_cast<cx::factor::FactorConfig&>(cfg) = op.cfg;
      fill(o, cx::cholesky::make_cholesky_algorithm(op.algo)->run(op.a, cfg));
    } else {
      cx::lu::LuConfig cfg;
      static_cast<cx::factor::FactorConfig&>(cfg) = op.cfg;
      fill(o, cx::lu::make_algorithm(op.algo)->run(op.a, cfg));
    }
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.host_s = now_s() - t0;
  dog.end(o.ok);
  if (!o.ok) emit("# failed " + op.describe() + ": " + o.error);
  return o;
}

// --- workloads -----------------------------------------------------------------

const std::vector<std::string> kWorkloads = {"lu-virtual", "chol-virtual",
                                             "numeric"};

struct Workload {
  std::string name;
  std::vector<cx::linalg::Matrix> inputs;  ///< numeric inputs, owned here
  std::vector<Op> ops;
  std::string flagship;       ///< op key whose volume vol_over_bound uses
  double bound_bytes = 0;     ///< its I/O lower bound, total bytes
  std::string flagship_grid;  ///< the grid optimizer's choice for it
  /// predict_lu_makespan per LU op key (virtual workloads with a model).
  std::map<std::string, double> model_makespan;
};

Op make_op(const std::string& family, const std::string& algo,
           const cx::factor::FactorConfig& cfg,
           const cx::linalg::Matrix* a = nullptr) {
  Op op;
  op.key = family + "." + algo;
  op.algo = algo;
  op.cholesky = family == "chol";
  op.cfg = cfg;
  op.a = a;
  return op;
}

cx::factor::FactorConfig virtual_config(int n, int p, std::uint64_t seed) {
  const cx::models::Machine m = cx::models::piz_daint();
  cx::factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = cx::factor::Mode::DryRun;
  cfg.seed = seed;
  cfg.fabric.mode = cx::simnet::ExecMode::VirtualTime;
  cfg.fabric.link.alpha_s = m.alpha_s;
  cfg.fabric.link.beta_s_per_byte = m.beta_s_per_byte;
  cfg.fabric.link.gamma_s_per_flop = m.gamma_s_per_flop;
  return cfg;
}

/// Everything that happens before the first timed factorization: input
/// generation, the grid search, model queries and (on the first call) the
/// thread pool's spin-up. Spans name the layer of each call.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       SpanLog* spans) {
  (void)cx::support::global_pool();
  Workload w;
  w.name = name;
  int n = 0;
  int p = 0;
  bool cholesky_bound = false;
  if (name == "lu-virtual") {
    n = 16384;
    p = 512;
    const cx::factor::FactorConfig cfg = virtual_config(n, p, seed);
    for (const char* algo : {"LibSci", "SLATE", "CANDMC", "COnfLUX", "CALU"})
      w.ops.push_back(make_op("lu", algo, cfg));
    w.flagship = "lu.COnfLUX";
    const cx::models::Machine m = cx::models::piz_daint();
    const Span span(spans, "models.predict_lu_makespan");
    for (const char* algo : {"COnfLUX", "CALU"})
      w.model_makespan[std::string("lu.") + algo] =
          cx::models::predict_lu_makespan(algo, n, p, m.alpha_s,
                                          m.beta_s_per_byte);
  } else if (name == "chol-virtual") {
    n = 16384;
    p = 512;
    const cx::factor::FactorConfig cfg = virtual_config(n, p, seed);
    for (const char* algo : {"COnfCHOX", "ScaLAPACK"})
      w.ops.push_back(make_op("chol", algo, cfg));
    w.flagship = "chol.COnfCHOX";
    cholesky_bound = true;
  } else {
    n = 2048;
    p = 4;
    {
      const Span span(spans, "linalg.generate");
      w.inputs.push_back(cx::linalg::generate(
          n, cx::linalg::MatrixKind::Uniform, seed));
      w.inputs.push_back(
          cx::linalg::generate(n, cx::linalg::MatrixKind::Spd, seed));
    }
    cx::factor::FactorConfig cfg;
    cfg.n = n;
    cfg.p = p;
    cfg.mode = cx::factor::Mode::Numeric;
    cfg.seed = seed;
    for (const char* algo : {"COnfLUX", "LibSci", "CALU"})
      w.ops.push_back(make_op("lu", algo, cfg, &w.inputs[0]));
    w.ops.push_back(make_op("chol", "COnfCHOX", cfg, &w.inputs[1]));
    w.flagship = "lu.COnfLUX";
  }
  for (Op& op : w.ops) op.workload = name;
  const cx::models::Instance inst = cx::models::max_replication_instance(n, p);
  {
    const Span span(spans, "grid.optimize_grid");
    w.flagship_grid =
        cholesky_bound
            ? cx::grid::optimize_grid(p, n, inst.m_elements, 0,
                                      cx::grid::confchox_cost_per_rank)
                  .grid.to_string()
            : cx::grid::optimize_grid(p, n, inst.m_elements).grid.to_string();
  }
  const Span span(spans, "models.lower_bound");
  w.bound_bytes = (cholesky_bound
                       ? cx::models::cholesky_lower_bound_elements_per_rank(inst)
                       : cx::models::lu_lower_bound_elements_per_rank(inst)) *
                  p * 8.0;
  return w;
}

// --- checks ---------------------------------------------------------------------

struct Checker {
  bool correct = true;

  void fail(const std::string& what) {
    correct = false;
    emit("# check failed: " + what);
  }

  /// Per-operation output checks: the residual of a numeric run, the grid
  /// of the flagship, and exact repeats of volume, messages and predicted
  /// makespan against the op's first outcome in this process.
  void check(const Workload& w, const Op& op, const Outcome& o,
             std::map<std::string, Outcome>& reference) {
    if (!o.ok) return;
    if (op.cfg.mode == cx::factor::Mode::Numeric &&
        !(o.residual < kResidualTol))
      fail(op.key + " residual " + num(o.residual) + " >= " +
           num(kResidualTol));
    if (op.key == w.flagship && o.grid != w.flagship_grid)
      fail(op.key + " ran on grid " + o.grid + ", the optimizer chose " +
           w.flagship_grid);
    const auto [it, inserted] = reference.emplace(op.key, o);
    if (inserted) return;
    const Outcome& ref = it->second;
    if (o.bytes != ref.bytes || o.messages != ref.messages ||
        std::memcmp(&o.predicted_s, &ref.predicted_s, sizeof(double)) != 0)
      fail(op.key + " did not repeat: bytes " + std::to_string(o.bytes) +
           " vs " + std::to_string(ref.bytes) + ", messages " +
           std::to_string(o.messages) + " vs " +
           std::to_string(ref.messages) + ", predicted " +
           num(o.predicted_s, 17) + " vs " + num(ref.predicted_s, 17));
  }

  /// DryRun == Numeric. Cholesky has no pivots, so its dry run sends
  /// exactly the numeric run's bytes and messages. An LU dry run places
  /// synthetic pivots where the numeric run pivots on data, so its total
  /// bytes only sit within the band test_lu_volume pins (0.93-1.07), on
  /// the same grid.
  void check_dry_matches(const Workload& w, Watchdog& dog,
                         const std::map<std::string, Outcome>& reference) {
    for (const Op& op : w.ops) {
      if (op.cfg.mode != cx::factor::Mode::Numeric) continue;
      const auto it = reference.find(op.key);
      if (it == reference.end()) continue;
      const Outcome& numeric = it->second;
      const Outcome dry =
          run_op(op, dog, cx::factor::Mode::DryRun, nullptr, nullptr);
      if (!dry.ok) continue;
      const std::string counts =
          op.key + " numeric " + std::to_string(numeric.bytes) + " B / " +
          std::to_string(numeric.messages) + " msgs on " + numeric.grid +
          ", dry run " + std::to_string(dry.bytes) + " B / " +
          std::to_string(dry.messages) + " msgs on " + dry.grid;
      const double ratio = static_cast<double>(dry.bytes) /
                           static_cast<double>(numeric.bytes);
      const bool match =
          op.cholesky ? dry.bytes == numeric.bytes &&
                            dry.messages == numeric.messages
                      : ratio > 0.93 && ratio < 1.07 && dry.grid == numeric.grid;
      if (!match) fail("DryRun != Numeric: " + counts);
    }
  }
};

void print_op(const std::string& workload, const Op& op, const Outcome& o) {
  emit("# op {\"workload\": \"" + workload + "\", \"op\": \"" + op.key +
       "\", \"grid\": \"" + o.grid + "\", \"total_bytes\": " +
       std::to_string(o.bytes) + ", \"messages\": " +
       std::to_string(o.messages) + ", \"bytes_per_rank\": " +
       num(o.bytes_per_rank, 17) + ", \"predicted_seconds\": " +
       num(o.predicted_s, 17) + ", \"host_s\": " + num(o.host_s, 6) + "}");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string timing_line(const std::string& name, std::vector<double> v) {
  const auto [q, tail] = tail_percentile(v);
  std::string s = name + " = " + num(median(v), 6) + " s median";
  s += q > 0 ? ", p" + std::to_string(q) + " " + num(tail, 6)
             : std::string(", no percentile has 10 samples beyond it");
  s += " (" + std::to_string(v.size()) + " samples";
  if (v.size() <= 12) {
    s += ":";
    for (double x : v) s += " " + num(x, 4);
  }
  return s + ")";
}

// --- the two modes -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

int run_end_to_end(const Args& args) {
  Watchdog dog;
  Checker checker;

  // Set up several times; the first also spins the thread pool up.
  std::vector<double> setup_samples;
  Workload w;
  const double setup_start = now_s();
  while (setup_samples.size() < 5 || now_s() - setup_start < 0.25) {
    const double t0 = now_s();
    w = make_workload(args.workload, args.seed, nullptr);
    setup_samples.push_back(now_s() - t0);
  }

  std::vector<double> pass_samples;
  std::map<std::string, std::vector<double>> op_samples;
  std::map<std::string, Outcome> reference;
  // Read after the first pass: later passes only add allocator reuse and
  // fragmentation, and how many passes fit depends on the host's speed.
  double peak_mb = 0;
  const double loop_start = now_s();
  // Start a pass while it is expected to end before half a pass past the
  // deadline.
  while (pass_samples.empty() ||
         now_s() - loop_start + 0.5 * median(pass_samples) < args.seconds) {
    const double t0 = now_s();
    for (const Op& op : w.ops) {
      const Outcome o = run_op(op, dog, op.cfg.mode, nullptr, nullptr);
      if (!o.ok) continue;
      if (pass_samples.empty()) print_op(w.name, op, o);
      op_samples[op.key].push_back(o.host_s);
      checker.check(w, op, o, reference);
    }
    pass_samples.push_back(now_s() - t0);
    if (pass_samples.size() == 1) peak_mb = peak_rss_mb();
  }
  checker.check_dry_matches(w, dog, reference);

  emit("workload " + w.name + ", seed " + std::to_string(args.seed) + ", " +
       std::to_string(pass_samples.size()) + " passes");
  emit(timing_line("setup_s", setup_samples));
  emit(timing_line("sweep_s", pass_samples));
  for (const auto& [key, v] : op_samples) emit(timing_line(key + ".run_s", v));

  Metrics m;
  m["setup_s"] = {median(setup_samples), "s"};
  m["sweep_s"] = {median(pass_samples), "s"};
  m["peak_rss_mb"] = {peak_mb, "MB"};
  const auto flagship = reference.find(w.flagship);
  if (flagship != reference.end())
    m["vol_over_bound"] = {
        static_cast<double>(flagship->second.bytes) / w.bound_bytes, "ratio"};
  for (const auto& [name, metric] : m)
    emit(name + " = " + num(metric.value, 8) + " " + metric.unit);
  emit(result_json(checker.correct, dog.attempted(), dog.failed(), m));
  return 0;
}

/// The phases each traced backend's spans name (support/telemetry.hpp).
const std::map<std::string, std::vector<std::string>> kTracedPhases = {
    {"lu.COnfLUX",
     {"layer_reduction", "panel_tournament", "pivot_apply", "trsm",
      "schur_update"}},
    {"lu.LibSci", {"panel_tournament", "pivot_apply", "trsm", "schur_update"}},
    {"chol.COnfCHOX",
     {"layer_reduction", "panel_factor", "trsm", "schur_update"}},
};

int run_traced(const Args& args) {
  Watchdog dog;
  Checker checker;
  SpanLog log;
  Metrics m;
  double overhead_ratio = 0;
  double verify_s = 0;
  double residual_eps_max = 0;

  for (const std::string& name : kWorkloads) {
    const Workload w = make_workload(name, args.seed, &log);
    const bool numeric = name == "numeric";

    // Each factorization runs untraced (host times, exact counts), then
    // traced (spans plus a telemetry board), back to back so host drift
    // between the two stays small. The traced counts must equal the
    // untraced ones bit for bit.
    std::map<std::string, Outcome> reference;
    double untraced_s = 0;
    double traced_s = 0;
    for (const Op& op : w.ops) {
      const Outcome o = run_op(op, dog, op.cfg.mode, nullptr, nullptr);
      cx::telemetry::TelemetryBoard board;
      const Outcome traced = run_op(op, dog, op.cfg.mode, &board, &log);
      untraced_s += o.host_s;
      traced_s += traced.host_s;
      if (!o.ok || !traced.ok) continue;
      checker.check(w, op, o, reference);
      checker.check(w, op, traced, reference);

      if (numeric) {
        m["numeric." + op.key + ".run_s"] = {o.host_s, "s"};
        verify_s += o.host_s - o.run_s;
        residual_eps_max = std::max(
            residual_eps_max, cx::factor::residual_in_eps(o.residual));
        if (op.key == w.flagship) {
          double busy = 0;
          double blocked = 0;
          for (int r = 0; r < board.nranks(); ++r) {
            busy += board.busy_seconds(r);
            blocked += board.blocked_seconds(r);
          }
          m["numeric.lu.COnfLUX.busy_s"] = {busy, "s"};
          m["numeric.lu.COnfLUX.blocked_s"] = {blocked, "s"};
        }
        continue;
      }
      m[op.key + ".run_s"] = {o.host_s, "s"};
      m[op.key + ".bytes_per_rank"] = {o.bytes_per_rank, "B"};
      m[op.key + ".messages"] = {static_cast<double>(o.messages), "count"};
      m["vtime.predicted_s." + op.key] = {o.predicted_s, "s"};
      m["simnet.host_us_per_msg." + op.key] = {
          o.host_s / static_cast<double>(o.messages) * 1e6, "us"};
      const auto model = w.model_makespan.find(op.key);
      if (model != w.model_makespan.end())
        m["models.phase_gap." + op.key] = {o.predicted_s / model->second - 1,
                                           "ratio"};
      const auto phases = kTracedPhases.find(op.key);
      if (phases == kTracedPhases.end()) continue;
      const auto totals = board.phase_totals();
      for (const std::string& phase : phases->second) {
        const auto t = totals.find(phase);
        if (t == totals.end()) {
          checker.fail(op.key + " traced no " + phase + " span");
          continue;
        }
        m[op.key + "." + phase + ".bytes"] = {
            static_cast<double>(t->second.bytes), "B"};
        m[op.key + "." + phase + ".virtual_s"] = {t->second.seconds, "s"};
      }
    }
    emit("# " + name + ": untraced " + num(untraced_s, 6) + " s, traced " +
         num(traced_s, 6) + " s");
    if (name == args.workload) overhead_ratio = traced_s / untraced_s;
  }
  m["trace.overhead_ratio"] = {overhead_ratio, "ratio"};
  m["factor.verify_s"] = {verify_s, "s"};
  m["factor.residual_eps_max"] = {residual_eps_max, "eps"};

  run_kernel_micro(m, &log);
  run_fabric_micro(m, &log);

  // Setup layers, read back from their spans (one call per workload).
  std::map<std::string, double> layer_s;
  for (const SpanRecord& s : log.spans())
    layer_s[s.name] += s.end_s - s.start_s;
  m["grid.optimize_s"] = {layer_s["grid.optimize_grid"], "s"};
  m["models.phase_model_s"] = {layer_s["models.predict_lu_makespan"], "s"};
  m["linalg.generate_s"] = {layer_s["linalg.generate"], "s"};

  emit("self seconds per span name:");
  for (const auto& [name, self] : log.self_seconds())
    emit("  " + name + " " + num(self, 6));
  if (!args.spans_path.empty() && !log.write_json(args.spans_path))
    checker.fail("cannot write spans to " + args.spans_path);
  for (const auto& [name, metric] : m)
    emit(name + " = " + num(metric.value, 8) + " " + metric.unit);
  emit(result_json(checker.correct, dog.attempted(), dog.failed(), m));
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lu-virtual|chol-virtual|numeric --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0')
        usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 120))
        usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
      kWorkloads.end())
    usage("unknown --workload '" + args.workload + "'");
  if (!have_seed || args.seconds <= 0) usage("--seed and --seconds are required");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  return args.trace ? perfbench::run_traced(args)
                    : perfbench::run_end_to_end(args);
}
