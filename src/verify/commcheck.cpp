#include "verify/commcheck.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <utility>

#include "cholesky/cholesky_common.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "simnet/message.hpp"
#include "support/assert.hpp"

namespace conflux::verify {

namespace {

/// RAII collector for the buffer-ownership debug hook: while alive, misuse
/// reports append here instead of throwing; the previous handler is
/// restored on destruction.
class MisuseCollector {
 public:
  MisuseCollector() {
    previous_ = simnet::set_buffer_misuse_handler(
        [this](const std::string& what) {
          const std::lock_guard<std::mutex> lock(mutex_);
          reports_.push_back(what);
        });
  }
  ~MisuseCollector() {
    (void)simnet::set_buffer_misuse_handler(std::move(previous_));
  }
  MisuseCollector(const MisuseCollector&) = delete;
  MisuseCollector& operator=(const MisuseCollector&) = delete;

  [[nodiscard]] std::vector<std::string> reports() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> reports_;
  simnet::BufferMisuseHandler previous_;
};

/// True for the 2.5D backends whose schedule shape depends on the
/// replication depth (the others ignore force_layers).
bool has_layers(const Backend& b) {
  return b.name == "COnfLUX" || b.name == "CANDMC" || b.name == "COnfCHOX" ||
         b.name == "CALU";
}

}  // namespace

std::vector<Backend> registered_backends() {
  return {{"LU", "LibSci"},        {"LU", "SLATE"},
          {"LU", "CANDMC"},        {"LU", "COnfLUX"},
          {"LU", "CALU"},          {"Cholesky", "ScaLAPACK"},
          {"Cholesky", "COnfCHOX"}};
}

std::string CheckResult::describe() const {
  std::ostringstream os;
  os << backend.family << '/' << backend.name << " n=" << config.n
     << " p=" << config.p;
  if (config.force_layers > 0) os << " c=" << config.force_layers;
  os << " grid=" << run.grid << " v=" << run.block << " (" << events
     << " events, " << run.total.messages_sent << " messages, "
     << run.total.bytes_sent << " B)";
  return os.str();
}

CheckResult check_schedule(const Backend& backend, const CheckConfig& config) {
  CheckResult out;
  out.backend = backend;
  out.config = config;

  telemetry::TelemetryBoard log;
  MisuseCollector misuse;

  factor::FactorConfig base;
  base.n = config.n;
  base.p = config.p;
  base.block = config.block;
  base.mode = factor::Mode::DryRun;
  base.seed = config.seed;
  base.grid_optimization = config.grid_optimization;
  base.force_layers = config.force_layers;
  base.verify = false;
  base.telemetry = &log;

  double bound_elements_per_rank = 0;
  const models::Instance inst =
      models::max_replication_instance(config.n, config.p);
  if (backend.family == "LU") {
    lu::LuConfig cfg;
    static_cast<factor::FactorConfig&>(cfg) = base;
    out.run = lu::make_algorithm(backend.name)->run(nullptr, cfg);
    bound_elements_per_rank = models::lu_lower_bound_elements_per_rank(inst);
  } else if (backend.family == "Cholesky") {
    cholesky::CholConfig cfg;
    static_cast<factor::FactorConfig&>(cfg) = base;
    out.run = cholesky::make_cholesky_algorithm(backend.name)->run(nullptr,
                                                                   cfg);
    bound_elements_per_rank =
        models::cholesky_lower_bound_elements_per_rank(inst);
  } else {
    CONFLUX_EXPECTS_MSG(false,
                        "unknown family '" << backend.family << '\'');
  }

  // The DAAP bound counts elements each rank must load into its memory; in
  // a distributed run every rank starts with its N^2/P share of the operand
  // already resident, and those loads cost no network traffic. Network
  // volume can therefore legitimately undershoot the raw bound by that
  // share (at small P the effect is first-order), so the floor the volume
  // pass enforces is bound minus residency.
  const double resident = static_cast<double>(config.n) * config.n / config.p;
  const double lower_bound_bytes =
      std::max(0.0, bound_elements_per_rank - resident) * config.p * 8.0;

  const CommGraph graph = CommGraph::build(log);
  out.events = graph.nodes().size();
  VolumeExpectation expect;
  expect.total = out.run.total;
  expect.max_rank_bytes = out.run.max_rank_bytes;
  expect.lower_bound_bytes = lower_bound_bytes;
  out.diags = run_all_passes(graph, expect);

  for (const std::string& what : misuse.reports()) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.pass = "ownership";
    d.message = what;
    out.diags.push_back(std::move(d));
  }
  return out;
}

std::vector<CheckResult> sweep(const std::vector<int>& p_list,
                               const std::vector<int>& n_list) {
  std::vector<CheckResult> results;
  for (const Backend& backend : registered_backends()) {
    const std::vector<int> layer_choices =
        has_layers(backend) ? std::vector<int>{0, 1, 2}
                            : std::vector<int>{0};
    for (int n : n_list)
      for (int p : p_list)
        for (int c : layer_choices) {
          if (c > p) continue;
          CheckConfig config;
          config.n = n;
          config.p = p;
          config.force_layers = c;
          results.push_back(check_schedule(backend, config));
        }
  }
  return results;
}

}  // namespace conflux::verify
