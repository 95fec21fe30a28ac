#include "factor/factorization.hpp"

#include "simnet/network.hpp"

namespace conflux::factor {

void fill_comm_stats(FactorResult& result, const simnet::Network& net,
                     int ranks_used, int ranks_available) {
  result.total = net.stats().total();
  result.rank_volume.clear();
  for (int r = 0; r < net.size(); ++r)
    result.rank_volume.push_back(net.stats().rank_volume(r));
  result.max_rank_bytes = net.stats().max_rank_bytes();
  result.ranks_used = ranks_used;
  result.ranks_available = ranks_available;
  result.predicted_seconds = net.virtual_makespan();
}

void attach_instruments(simnet::Network& net, const FactorConfig& cfg) {
  if (cfg.telemetry != nullptr) net.set_telemetry(cfg.telemetry);
  if (cfg.faults != nullptr) net.set_faults(cfg.faults);
  net.set_integrity(cfg.integrity);
  net.set_policy(cfg.policy);
}

}  // namespace conflux::factor
