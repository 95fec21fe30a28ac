/// Kernel and fabric microbenchmarks. They call only public entry points
/// (linalg::gemm / gemm_reference / trsm_left / getrf_blocked /
/// potrf_blocked, simnet::run_spmd, Comm::multicast, simnet::bcast) and
/// report achieved rates, never a share of peak: this benchmark does not
/// measure the host's peak.
#include <functional>
#include <numeric>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/potrf.hpp"
#include "perfbench.hpp"
#include "simnet/collectives.hpp"
#include "simnet/network.hpp"
#include "simnet/spmd.hpp"

namespace perfbench {
namespace {

using conflux::linalg::Matrix;
using conflux::linalg::MatrixKind;

struct KernelShape {
  const char* shape;   ///< suffix of the flops/bytes metric names
  const char* metric;  ///< GF/s metric name
  double flops;
  double bytes;  ///< computed from the operand sizes, not measured
  std::function<void()> prepare;
  std::function<void()> call;
  int min_reps;
};

double gemm_bytes(double m, double n, double k) {
  return 8.0 * (m * k + k * n + 2.0 * m * n);
}

}  // namespace

void run_kernel_micro(Metrics& out, SpanLog* spans) {
  namespace la = conflux::linalg;
  // Fixed seeds: these measure the kernels, not a workload's inputs.
  const Matrix a16 = la::generate(1024, 16, MatrixKind::Uniform, 7);
  const Matrix b16 = la::generate(16, 1024, MatrixKind::Uniform, 8);
  const Matrix a64 = la::generate(1024, 64, MatrixKind::Uniform, 9);
  const Matrix b64 = la::generate(64, 1024, MatrixKind::Uniform, 10);
  const Matrix sq_a = la::generate(1024, MatrixKind::Uniform, 11);
  const Matrix sq_b = la::generate(1024, MatrixKind::Uniform, 12);
  const Matrix ref_a = la::generate(512, MatrixKind::Uniform, 13);
  const Matrix ref_b = la::generate(512, MatrixKind::Uniform, 14);
  const Matrix c0 = la::generate(1024, MatrixKind::Uniform, 15);
  const Matrix c512 = la::generate(512, MatrixKind::Uniform, 16);
  // A diagonally dominant L keeps repeated in-place solves bounded.
  const Matrix tri = la::generate(64, MatrixKind::DiagDominant, 17);
  const Matrix rhs = la::generate(64, 1024, MatrixKind::Uniform, 18);
  const Matrix panel = la::generate(2048, 64, MatrixKind::Uniform, 19);
  const Matrix spd = la::generate(1024, MatrixKind::Spd, 20);

  Matrix c(1024, 1024);
  Matrix cref(512, 512);
  Matrix b(64, 1024);
  Matrix p(2048, 64);
  Matrix s(1024, 1024);
  std::vector<int> ipiv(64);

  const std::vector<KernelShape> shapes = {
      {"gemm_k16", "linalg.gemm_gflops.k16", 2.0 * 1024 * 1024 * 16,
       gemm_bytes(1024, 1024, 16), [&] { c = c0; },
       [&] { la::gemm(-1.0, a16.view(), b16.view(), 1.0, c.view()); }, 20},
      {"gemm_k64", "linalg.gemm_gflops.k64", 2.0 * 1024 * 1024 * 64,
       gemm_bytes(1024, 1024, 64), [&] { c = c0; },
       [&] { la::gemm(-1.0, a64.view(), b64.view(), 1.0, c.view()); }, 20},
      {"gemm_sq1024", "linalg.gemm_gflops.sq1024", 2.0 * 1024 * 1024 * 1024,
       gemm_bytes(1024, 1024, 1024), [&] { c = c0; },
       [&] { la::gemm(1.0, sq_a.view(), sq_b.view(), 1.0, c.view()); }, 7},
      {"gemm_ref_sq512", "linalg.gemm_ref_gflops.sq512",
       2.0 * 512 * 512 * 512, gemm_bytes(512, 512, 512),
       [&] { cref = c512; },
       [&] {
         la::gemm_reference(1.0, ref_a.view(), ref_b.view(), 1.0,
                            cref.view());
       },
       3},
      {"trsm_k64", "linalg.trsm_gflops.k64", 64.0 * 64 * 1024,
       8.0 * (64.0 * 64 / 2 + 2.0 * 64 * 1024), [&] { b = rhs; },
       [&] {
         la::trsm_left(la::Triangle::Lower, la::Diag::Unit, tri.view(),
                       b.view());
       },
       20},
      {"getrf_panel", "linalg.getrf_gflops.panel",
       2048.0 * 64 * 64 - 64.0 * 64 * 64 / 3, 8.0 * 2 * 2048 * 64,
       [&] { p = panel; },
       [&] { (void)la::getrf_blocked(p.view(), ipiv, 16); }, 20},
      {"potrf_b64", "linalg.potrf_gflops.b64", 1024.0 * 1024 * 1024 / 3,
       8.0 * 1024 * 1024, [&] { s = spd; },
       [&] { (void)la::potrf_blocked(s.view(), 64); }, 7},
  };
  for (const KernelShape& k : shapes) {
    const Span span(spans, std::string("linalg.") + k.shape,
                    spans ? spans->next_op() : -1);
    const double t = time_median(k.min_reps, 0.15, k.prepare, k.call);
    out[k.metric] = {k.flops / t / 1e9, "GF/s"};
    out[std::string("linalg.flops.") + k.shape] = {k.flops, "flop"};
    out[std::string("linalg.bytes.") + k.shape] = {k.bytes, "B"};
  }
}

namespace {

namespace sn = conflux::simnet;

sn::FabricSpec fabric(sn::ExecMode mode) {
  sn::FabricSpec spec;
  spec.mode = mode;
  return spec;
}

/// Host nanoseconds per message of a 2-rank ping-pong of 1-double messages.
double ping_pong_ns(sn::ExecMode mode, int round_trips) {
  sn::Network net(2, fabric(mode));
  const sn::Tag tag = sn::make_tag(1, 0);
  const double t = time_median(5, 0.2, [] {}, [&] {
    sn::run_spmd(net, [&](sn::Comm& comm) {
      const int peer = 1 - comm.rank();
      std::vector<double> msg(1, 1.0);
      for (int i = 0; i < round_trips; ++i) {
        if (comm.rank() == 0) {
          comm.send(peer, tag, std::vector<double>(msg));
          msg = comm.recv(peer, tag);
        } else {
          msg = comm.recv(peer, tag);
          comm.send(peer, tag, std::vector<double>(msg));
        }
      }
    });
  });
  return t / (2.0 * round_trips) * 1e9;
}

constexpr int kCollectiveRanks = 64;

/// Host nanoseconds per destination of a root multicast to 63 ranks.
double multicast_ns_per_dst(int rounds) {
  sn::Network net(kCollectiveRanks, fabric(sn::ExecMode::VirtualTime));
  std::vector<int> dsts(kCollectiveRanks - 1);
  std::iota(dsts.begin(), dsts.end(), 1);
  const sn::Tag tag = sn::make_tag(2, 0);
  const double t = time_median(5, 0.2, [] {}, [&] {
    sn::run_spmd(net, [&](sn::Comm& comm) {
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0)
          comm.multicast(dsts, tag, sn::make_shared_buffer(
                                        std::vector<double>(8, 1.0)));
        else
          (void)comm.recv_view(0, tag);
      }
    });
  });
  return t / (static_cast<double>(rounds) * (kCollectiveRanks - 1)) * 1e9;
}

/// Host nanoseconds per participating rank of a 64-rank binomial bcast.
double bcast_ns_per_rank(int rounds) {
  sn::Network net(kCollectiveRanks, fabric(sn::ExecMode::VirtualTime));
  const sn::Group group = sn::Group::iota(kCollectiveRanks);
  const double t = time_median(5, 0.2, [] {}, [&] {
    sn::run_spmd(net, [&](sn::Comm& comm) {
      std::vector<double> data(8, 1.0);
      for (int i = 0; i < rounds; ++i)
        sn::bcast(comm, group, 0, data, sn::make_tag(3, i));
    });
  });
  return t / (static_cast<double>(rounds) * kCollectiveRanks) * 1e9;
}

}  // namespace

void run_fabric_micro(Metrics& out, SpanLog* spans) {
  auto timed = [&](const char* name, const std::function<double()>& fn) {
    const Span span(spans, std::string("simnet.") + name,
                    spans ? spans->next_op() : -1);
    out[std::string("simnet.") + name] = {fn(), "ns"};
  };
  timed("vt_p2p_ns",
        [] { return ping_pong_ns(sn::ExecMode::VirtualTime, 20000); });
  timed("vt_multicast_ns_per_dst", [] { return multicast_ns_per_dst(400); });
  timed("vt_bcast_ns_per_rank", [] { return bcast_ns_per_rank(400); });
  timed("thr_p2p_ns",
        [] { return ping_pong_ns(sn::ExecMode::Threaded, 20000); });
}

}  // namespace perfbench
