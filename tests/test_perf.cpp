// Tests: machine catalogue, programming-model factors, scaling simulator.

#include <gtest/gtest.h>

#include "common/error.h"
#include "perf/scaling.h"

namespace xgw {
namespace {

TEST(Machines, PaperAggregates) {
  // Sec. 6 of the paper: aggregate peaks.
  EXPECT_NEAR(frontier().peak_total(), 1.80e18, 0.01e18);
  EXPECT_NEAR(aurora().peak_total(), 2.17e18, 0.01e18);
  EXPECT_NEAR(aurora().attainable_total(), 1.45e18, 0.01e18);
  EXPECT_NEAR(perlmutter().peak_total(), 69.5e15, 0.1e15);
}

TEST(Machines, GpuAccounting) {
  EXPECT_EQ(frontier().gpus(9408), 75264);   // full machine
  EXPECT_EQ(aurora().gpus(9600), 115200);    // 90.4% of machine
  EXPECT_EQ(perlmutter().gpus(1792), 7168);
}

TEST(ProgModel, NativeFactorsAreUnity) {
  for (MachineKind k : {MachineKind::kFrontier, MachineKind::kAurora,
                        MachineKind::kPerlmutter})
    EXPECT_DOUBLE_EQ(
        prog_model_factor(k, native_model(k), KernelClass::kGppDiag), 1.0);
}

TEST(ProgModel, Table4Orderings) {
  // Perlmutter: CUDA < OACC < OMP < OMP+; OpenACC recovers > 90% of CUDA.
  const auto f = [](MachineKind m, ProgModel p) {
    return prog_model_factor(m, p, KernelClass::kGppDiag);
  };
  EXPECT_LT(f(MachineKind::kPerlmutter, ProgModel::kOpenAcc), 1.11);
  EXPECT_LT(f(MachineKind::kPerlmutter, ProgModel::kOpenAcc),
            f(MachineKind::kPerlmutter, ProgModel::kOpenMpOpt));
  EXPECT_LT(f(MachineKind::kPerlmutter, ProgModel::kOpenMpOpt),
            f(MachineKind::kPerlmutter, ProgModel::kOpenMpDagger));
  // Frontier: OpenACC at 60-70% of HIP -> factor ~1.4-1.7.
  EXPECT_GT(f(MachineKind::kFrontier, ProgModel::kOpenAcc), 1.3);
  EXPECT_LT(f(MachineKind::kFrontier, ProgModel::kOpenAcc), 1.7);
  // Aurora: no OpenACC.
  EXPECT_FALSE(prog_model_supported(MachineKind::kAurora, ProgModel::kOpenAcc));
  EXPECT_TRUE(std::isinf(f(MachineKind::kAurora, ProgModel::kOpenAcc)));
  // Aurora optimized OMP ~2x SYCL.
  EXPECT_NEAR(f(MachineKind::kAurora, ProgModel::kOpenMpOpt), 2.03, 0.05);
}

TEST(ProgModel, SplitGemmRooflineBasics) {
  // Huge bandwidth => compute bound at peak; tiny bandwidth => memory
  // bound with attainable = AI * BW.
  const KernelRoofline hi = gemm_roofline(1e12, 1e15, 512);
  EXPECT_TRUE(hi.compute_bound);
  EXPECT_DOUBLE_EQ(hi.attainable_flops, 1e12);
  const KernelRoofline lo = gemm_roofline(1e12, 1e9, 512);
  EXPECT_FALSE(lo.compute_bound);
  EXPECT_DOUBLE_EQ(lo.attainable_flops, lo.arithmetic_intensity * 1e9);
  EXPECT_GT(lo.arithmetic_intensity, 0.0);

  // Sharing the packed-B panel across more row panels cuts B traffic and
  // can only raise the arithmetic intensity; deeper K raises C-tile
  // round-trips but amortizes packing, so AI still grows with K here.
  EXPECT_GE(gemm_roofline(1e12, 1e9, 512, 8).arithmetic_intensity,
            gemm_roofline(1e12, 1e9, 512, 1).arithmetic_intensity);
  EXPECT_GT(gemm_roofline(1e12, 1e9, 1024).arithmetic_intensity, 0.0);
  EXPECT_THROW(gemm_roofline(0.0, 1e9, 512), Error);
  EXPECT_THROW(gemm_roofline(1e12, 1e9, 512, 0), Error);
}

TEST(Workload, Eq7Eq8Flops) {
  SigmaWorkload diag{"x", 128, 15000, 26529, 0, 3, false, 83.50};
  EXPECT_NEAR(diag.kernel_flops(),
              83.50 * 128.0 * 15000.0 * 26529.0 * 26529.0 * 3.0, 1.0);
  SigmaWorkload off{"y", 512, 28224, 51627, 0, 200, true, 83.50};
  const double s = 512, g = 51627, nb = 28224, ne = 200;
  EXPECT_NEAR(off.kernel_flops(), 2 * nb * ne * 8.0 * (s * g * g + g * s * s),
              1e3);
}

TEST(Simulator, StrongScalingMonotone) {
  ScalingSimulator sim(frontier());
  SigmaWorkload w{"Si998", 512, 28000, 51627, 145837, 3, false, 83.50};
  const auto pts = sim.strong_scaling(w, {64, 256, 1024, 4096, 9408},
                                      ProgModel::kHip);
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_LT(pts[i].seconds, pts[i - 1].seconds);
}

TEST(Simulator, WeakScalingNearFlat) {
  ScalingSimulator sim(frontier());
  SigmaWorkload w{"Si998", 512, 28000, 51627, 145837, 3, false, 83.50};
  const auto pts = sim.weak_scaling(w, {64, 128, 256, 512, 1024},
                                    ProgModel::kHip);
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_NEAR(pts[i].seconds, pts[0].seconds, 0.25 * pts[0].seconds);
}

TEST(Simulator, OffdiagOutperformsDiagAtScale) {
  // The central Sec. 5.6 result: the ZGEMM recast roughly doubles
  // sustained throughput.
  ScalingSimulator sim(frontier());
  SigmaWorkload diag{"Si998", 512, 28224, 51627, 145837, 3, false, 83.50};
  SigmaWorkload off{"Si998-a", 512, 28224, 51627, 145837, 200, true, 83.50};
  const auto pd = sim.sigma_kernel(diag, 9408, ProgModel::kHip);
  const auto po = sim.sigma_kernel(off, 9408, ProgModel::kHip);
  EXPECT_GT(po.pflops, 1.6 * pd.pflops);
}

TEST(Simulator, Table5HeadlineNumbers) {
  // Si998-a on full Frontier: 1.069 EF/s at 59.45% of peak (within 10%).
  ScalingSimulator sim(frontier());
  SigmaWorkload w{"Si998-a", 512, 28224, 51627, 145837, 200, true, 83.50};
  const auto p = sim.sigma_kernel(w, 9408, ProgModel::kHip);
  EXPECT_NEAR(p.pflops, 1069.36, 0.10 * 1069.36);
  EXPECT_NEAR(p.pct_peak, 59.45, 6.0);
  // Si998-c on Aurora 9600 nodes: 707.52 PF/s.
  ScalingSimulator sa(aurora());
  SigmaWorkload wc{"Si998-c", 512, 28800, 51627, 145837, 200, true, 94.27};
  const auto pc = sa.sigma_kernel(wc, 9600, ProgModel::kSycl);
  EXPECT_NEAR(pc.pflops, 707.52, 0.10 * 707.52);
}

TEST(Simulator, IoAddsTime) {
  ScalingSimulator sim(frontier());
  SigmaWorkload w{"Si998-b", 512, 28224, 51627, 145837, 512, true, 83.50};
  const auto excl = sim.sigma_total_excl_io(w, 9408, ProgModel::kHip);
  const auto incl = sim.sigma_total_incl_io(w, 9408, ProgModel::kHip);
  EXPECT_GT(incl.seconds, excl.seconds);
  EXPECT_LT(incl.pflops, excl.pflops);
}

TEST(Simulator, FfEpsilonKernelShapes) {
  // Fig. 3: GEMM kernels ~flat under weak scaling; MTXEL and Diag grow.
  ScalingSimulator sim(aurora());
  SigmaWorkload base{"FF", 128, 3000, 20000, 54000, 0, false, 94.27};
  const auto t1 = sim.ff_epsilon_weak(base, 64, 64, 19, 0.2, ProgModel::kSycl);
  const auto t2 = sim.ff_epsilon_weak(base, 64, 1024, 19, 0.2,
                                      ProgModel::kSycl);
  EXPECT_NEAR(t2.chi0, t1.chi0, 0.5 * t1.chi0);
  EXPECT_GT(t2.mtxel, 1.5 * t1.mtxel);
  EXPECT_GT(t2.diag, 1.5 * t1.diag);
}

TEST(Simulator, ImbalanceVisibleWhenPoolsSaturate) {
  // With N_Sigma * N_G parallelism exhausted, adding GPUs stops helping:
  // time at absurd scale stays above the ideal curve.
  ScalingSimulator sim(frontier());
  SigmaWorkload w{"tiny", 4, 2000, 512, 2000, 3, false, 83.50};
  const auto p1 = sim.sigma_kernel(w, 8, ProgModel::kHip);
  const auto p2 = sim.sigma_kernel(w, 4096, ProgModel::kHip);
  const double ideal = p1.seconds * 8.0 / 4096.0;
  EXPECT_GT(p2.seconds, 3.0 * ideal);
}

TEST(Workloads, PaperTableComplete) {
  const auto w = paper_workloads(MachineKind::kFrontier);
  EXPECT_GE(w.size(), 12u);
  bool has_a = false;
  for (const auto& x : w)
    if (x.system == "Si998-a") {
      has_a = true;
      EXPECT_TRUE(x.offdiag);
      EXPECT_EQ(x.n_e, 200);
    }
  EXPECT_TRUE(has_a);
}

}  // namespace
}  // namespace xgw
