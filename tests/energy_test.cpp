#include <gtest/gtest.h>

#include <stdexcept>

#include "ulpdream/core/factory.hpp"
#include "ulpdream/energy/area_model.hpp"
#include "ulpdream/energy/energy_model.hpp"

namespace ulpdream::energy {
namespace {

mem::AccessStats make_stats(std::uint64_t reads, std::uint64_t writes) {
  mem::AccessStats s;
  s.reset(1);
  s.reads = reads;
  s.writes = writes;
  return s;
}

TEST(MemoryEnergyParams, DynamicScalesQuadratically) {
  const MemoryEnergyParams p;
  const double e_nom = p.dynamic_j(0.9, 16, 1000, false);
  const double e_half = p.dynamic_j(0.45, 16, 1000, false);
  EXPECT_NEAR(e_half / e_nom, 0.25, 1e-12);
}

TEST(MemoryEnergyParams, DynamicScalesLinearlyWithWidthAndAccesses) {
  const MemoryEnergyParams p;
  EXPECT_NEAR(p.dynamic_j(0.9, 22, 1000, false) /
                  p.dynamic_j(0.9, 16, 1000, false),
              22.0 / 16.0, 1e-12);
  EXPECT_NEAR(p.dynamic_j(0.9, 16, 2000, false) /
                  p.dynamic_j(0.9, 16, 1000, false),
              2.0, 1e-12);
}

TEST(MemoryEnergyParams, SmallArrayFactorApplied) {
  const MemoryEnergyParams p;
  EXPECT_NEAR(p.dynamic_j(0.9, 16, 1000, true) /
                  p.dynamic_j(0.9, 16, 1000, false),
              p.small_array_factor, 1e-12);
}

TEST(MemoryEnergyParams, LeakageDropsSteeplyWithVoltage) {
  const MemoryEnergyParams p;
  const double leak_nom = p.leak_power_w(0.9, 16, 16384, false);
  const double leak_low = p.leak_power_w(0.5, 16, 16384, false);
  EXPECT_GT(leak_nom / leak_low, 10.0);
  EXPECT_LT(leak_nom / leak_low, 100.0);
}

TEST(MemoryEnergyParams, NominalLeakageMatchesCalibration) {
  const MemoryEnergyParams p;
  // 45 uW for the full 32 kB / 16-bit array at nominal.
  EXPECT_NEAR(p.leak_power_w(0.9, 16, 16384, false), 45e-6, 1e-9);
}

TEST(CodecEnergy, OrderingNoneDreamEcc) {
  const auto none = codec_energy(*core::make_emt("none"));
  const auto dream = codec_energy(*core::make_emt("dream"));
  const auto ecc = codec_energy(*core::make_emt("ecc_secded"));
  EXPECT_EQ(none.encode_pj, 0.0);
  EXPECT_EQ(none.decode_pj, 0.0);
  EXPECT_GT(dream.decode_pj, 0.0);
  EXPECT_GT(ecc.encode_pj, dream.encode_pj);
  EXPECT_GT(ecc.decode_pj, dream.decode_pj);
}

TEST(SystemEnergyModel, BreakdownComponentsPopulated) {
  const SystemEnergyModel model;
  const auto dream = core::make_emt("dream");
  const mem::AccessStats data = make_stats(1000, 1000);
  const mem::AccessStats side = make_stats(1000, 1000);
  const EnergyBreakdown e =
      model.compute(*dream, 0.7, data, &side, 16384, 4000);
  EXPECT_GT(e.data_dynamic_j, 0.0);
  EXPECT_GT(e.side_dynamic_j, 0.0);
  EXPECT_GT(e.codec_j, 0.0);
  EXPECT_GT(e.data_leak_j, 0.0);
  EXPECT_GT(e.side_leak_j, 0.0);
  EXPECT_NEAR(e.total_j(),
              e.data_dynamic_j + e.side_dynamic_j + e.codec_j +
                  e.data_leak_j + e.side_leak_j,
              1e-18);
}

TEST(SystemEnergyModel, NoProtectionHasNoOverheadComponents) {
  const SystemEnergyModel model;
  const auto none = core::make_emt("none");
  const mem::AccessStats data = make_stats(500, 500);
  const EnergyBreakdown e =
      model.compute(*none, 0.7, data, nullptr, 16384, 2000);
  EXPECT_EQ(e.side_dynamic_j, 0.0);
  EXPECT_EQ(e.codec_j, 0.0);
  EXPECT_EQ(e.side_leak_j, 0.0);
}

TEST(SystemEnergyModel, TotalEnergyDecreasesWithVoltage) {
  const SystemEnergyModel model;
  const auto none = core::make_emt("none");
  const mem::AccessStats data = make_stats(1000, 1000);
  double prev = 1e9;
  for (double v = 0.9; v >= 0.5 - 1e-9; v -= 0.05) {
    const double e = model.compute(*none, v, data, nullptr, 16384, 4000)
                         .total_j();
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(SystemEnergyModel, PaperOverheadCalibration) {
  // Sec. VI-B reproduction at model level: averaged across the sweep, the
  // protection overhead vs no protection is ~34% (DREAM) and ~55% (ECC),
  // i.e. DREAM saves ~21 points of overhead.
  const SystemEnergyModel model;
  const auto none = core::make_emt("none");
  const auto dream = core::make_emt("dream");
  const auto ecc = core::make_emt("ecc_secded");
  const mem::AccessStats data = make_stats(100000, 100000);
  const mem::AccessStats side = make_stats(100000, 100000);

  double sum_none = 0.0;
  double sum_dream = 0.0;
  double sum_ecc = 0.0;
  int n = 0;
  for (double v = 0.5; v <= 0.9 + 1e-9; v += 0.05) {
    const std::uint64_t cycles = 400000;
    sum_none +=
        model.compute(*none, v, data, nullptr, 16384, cycles).total_j();
    sum_dream +=
        model.compute(*dream, v, data, &side, 16384, cycles).total_j();
    sum_ecc +=
        model.compute(*ecc, v, data, nullptr, 16384, cycles).total_j();
    ++n;
  }
  const double dream_overhead = sum_dream / sum_none - 1.0;
  const double ecc_overhead = sum_ecc / sum_none - 1.0;
  EXPECT_NEAR(dream_overhead, 0.34, 0.06);
  EXPECT_NEAR(ecc_overhead, 0.55, 0.08);
  EXPECT_NEAR(ecc_overhead - dream_overhead, 0.21, 0.06);
}

TEST(AreaModel, PaperRatios) {
  const CodecArea dream = codec_area("dream");
  const CodecArea ecc = codec_area("ecc_secded");
  EXPECT_NEAR(ecc.encoder_ge / dream.encoder_ge, 1.28, 1e-9);
  EXPECT_NEAR(ecc.decoder_ge / dream.decoder_ge, 2.20, 1e-9);
  EXPECT_EQ(codec_area("none").total_ge(), 0.0);
  EXPECT_THROW((void)codec_area("no_such_emt"), std::invalid_argument);
}

TEST(AreaModel, ExtraBitsFormula2) {
  EXPECT_EQ(core::make_emt("none")->extra_bits(), 0);
  EXPECT_EQ(core::make_emt("dream")->extra_bits(), 5);
  EXPECT_EQ(core::make_emt("ecc_secded")->extra_bits(), 6);
  EXPECT_NEAR(memory_area_overhead(*core::make_emt("dream")), 5.0 / 16.0,
              1e-12);
  EXPECT_NEAR(memory_area_overhead(*core::make_emt("ecc_secded")), 6.0 / 16.0,
              1e-12);
}

class VoltageSweepEnergy : public ::testing::TestWithParam<double> {};

TEST_P(VoltageSweepEnergy, DreamCheaperThanEccAtEveryVoltage) {
  const double v = GetParam();
  const SystemEnergyModel model;
  const auto dream = core::make_emt("dream");
  const auto ecc = core::make_emt("ecc_secded");
  const mem::AccessStats data = make_stats(50000, 50000);
  const mem::AccessStats side = make_stats(50000, 50000);
  const double e_dream =
      model.compute(*dream, v, data, &side, 16384, 200000).total_j();
  const double e_ecc =
      model.compute(*ecc, v, data, nullptr, 16384, 200000).total_j();
  EXPECT_LT(e_dream, e_ecc);
}

INSTANTIATE_TEST_SUITE_P(Voltages, VoltageSweepEnergy,
                         ::testing::Values(0.5, 0.55, 0.6, 0.65, 0.7, 0.75,
                                           0.8, 0.85, 0.9));

}  // namespace
}  // namespace ulpdream::energy
