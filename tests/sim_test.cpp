#include <gtest/gtest.h>

#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/sim/bit_significance.hpp"
#include "ulpdream/sim/policy_explorer.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/sim/voltage_sweep.hpp"

namespace ulpdream::sim {
namespace {

const ecg::Record& test_record() {
  static const ecg::Record rec = ecg::make_default_record(29);
  return rec;
}

TEST(Runner, CleanRunHitsMaxSnr) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const RunResult clean = runner.run_once(
      app, test_record(), "none", nullptr, 0.9);
  EXPECT_NEAR(clean.snr_db, runner.max_snr_db(app, test_record()), 1e-9);
  EXPECT_GT(clean.snr_db, 40.0);  // quantization-limited, finite
  EXPECT_LT(clean.snr_db, metrics::kSnrCeilingDb);
}

TEST(Runner, FaultsReduceSnr) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const mem::FaultMap map = mem::FaultMap::stuck_bit(
      mem::MemoryGeometry::kWords16, 16, 14, true);
  const RunResult dirty =
      runner.run_once(app, test_record(), "none", &map, 0.9);
  EXPECT_LT(dirty.snr_db, runner.max_snr_db(app, test_record()) - 10.0);
}

TEST(Runner, EnergyAndAccessesPopulated) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const RunResult r = runner.run_once(app, test_record(),
                                      "dream", nullptr, 0.7);
  EXPECT_GT(r.data_accesses, 0u);
  EXPECT_GT(r.side_accesses, 0u);
  EXPECT_EQ(r.cycles, 2 * r.data_accesses);
  EXPECT_GT(r.energy.total_j(), 0.0);
}

TEST(Runner, DreamCorrectsStuckMsbFault) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const mem::FaultMap map = mem::FaultMap::stuck_bit(
      mem::MemoryGeometry::kWords16, 16, 14, true);
  const RunResult none_r =
      runner.run_once(app, test_record(), "none", &map, 0.9);
  const RunResult dream_r =
      runner.run_once(app, test_record(), "dream", &map, 0.9);
  EXPECT_GT(dream_r.snr_db, none_r.snr_db + 20.0);
  EXPECT_GT(dream_r.counters.corrected_words, 0u);
}

TEST(BitSignificance, MsbErrorsHurtMore) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const std::vector<ecg::Record> records = {test_record()};
  const BitSignificanceResult res =
      run_bit_significance(runner, app, records);
  // Paper Fig. 2: SNR decreases continuously toward the MSBs. Check the
  // broad ordering LSB >> mid >> MSB for both polarities.
  for (int pol = 0; pol < 2; ++pol) {
    const auto& snr = res.snr_db[static_cast<std::size_t>(pol)];
    EXPECT_GT(snr[0], snr[8]);
    EXPECT_GT(snr[8], snr[14]);
    EXPECT_GT(snr[0], 30.0);
  }
  EXPECT_GT(res.max_snr_db, 40.0);
}

TEST(BitSignificance, StuckAtOneMilderOnMsbs) {
  // Negative-dominated samples hide stuck-at-1 MSB faults (paper Sec. III).
  ExperimentRunner runner;
  const apps::DwtApp app;
  const std::vector<ecg::Record> records = {test_record()};
  const BitSignificanceResult res =
      run_bit_significance(runner, app, records);
  EXPECT_GT(res.snr_db[1][14], res.snr_db[0][14]);
}

// Voltage sweeps run as campaign grids on the test record.
campaign::CampaignSpec tiny_sweep() {
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = core::paper_emt_names();
  spec.voltages = {0.5, 0.7, 0.9};
  spec.records = {
      campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 29}};
  spec.repetitions = 4;
  return spec;
}

SweepResult run_sweep(const campaign::CampaignSpec& spec,
                      std::size_t app_index = 0) {
  return campaign::CampaignEngine().run(spec).to_sweep_result(0, app_index);
}

TEST(VoltageSweep, ProducesAllPoints) {
  const SweepResult res = run_sweep(tiny_sweep());
  EXPECT_EQ(res.points.size(), 3u * 3u);
  EXPECT_NE(res.find("dream", 0.7), nullptr);
  EXPECT_EQ(res.find("dream", 0.62), nullptr);
}

TEST(VoltageSweep, SnrDegradesAsVoltageDrops) {
  const SweepResult res = run_sweep(tiny_sweep());
  for (const std::string& emt : core::paper_emt_names()) {
    const SweepPoint* hi = res.find(emt, 0.9);
    const SweepPoint* lo = res.find(emt, 0.5);
    ASSERT_NE(hi, nullptr);
    ASSERT_NE(lo, nullptr);
    EXPECT_GT(hi->snr_mean_db, lo->snr_mean_db);
  }
}

TEST(VoltageSweep, NominalVoltageIsErrorFree) {
  const SweepResult res = run_sweep(tiny_sweep());
  const SweepPoint* p = res.find("none", 0.9);
  ASSERT_NE(p, nullptr);
  // BER(0.9) = 1e-9 on ~360k cells: fault-free with overwhelming
  // probability, so mean SNR equals the max-SNR dashed line.
  EXPECT_NEAR(p->snr_mean_db, res.max_snr_db, 0.5);
}

TEST(VoltageSweep, EnergyOrderingNoneDreamEcc) {
  const SweepResult res = run_sweep(tiny_sweep());
  for (const double v : {0.5, 0.7, 0.9}) {
    const double e_none = res.find("none", v)->energy_mean_j;
    const double e_dream = res.find("dream", v)->energy_mean_j;
    const double e_ecc = res.find("ecc_secded", v)->energy_mean_j;
    EXPECT_LT(e_none, e_dream);
    EXPECT_LT(e_dream, e_ecc);
  }
}

TEST(VoltageSweep, MultiAppSharesConfig) {
  campaign::CampaignSpec spec = tiny_sweep();
  spec.apps = {"dwt", "morph_filter"};
  const campaign::ResultStore store = campaign::CampaignEngine().run(spec);
  const SweepResult dwt = store.to_sweep_result(0, 0);
  const SweepResult morph = store.to_sweep_result(0, 1);
  EXPECT_EQ(dwt.points.front().app, "dwt");
  EXPECT_EQ(morph.points.front().app, "morph_filter");
  EXPECT_EQ(dwt.config.voltages, morph.config.voltages);
}

TEST(PolicyExplorer, DerivesFeasiblePolicy) {
  campaign::CampaignSpec spec = tiny_sweep();
  spec.voltages = {0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9};
  spec.repetitions = 12;
  const SweepResult sweep = run_sweep(spec);

  // Relative criterion (the paper's -1 dB form): sanity of the structure.
  const PolicyResult relative = explore_policy(sweep, 1.0);
  EXPECT_GT(relative.nominal_energy_j, 0.0);
  ASSERT_EQ(relative.points.size(), 3u);
  for (const auto& p : relative.points) {
    EXPECT_TRUE(p.feasible) << p.emt;
    EXPECT_LE(p.min_safe_voltage, 0.9);
  }
  const auto find = [](const PolicyResult& res, const std::string& k) {
    for (const auto& p : res.points) {
      if (p.emt == k) return p;
    }
    return EmtOperatingPoint{};
  };
  // Protected techniques reach at least as deep as no protection.
  EXPECT_LE(find(relative, "dream").min_safe_voltage,
            find(relative, "none").min_safe_voltage);

  // Absolute clinical criterion (40 dB on the P10 reliability statistic):
  // protection must unlock deeper floors AND larger net savings despite
  // its energy overhead.
  const PolicyResult absolute =
      explore_policy(sweep, 40.0, QualityCriterion::kAbsoluteSnr,
                     QualityStatistic::kP10);
  EXPECT_DOUBLE_EQ(absolute.required_snr_db, 40.0);
  // Protection unlocks deeper voltage floors than unprotected operation
  // (paper Sec. VI-C range structure), with positive net savings.
  EXPECT_LT(find(absolute, "dream").min_safe_voltage,
            find(absolute, "none").min_safe_voltage);
  EXPECT_LE(find(absolute, "ecc_secded").min_safe_voltage,
            find(absolute, "dream").min_safe_voltage);
  EXPECT_GT(find(absolute, "dream").savings_vs_nominal_frac, 0.0);
  EXPECT_GT(find(absolute, "ecc_secded").savings_vs_nominal_frac, 0.0);
}

TEST(PolicyExplorer, RequiresNominalPoint) {
  SweepResult empty;
  empty.config.voltages = {0.5};
  empty.config.emts = core::paper_emt_names();
  EXPECT_THROW(explore_policy(empty, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace ulpdream::sim
