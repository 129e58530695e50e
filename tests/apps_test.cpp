#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/apps/cs_app.hpp"
#include "ulpdream/apps/delineation_app.hpp"
#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/apps/matrix_filter_app.hpp"
#include "ulpdream/apps/morph_filter_app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/metrics/quality.hpp"

namespace ulpdream::apps {
namespace {

const ecg::Record& test_record() {
  static const ecg::Record rec = ecg::make_default_record(17);
  return rec;
}

core::MemorySystem make_clean_system() {
  static const core::NoProtection none;
  return core::MemorySystem(none);
}

TEST(AppFactory, ProducesAllFivePaperApps) {
  EXPECT_EQ(paper_app_names().size(), 5u);
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
  }
}

TEST(AppFactory, FootprintsFitDeviceMemory) {
  // Every app must fit the 32 kB (16384-word) device data memory.
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    EXPECT_LE(app->footprint_words(), mem::MemoryGeometry::kWords16)
        << app->name();
  }
}

TEST(AppRuns, DeterministicWithoutFaults) {
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    auto sys1 = make_clean_system();
    auto sys2 = make_clean_system();
    const auto out1 = app->run(sys1, test_record());
    const auto out2 = app->run(sys2, test_record());
    EXPECT_EQ(out1, out2) << app->name();
    EXPECT_FALSE(out1.empty()) << app->name();
  }
}

TEST(AppRuns, CleanRunTracksIdealOutput) {
  // Fixed-point vs double-precision golden model: SNR must be high (only
  // quantization noise) for every app that has a float model.
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    const auto ideal = app->ideal_output(test_record());
    if (!ideal.has_value()) continue;  // delineation
    auto sys = make_clean_system();
    const auto out = app->run(sys, test_record());
    ASSERT_EQ(out.size(), ideal->size()) << app->name();
    const double snr = metrics::snr_db(*ideal, out);
    if (name == "cs") {
      // CS ideal is the float pipeline; the fixed-point compressor's
      // 2-LSB truncation on 11-bit-density codes plus OMP support
      // sensitivity put the clean-run tracking in the teens of dB.
      EXPECT_GT(snr, 12.0) << app->name();
    } else {
      EXPECT_GT(snr, 40.0) << app->name();
    }
  }
}

TEST(AppRuns, RecordTooShortThrows) {
  ecg::GeneratorConfig cfg;
  cfg.duration_s = 1.0;  // 250 samples, far below the 2048 window
  const ecg::Record tiny = ecg::generate_record(cfg);
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    auto sys = make_clean_system();
    EXPECT_THROW((void)app->run(sys, tiny), std::invalid_argument)
        << app->name();
  }
}

TEST(AppRuns, MemoryAccessesAreCounted) {
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    auto sys = make_clean_system();
    (void)app->run(sys, test_record());
    // Every app must at least write its input window and read it back.
    EXPECT_GE(sys.data().stats().writes, app->input_length()) << app->name();
    EXPECT_GE(sys.data().stats().reads, app->input_length()) << app->name();
  }
}

TEST(DwtApp, OutputLayoutHasEnergyInApproxBand) {
  DwtApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  ASSERT_EQ(out.size(), 2048u);
  // Approx band (first n/16) should carry most of the signal energy for a
  // baseline-dominated ECG.
  double approx_e = 0.0;
  double total_e = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    total_e += out[i] * out[i];
    if (i < 128) approx_e += out[i] * out[i];
  }
  EXPECT_GT(approx_e / total_e, 0.5);
}

TEST(MatrixFilterApp, EnhancesHighFrequencyContent) {
  MatrixFilterApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  const auto& in = test_record().samples;
  // The unsharp-mask operator boosts high-frequency content: total
  // variation must increase while the DC level is preserved (row sums 1).
  double tv_in = 0.0;
  double tv_out = 0.0;
  double mean_in = 0.0;
  double mean_out = 0.0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    tv_in += std::fabs(static_cast<double>(in[i]) - in[i - 1]);
    tv_out += std::fabs(out[i] - out[i - 1]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    mean_in += static_cast<double>(in[i]);
    mean_out += out[i];
  }
  EXPECT_GT(tv_out, tv_in);
  EXPECT_NEAR(mean_out / static_cast<double>(out.size()),
              mean_in / static_cast<double>(out.size()), 30.0);
}

TEST(MatrixFilterApp, ErrorsAmplifyAcrossIterations) {
  // The paper's Fig. 2 mechanism: a single injected error in the input
  // block costs matrix filtering more SNR than it costs a point-wise app,
  // because every output depends on a full row+column and the iterated
  // enhancement amplifies the perturbation.
  const MatrixFilterApp app;
  auto clean_sys = make_clean_system();
  const auto clean = app.run(clean_sys, test_record());

  mem::FaultMap map(mem::MemoryGeometry::kWords16, 16);
  // One stuck-at-0 MSB-region cell inside the B buffer (after A's k*k
  // words). Stuck-at-0 guarantees corruption: baseline samples are
  // negative, so bit 12 is normally 1.
  const std::size_t addr = 32 * 32 + 100;
  map.edit(addr).mask = 1u << 12;
  map.edit(addr).value = 0;
  auto dirty_sys = make_clean_system();
  dirty_sys.attach_faults(&map);
  const auto dirty = app.run(dirty_sys, test_record());

  // The single cell fault must corrupt many outputs (fan-out): the banded
  // operator spreads the error further every iteration, although far-off
  // perturbations fall below one LSB and round away.
  std::size_t affected = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != dirty[i]) ++affected;
  }
  EXPECT_GT(affected, 8u);
}

TEST(MatrixFilterApp, RejectsBadBlocking) {
  MatrixFilterConfig cfg;
  cfg.k = 31;  // does not divide 2048
  EXPECT_THROW(MatrixFilterApp{cfg}, std::invalid_argument);
}

TEST(CsApp, CompressionRatioIsFiftyPercent) {
  const CsApp app;
  EXPECT_EQ(app.footprint_words(),
            app.input_length() + app.input_length() / 2);
}

TEST(CsApp, ReconstructionBeatsRequirementOnCleanRun) {
  const CsApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  std::vector<double> original(app.input_length());
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<double>(test_record().samples[i]);
  }
  // Lossy ceiling vs original: must be clinically meaningful (>15 dB).
  EXPECT_GT(metrics::snr_db(original, out), 15.0);
}

TEST(MorphFilterApp, RemovesBaselineWander) {
  // Feed a record with strong baseline wander; after morphological
  // correction the output mean must be near zero and drift suppressed.
  ecg::GeneratorConfig cfg;
  cfg.seed = 23;
  cfg.noise.baseline_wander_mv = 0.4;
  const ecg::Record rec = ecg::generate_record(cfg);

  MorphFilterApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, rec);

  double mean_out = 0.0;
  for (const double v : out) mean_out += v;
  mean_out /= static_cast<double>(out.size());
  double mean_in = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    mean_in += static_cast<double>(rec.samples[i]);
  }
  mean_in /= static_cast<double>(out.size());
  EXPECT_LT(std::fabs(mean_out), std::fabs(mean_in) * 0.2 + 50.0);
}

TEST(DelineationApp, DetectsRPeaksOnCleanSignal) {
  DelineationApp app;
  auto sys = make_clean_system();
  const metrics::FiducialList detected = app.delineate(sys, test_record());

  metrics::FiducialList truth_r;
  for (const auto& f : test_record().truth) {
    if (f.type == metrics::FiducialType::kR &&
        f.position < static_cast<std::int32_t>(app.input_length())) {
      truth_r.push_back(f);
    }
  }
  metrics::FiducialList detected_r;
  for (const auto& f : detected) {
    if (f.type == metrics::FiducialType::kR) detected_r.push_back(f);
  }
  const metrics::MatchScore score =
      metrics::match_fiducials(truth_r, detected_r, 12);
  EXPECT_GE(score.sensitivity(), 0.85);
  EXPECT_GE(score.ppv(), 0.85);
}

TEST(DelineationApp, FindsAllFiveWaveTypes) {
  DelineationApp app;
  auto sys = make_clean_system();
  const metrics::FiducialList detected = app.delineate(sys, test_record());
  std::array<int, 5> counts{};
  for (const auto& f : detected) {
    ++counts[static_cast<std::size_t>(f.type)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

/// Position in paper_app_names() / paper_emt_names(). A one-byte struct
/// with no printer: gtest prints it as a byte dump, which keeps the
/// CTest-discovered test names stable.
struct PaperIndex {
  std::uint8_t value;
};

class AppEmtMatrix
    : public ::testing::TestWithParam<std::tuple<PaperIndex, PaperIndex>> {};

TEST_P(AppEmtMatrix, CleanRunIdenticalUnderEveryEmt) {
  // Without faults, every EMT must be transparent: the output under DREAM
  // or ECC must match the unprotected output bit for bit.
  const auto [app_index, emt_index] = GetParam();
  const auto app = make_app(paper_app_names().at(app_index.value));

  auto baseline_sys = make_clean_system();
  const auto baseline = app->run(baseline_sys, test_record());

  const auto emt =
      core::make_emt(core::paper_emt_names().at(emt_index.value));
  core::MemorySystem sys(*emt);
  const auto out = app->run(sys, test_record());
  EXPECT_EQ(out, baseline);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AppEmtMatrix,
    ::testing::Combine(
        ::testing::Values(PaperIndex{0}, PaperIndex{1}, PaperIndex{2},
                          PaperIndex{3}, PaperIndex{4}),
        ::testing::Values(PaperIndex{0}, PaperIndex{1}, PaperIndex{2})));

}  // namespace
}  // namespace ulpdream::apps
