#pragma once
// Fig. 4 + Sec. VI-B result shape: one application's Monte-Carlo voltage
// sweep as per-(EMT, V) statistics — mean SNR with spread, mean energy
// breakdown, and codec correction statistics. Sweeps execute as campaign
// grids (campaign::CampaignSpec through campaign::CampaignEngine or
// Session), which draw `repetitions` fault maps per supply point and reuse
// each map across all EMTs and applications ("all the EMTs are tested
// reusing the same set of error locations/mappings", Sec. V);
// campaign::ResultStore::to_sweep_result slices the finished store into
// this shape, the input of the Sec. VI-C policy explorer.

#include <string>
#include <string_view>
#include <vector>

#include "ulpdream/energy/energy_model.hpp"

namespace ulpdream::sim {

/// The axes a SweepResult covers (the grid explore_policy walks).
struct SweepConfig {
  std::vector<double> voltages;
  std::vector<std::string> emts;  ///< registry names
};

struct SweepPoint {
  std::string app;  ///< registry names
  std::string emt;
  double voltage = 0.0;
  double ber = 0.0;
  double snr_mean_db = 0.0;
  double snr_stddev_db = 0.0;
  double snr_min_db = 0.0;
  /// 10th-percentile SNR across the Monte-Carlo runs: the "reliable
  /// medical output" statistic (90% of runs do at least this well).
  double snr_p10_db = 0.0;
  double energy_mean_j = 0.0;
  energy::EnergyBreakdown energy_mean{};
  double corrected_words_mean = 0.0;
  double detected_uncorrectable_mean = 0.0;
};

struct SweepResult {
  SweepConfig config;
  double max_snr_db = 0.0;  ///< per-app dashed line (clean fixed vs golden)
  std::vector<SweepPoint> points;

  [[nodiscard]] const SweepPoint* find(std::string_view emt, double v) const;
};

}  // namespace ulpdream::sim
