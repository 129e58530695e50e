#pragma once
// Internal (non-installed) aggregation fold shared by the in-memory
// ResultStore::aggregate and the out-of-core ColumnarStore::aggregate.
// Both walk samples in the canonical order — item index major, then app,
// then EMT — and push them through this one folder, so the two paths are
// bit-identical by construction: same accumulator types, same operation
// order, same row emission. Any change to the statistics happens here
// once and both formats (and ResultStore::to_sweep_result, which reads
// the in-memory rows) inherit it.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/stats.hpp"

namespace ulpdream::campaign::detail {

/// Per-group fold state.
struct GroupAccum {
  util::RunningStats snr;
  util::QuantileSketch snr_quantiles;
  util::RunningStats energy;
  energy::EnergyBreakdown energy_sum{};
  util::RunningStats corrected;
  util::RunningStats detected;

  void add(const Sample& s) {
    snr.add(s.snr_db);
    snr_quantiles.add(s.snr_db);
    energy.add(s.energy.total_j());
    energy_sum.data_dynamic_j += s.energy.data_dynamic_j;
    energy_sum.side_dynamic_j += s.energy.side_dynamic_j;
    energy_sum.codec_j += s.energy.codec_j;
    energy_sum.data_leak_j += s.energy.data_leak_j;
    energy_sum.side_leak_j += s.energy.side_leak_j;
    corrected.add(s.corrected_words);
    detected.add(s.detected_uncorrectable);
  }
};

/// Grouped accumulator grid over a (normalized) spec. Feed every sample
/// in canonical order through add(), then emit rows() — the memory cost
/// is one GroupAccum per output row, never a function of the store size,
/// which is what makes the streaming aggregation path out-of-core.
class AggregateFolder {
 public:
  AggregateFolder(const CampaignSpec& spec, const GroupBy& group)
      : spec_(spec),
        group_(group),
        nv_(spec.voltages.size()),
        reps_(spec.repetitions),
        gr_(group.record ? spec.records.size() : 1),
        ga_(group.app ? spec.apps.size() : 1),
        ge_(group.emt ? spec.emts.size() : 1),
        gv_(group.voltage ? nv_ : 1),
        accums_(gr_ * ga_ * ge_ * gv_) {}

  /// Folds the sample of (item, app ai, EMT ei) into its group.
  void add(std::size_t item, std::size_t ai, std::size_t ei,
           const Sample& s) {
    const std::size_t ri = item / (nv_ * reps_);
    const std::size_t vi = (item / reps_) % nv_;
    const std::size_t gi =
        ((((group_.record ? ri : 0) * ga_ + (group_.app ? ai : 0)) * ge_ +
          (group_.emt ? ei : 0)) *
         gv_) +
        (group_.voltage ? vi : 0);
    accums_[gi].add(s);
  }

  /// Emits the aggregate rows in canonical group order.
  [[nodiscard]] std::vector<AggregateRow> rows() const {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    std::vector<AggregateRow> out;
    out.reserve(accums_.size());
    for (std::size_t ri = 0; ri < gr_; ++ri) {
      for (std::size_t ai = 0; ai < ga_; ++ai) {
        for (std::size_t ei = 0; ei < ge_; ++ei) {
          for (std::size_t vi = 0; vi < gv_; ++vi) {
            const GroupAccum& a =
                accums_[((ri * ga_ + ai) * ge_ + ei) * gv_ + vi];
            AggregateRow row;
            if (group_.record) row.record = spec_.records[ri].label();
            if (group_.app) row.app = spec_.apps[ai];
            if (group_.emt) row.emt = spec_.emts[ei];
            row.voltage = group_.voltage ? spec_.voltages[vi] : kNan;
            row.n = a.snr.count();
            row.snr_mean_db = a.snr.mean();
            row.snr_stddev_db = a.snr.stddev();
            row.snr_min_db = a.snr.min();
            row.snr_max_db = a.snr.max();
            row.snr_p10_db = a.snr_quantiles.quantile(0.10);
            row.energy_mean_j = a.energy.mean();
            const double n = static_cast<double>(a.snr.count());
            row.data_dynamic_j = a.energy_sum.data_dynamic_j / n;
            row.side_dynamic_j = a.energy_sum.side_dynamic_j / n;
            row.codec_j = a.energy_sum.codec_j / n;
            row.data_leak_j = a.energy_sum.data_leak_j / n;
            row.side_leak_j = a.energy_sum.side_leak_j / n;
            row.corrected_mean = a.corrected.mean();
            row.detected_mean = a.detected.mean();
            out.push_back(std::move(row));
          }
        }
      }
    }
    return out;
  }

 private:
  const CampaignSpec& spec_;
  GroupBy group_;
  std::size_t nv_;
  std::size_t reps_;
  std::size_t gr_;
  std::size_t ga_;
  std::size_t ge_;
  std::size_t gv_;
  std::vector<GroupAccum> accums_;
};

}  // namespace ulpdream::campaign::detail
