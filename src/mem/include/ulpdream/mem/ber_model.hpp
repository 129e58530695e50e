#pragma once
// Bit-Error-Rate vs supply-voltage models for the 32 nm low-power SRAM the
// paper profiles (its ref [2], Ganapathy et al.). The paper only consumes
// the monotone BER(V) mapping; we provide two standard parameterizations —
// a log-linear fit (default, calibrated to the published voltage window
// 0.5-0.9 V) and a probit/erfc cell-failure model — selectable per
// experiment for the D2 ablation in DESIGN.md.

#include <memory>
#include <string>
#include <vector>

#include "ulpdream/util/registry.hpp"

namespace ulpdream::mem {

/// Operating window used throughout the paper's evaluation.
struct VoltageWindow {
  static constexpr double kNominal = 0.90;  ///< volts, error-free operation
  static constexpr double kMin = 0.50;      ///< deepest scaling evaluated
  static constexpr double kStep = 0.05;     ///< sweep granularity (Fig. 4)
};

/// Abstract BER(V) model. Implementations must be monotone non-increasing
/// in V over [kMin, kNominal].
class BerModel {
 public:
  virtual ~BerModel() = default;
  /// Probability that a given memory cell is a permanent (stuck-at) fault
  /// at supply voltage `v` (volts).
  [[nodiscard]] virtual double ber(double v) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// log10(BER) linear in V. Defaults: 5e-8 at 0.9 V, 2e-2 at 0.5 V.
/// Calibration rationale (matching the Fig. 4 shape on a 32 kB array =
/// ~3.6e5 cells): ~0.02 expected faults at 0.9 V (clean), a fraction of a
/// fault at 0.85 V (the unprotected curve starts to dip), tens of faults
/// by 0.65 V (protection pays off) and multi-bit words below 0.55 V
/// (SEC/DED collapses).
class LogLinearBerModel final : public BerModel {
 public:
  LogLinearBerModel(double ber_nominal = 5e-8, double ber_min = 2e-2,
                    double v_nominal = VoltageWindow::kNominal,
                    double v_min = VoltageWindow::kMin);

  [[nodiscard]] double ber(double v) const override;
  [[nodiscard]] std::string name() const override { return "log-linear"; }

 private:
  double v_min_;
  double log_ber_min_;
  double slope_;  ///< d log10(BER) / dV (negative)
};

/// Probit model: a cell fails when its threshold-voltage deviation exceeds
/// the static noise margin at the given supply; Gaussian Vth variation
/// gives BER = 0.5 * erfc((V - v50) / (sqrt(2) * sigma)).
class ProbitBerModel final : public BerModel {
 public:
  explicit ProbitBerModel(double v50 = 0.38, double sigma = 0.08);

  [[nodiscard]] double ber(double v) const override;
  [[nodiscard]] std::string name() const override { return "probit"; }

 private:
  double v50_;
  double sigma_;
};

/// The process-wide BER-model registry. Built-ins ("log-linear",
/// "probit") register on first access; register_factory() adds user
/// models, selectable by name in campaign specs and sweep configs.
[[nodiscard]] util::Registry<BerModel>& ber_model_registry();

/// Instantiates the model registered under `name`. Throws
/// std::invalid_argument listing the valid names on an unknown name.
[[nodiscard]] std::unique_ptr<BerModel> make_ber_model(
    const std::string& name);

/// All registered model names, built-ins first.
[[nodiscard]] std::vector<std::string> ber_model_names();

}  // namespace ulpdream::mem
