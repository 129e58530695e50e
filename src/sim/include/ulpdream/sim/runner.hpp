#pragma once
// ExperimentRunner: executes one application run on the simulated device —
// EMT-encoded buffers in the faulty memory, SNR against the application's
// golden reference, access-trace energy integration. This is the
// reproduction of the paper's instrumented VirtualSOC flow (Sec. V).
//
// Cycle model: the node issues one memory transaction per cycle plus one
// compute cycle per access (load-op-store style inner loops), i.e.
// cycles = 2 * data-memory accesses. The side memory is read in parallel
// with the data array (as in the DREAM hardware of Fig. 3) and adds no
// cycles. Leakage is integrated over this run time at 200 MHz.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"

namespace ulpdream::sim {

struct RunResult {
  double snr_db = 0.0;
  energy::EnergyBreakdown energy{};
  core::CodecCounters counters{};
  std::uint64_t data_accesses = 0;
  std::uint64_t side_accesses = 0;
  std::uint64_t cycles = 0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(
      energy::SystemEnergyModel energy_model = energy::SystemEnergyModel());

  /// The SNR reference for (app, record): the app's double-precision
  /// golden model when it has one, otherwise the error-free fixed-point
  /// run. Cached per (app name, record name).
  [[nodiscard]] const std::vector<double>& reference(
      const apps::BioApp& app, const ecg::Record& record);

  /// One run of `app` under `emt` with `faults` attached (may be null for
  /// an error-free run). `v` is the data-array supply for the energy
  /// model; fault content must already be consistent with it.
  [[nodiscard]] RunResult run_once(const apps::BioApp& app,
                                   const ecg::Record& record,
                                   const core::Emt& emt,
                                   const mem::FaultMap* faults, double v);

  /// Convenience: resolve the EMT by registry name and run.
  [[nodiscard]] RunResult run_once(const apps::BioApp& app,
                                   const ecg::Record& record,
                                   const std::string& emt_name,
                                   const mem::FaultMap* faults, double v);

  /// Maximum SNR ("dashed line" of Fig. 4): error-free fixed-point run
  /// against the golden reference.
  [[nodiscard]] double max_snr_db(const apps::BioApp& app,
                                  const ecg::Record& record);

  [[nodiscard]] const energy::SystemEnergyModel& energy_model() const {
    return energy_model_;
  }

 private:
  energy::SystemEnergyModel energy_model_;
  // Keyed on (app identity, record identity); node-based map so returned
  // references stay valid across inserts. Campaigns look the reference up
  // once per run over grids of thousands of cells — a linear scan here
  // made large campaigns quadratic in distinct (app, record) pairs.
  std::unordered_map<std::string, std::vector<double>> cache_;
};

}  // namespace ulpdream::sim
