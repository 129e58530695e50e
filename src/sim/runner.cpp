#include "ulpdream/sim/runner.hpp"

#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/metrics/quality.hpp"

namespace ulpdream::sim {

ExperimentRunner::ExperimentRunner(energy::SystemEnergyModel energy_model)
    : energy_model_(energy_model) {}

const std::vector<double>& ExperimentRunner::reference(
    const apps::BioApp& app, const ecg::Record& record) {
  // Key by value-identity, not object address: apps are routinely created
  // and destroyed per experiment, and a recycled heap address must not hit
  // a stale cache entry.
  const std::string key = app.name() + "#" +
                          std::to_string(app.input_length()) + "#" +
                          std::to_string(app.footprint_words()) + "|" +
                          record.name + "#" +
                          std::to_string(record.samples.size());
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  std::vector<double> reference;
  if (auto ideal = app.ideal_output(record)) {
    reference = std::move(*ideal);
  } else {
    // Error-free fixed-point run as the reference.
    core::NoProtection none;
    core::MemorySystem system(none);
    reference = app.run(system, record);
  }
  return cache_.emplace(key, std::move(reference)).first->second;
}

RunResult ExperimentRunner::run_once(const apps::BioApp& app,
                                     const ecg::Record& record,
                                     const core::Emt& emt,
                                     const mem::FaultMap* faults, double v) {
  core::MemorySystem system(emt);
  system.attach_faults(faults);

  const std::vector<double> output = app.run(system, record);
  const std::vector<double>& ref = reference(app, record);

  RunResult result;
  result.snr_db = metrics::snr_db(ref, output);
  result.counters = system.counters();
  result.data_accesses = system.data().stats().total();
  if (const auto* safe = system.safe()) {
    result.side_accesses = safe->stats().total();
  }
  result.cycles = 2 * result.data_accesses;
  result.energy = energy_model_.compute(
      emt, v, system.data().stats(),
      system.safe() ? &system.safe()->stats() : nullptr,
      system.data().words(), result.cycles);
  return result;
}

RunResult ExperimentRunner::run_once(const apps::BioApp& app,
                                     const ecg::Record& record,
                                     const std::string& emt_name,
                                     const mem::FaultMap* faults, double v) {
  const auto emt = core::make_emt(emt_name);
  return run_once(app, record, *emt, faults, v);
}

double ExperimentRunner::max_snr_db(const apps::BioApp& app,
                                    const ecg::Record& record) {
  const core::NoProtection none;
  const RunResult clean = run_once(app, record, none, /*faults=*/nullptr,
                                   mem::VoltageWindow::kNominal);
  return clean.snr_db;
}

}  // namespace ulpdream::sim
