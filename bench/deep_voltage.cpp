// Extension bench (paper conclusion: "For voltages < 0.55 V, EMTs for
// multiple errors correction must be used to guarantee a reliable medical
// output"): evaluates the DREAM+SEC/DED hybrid against the paper's three
// EMTs in the deep-voltage region 0.40-0.60 V, and shows that the
// heartbeat classifier's qualitative output survives deeper than waveform
// SNR suggests. Exits 1 when a shape check fails.

#include <iostream>

#include "ulpdream/apps/classifier_app.hpp"
#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = core::emt_names();
  // Deep region, extended below the paper's 0.5 V floor.
  spec.voltages = {0.40, 0.45, 0.50, 0.55, 0.60};
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = static_cast<std::size_t>(cli.get_int("runs", 60));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 4242));

  const ecg::Record record = ecg::make_default_record(7);

  const campaign::CampaignEngine engine =
      campaign::CampaignEngine::from_cli(cli);
  std::cerr << "[deep] sweeping DWT at deep voltages, " << spec.repetitions
            << " runs/point on up to " << engine.threads() << " threads...\n";
  const sim::SweepResult res = engine.run(spec).to_sweep_result(0, 0);

  // Header follows the sweep's EMT list — emt_names() is open-ended, so
  // any technique registered into this binary gets its own column.
  std::vector<std::string> energy_header = {"V"};
  for (const std::string& emt : spec.emts) energy_header.push_back(emt);

  util::Table table(
      "Deep-voltage extension - DWT mean SNR [dB] per EMT (hybrid = "
      "DREAM+SEC/DED, 11 extra bits)");
  table.set_header(energy_header);
  for (auto it = spec.voltages.rbegin(); it != spec.voltages.rend(); ++it) {
    std::vector<std::string> row = {util::fmt(*it, 2)};
    for (const std::string& emt : spec.emts) {
      const sim::SweepPoint* p = res.find(emt, *it);
      row.push_back(p ? util::fmt(p->snr_mean_db, 1) : "-");
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << '\n';
  (void)table.write_csv("deep_voltage.csv");

  util::Table energy("Deep-voltage energy per run [uJ]");
  energy.set_header(energy_header);
  for (auto it = spec.voltages.rbegin(); it != spec.voltages.rend(); ++it) {
    std::vector<std::string> row = {util::fmt(*it, 2)};
    for (const std::string& emt : spec.emts) {
      const sim::SweepPoint* p = res.find(emt, *it);
      row.push_back(p ? util::fmt(p->energy_mean_j * 1e6, 4) : "-");
    }
    energy.add_row(row);
  }
  energy.print(std::cout);

  // Qualitative-output robustness: classifier class-count agreement under
  // DREAM at 0.55 V vs the waveform SNR at the same point.
  const apps::ClassifierApp classifier;
  auto agreement = [&](double v, const std::string& emt_name) {
    const auto ber = mem::make_ber_model(spec.ber_model);
    util::Xoshiro256 rng(spec.seed + 1);
    const auto none = core::make_emt("none");
    core::MemorySystem clean_sys(*none);
    const auto clean = classifier.run(clean_sys, record);
    const auto emt = core::make_emt(emt_name);
    std::size_t agree = 0;
    for (std::size_t t = 0; t < spec.repetitions; ++t) {
      const mem::FaultMap map = mem::FaultMap::random(
          mem::MemoryGeometry::kWords16, 22, ber->ber(v), rng);
      core::MemorySystem sys(*emt);
      sys.attach_faults(&map);
      const auto noisy = classifier.run(sys, record);
      if (noisy[0] == clean[0] && noisy[1] == clean[1]) ++agree;
    }
    return static_cast<double>(agree) / static_cast<double>(spec.repetitions);
  };

  util::Table qual("Qualitative output - classifier class-count agreement");
  qual.set_header({"V", "dream_agreement_%", "dream_secded_agreement_%"});
  for (const double v : {0.60, 0.55, 0.50}) {
    qual.add_row({util::fmt(v, 2),
                  util::fmt(agreement(v, "dream") * 100.0, 0),
                  util::fmt(
                      agreement(v, "dream_secded") * 100.0, 0)});
  }
  qual.print(std::cout);

  const double hybrid_050 =
      res.find("dream_secded", 0.50)->snr_mean_db;
  const double dream_050 = res.find("dream", 0.50)->snr_mean_db;
  const double ecc_050 =
      res.find("ecc_secded", 0.50)->snr_mean_db;
  std::cout << "\nShape checks:\n";
  bool all_pass = true;
  const auto check = [&all_pass](const char* label, bool pass) {
    std::cout << "  " << label << ": " << (pass ? "PASS" : "FAIL") << '\n';
    all_pass = all_pass && pass;
  };
  check("hybrid beats DREAM at 0.50 V", hybrid_050 > dream_050);
  check("hybrid beats ECC at 0.50 V", hybrid_050 > ecc_050);
  return all_pass ? 0 : 1;
}
