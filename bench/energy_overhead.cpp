// Reproduces Sec. VI-B: per-voltage system energy for each EMT and the
// protection-overhead percentages vs unprotected operation. Paper values:
// ECC SEC/DED ~ +55%, DREAM ~ +34% (a 21% reduction of the overhead).
// Energy does not depend on the random fault content in our model (access
// traces are fault-invariant), so few Monte-Carlo runs suffice. Exits 1
// when a shape check fails.

#include <iostream>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  campaign::CampaignSpec spec;
  spec.apps = apps::paper_app_names();
  spec.emts = core::paper_emt_names();
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = static_cast<std::size_t>(cli.get_int("runs", 2));
  spec = spec.normalized();

  const campaign::CampaignEngine engine =
      campaign::CampaignEngine::from_cli(cli);
  std::cerr << "[energy] sweeping " << spec.apps.size() << " apps...\n";
  const campaign::ResultStore store = engine.run(spec);

  double grand_none = 0.0;
  double grand_dream = 0.0;
  double grand_ecc = 0.0;

  for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
    const std::string& app = spec.apps[ai];
    const sim::SweepResult res = store.to_sweep_result(0, ai);

    util::Table table(std::string("Sec. VI-B - energy per run [uJ], app = ") +
                      app);
    table.set_header({"V", "none", "dream", "ecc_secded", "dream_ovh_%",
                      "ecc_ovh_%"});
    double sum_none = 0.0;
    double sum_dream = 0.0;
    double sum_ecc = 0.0;
    for (auto it = spec.voltages.rbegin(); it != spec.voltages.rend(); ++it) {
      const double v = *it;
      const double e_none =
          res.find("none", v)->energy_mean_j * 1e6;
      const double e_dream =
          res.find("dream", v)->energy_mean_j * 1e6;
      const double e_ecc =
          res.find("ecc_secded", v)->energy_mean_j * 1e6;
      sum_none += e_none;
      sum_dream += e_dream;
      sum_ecc += e_ecc;
      table.add_row({util::fmt(v, 2), util::fmt(e_none, 4),
                     util::fmt(e_dream, 4), util::fmt(e_ecc, 4),
                     util::fmt((e_dream / e_none - 1.0) * 100.0, 1),
                     util::fmt((e_ecc / e_none - 1.0) * 100.0, 1)});
    }
    table.add_row({"avg", util::fmt(sum_none / 9.0, 4),
                   util::fmt(sum_dream / 9.0, 4), util::fmt(sum_ecc / 9.0, 4),
                   util::fmt((sum_dream / sum_none - 1.0) * 100.0, 1),
                   util::fmt((sum_ecc / sum_none - 1.0) * 100.0, 1)});
    table.print(std::cout);
    std::cout << '\n';
    (void)table.write_csv(std::string("energy_") + app + ".csv");

    grand_none += sum_none;
    grand_dream += sum_dream;
    grand_ecc += sum_ecc;
  }

  const double dream_ovh = (grand_dream / grand_none - 1.0) * 100.0;
  const double ecc_ovh = (grand_ecc / grand_none - 1.0) * 100.0;
  util::Table headline("Sec. VI-B headline - average protection overhead");
  headline.set_header({"emt", "overhead_%", "paper_%"});
  headline.add_row({"dream", util::fmt(dream_ovh, 1), "34"});
  headline.add_row({"ecc_secded", util::fmt(ecc_ovh, 1), "55"});
  headline.add_row({"delta (DREAM saves)", util::fmt(ecc_ovh - dream_ovh, 1),
                    "21"});
  headline.print(std::cout);

  std::cout << "\nShape checks:\n";
  bool all_pass = true;
  const auto check = [&all_pass](const char* label, bool pass) {
    std::cout << "  " << label << ": " << (pass ? "PASS" : "FAIL") << '\n';
    all_pass = all_pass && pass;
  };
  check("DREAM overhead < ECC overhead", dream_ovh < ecc_ovh);
  check("DREAM saves ~21 points of overhead (>= 10)",
        ecc_ovh - dream_ovh >= 10.0);
  return all_pass ? 0 : 1;
}
