// paper_grid and codec_grid: batch campaigns on a campaign::Session.
//
// Set-up computes the grid once on a separate Session (1 worker, so the
// thread-count independence of stores is exercised on paper_grid) and
// records its store digest. Every timed campaign repeats the same grid,
// and its store must hash to that digest; for the seeds in golden() the
// digest must also equal the committed one, which pins the simulator's
// output across versions.

#include <map>
#include <string>
#include <utility>

#include "campaigns.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace campaign = ulpdream::campaign;

namespace {

struct Grid {
  std::string name;
  campaign::CampaignSpec spec;  ///< normalized, built-in component names
  unsigned threads = 1;
};

Grid paper_grid(const Options& opt) {
  Grid g{"paper_grid", {}, nproc()};
  campaign::CampaignSpec& s = g.spec;
  s.apps = ulpdream::apps::paper_app_names();
  s.emts = ulpdream::core::paper_emt_names();
  s.voltages = campaign::CampaignSpec::voltage_range(0.50, 0.90, 0.05);
  s.records = {campaign::RecordAxis{ulpdream::ecg::Pathology::kNormalSinus,
                                    1.0, derive_seed(opt.seed, 1) % 100000}};
  s.repetitions = opt.tiny ? 1 : 4;
  s.seed = derive_seed(opt.seed, 2);
  g.spec = s.normalized();
  return g;
}

Grid codec_grid(const Options& opt) {
  Grid g{"codec_grid", {}, 1};
  campaign::CampaignSpec& s = g.spec;
  s.apps = {"dwt", "matrix_filter", "morph_filter", "delineation"};
  s.emts = {"none", "dream", "ecc_secded", "dream_secded"};
  s.voltages = campaign::CampaignSpec::voltage_range(0.50, 0.90, 0.05);
  s.records = {
      campaign::RecordAxis{ulpdream::ecg::Pathology::kNormalSinus, 1.0,
                           derive_seed(opt.seed, 3) % 100000},
      campaign::RecordAxis{ulpdream::ecg::Pathology::kPvcBigeminy, 1.0,
                           derive_seed(opt.seed, 4) % 100000}};
  s.repetitions = 1;
  s.seed = derive_seed(opt.seed, 5);
  g.spec = s.normalized();
  return g;
}

/// Committed store digests (full-size grids), (workload, seed) -> FNV-1a
/// of the text store.
const std::map<std::pair<std::string, std::uint64_t>, std::string>& golden() {
  static const std::map<std::pair<std::string, std::uint64_t>, std::string>
      table = {
      {{"paper_grid", 1}, "6cf7aab16c593119"},
      {{"paper_grid", 2}, "d07352439eaf9878"},
      {{"paper_grid", 3}, "8007e336c446cd54"},
      {{"paper_grid", 4}, "1249b6074b14adc2"},
      {{"paper_grid", 5}, "97933374d2050ec1"},
      {{"paper_grid", 6}, "c2bacb03f036771a"},
      {{"paper_grid", 7}, "94f7aba94cd52ed0"},
      {{"paper_grid", 8}, "d22c3ce7498f3c93"},
      {{"paper_grid", 9}, "4a57e386b78edc66"},
      {{"paper_grid", 10}, "bcdbbcae615e9e8d"},
      {{"codec_grid", 1}, "34b432f75349ebc2"},
      {{"codec_grid", 2}, "880ecce517946f59"},
      {{"codec_grid", 3}, "7a28a9ff4934ff4d"},
      {{"codec_grid", 4}, "1c94710c648afcdb"},
      {{"codec_grid", 5}, "a16cd7b3b1a609cc"},
      {{"codec_grid", 6}, "4a4c36ca6e5952a0"},
      {{"codec_grid", 7}, "7f8ae6e743c2d631"},
      {{"codec_grid", 8}, "f2ee76330a9ad64c"},
      {{"codec_grid", 9}, "6be76365f1156a75"},
      {{"codec_grid", 10}, "4ed98b0440751224"}};
  return table;
}

RunResult run_grid(const Options& opt, const Grid& grid) {
  RunResult out;
  const std::vector<campaign::CampaignSpec> specs = {grid.spec};

  // Reference: the grid once on a 1-worker Session. Its telemetry is the
  // deterministic counting run of the per-layer counts.
  campaign::ResultStore reference;
  const CampaignRun counting = run_campaigns(
      {CampaignJob{grid.spec, nullptr,
                   [&](const campaign::ResultStore& store) {
                     reference = store;
                     return true;
                   }}},
      1, 0.0, false);
  const std::uint64_t digest = store_digest(reference);
  out.notes.push_back("reference digest " + hex64(digest));
  if (const auto it = golden().find({grid.name, opt.seed});
      !opt.tiny && it != golden().end()) {
    const bool match = it->second == hex64(digest);
    out.notes.push_back(std::string("golden digest ") +
                        (match ? "matches" : "MISMATCH: " + it->second));
    out.check(match, grid.spec.item_count());
  }

  const bool corrupt = opt.corrupt == "store";
  const CampaignJob dark_job{grid.spec, nullptr,
                             [&](const campaign::ResultStore& store) {
                               return store_digest(store, corrupt) == digest;
                             }};
  const double dark_s = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const CampaignRun dark =
      run_campaigns({dark_job}, grid.threads, dark_s, false);
  out.check(true, dark.items - dark.failed_items);
  out.check(false, dark.failed_items);
  out.notes.push_back("dark: " + std::to_string(dark.campaigns) +
                      " campaigns, " + std::to_string(dark.items) + " items, " +
                      std::to_string(dark.item_ms.size()) + " item latencies");
  out.notes.push_back(
      "item latency p90 " + std::to_string(quantile(dark.item_ms, 0.90)) +
      " ms, p99 " + std::to_string(quantile(dark.item_ms, 0.99)) + " ms");

  if (!opt.trace) {
    // Every campaign of a run does the same work, so the spread of their
    // times is host contention, which comes and goes over seconds. The
    // rate 9 of 10 campaigns sustain repeats across runs far better than
    // the median does.
    out.add("items_per_s", quantile(dark.items_per_s, 0.10), "1/s");
    out.add("queries_per_s", 1.0 / quantile(dark.latency_s, 0.90), "1/s");
    out.add("op_p50_ms", quantile(dark.item_ms, 0.50), "ms");
    out.add("job_p50_ms", quantile(dark.latency_s, 0.50) * 1e3, "ms");
    out.add("job_p90_ms", quantile(dark.latency_s, 0.90) * 1e3, "ms");
    out.add("setup_s", median(dark.submit_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: same grid through the wrapper components; samples must
  // equal the reference cell for cell.
  trace::register_wrappers();
  trace::clear();
  const CampaignJob traced_job{grid.spec, nullptr,
                               [&](const campaign::ResultStore& store) {
                                 return same_samples(store, reference);
                               }};
  const CampaignRun traced =
      run_campaigns({traced_job}, grid.threads, 0.4 * opt.seconds, true);
  out.check(true, traced.items - traced.failed_items);
  out.check(false, traced.failed_items);
  out.notes.push_back(std::string("traced samples ") +
                      (traced.failed_items == 0 ? "equal" : "DIFFER") +
                      " to the dark store");
  LayerRuns runs;
  runs.spans = trace::collect();
  trace::dump(opt.work_dir + "/spans-" + grid.name + "-" +
              std::to_string(opt.seed) + ".tsv");

  // Metered: the program's own hot-path metrics on, as --metrics-out
  // sets them.
  ulpdream::util::telemetry::set_hot_timing(true);
  const CampaignRun metered =
      run_campaigns({dark_job}, grid.threads, 0.2 * opt.seconds, false);
  ulpdream::util::telemetry::set_hot_timing(false);
  out.check(true, metered.items - metered.failed_items);
  out.check(false, metered.failed_items);

  runs.counting = &counting;
  runs.dark = &dark;
  runs.traced = &traced;
  runs.metered = &metered;
  runs.specs = specs;
  add_item_layers(out, runs);
  add_serve_bypass(out);
  return out;
}

}  // namespace

RunResult run_paper_grid(const Options& opt) {
  return run_grid(opt, paper_grid(opt));
}

RunResult run_codec_grid(const Options& opt) {
  return run_grid(opt, codec_grid(opt));
}

}  // namespace perfbench
