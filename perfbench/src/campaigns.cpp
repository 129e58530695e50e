#include "campaigns.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/util/rng.hpp"

namespace perfbench {

namespace campaign = ulpdream::campaign;

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

const std::vector<std::string>& layer_apps() {
  static const std::vector<std::string> apps = {
      "cs", "matrix_filter", "morph_filter", "delineation", "dwt"};
  return apps;
}

const std::vector<std::string>& layer_emts() {
  static const std::vector<std::string> emts = {"none", "dream", "ecc_secded",
                                                "dream_secded"};
  return emts;
}

campaign::CampaignSpec traced_spec(const campaign::CampaignSpec& spec) {
  campaign::CampaignSpec out = spec;
  for (std::string& app : out.apps) app = trace::traced(app);
  for (std::string& emt : out.emts) emt = trace::traced(emt);
  return out;
}

namespace {

std::atomic<std::uint64_t> g_campaign_seq{0};

/// Per-job median of `values` (value k belongs to job k % jobs), summed.
double sum_of_job_medians(const std::vector<double>& values,
                          std::size_t jobs) {
  double total = 0.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    std::vector<double> mine;
    for (std::size_t k = j; k < values.size(); k += jobs) {
      mine.push_back(values[k]);
    }
    total += median(mine);
  }
  return total;
}

/// Map width the session draws fault maps at (see Session::submit).
int map_bits(const campaign::CampaignSpec& spec) {
  int bits = ulpdream::core::EccSecDed::kPayloadBits;
  for (const std::string& name : spec.emts) {
    bits = std::max(bits, ulpdream::core::make_emt(name)->payload_bits());
  }
  return bits;
}

/// Mean µs of mem::FaultMap::random over every item of `specs`, each with
/// the item's seed, BER(V) and the campaign's map width. Each item is
/// drawn three times and its fastest draw counts, so first-touch page
/// faults of the replay do not inflate it.
double fault_map_draw_us(const std::vector<campaign::CampaignSpec>& specs) {
  std::vector<double> us;
  for (const campaign::CampaignSpec& spec : specs) {
    const auto ber = ulpdream::mem::make_ber_model(spec.ber_model);
    const int bits = map_bits(spec);
    for (const campaign::WorkItem& item : campaign::expand(spec)) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        ulpdream::util::Xoshiro256 rng(item.seed);
        const double t0 = now_s();
        const auto map = ulpdream::mem::FaultMap::random(
            ulpdream::mem::MemoryGeometry::kWords16, bits,
            ber->ber(spec.voltages[item.voltage_index]), rng);
        const double t = (now_s() - t0) * 1e6;
        best = rep == 0 ? t : std::min(best, t);
      }
      us.push_back(best);
    }
  }
  return mean(us);
}

/// Median ms to generate one spec's records, as Session::submit does.
double ecg_generate_ms(const std::vector<campaign::CampaignSpec>& specs) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const campaign::CampaignSpec& spec : specs) {
      const double t0 = now_s();
      for (const campaign::RecordAxis& axis : spec.records) {
        ulpdream::ecg::GeneratorConfig gen;
        gen.fs_hz = spec.fs_hz;
        gen.duration_s = spec.duration_s;
        gen.pathology = axis.pathology;
        gen.seed = axis.seed;
        gen.noise.baseline_wander_mv *= axis.noise_scale;
        gen.noise.powerline_mv *= axis.noise_scale;
        gen.noise.emg_std_mv *= axis.noise_scale;
        const auto record = ulpdream::ecg::generate_record(gen);
      }
      ms.push_back((now_s() - t0) * 1e3);
    }
  }
  return median(ms);
}

/// ns per word of MemorySystem::load_block on the raw (no-codec) path, at
/// the decode windows the apps really use, over a fault map at the
/// grid's lowest voltage.
double raw_decode_ns_per_word(const std::vector<campaign::CampaignSpec>& specs,
                              const std::vector<double>& windows) {
  if (windows.empty() || specs.empty()) return 0.0;
  const campaign::CampaignSpec& spec = specs.front();
  const auto ber = ulpdream::mem::make_ber_model(spec.ber_model);
  ulpdream::util::Xoshiro256 rng(spec.seed);
  const auto map = ulpdream::mem::FaultMap::random(
      ulpdream::mem::MemoryGeometry::kWords16, map_bits(spec),
      ber->ber(*std::min_element(spec.voltages.begin(), spec.voltages.end())),
      rng);
  const ulpdream::core::NoProtection none;
  ulpdream::core::MemorySystem system(none);
  system.attach_faults(&map);
  std::vector<ulpdream::fixed::Sample> dst(4096);
  const std::size_t words = system.data().words();
  std::uint64_t moved = 0;
  const double t0 = now_s();
  for (int pass = 0; pass < 8; ++pass) {
    for (const double w : windows) {
      const auto n = static_cast<std::size_t>(w);
      if (n == 0 || n > dst.size()) continue;
      for (std::size_t addr = 0; addr + n <= words; addr += n) {
        system.load_block(addr, std::span(dst.data(), n));
        moved += n;
      }
    }
  }
  const double ns = (now_s() - t0) * 1e9;
  return moved == 0 ? 0.0 : ns / static_cast<double>(moved);
}

}  // namespace

CampaignRun run_campaigns(const std::vector<CampaignJob>& jobs,
                          unsigned threads, double seconds, bool traced) {
  CampaignRun run;
  campaign::Session session(ulpdream::energy::SystemEnergyModel(), threads);
  const double start = now_s();
  std::size_t k = 0;
  while (k < jobs.size() || now_s() - start < seconds) {
    const CampaignJob& job = jobs[k % jobs.size()];
    ++k;
    const std::uint64_t seq = g_campaign_seq.fetch_add(1);
    campaign::SubmitOptions options;
    options.resume_from = job.resume_from;
    // Runs on the worker right after each item, serialized by the job
    // lock: an item's wall time is the gap since the same worker's
    // previous item of this campaign (a worker's first item is skipped —
    // it includes the wake-up).
    options.on_item = [&run, seq, traced](const campaign::CampaignHandle&,
                                          const campaign::WorkItem& item,
                                          std::span<const campaign::Sample>) {
      thread_local std::uint64_t last_seq = ~std::uint64_t{0};
      thread_local double last_s = 0.0;
      const double t = now_s();
      if (last_seq == seq) run.item_ms.push_back((t - last_s) * 1e3);
      last_seq = seq;
      last_s = t;
      if (traced) trace::end_item((seq << 32) | item.index);
    };
    const double t0 = now_s();
    const campaign::CampaignHandle handle =
        session.submit(traced ? traced_spec(job.spec) : job.spec, options);
    const double t1 = now_s();
    const campaign::ResultStore store = handle.take();
    const double t2 = now_s();
    const campaign::Progress progress = handle.progress();
    const std::size_t executed = progress.items_done - progress.items_resumed;
    run.submit_s.push_back(t1 - t0);
    run.wait_s.push_back(t2 - t1);
    run.latency_s.push_back(t2 - t0);
    run.items_per_s.push_back(static_cast<double>(executed) / (t2 - t1));
    run.items += executed;
    run.campaigns += 1;
    if (!job.check(store)) run.failed_items += executed;
  }
  run.telemetry = session.telemetry();
  return run;
}

void add_item_layers(RunResult& out, const LayerRuns& runs) {
  const CampaignRun& dark = *runs.dark;
  const CampaignRun& traced = *runs.traced;
  const trace::Breakdown& spans = runs.spans;
  const double items =
      static_cast<double>(std::max<std::size_t>(1, traced.items));
  const double counted =
      static_cast<double>(std::max<std::size_t>(1, runs.counting->items));

  const double busy_ns =
      static_cast<double>(counter(traced.telemetry, "workpool.busy_ns"));
  const double run_ns =
      static_cast<double>(hist_sum_prefix(traced.telemetry, "session.run_ns."));
  const double draw_us = fault_map_draw_us(runs.specs);
  const double app_ns = static_cast<double>(spans.total_app_ns());

  out.add("campaign.submit_ms", median(dark.submit_s) * 1e3, "ms");
  out.add("campaign.item_busy_us", busy_ns / items / 1e3, "us");
  out.add("campaign.item_overhead_us",
          (busy_ns - run_ns) / items / 1e3 - draw_us, "us");
  out.add("ecg.generate_ms", ecg_generate_ms(runs.specs), "ms");
  out.add("mem.fault_map_draw_us", draw_us, "us");
  out.add("mem.fault_patch_words_per_item",
          static_cast<double>(
              counter(runs.counting->telemetry, "mem.fault_patch_words")) /
              counted,
          "count");

  for (const std::string& app : layer_apps()) {
    const auto total = spans.app_ns.find(app);
    const auto codec = spans.app_codec_ns.find(app);
    const double self =
        (total == spans.app_ns.end() ? 0.0 : double(total->second)) -
        (codec == spans.app_codec_ns.end() ? 0.0 : double(codec->second));
    out.add("apps." + app + ".self_us", self / items / 1e3, "us");
  }

  std::vector<double> all_windows;
  for (const auto& [app, windows] : spans.decode_windows) {
    all_windows.push_back(spans.window_p50(app));
  }
  for (const std::string& emt : layer_emts()) {
    double ns_per_word = 0.0;
    const bool in_spec = std::any_of(
        runs.specs.begin(), runs.specs.end(), [&](const auto& spec) {
          return std::find(spec.emts.begin(), spec.emts.end(), emt) !=
                 spec.emts.end();
        });
    if (in_spec && ulpdream::core::make_emt(emt)->raw_data_path()) {
      ns_per_word = raw_decode_ns_per_word(runs.specs, all_windows);
    } else if (const auto words = spans.decode_words.find(emt);
               words != spans.decode_words.end() && words->second > 0) {
      ns_per_word = double(spans.decode_ns.at(emt)) / double(words->second);
    }
    out.add("core." + emt + ".decode_ns_per_word", ns_per_word, "ns");
  }
  out.add("core.encode_ns_per_word",
          spans.encode_words == 0
              ? 0.0
              : double(spans.encode_ns) / double(spans.encode_words),
          "ns");
  out.add("core.self_us", double(spans.total_codec_ns()) / items / 1e3, "us");
  for (const std::string& app : layer_apps()) {
    out.add("core.decode_words_per_call." + app, spans.window_p50(app),
            "count");
  }
  out.add("core.words_per_item",
          double(codec_words(runs.counting->telemetry)) / counted, "count");

  out.add("sim.run_overhead_us", (run_ns - app_ns) / items / 1e3, "us");
  const double dark_busy =
      static_cast<double>(counter(dark.telemetry, "workpool.busy_ns"));
  const double dark_idle =
      static_cast<double>(counter(dark.telemetry, "workpool.idle_ns"));
  const double dark_words = static_cast<double>(codec_words(dark.telemetry));
  out.add("sim.host_ns_per_word",
          dark_words == 0 ? 0.0 : dark_busy / dark_words, "ns");
  out.add("util.workpool.busy_frac", dark_busy / (dark_busy + dark_idle),
          "ratio");
  const double claims =
      static_cast<double>(hist_count(dark.telemetry, "workpool.claim_wait_ns"));
  out.add("util.workpool.claim_wait_us",
          claims == 0 ? 0.0
                      : double(hist_sum(dark.telemetry,
                                        "workpool.claim_wait_ns")) /
                            claims / 1e3,
          "us");
  const std::size_t jobs = runs.specs.size();
  const double dark_wait = sum_of_job_medians(dark.wait_s, jobs);
  out.add("util.telemetry.metered_ratio",
          sum_of_job_medians(runs.metered->wait_s, jobs) / dark_wait, "ratio");
  out.add("tracing_overhead",
          sum_of_job_medians(traced.wait_s, jobs) / dark_wait, "ratio");
}

}  // namespace perfbench
