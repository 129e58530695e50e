// query_mix: an in-process serve::Daemon on a Unix socket under the work
// directory, with its default options (pool size, cache budget, 250 ms
// progress cadence), driven by nproc closed-loop clients that each hold
// one connection. One client asks only misses, alternating gap-fill
// supersets (a warm spec plus one new record) and cold specs (a warm
// spec's axes under a fresh campaign seed); the others ask only exact hits
// on seeded draws from the specs warmed during set-up. Hits then make up
// over 99 % of the queries, and their rate is not capped by the misses'
// progress poll. No spec contains cs.
//
// Every answer must be byte-identical to a single-process columnar save of
// its spec, computed before set-up for every spec the run can ask for.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "campaigns.hpp"
#include "common.hpp"
#include "trace.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/util/rng.hpp"

namespace perfbench {

namespace campaign = ulpdream::campaign;
namespace serve = ulpdream::serve;
namespace fs = std::filesystem;

namespace {

/// A miss is held at least one progress period.
constexpr double kMinMissSeconds = 0.25;
/// Hit latencies kept per client: a uniform sample, so the benchmark's own
/// memory does not grow with the hit rate and skew peak_rss_mb.
constexpr std::size_t kHitSample = 50000;

struct Answer {
  campaign::CampaignSpec spec;
  campaign::ResultStore store;       ///< single-process reference
  std::vector<std::uint8_t> bytes;   ///< its columnar save
};

struct Mix {
  std::vector<Answer> warm;
  std::vector<Answer> gap;   ///< gap[j] extends warm[j % warm.size()]
  std::vector<Answer> cold;
};

const ulpdream::ecg::Pathology kPathologies[] = {
    ulpdream::ecg::Pathology::kNormalSinus,
    ulpdream::ecg::Pathology::kBradycardia,
    ulpdream::ecg::Pathology::kTachycardia,
    ulpdream::ecg::Pathology::kAtrialFib};

campaign::CampaignSpec warm_spec(std::uint64_t seed, std::size_t i) {
  static const std::vector<std::vector<std::string>> app_sets = {
      {"dwt", "morph_filter"}, {"dwt", "matrix_filter"},
      {"matrix_filter"},       {"morph_filter", "dwt"}};
  static const std::vector<std::vector<std::string>> emt_sets = {
      {"none", "dream"}, {"ecc_secded", "dream_secded"},
      {"dream", "dream_secded"}, {"none", "ecc_secded"}};
  campaign::CampaignSpec s;
  s.apps = app_sets[i % app_sets.size()];
  s.emts = emt_sets[(i / app_sets.size() + i) % emt_sets.size()];
  s.voltages = {0.55, 0.70, 0.85};
  s.records = {campaign::RecordAxis{kPathologies[i % 4], 1.0,
                                    derive_seed(seed, 10 + i) % 100000}};
  s.repetitions = 1;
  s.seed = derive_seed(seed, 20 + i);
  return s.normalized();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Builds every spec the run can ask for and its reference answer, on one
/// Session. Returns the counting run (its telemetry holds the per-layer
/// counts).
CampaignRun build_mix(const Options& opt, std::size_t warm_n,
                      std::size_t pool_n, const std::string& dir, Mix& mix) {
  for (std::size_t i = 0; i < warm_n; ++i) {
    mix.warm.push_back({warm_spec(opt.seed, i), {}, {}});
  }
  for (std::size_t j = 0; j < pool_n; ++j) {
    campaign::CampaignSpec gap = mix.warm[j % warm_n].spec;
    gap.records.push_back(
        campaign::RecordAxis{kPathologies[(j + 1) % 4], 1.0,
                             derive_seed(opt.seed, 1000 + j) % 100000});
    mix.gap.push_back({gap.normalized(), {}, {}});
    campaign::CampaignSpec cold = mix.warm[j % warm_n].spec;
    cold.seed = derive_seed(opt.seed, 5000 + j);
    mix.cold.push_back({cold.normalized(), {}, {}});
  }
  std::vector<Answer*> all;
  for (auto* group : {&mix.warm, &mix.gap, &mix.cold}) {
    for (Answer& a : *group) all.push_back(&a);
  }
  std::vector<CampaignJob> jobs;
  for (std::size_t k = 0; k < all.size(); ++k) {
    Answer* a = all[k];
    const std::string path = dir + "/ref-" + std::to_string(k) + ".ulpdcol";
    jobs.push_back({a->spec, nullptr,
                    [a, path](const campaign::ResultStore& store) {
                      a->store = store;
                      store.save_columnar(path);
                      a->bytes = slurp(path);
                      fs::remove(path);
                      return !a->bytes.empty();
                    }});
  }
  return run_campaigns(jobs, nproc(), 0.0, false);
}

/// `donor`'s items re-keyed onto `query` (a records-superset of the same
/// axes family, possibly with traced component names) — the resume store
/// the daemon's gap-fill would adopt.
campaign::ResultStore rekey(const campaign::ResultStore& donor,
                            const campaign::CampaignSpec& query) {
  campaign::ResultStore out(query);
  std::vector<campaign::Sample> samples;
  for (std::size_t slot = 0; slot < donor.slot_items().size(); ++slot) {
    if (!donor.slot_done(slot)) continue;
    const std::size_t index = donor.slot_items()[slot];
    const auto span = donor.slot_samples(slot);
    samples.assign(span.begin(), span.end());
    out.record_item(campaign::expand_range(query, index, index + 1).front(),
                    samples);
  }
  return out;
}

/// What one query is: an exact hit on warm[index], or a miss on
/// gap[index] / cold[index].
struct Pick {
  enum Kind { kHit, kGap, kCold } kind = kHit;
  const Answer* answer = nullptr;
};

/// The seeded query stream of one client: a miss with probability
/// `miss_share`, else an exact hit on a uniformly drawn warm spec. Misses
/// alternate gap-fill and cold through a counter shared by every client,
/// so each miss spec is asked exactly once.
class Picker {
 public:
  Picker(const Mix& mix, std::uint64_t seed, double miss_share,
         std::atomic<std::size_t>& misses)
      : mix_(mix), rng_(seed), miss_share_(miss_share), misses_(misses) {}

  Pick next() {
    const double u = rng_.uniform();
    const std::size_t r = rng_.bounded(mix_.warm.size());
    if (u < miss_share_) {
      const std::size_t m = misses_.fetch_add(1);
      const std::size_t j = m / 2;
      if (j < mix_.gap.size()) {
        return m % 2 == 0 ? Pick{Pick::kGap, &mix_.gap[j]}
                          : Pick{Pick::kCold, &mix_.cold[j]};
      }
    }
    return Pick{Pick::kHit, &mix_.warm[r]};
  }

 private:
  const Mix& mix_;
  ulpdream::util::Xoshiro256 rng_;
  double miss_share_;
  std::atomic<std::size_t>& misses_;
};

serve::CacheStatus expected_status(Pick::Kind kind) {
  switch (kind) {
    case Pick::kHit: return serve::CacheStatus::kHit;
    case Pick::kGap: return serve::CacheStatus::kGapFill;
    case Pick::kCold: return serve::CacheStatus::kCold;
  }
  return serve::CacheStatus::kCold;
}

/// A daemon serving on its own thread; stops and joins on destruction.
class RunningDaemon {
 public:
  RunningDaemon(const std::string& dir, std::size_t k) {
    serve::Daemon::Options options;
    options.listen = "unix:" + dir + "/d" + std::to_string(k) + ".sock";
    options.cache_dir = dir + "/cache" + std::to_string(k);
    daemon_ = std::make_unique<serve::Daemon>(options);
    server_ = std::thread([this] { (void)daemon_->run(); });
  }
  ~RunningDaemon() {
    daemon_->request_stop();
    server_.join();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  serve::Daemon& operator*() { return *daemon_; }
  serve::Daemon* operator->() { return daemon_.get(); }

 private:
  std::unique_ptr<serve::Daemon> daemon_;
  std::thread server_;
};

struct Tally {
  std::vector<double> hit_ms;  ///< reservoir sample of kHitSample
  std::uint64_t hits = 0;
  ulpdream::util::Xoshiro256 sampler;
  std::vector<double> miss_ms;
  std::uint64_t items = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  /// Queries and items answered in each whole second of the timed mix.
  std::vector<double> second_queries;
  std::vector<double> second_items;
};

/// One query over a serve::Client, timed, then checked.
void ask(serve::Client& client, const Pick& pick, bool corrupt, Tally& t) {
  std::optional<serve::Result> result;
  const double t0 = now_s();
  try {
    result = client.query(pick.answer->spec);
  } catch (const std::exception&) {
    // Counted as failed below.
  }
  const double ms = (now_s() - t0) * 1e3;
  if (pick.kind != Pick::kHit) {
    t.miss_ms.push_back(ms);
  } else if (t.hit_ms.size() < kHitSample) {
    t.hit_ms.push_back(ms);
  } else if (const std::uint64_t j = t.sampler.bounded(t.hits + 1);
             j < kHitSample) {
    t.hit_ms[j] = ms;
  }
  if (pick.kind == Pick::kHit) t.hits += 1;
  t.queries += 1;
  if (!result) {
    t.failed += 1;
    return;
  }
  if (corrupt && !result->store_bytes.empty()) result->store_bytes[0] ^= 1;
  t.items += result->items_total;
  if (result->status != expected_status(pick.kind) ||
      result->store_bytes != pick.answer->bytes) {
    t.failed += 1;
  }
}

/// Connects one client; a failed connection counts as a failed query.
std::optional<serve::Client> connect(serve::Daemon& daemon, Tally& t) {
  try {
    return serve::Client::connect(daemon.endpoint());
  } catch (const std::exception&) {
    t.queries += 1;
    t.failed += 1;
    return std::nullopt;
  }
}

/// Warms every warm spec through `clients` parallel connections.
Tally warm_up(serve::Daemon& daemon, const Mix& mix, unsigned clients,
              bool corrupt) {
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = connect(daemon, tallies[c]);
      for (std::size_t i = c; client && i < mix.warm.size(); i += clients) {
        ask(*client, Pick{Pick::kCold, &mix.warm[i]}, corrupt, tallies[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tally all;
  for (const Tally& t : tallies) {
    all.failed += t.failed;
    all.queries += t.queries;
  }
  return all;
}

/// The timed closed loop: `clients` connections, each asking its seeded
/// stream until the deadline — client 0 only misses, the rest only hits
/// (a lone client mixes 1 % misses in). Misses start at pool position
/// `first_miss`.
Tally run_mix(serve::Daemon& daemon, const Mix& mix, const Options& opt,
              unsigned clients, double seconds, std::size_t first_miss) {
  std::atomic<std::size_t> misses{first_miss};
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  const auto whole_seconds = static_cast<std::size_t>(seconds);
  const double start = now_s();
  const bool corrupt = opt.corrupt == "answer";
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& t = tallies[c];
      t.sampler = ulpdream::util::Xoshiro256(derive_seed(opt.seed, 200 + c));
      t.second_queries.assign(whole_seconds, 0.0);
      t.second_items.assign(whole_seconds, 0.0);
      const double miss_share = clients == 1 ? 0.01 : (c == 0 ? 1.0 : 0.0);
      Picker picker(mix, derive_seed(opt.seed, 100 + c), miss_share, misses);
      auto client = connect(daemon, t);
      while (client && now_s() - start < seconds) {
        const std::uint64_t items_before = t.items;
        ask(*client, picker.next(), corrupt, t);
        const auto second = static_cast<std::size_t>(now_s() - start);
        if (second < whole_seconds) {
          t.second_queries[second] += 1.0;
          t.second_items[second] += double(t.items - items_before);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tally all;
  all.second_queries.assign(whole_seconds, 0.0);
  all.second_items.assign(whole_seconds, 0.0);
  for (const Tally& t : tallies) {
    all.hit_ms.insert(all.hit_ms.end(), t.hit_ms.begin(), t.hit_ms.end());
    all.hits += t.hits;
    all.miss_ms.insert(all.miss_ms.end(), t.miss_ms.begin(), t.miss_ms.end());
    all.items += t.items;
    all.queries += t.queries;
    all.failed += t.failed;
    for (std::size_t i = 0; i < whole_seconds; ++i) {
      all.second_queries[i] += t.second_queries[i];
      all.second_items[i] += t.second_items[i];
    }
  }
  return all;
}

/// Deterministic counting pass on a freshly warmed daemon: one raw
/// protocol connection asks a fixed seeded stream (at least 20 queries and
/// two misses), timing serve::decode_result on every answered frame.
struct CountPass {
  std::size_t misses = 0;  ///< pool positions the pass consumed
  double hit_frac = 0.0;
  double reused_frac = 0.0;
  double hit_bytes = 0.0;
  std::vector<double> decode_us;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
};

CountPass count_pass(serve::Daemon& daemon, const Mix& mix,
                     const Options& opt) {
  CountPass out;
  std::atomic<std::size_t> misses{0};
  Picker picker(mix, derive_seed(opt.seed, 99), 0.05, misses);
  std::vector<double> hit_bytes;
  try {
    ulpdream::util::Socket socket =
        ulpdream::util::Socket::connect(daemon.endpoint());
    while (out.queries < 20 || misses.load() < 2) {
      const Pick pick = picker.next();
      out.queries += 1;
      out.failed += 1;  // until the answer checks out
      serve::send(socket, serve::Query{serve::kProtocolVersion,
                                       pick.answer->spec, true, false, {}});
      ulpdream::util::Frame frame;
      while (serve::receive(socket, frame) &&
             frame.type ==
                 static_cast<std::uint32_t>(serve::MsgType::kProgress)) {
      }
      if (frame.type != static_cast<std::uint32_t>(serve::MsgType::kResult)) {
        continue;
      }
      const double t0 = now_s();
      const serve::Result result = serve::decode_result(frame, socket.peer());
      out.decode_us.push_back((now_s() - t0) * 1e6);
      if (pick.kind == Pick::kHit) {
        hit_bytes.push_back(static_cast<double>(result.store_bytes.size()));
      }
      if (result.status == expected_status(pick.kind) &&
          result.store_bytes == pick.answer->bytes) {
        out.failed -= 1;
      }
    }
  } catch (const std::exception&) {
    // Counted: the query in flight stays failed.
  }
  const Snapshot snap = daemon.telemetry();
  out.hit_frac = double(counter(snap, "serve.cache.hits")) /
                 double(counter(snap, "serve.queries"));
  const double reused = double(counter(snap, "serve.gapfill.items_reused"));
  const double executed =
      double(counter(snap, "serve.gapfill.items_executed"));
  out.reused_frac = reused / (reused + executed);
  out.hit_bytes = mean(hit_bytes);
  out.misses = misses.load();
  return out;
}

double hist_mean(const Snapshot& s, const std::string& k) {
  const std::uint64_t n = hist_count(s, k);
  return n == 0 ? 0.0 : double(hist_sum(s, k)) / double(n);
}

}  // namespace

void add_serve_bypass(RunResult& out) {
  for (const char* name :
       {"util.wire.result_decode_us", "serve.hit_server_us",
        "serve.hit_transport_us"}) {
    out.add(name, 0.0, "us");
  }
  out.add("serve.hit_bytes", 0.0, "count");
  out.add("serve.miss_server_ms", 0.0, "ms");
  out.add("serve.miss_compute_ms", 0.0, "ms");
  out.add("serve.cache.hit_frac", 0.0, "ratio");
  out.add("serve.gapfill.reused_frac", 0.0, "ratio");
}

RunResult run_query_mix(const Options& opt) {
  RunResult out;
  const unsigned clients = nproc();
  const std::string dir =
      opt.work_dir + "/query_mix-" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  const double timed_s = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const std::size_t warm_n = opt.tiny ? 2 : 8;
  // Each miss holds its client for at least one progress period, so this
  // many gap-fill and cold specs cover every miss the timed mix and the
  // counting pass can ask.
  const auto pool_n =
      static_cast<std::size_t>((timed_s / kMinMissSeconds + 1.0) / 2.0 + 4.0);
  Mix mix;
  const CampaignRun counting = build_mix(opt, warm_n, pool_n, dir, mix);
  out.check(counting.failed_items == 0, 1);

  // Set-up, several times: daemon construction plus cache warm-up. The
  // last daemon serves the timed mix.
  const int setups = opt.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<RunningDaemon> daemon;
  CountPass counts;
  for (int k = 0; k < setups; ++k) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<RunningDaemon>(dir, k);
    const Tally warm = warm_up(**daemon, mix, clients, false);
    setup_s.push_back(now_s() - t0);
    out.check(true, warm.queries - warm.failed);
    out.check(false, warm.failed);
    if (opt.trace && k == 0) {
      counts = count_pass(**daemon, mix, opt);
      out.check(true, counts.queries - counts.failed);
      out.check(false, counts.failed);
    }
  }

  const Snapshot before = (*daemon)->telemetry();
  const Tally mixed =
      run_mix(**daemon, mix, opt, clients, timed_s, counts.misses);
  const Snapshot served = (*daemon)->telemetry().since(before);
  daemon.reset();
  out.check(true, mixed.queries - mixed.failed);
  out.check(false, mixed.failed);
  out.notes.push_back("mix: " + std::to_string(mixed.queries) + " queries, " +
                      std::to_string(mixed.hits) + " hits, " +
                      std::to_string(mixed.miss_ms.size()) + " misses, " +
                      std::to_string(clients) + " clients");
  out.notes.push_back(
      "hit latency p90 " + std::to_string(quantile(mixed.hit_ms, 0.90)) +
      " ms, p99 " + std::to_string(quantile(mixed.hit_ms, 0.99)) + " ms");

  if (!opt.trace) {
    // The rate 9 of 10 seconds sustain (see the grids' campaign rates).
    out.add("items_per_s", quantile(mixed.second_items, 0.10), "1/s");
    out.add("queries_per_s", quantile(mixed.second_queries, 0.10), "1/s");
    out.add("op_p50_ms", quantile(mixed.hit_ms, 0.50), "ms");
    out.add("job_p50_ms", quantile(mixed.miss_ms, 0.50), "ms");
    out.add("job_p90_ms", quantile(mixed.miss_ms, 0.90), "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    fs::remove_all(dir);
    return out;
  }

  // Item layers: the misses' own work, run directly on a Session — dark
  // (gap-fills resume from the warm store, as the daemon does), traced
  // and metered.
  const std::size_t sample = std::min<std::size_t>(opt.tiny ? 1 : 4, pool_n);
  std::vector<campaign::ResultStore> resume_dark, resume_traced;
  resume_dark.reserve(sample);
  resume_traced.reserve(sample);
  std::vector<CampaignJob> dark_jobs, traced_jobs;
  LayerRuns runs;
  for (std::size_t j = 0; j < sample; ++j) {
    const Answer& gap = mix.gap[j];
    const Answer& cold = mix.cold[j];
    const campaign::ResultStore& donor = mix.warm[j % warm_n].store;
    resume_dark.push_back(rekey(donor, gap.spec));
    resume_traced.push_back(rekey(donor, traced_spec(gap.spec)));
    const auto same_as = [](const Answer& a) {
      return [&a](const campaign::ResultStore& s) {
        return same_samples(s, a.store);
      };
    };
    dark_jobs.push_back({gap.spec, &resume_dark.back(), same_as(gap)});
    dark_jobs.push_back({cold.spec, nullptr, same_as(cold)});
    traced_jobs.push_back({gap.spec, &resume_traced.back(), same_as(gap)});
    traced_jobs.push_back({cold.spec, nullptr, same_as(cold)});
    runs.specs.push_back(gap.spec);
    runs.specs.push_back(cold.spec);
  }
  const CampaignRun dark =
      run_campaigns(dark_jobs, nproc(), 0.2 * opt.seconds, false);
  trace::register_wrappers();
  trace::clear();
  const CampaignRun traced =
      run_campaigns(traced_jobs, nproc(), 0.2 * opt.seconds, true);
  runs.spans = trace::collect();
  trace::dump(opt.work_dir + "/spans-query_mix-" + std::to_string(opt.seed) +
              ".tsv");
  ulpdream::util::telemetry::set_hot_timing(true);
  const CampaignRun metered =
      run_campaigns(dark_jobs, nproc(), 0.1 * opt.seconds, false);
  ulpdream::util::telemetry::set_hot_timing(false);
  for (const CampaignRun* run : {&dark, &traced, &metered}) {
    out.check(true, run->items - run->failed_items);
    out.check(false, run->failed_items);
  }
  out.notes.push_back(std::string("traced samples ") +
                      (traced.failed_items == 0 ? "equal" : "DIFFER") +
                      " to the reference stores");
  runs.counting = &counting;
  runs.dark = &dark;
  runs.traced = &traced;
  runs.metered = &metered;
  add_item_layers(out, runs);

  const double hit_server_us = hist_mean(served, "serve.query.hit_ns") / 1e3;
  const double miss_n = double(hist_count(served, "serve.query.gapfill_ns") +
                               hist_count(served, "serve.query.cold_ns"));
  const double miss_ns = double(hist_sum(served, "serve.query.gapfill_ns") +
                                hist_sum(served, "serve.query.cold_ns"));
  out.add("util.wire.result_decode_us", median(counts.decode_us), "us");
  out.add("serve.hit_server_us", hit_server_us, "us");
  out.add("serve.hit_transport_us", mean(mixed.hit_ms) * 1e3 - hit_server_us,
          "us");
  out.add("serve.hit_bytes", counts.hit_bytes, "count");
  out.add("serve.miss_server_ms", miss_n == 0 ? 0.0 : miss_ns / miss_n / 1e6,
          "ms");
  out.add("serve.miss_compute_ms", mean(dark.latency_s) * 1e3, "ms");
  out.add("serve.cache.hit_frac", counts.hit_frac, "ratio");
  out.add("serve.gapfill.reused_frac", counts.reused_frac, "ratio");
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
