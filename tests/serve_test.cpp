// The query daemon's contract, pinned deterministically: a daemon
// answering over its real socket protocol must hand every client bytes
// identical to a single-process save_columnar of the queried grid —
// whether it computed them cold, gap-filled them from an overlapping
// cached store, served them straight from the cache, or rehydrated that
// cache after a restart. The cache tests pin the LRU byte budget, the
// restart rehydration and the quarantine discipline (a corrupt or
// foreign cache file is renamed aside with a typed error naming the
// path — never a crash). Daemon tests run over Unix sockets in a
// scratch directory: real frames, real threads, no sleeps for
// correctness (only the progress cadence, which is what's under test
// where it appears).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "process_usage.hpp"
#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/serve/cache.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/socket.hpp"

namespace ulpdream::serve {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignSpec;
using campaign::RecordAxis;
using util::Frame;
using util::Socket;

/// Small, fast grid. `records` scales the outermost axis — the one the
/// gap-fill overlap rides on.
CampaignSpec small_spec(std::uint64_t seed, std::size_t records = 1) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.7, 0.8};
  for (std::size_t i = 0; i < records; ++i) {
    spec.records.push_back(
        RecordAxis{ecg::Pathology::kNormalSinus, 1.0 + double(i), 7});
  }
  spec.repetitions = 2;
  spec.seed = seed;
  return spec.normalized();
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string as_text(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Fresh scratch directory per test (cache dir + socket + outputs).
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ulpd_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The single-process reference: one Session, whole grid, save_columnar.
std::string reference_columnar_bytes(const CampaignSpec& spec,
                                     const fs::path& dir) {
  campaign::Session session(energy::SystemEnergyModel(), 2);
  const campaign::ResultStore store = session.submit(spec).take();
  const fs::path path = dir / "reference.ulpdcol";
  store.save_columnar(path.string());
  return slurp(path);
}

/// Executes a grid on a private session — the cache tests' store maker.
campaign::ResultStore run_grid(const CampaignSpec& spec) {
  campaign::Session session(energy::SystemEnergyModel(), 2);
  return session.submit(spec).take();
}

/// A live daemon on a Unix socket, with run() on a background thread and
/// a joining stop in the destructor — every daemon test's harness.
class DaemonFixture {
 public:
  explicit DaemonFixture(const fs::path& dir, std::size_t progress_ms = 250) {
    Daemon::Options options;
    options.listen = "unix:" + (dir / "daemon.sock").string();
    options.cache_dir = (dir / "cache").string();
    options.progress_every_ms = progress_ms;
    options.threads = 2;
    daemon_ = std::make_unique<Daemon>(options);
    thread_ = std::thread([this] { report_ = daemon_->run(); });
  }

  ~DaemonFixture() { stop(); }

  Daemon& daemon() { return *daemon_; }

  [[nodiscard]] Client connect() {
    return Client::connect(daemon_->endpoint());
  }

  /// Stops the daemon and returns its drain report (idempotent).
  const Daemon::Report& stop() {
    if (thread_.joinable()) {
      daemon_->request_stop();
      thread_.join();
    }
    return report_;
  }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
  Daemon::Report report_;
};

// ---------------------------------------------------------------------------
// Protocol: round trips and the malformed-frame taxonomy.

TEST(ServeProtocol, QueryRoundTripsEveryField) {
  auto [a, b] = Socket::socketpair();
  Query sent;
  sent.spec = small_spec(42, 2);
  sent.want_store = false;
  sent.want_rows = true;
  sent.group = campaign::GroupBy{false, true, false, true};
  send(a, sent);

  Frame frame;
  ASSERT_TRUE(receive(b, frame));
  const Query got = decode_query(frame, "test-peer");
  EXPECT_EQ(got.version, kProtocolVersion);
  EXPECT_EQ(got.spec.fingerprint(), sent.spec.fingerprint());
  EXPECT_EQ(got.spec.records.size(), 2u);
  EXPECT_FALSE(got.want_store);
  EXPECT_TRUE(got.want_rows);
  EXPECT_FALSE(got.group.record);
  EXPECT_TRUE(got.group.app);
  EXPECT_FALSE(got.group.emt);
  EXPECT_TRUE(got.group.voltage);
}

TEST(ServeProtocol, ResultProgressErrorRoundTrip) {
  auto [a, b] = Socket::socketpair();
  Result result;
  result.status = CacheStatus::kGapFill;
  result.items_total = 12;
  result.items_executed = 6;
  result.store_bytes = {1, 2, 3, 255};
  result.rows_csv = "header\n1,2\n";
  send(a, result);
  send(a, Progress{5, 12});
  send(a, Error{"boom"});

  Frame frame;
  ASSERT_TRUE(receive(b, frame));
  const Result r = decode_result(frame, "p");
  EXPECT_EQ(r.status, CacheStatus::kGapFill);
  EXPECT_EQ(r.items_total, 12u);
  EXPECT_EQ(r.items_executed, 6u);
  EXPECT_EQ(r.store_bytes, result.store_bytes);
  EXPECT_EQ(r.rows_csv, result.rows_csv);
  ASSERT_TRUE(receive(b, frame));
  const Progress p = decode_progress(frame, "p");
  EXPECT_EQ(p.items_done, 5u);
  EXPECT_EQ(p.items_total, 12u);
  ASSERT_TRUE(receive(b, frame));
  EXPECT_EQ(decode_error(frame, "p").message, "boom");
}

TEST(ServeProtocol, TruncatedPayloadThrowsNamingPeerAndField) {
  auto [a, b] = Socket::socketpair();
  util::write_frame(a, static_cast<std::uint32_t>(MsgType::kQuery),
                    {1, 0, 0});  // not even a whole version field
  Frame frame;
  ASSERT_TRUE(receive(b, frame));
  try {
    (void)decode_query(frame, "the-peer");
    FAIL() << "decode of a truncated Query must throw";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.peer(), "the-peer");
    EXPECT_NE(std::string(e.what()).find("truncated field 'version'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, WrongFrameTypeFailsByName) {
  auto [a, b] = Socket::socketpair();
  send(a, Progress{1, 2});
  Frame frame;
  ASSERT_TRUE(receive(b, frame));
  try {
    (void)decode_result(frame, "p");
    FAIL() << "a Progress frame must not decode as Result";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("expected Result frame, got "
                                         "Progress"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Overlap semantics: which cached grids may seed which queries.

TEST(ServeCache, ResumablePrefixRequiresStrictRecordPrefixAndEqualAxes) {
  const CampaignSpec one = small_spec(9, 1);
  const CampaignSpec two = small_spec(9, 2);
  EXPECT_TRUE(is_resumable_prefix(one, two));
  EXPECT_FALSE(is_resumable_prefix(two, one));   // shrink, not grow
  EXPECT_FALSE(is_resumable_prefix(one, one));   // strict prefix only
  EXPECT_FALSE(is_resumable_prefix(one, small_spec(10, 2)));  // seed differs

  // Same record count, different front record: not a prefix.
  CampaignSpec other = small_spec(9, 2);
  other.records[0].noise_scale = 99.0;
  EXPECT_FALSE(is_resumable_prefix(one, other.normalized()));

  // Axes differ (extra voltage): indices shift, nothing is adoptable.
  CampaignSpec wider = small_spec(9, 2);
  wider.voltages.push_back(0.9);
  EXPECT_FALSE(is_resumable_prefix(one, wider.normalized()));
}

TEST(ServeCache, AdoptedPrefixPlusGapRunMatchesColdRunByteForByte) {
  const fs::path dir = scratch("adopt");
  const CampaignSpec prefix = small_spec(3, 1);
  const CampaignSpec superset = small_spec(3, 3);

  const campaign::ResultStore cached = run_grid(prefix);
  const fs::path cached_path = dir / "prefix.ulpdcol";
  cached.save_columnar(cached_path.string());

  campaign::ResultStore adopted = adopt_prefix(
      campaign::ColumnarStore::open(cached_path.string(), prefix), superset);
  EXPECT_EQ(adopted.items_done(), prefix.item_count());

  campaign::Session session(energy::SystemEnergyModel(), 2);
  campaign::SubmitOptions options;
  options.resume_from = &adopted;
  const auto handle = session.submit(superset, options);
  const campaign::ResultStore merged = handle.take();
  const campaign::Progress progress = handle.progress();
  EXPECT_EQ(progress.items_resumed, prefix.item_count());
  EXPECT_EQ(progress.items_done - progress.items_resumed,
            superset.item_count() - prefix.item_count());

  const fs::path merged_path = dir / "merged.ulpdcol";
  merged.save_columnar(merged_path.string());
  EXPECT_EQ(slurp(merged_path), reference_columnar_bytes(superset, dir));
}

// ---------------------------------------------------------------------------
// ResultCache: LRU byte budget, restart rehydration, quarantine.

TEST(ServeCache, EvictsLeastRecentlyUsedWhenOverByteBudget) {
  const fs::path dir = scratch("lru");
  ResultCache cache({(dir / "cache").string(), std::uint64_t(1) << 40});
  const CampaignSpec a = small_spec(1);
  const CampaignSpec b = small_spec(2);
  const CampaignSpec c = small_spec(3);
  const auto entry_a = cache.insert(a, run_grid(a));
  cache.insert(b, run_grid(b));
  EXPECT_EQ(cache.entries(), 2u);

  // Touch a: it becomes most-recent, so b is now the LRU victim.
  EXPECT_TRUE(cache.find(a.fingerprint()).has_value());

  // Shrink the budget by rebuilding the cache over the same dir with a
  // budget two entries cannot fit; the insert of c must evict b then a,
  // keeping only the newest.
  ResultCache tight({(dir / "cache").string(), entry_a.bytes + 1});
  EXPECT_EQ(tight.entries(), 1u);  // rehydration already evicted to budget
  const auto entry_c = tight.insert(c, run_grid(c));
  EXPECT_EQ(tight.entries(), 1u);
  EXPECT_TRUE(tight.find(c.fingerprint()).has_value());
  EXPECT_FALSE(tight.find(a.fingerprint()).has_value());
  EXPECT_FALSE(tight.find(b.fingerprint()).has_value());
  EXPECT_TRUE(fs::exists(entry_c.store_path));
  EXPECT_FALSE(fs::exists(entry_a.store_path));
}

TEST(ServeCache, NewestEntryIsKeptEvenAloneOverBudget) {
  const fs::path dir = scratch("keep_newest");
  ResultCache cache({(dir / "cache").string(), 1});  // absurd budget
  const CampaignSpec spec = small_spec(7);
  const auto entry = cache.insert(spec, run_grid(spec));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 1u);
  EXPECT_TRUE(fs::exists(entry.store_path));
}

TEST(ServeCache, RehydratesEntriesByteIdenticalAfterRestart) {
  const fs::path dir = scratch("rehydrate");
  const CampaignSpec a = small_spec(11);
  const CampaignSpec b = small_spec(12);
  std::string store_a;
  {
    ResultCache cache({(dir / "cache").string(), std::uint64_t(1) << 40});
    store_a = slurp(cache.insert(a, run_grid(a)).store_path);
    cache.insert(b, run_grid(b));
  }
  ResultCache reborn({(dir / "cache").string(), std::uint64_t(1) << 40});
  EXPECT_EQ(reborn.entries(), 2u);
  EXPECT_TRUE(reborn.quarantined().empty());
  const auto hit = reborn.find(a.fingerprint());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->spec.fingerprint(), a.fingerprint());
  EXPECT_EQ(slurp(hit->store_path), store_a);
  EXPECT_EQ(slurp(hit->store_path),
            reference_columnar_bytes(a, dir));
}

TEST(ServeCache, CorruptCacheFileIsQuarantinedWithTypedErrorNamingPath) {
  const fs::path dir = scratch("quarantine");
  const fs::path cache_dir = dir / "cache";
  fs::create_directories(cache_dir);
  const fs::path bogus = cache_dir / "00deadbeef00dead.ulpdcol";
  std::ofstream(bogus) << "this is not a columnar store";

  ResultCache cache({cache_dir.string(), std::uint64_t(1) << 40});
  EXPECT_EQ(cache.entries(), 0u);
  ASSERT_EQ(cache.quarantined().size(), 1u);
  const auto& event = cache.quarantined().front();
  EXPECT_EQ(event.path, bogus.string());
  EXPECT_NE(event.reason.find(bogus.string()), std::string::npos)
      << "quarantine reason must name the offending path: " << event.reason;
  EXPECT_FALSE(fs::exists(bogus));
  EXPECT_TRUE(fs::exists(bogus.string() + ".quarantined"));

  // The cache stays serviceable after the casualty.
  const CampaignSpec spec = small_spec(5);
  cache.insert(spec, run_grid(spec));
  EXPECT_TRUE(cache.find(spec.fingerprint()).has_value());
}

TEST(ServeCache, RenamedForeignStoreIsQuarantinedByFingerprintMismatch) {
  const fs::path dir = scratch("foreign");
  const fs::path cache_dir = dir / "cache";
  const CampaignSpec spec = small_spec(21);
  {
    ResultCache cache({cache_dir.string(), std::uint64_t(1) << 40});
    cache.insert(spec, run_grid(spec));
  }
  // An admin "helpfully" renames the pair: the stem no longer matches
  // the sidecar's fingerprint hash.
  const std::string hash = spec.fingerprint_hash();
  fs::rename(cache_dir / (hash + ".ulpdcol"),
             cache_dir / "aaaaaaaaaaaaaaaa.ulpdcol");
  fs::rename(cache_dir / (hash + ".spec"),
             cache_dir / "aaaaaaaaaaaaaaaa.spec");

  ResultCache reborn({cache_dir.string(), std::uint64_t(1) << 40});
  EXPECT_EQ(reborn.entries(), 0u);
  ASSERT_EQ(reborn.quarantined().size(), 1u);
  EXPECT_NE(reborn.quarantined().front().reason.find("fingerprint hash"),
            std::string::npos)
      << reborn.quarantined().front().reason;
}

// ---------------------------------------------------------------------------
// Daemon end to end, over real Unix sockets.

TEST(ServeDaemon, ColdThenExactHitAnswerByteIdenticalStores) {
  const fs::path dir = scratch("daemon_hit");
  const CampaignSpec spec = small_spec(31);
  const std::string reference = reference_columnar_bytes(spec, dir);

  DaemonFixture fixture(dir);
  Client client = fixture.connect();
  Client::QueryOptions options;
  options.want_rows = true;
  const Result cold = client.query(spec, options);
  EXPECT_EQ(cold.status, CacheStatus::kCold);
  EXPECT_EQ(cold.items_total, spec.item_count());
  EXPECT_EQ(cold.items_executed, spec.item_count());
  EXPECT_EQ(as_text(cold.store_bytes), reference);
  EXPECT_FALSE(cold.rows_csv.empty());

  const Result warm = client.query(spec, options);
  EXPECT_EQ(warm.status, CacheStatus::kHit);
  EXPECT_EQ(warm.items_executed, 0u);
  EXPECT_EQ(warm.store_bytes, cold.store_bytes);
  EXPECT_EQ(warm.rows_csv, cold.rows_csv);

  const Daemon::Report& report = fixture.stop();
  EXPECT_EQ(report.queries, 2u);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cold_runs, 1u);
  EXPECT_EQ(report.items_executed, spec.item_count());
  EXPECT_EQ(report.items_reused, spec.item_count());
}

TEST(ServeDaemon, SupersetQueryGapFillsExecutingOnlyTheGap) {
  const fs::path dir = scratch("daemon_gap");
  const CampaignSpec prefix = small_spec(32, 1);
  const CampaignSpec superset = small_spec(32, 3);

  DaemonFixture fixture(dir);
  Client client = fixture.connect();
  (void)client.query(prefix);
  const Result filled = client.query(superset);
  EXPECT_EQ(filled.status, CacheStatus::kGapFill);
  EXPECT_EQ(filled.items_total, superset.item_count());
  EXPECT_EQ(filled.items_executed,
            superset.item_count() - prefix.item_count());
  EXPECT_EQ(as_text(filled.store_bytes),
            reference_columnar_bytes(superset, dir));

  const Daemon::Report& report = fixture.stop();
  EXPECT_EQ(report.gap_fills, 1u);
  EXPECT_EQ(report.items_reused, prefix.item_count());
}

TEST(ServeDaemon, RestartAnswersWarmFromRehydratedCache) {
  const fs::path dir = scratch("daemon_restart");
  const CampaignSpec spec = small_spec(33);
  std::vector<std::uint8_t> cold_bytes;
  {
    DaemonFixture fixture(dir);
    Client client = fixture.connect();
    cold_bytes = client.query(spec).store_bytes;
  }
  DaemonFixture reborn(dir);
  Client client = reborn.connect();
  const Result warm = client.query(spec);
  EXPECT_EQ(warm.status, CacheStatus::kHit);
  EXPECT_EQ(warm.items_executed, 0u);
  EXPECT_EQ(warm.store_bytes, cold_bytes);
}

TEST(ServeDaemon, BadSpecAnswersErrorAndTheConnectionSurvives) {
  const fs::path dir = scratch("daemon_badspec");
  DaemonFixture fixture(dir);
  Client client = fixture.connect();

  CampaignSpec bad = small_spec(34);
  bad.apps = {"no_such_app"};
  try {
    (void)client.query(bad);
    FAIL() << "unknown app must be answered with an Error frame";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_app"), std::string::npos)
        << e.what();
  }

  // Same connection, valid spec: still served.
  const Result ok = client.query(small_spec(34));
  EXPECT_EQ(ok.status, CacheStatus::kCold);

  const Daemon::Report& report = fixture.stop();
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.queries, 2u);
}

TEST(ServeDaemon, VersionMismatchIsRejectedQuotingBothNumbers) {
  const fs::path dir = scratch("daemon_version");
  DaemonFixture fixture(dir);
  Socket socket = Socket::connect(fixture.daemon().endpoint());
  Query query;
  query.version = 99;
  query.spec = small_spec(35);
  send(socket, query);
  Frame frame;
  ASSERT_TRUE(receive(socket, frame));
  const Error error = decode_error(frame, "daemon");
  EXPECT_NE(error.message.find("version mismatch"), std::string::npos);
  EXPECT_NE(error.message.find("99"), std::string::npos);
  EXPECT_NE(error.message.find(std::to_string(kProtocolVersion)),
            std::string::npos);
}

TEST(ServeDaemon, GarbageFrameGetsAnErrorFrameNotACrash) {
  const fs::path dir = scratch("daemon_garbage");
  DaemonFixture fixture(dir);
  Socket socket = Socket::connect(fixture.daemon().endpoint());
  util::write_frame(socket, static_cast<std::uint32_t>(MsgType::kQuery),
                    {0xde, 0xad});
  Frame frame;
  ASSERT_TRUE(receive(socket, frame));
  EXPECT_NE(decode_error(frame, "daemon").message.find("truncated field"),
            std::string::npos);
  // The daemon hung up on the unframeable client but keeps serving
  // everyone else.
  Client client = fixture.connect();
  EXPECT_EQ(client.query(small_spec(36)).status, CacheStatus::kCold);
}

TEST(ServeDaemon, ConcurrentClientsAllGetCorrectAnswers) {
  const fs::path dir = scratch("daemon_concurrent");
  DaemonFixture fixture(dir);
  constexpr int kClients = 4;
  std::vector<std::string> bytes(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &bytes, i] {
      Client client = fixture.connect();
      bytes[static_cast<std::size_t>(i)] =
          as_text(client.query(small_spec(100 + std::uint64_t(i))).store_bytes);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(bytes[static_cast<std::size_t>(i)],
              reference_columnar_bytes(small_spec(100 + std::uint64_t(i)),
                                       scratch("daemon_concurrent_ref")))
        << "client " << i;
  }
  const Daemon::Report& report = fixture.stop();
  EXPECT_EQ(report.queries, std::size_t(kClients));
  EXPECT_EQ(report.clients, std::size_t(kClients));
}

TEST(ServeDaemon, ExecutingQueriesStreamProgressAndHitsStreamNone) {
  const fs::path dir = scratch("daemon_progress");
  const CampaignSpec spec = small_spec(37);
  DaemonFixture fixture(dir, /*progress_ms=*/1);
  Client client = fixture.connect();

  std::size_t cold_frames = 0;
  Progress last{};
  Client::QueryOptions options;
  options.on_progress = [&cold_frames, &last](const Progress& p) {
    cold_frames += 1;
    last = p;
  };
  (void)client.query(spec, options);
  EXPECT_GE(cold_frames, 1u);
  EXPECT_EQ(last.items_total, spec.item_count());
  EXPECT_EQ(last.items_done, spec.item_count());

  std::size_t hit_frames = 0;
  options.on_progress = [&hit_frames](const Progress&) { hit_frames += 1; };
  (void)client.query(spec, options);
  EXPECT_EQ(hit_frames, 0u) << "an exact hit must not stream Progress";
}

TEST(ServeDaemon, TelemetryCountsQueriesHitsAndCacheGauges) {
  const fs::path dir = scratch("daemon_telemetry");
  const CampaignSpec spec = small_spec(38);
  DaemonFixture fixture(dir);
  Client client = fixture.connect();
  (void)client.query(spec);
  (void)client.query(spec);

  const auto metrics = fixture.daemon().telemetry();
  const auto counter = [&metrics](const char* name) -> std::uint64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("serve.queries"), 2u);
  EXPECT_EQ(counter("serve.cache.hits"), 1u);
  EXPECT_EQ(counter("serve.cache.misses"), 1u);
  EXPECT_GE(counter("serve.frames_sent"), 2u);
  EXPECT_GE(counter("serve.frames_received"), 2u);
  const auto gauge = metrics.gauges.find("serve.cache.entries");
  ASSERT_NE(gauge, metrics.gauges.end());
  EXPECT_EQ(gauge->second, 1.0);
}

// ---------------------------------------------------------------------------
// Connection lifetime: reaping under churn, and the drain.

/// Asks `spec` over a raw socket and returns the Result frame (skipping
/// Progress frames).
Result ask_raw(Socket& socket, const CampaignSpec& spec) {
  send(socket, Query{kProtocolVersion, spec, true, false, {}});
  Frame frame;
  while (receive(socket, frame) &&
         frame.type == static_cast<std::uint32_t>(MsgType::kProgress)) {
  }
  return decode_result(frame, socket.peer());
}

TEST(ServeDaemon, ClientChurnLeavesMemoryThreadsAndFdsAtBaseline) {
  if (!soak::ProcessUsage::now().available()) GTEST_SKIP() << "no /proc";
  soak::cap_malloc_arenas();
  const fs::path dir = scratch("daemon_churn");
  const CampaignSpec spec = small_spec(39);
  DaemonFixture fixture(dir);
  const std::vector<std::uint8_t> cold =
      fixture.connect().query(spec).store_bytes;
  ASSERT_EQ(as_text(cold), reference_columnar_bytes(spec, dir));

  // `sequential` connect/close clients, then 64 concurrent clients that
  // each ask a real exact hit.
  const auto churn = [&fixture, &spec, &cold](int sequential) {
    for (int i = 0; i < sequential; ++i) {
      (void)Socket::connect(fixture.daemon().endpoint());
    }
    std::atomic<int> wrong{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 64; ++i) {
      clients.emplace_back([&fixture, &spec, &cold, &wrong] {
        try {
          const Result hit = fixture.connect().query(spec);
          if (hit.status != CacheStatus::kHit || hit.store_bytes != cold) {
            ++wrong;
          }
        } catch (const std::exception&) {
          ++wrong;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    EXPECT_EQ(wrong.load(), 0);
  };
  // Handlers finish after their clients hang up; wait (bounded) until the
  // daemon's gauge says none is left.
  const auto await_no_clients = [&fixture] {
    for (int i = 0; i < 2000; ++i) {
      if (fixture.daemon().telemetry().gauges["serve.clients_connected"] ==
          0.0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  // The warm-up pass fills the allocator's and the stack caches; the
  // measured pass must not grow anything.
  churn(2'000);
  ASSERT_TRUE(await_no_clients());
  const soak::ProcessUsage base = soak::ProcessUsage::now();
  churn(10'000);
  ASSERT_TRUE(await_no_clients());
  soak::expect_near_baseline(base, soak::settled_usage(base));
  EXPECT_EQ(fixture.stop().clients, std::size_t(1 + 2 * 64 + 12'000));
}

TEST(ServeDaemon, StopMidQueryAnswersInFlightThenClosesIdleClients) {
  const fs::path dir = scratch("daemon_stop_mid_query");
  const CampaignSpec spec = small_spec(40, 8);
  const std::string reference = reference_columnar_bytes(spec, dir);
  DaemonFixture fixture(dir, /*progress_ms=*/1);

  // An idle client the daemon has certainly accepted: one answered
  // query, then silence.
  Socket idle = Socket::connect(fixture.daemon().endpoint());
  EXPECT_EQ(ask_raw(idle, small_spec(41)).status, CacheStatus::kCold);

  Socket busy = Socket::connect(fixture.daemon().endpoint());
  send(busy, Query{kProtocolVersion, spec, true, false, {}});
  Frame frame;
  ASSERT_TRUE(receive(busy, frame));
  ASSERT_EQ(frame.type, static_cast<std::uint32_t>(MsgType::kProgress));
  const Progress first = decode_progress(frame, busy.peer());
  EXPECT_LT(first.items_done, first.items_total)
      << "the stop should land while the cold query executes";
  fixture.daemon().request_stop();

  while (receive(busy, frame) &&
         frame.type == static_cast<std::uint32_t>(MsgType::kProgress)) {
  }
  ASSERT_EQ(frame.type, static_cast<std::uint32_t>(MsgType::kResult));
  const Result result = decode_result(frame, busy.peer());
  EXPECT_EQ(result.status, CacheStatus::kCold);
  EXPECT_EQ(as_text(result.store_bytes), reference);
  EXPECT_FALSE(receive(busy, frame))
      << "the daemon hangs up after answering the query in flight";
  EXPECT_FALSE(receive(idle, frame)) << "an idle client sees EOF";

  const Daemon::Report& report = fixture.stop();
  EXPECT_EQ(report.queries, 2u);
  EXPECT_EQ(report.cold_runs, 2u);
}

}  // namespace
}  // namespace ulpdream::serve
