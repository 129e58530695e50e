// The distributed campaign runtime's contract, pinned deterministically:
// a coordinator fed by socket workers — including workers that lie in
// the handshake, die mid-lease, or die between leases — must publish a
// merged columnar store byte-identical to a single-process
// save_columnar of the same spec. FakeWorker speaks the real wire
// protocol over a socketpair, so every test here exercises the same
// bytes a TCP worker would send, without listeners, child processes or
// timing-dependent sleeps. The malformed-frame matrix pins the error
// taxonomy: transport-level garbage is a util::FrameError of the exact
// kind, payload-level garbage is a dist::ProtocolError, and both name
// the peer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "process_usage.hpp"
#include "scratch_dir.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/dist/coordinator.hpp"
#include "ulpdream/dist/fake_worker.hpp"
#include "ulpdream/dist/lease_table.hpp"
#include "ulpdream/dist/protocol.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::dist {
namespace {

namespace fs = std::filesystem;
using test::ScratchDir;
using campaign::CampaignSpec;
using campaign::RecordAxis;
using util::Frame;
using util::FrameError;
using util::Socket;

/// Small, fast grid; reps scales the item count for re-lease tests.
CampaignSpec small_spec(std::uint64_t seed, std::size_t reps = 3) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.7, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = reps;
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

/// The single-process reference: one Session, whole grid, save_columnar.
std::string reference_columnar_bytes(const CampaignSpec& spec,
                                     const fs::path& dir) {
  campaign::Session session(energy::SystemEnergyModel(), 2);
  const campaign::ResultStore store = session.submit(spec).take();
  const fs::path path = dir / "reference.ulpdcol";
  store.save_columnar(path.string());
  return slurp(path);
}

FakeWorker::Options named(const std::string& name) {
  FakeWorker::Options options;
  options.name = name;
  return options;
}

Coordinator::Options coordinator_options(const fs::path& dir) {
  Coordinator::Options options;
  options.spool_dir = (dir / "spool").string();
  options.store_out = (dir / "merged.ulpdcol").string();
  options.lease_items = 3;
  options.lease_ttl_ms = 60'000;  // generous: tests kill sockets, not time
  options.heartbeat_ms = 100;
  return options;
}

// ---------------------------------------------------------------------------
// LeaseTable

using Clock = LeaseTable::Clock;

TEST(LeaseTable, GrantsChunksUntilPoolDrainsThenRefusesUntilCompletion) {
  LeaseTable table(10, 4, std::chrono::seconds(60));
  const auto now = Clock::now();
  LeaseTable::Lease a;
  LeaseTable::Lease b;
  LeaseTable::Lease c;
  ASSERT_TRUE(table.grant("w1", now, a));
  EXPECT_EQ(a.begin, 0u);
  EXPECT_EQ(a.end, 4u);
  ASSERT_TRUE(table.grant("w2", now, b));
  EXPECT_EQ(b.begin, 4u);
  EXPECT_EQ(b.end, 8u);
  ASSERT_TRUE(table.grant("w1", now, c));
  EXPECT_EQ(c.begin, 8u);
  EXPECT_EQ(c.end, 10u);  // last grant clipped to the pool
  LeaseTable::Lease d;
  EXPECT_FALSE(table.grant("w2", now, d));  // everything leased out
  EXPECT_EQ(table.active_leases(), 3u);

  EXPECT_TRUE(table.complete(a.id));
  EXPECT_TRUE(table.complete(b.id));
  EXPECT_FALSE(table.all_done());
  EXPECT_TRUE(table.complete(c.id));
  EXPECT_TRUE(table.all_done());
  EXPECT_EQ(table.items_done(), 10u);
  EXPECT_EQ(table.active_leases(), 0u);
}

TEST(LeaseTable, ExpiredLeaseReturnsToFrontAndStaleCompleteIsFlagged) {
  LeaseTable table(8, 8, std::chrono::milliseconds(100));
  const auto t0 = Clock::now();
  LeaseTable::Lease original;
  ASSERT_TRUE(table.grant("w1", t0, original));

  // Renew keeps it alive past the first deadline...
  ASSERT_TRUE(table.renew(original.id, t0 + std::chrono::milliseconds(90)));
  EXPECT_TRUE(table.expire_due(t0 + std::chrono::milliseconds(150)).empty());

  // ...but silence expires it, and the range is grantable again.
  const auto expired = table.expire_due(t0 + std::chrono::seconds(1));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, original.id);
  LeaseTable::Lease release;
  ASSERT_TRUE(table.grant("w2", t0 + std::chrono::seconds(1), release));
  EXPECT_EQ(release.begin, original.begin);
  EXPECT_EQ(release.end, original.end);

  // The original worker finishing anyway is stale — complete() says so,
  // complete_range() still credits the items exactly once.
  EXPECT_FALSE(table.complete(original.id));
  table.complete_range(original.begin, original.end);
  EXPECT_TRUE(table.all_done());
  table.complete_range(original.begin, original.end);  // idempotent
  EXPECT_EQ(table.items_done(), 8u);
}

TEST(LeaseTable, RevokedRangesStayContiguousAndSkipFinishedWork) {
  LeaseTable table(12, 4, std::chrono::seconds(60));
  const auto now = Clock::now();
  LeaseTable::Lease a;
  LeaseTable::Lease b;
  ASSERT_TRUE(table.grant("dead", now, a));   // [0, 4)
  ASSERT_TRUE(table.grant("live", now, b));   // [4, 8)
  ASSERT_TRUE(table.complete(b.id));

  const auto revoked = table.revoke_owner("dead");
  ASSERT_EQ(revoked.size(), 1u);
  EXPECT_EQ(revoked[0].begin, 0u);

  // Revoked [0, 4) comes back FIRST (front of the pool), then [8, 12).
  LeaseTable::Lease next;
  ASSERT_TRUE(table.grant("live", now, next));
  EXPECT_EQ(next.begin, 0u);
  EXPECT_EQ(next.end, 4u);
  ASSERT_TRUE(table.grant("live", now, next));
  EXPECT_EQ(next.begin, 8u);
  EXPECT_EQ(next.end, 12u);

  // A re-leased range whose middle finished under another lease is
  // clipped around the done interval, never re-granted.
  table.complete_range(1, 3);
  const auto relisted = table.revoke_owner("live");
  EXPECT_EQ(relisted.size(), 2u);
  ASSERT_TRUE(table.grant("w3", now, next));
  EXPECT_EQ(next.begin, 0u);
  EXPECT_EQ(next.end, 1u);  // clipped at the done interval [1, 3)
  ASSERT_TRUE(table.grant("w3", now, next));
  EXPECT_EQ(next.begin, 3u);
  EXPECT_EQ(next.end, 4u);
}

// ---------------------------------------------------------------------------
// Malformed-frame matrix: every way a peer can fail to speak the
// protocol maps to a distinct, typed, peer-naming error.

TEST(Protocol, CleanEofBetweenFramesIsNotAnError) {
  auto [near, far] = Socket::socketpair("eof-test");
  far.close();
  Frame frame;
  EXPECT_FALSE(util::read_frame(near, frame, util::kMaxFrameBytes));
}

TEST(Protocol, BadMagicThrowsNamingThePeer) {
  auto [near, far] = Socket::socketpair("magic-test");
  const char junk[24] = "this is not a frame....";
  far.write_all(junk, sizeof junk);
  Frame frame;
  try {
    (void)util::read_frame(near, frame, util::kMaxFrameBytes);
    FAIL() << "garbage magic must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("magic-test"), std::string::npos)
        << e.what();
  }
}

TEST(Protocol, OversizedLengthPrefixThrowsBeforeAllocating) {
  auto [near, far] = Socket::socketpair("oversize-test");
  std::uint8_t header[util::kFrameHeaderBytes] = {};
  std::memcpy(header, util::kFrameMagic, 8);
  const std::uint32_t type = 1;
  std::memcpy(header + 8, &type, 4);
  const std::uint64_t huge = std::uint64_t(1) << 40;  // 1 TiB claim
  std::memcpy(header + 16, &huge, 8);
  far.write_all(header, sizeof header);
  Frame frame;
  try {
    (void)util::read_frame(near, frame, util::kMaxFrameBytes);
    FAIL() << "oversized length prefix must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kOversized);
    EXPECT_NE(std::string(e.what()).find("oversize-test"), std::string::npos);
  }
}

TEST(Protocol, TruncatedHeaderThrowsTruncated) {
  auto [near, far] = Socket::socketpair("trunc-header");
  const char partial[10] = {'U', 'L', 'P', 'D', 'F', 'R', 'M', '1', 0, 0};
  far.write_all(partial, sizeof partial);
  far.close();  // died 10 bytes into a 24-byte header
  Frame frame;
  try {
    (void)util::read_frame(near, frame, util::kMaxFrameBytes);
    FAIL() << "mid-header EOF must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("trunc-header"), std::string::npos);
  }
}

TEST(Protocol, MidFramePayloadDisconnectThrowsTruncated) {
  auto [near, far] = Socket::socketpair("trunc-payload");
  std::uint8_t header[util::kFrameHeaderBytes] = {};
  std::memcpy(header, util::kFrameMagic, 8);
  const std::uint32_t type = 7;
  std::memcpy(header + 8, &type, 4);
  const std::uint64_t claimed = 100;
  std::memcpy(header + 16, &claimed, 8);
  far.write_all(header, sizeof header);
  far.write_all("only ten b", 10);  // 10 of the claimed 100 bytes
  far.close();
  Frame frame;
  try {
    (void)util::read_frame(near, frame, util::kMaxFrameBytes);
    FAIL() << "mid-payload EOF must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("trunc-payload"), std::string::npos);
  }
}

TEST(Protocol, GarbagePayloadThrowsProtocolErrorNamingTheField) {
  auto [near, far] = Socket::socketpair("garbage-payload");
  // A LeaseGrant claims three u64s; three junk bytes cannot satisfy the
  // first field, and the decoder must say which one.
  const std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbf};
  util::write_frame(far, static_cast<std::uint32_t>(MsgType::kLeaseGrant),
                    junk);
  Frame frame;
  ASSERT_TRUE(util::read_frame(near, frame, util::kMaxFrameBytes));
  try {
    (void)decode_lease_grant(frame, near.peer());
    FAIL() << "truncated field must throw";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("garbage-payload"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated field 'lease_id'"), std::string::npos)
        << what;
  }
}

TEST(Protocol, TrailingBytesAfterValidPayloadAreRejected) {
  auto [near, far] = Socket::socketpair("trailing-bytes");
  // A valid HelloOk (three u64s) plus one smuggled byte.
  std::vector<std::uint8_t> payload(25, 0);
  util::write_frame(far, static_cast<std::uint32_t>(MsgType::kHelloOk),
                    payload);
  Frame frame;
  ASSERT_TRUE(util::read_frame(near, frame, util::kMaxFrameBytes));
  try {
    (void)decode_hello_ok(frame, near.peer());
    FAIL() << "trailing bytes must throw";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(Protocol, DecodingTheWrongTypeNamesBothTypes) {
  auto [near, far] = Socket::socketpair("wrong-type");
  send(far, Goodbye{});
  Frame frame;
  ASSERT_TRUE(receive(near, frame));
  try {
    (void)decode_hello(frame, near.peer());
    FAIL() << "type mismatch must throw";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected Hello frame, got Goodbye"),
              std::string::npos)
        << what;
  }
}

TEST(Protocol, MessagesRoundTripThroughTheWire) {
  auto [near, far] = Socket::socketpair("round-trip");
  send(far, Hello{kProtocolVersion, "fp-abc", "w0"});
  send(far, LeaseGrant{7, 12, 24});
  send(far, LeaseResult{7, {1, 2, 3, 4, 5}});
  send(far, NoWork{true, 250});
  Frame frame;
  ASSERT_TRUE(receive(near, frame));
  const Hello hello = decode_hello(frame, near.peer());
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.fingerprint, "fp-abc");
  EXPECT_EQ(hello.worker_name, "w0");
  ASSERT_TRUE(receive(near, frame));
  const LeaseGrant grant = decode_lease_grant(frame, near.peer());
  EXPECT_EQ(grant.lease_id, 7u);
  EXPECT_EQ(grant.begin, 12u);
  EXPECT_EQ(grant.end, 24u);
  ASSERT_TRUE(receive(near, frame));
  const LeaseResult result = decode_lease_result(frame, near.peer());
  EXPECT_EQ(result.lease_id, 7u);
  EXPECT_EQ(result.store_bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(receive(near, frame));
  const NoWork nowork = decode_no_work(frame, near.peer());
  EXPECT_TRUE(nowork.campaign_done);
  EXPECT_EQ(nowork.retry_ms, 250u);
}

// ---------------------------------------------------------------------------
// Coordinator + FakeWorker end-to-end.

TEST(Coordinator, ThreeWorkersMergeByteIdenticalToSingleProcessRun) {
  const ScratchDir dir("dist_three_workers");
  const CampaignSpec spec = small_spec(2016, 6);  // 24 items, 8 leases
  const std::string reference = reference_columnar_bytes(spec, dir);

  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  FakeWorker w0(spec, coordinator, named("fw0"));
  FakeWorker w1(spec, coordinator, named("fw1"));
  FakeWorker w2(spec, coordinator, named("fw2"));
  const Coordinator::Report report = coordinator.serve();
  w0.join();
  w1.join();
  w2.join();

  EXPECT_EQ(w0.error(), "");
  EXPECT_EQ(w1.error(), "");
  EXPECT_EQ(w2.error(), "");
  EXPECT_EQ(report.workers_seen, 3u);
  EXPECT_EQ(report.workers_rejected, 0u);
  EXPECT_GE(report.shards_ingested, spec.item_count() / options.lease_items);
  EXPECT_EQ(w0.report().leases_completed + w1.report().leases_completed +
                w2.report().leases_completed,
            report.shards_ingested);
  // Every worker contributed (3 workers, 8 leases, blocking grants).
  EXPECT_GT(w0.report().items_executed, 0u);

  EXPECT_EQ(slurp(options.store_out), reference)
      << "merged store differs from the single-process reference";
  // The fold of worker metrics saw real execution.
  const auto& counters = report.worker_metrics.counters;
  const auto items = counters.find("campaign.items_completed");
  if (items != counters.end()) {
    EXPECT_GE(items->second, spec.item_count());
  }
}

TEST(Coordinator, WorkerDeathMidLeaseIsReleasedAndMergeStaysByteIdentical) {
  const ScratchDir dir("dist_mid_lease_death");
  const CampaignSpec spec = small_spec(99, 4);  // 16 items
  const std::string reference = reference_columnar_bytes(spec, dir);

  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  // The victim accepts one grant and vanishes without executing it; its
  // disconnect must revoke the lease so the survivor finishes the grid.
  FakeWorker::Options victim_options = named("victim");
  victim_options.die_mid_lease = true;
  FakeWorker victim(spec, coordinator, victim_options);
  FakeWorker survivor(spec, coordinator, named("survivor"));
  const Coordinator::Report report = coordinator.serve();
  victim.join();
  survivor.join();

  EXPECT_EQ(survivor.error(), "");
  EXPECT_GE(report.leases_revoked + report.leases_expired, 1u)
      << "the victim's lease was never taken back";
  EXPECT_EQ(slurp(options.store_out), reference)
      << "merged store differs after mid-lease worker death";
}

TEST(Coordinator, WorkerDeathBetweenLeasesIsAbsorbed) {
  const ScratchDir dir("dist_between_lease_death");
  const CampaignSpec spec = small_spec(7, 6);  // 24 items, 8 leases
  const std::string reference = reference_columnar_bytes(spec, dir);

  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  FakeWorker::Options mortal_options = named("mortal");
  mortal_options.die_after_leases = 1;
  FakeWorker mortal(spec, coordinator, mortal_options);
  FakeWorker survivor(spec, coordinator, named("survivor"));
  const Coordinator::Report report = coordinator.serve();
  mortal.join();
  survivor.join();

  EXPECT_EQ(mortal.report().leases_completed, 1u);
  EXPECT_EQ(survivor.error(), "");
  EXPECT_GE(report.shards_ingested,
            spec.item_count() / options.lease_items);
  EXPECT_EQ(slurp(options.store_out), reference);
}

TEST(Coordinator, SameNamedWorkersOfConcurrentCoordinatorsKeepTheirShards) {
  // Two campaigns served at once, each by a worker called "twin" that is
  // granted the same lease ids: the workers' lease files must not
  // collide, or one coordinator ingests the other's (or a vanished)
  // shard and serve() waits forever for a worker that is gone.
  const CampaignSpec spec = small_spec(31, 8);  // 32 items, 11 leases
  const ScratchDir dirs[2] = {ScratchDir("dist_twin_a"),
                              ScratchDir("dist_twin_b")};
  const std::string reference = reference_columnar_bytes(spec, dirs[0]);

  std::string merged[2];
  std::string errors[2];
  auto run = [&](int i) {
    const auto options = coordinator_options(dirs[i]);
    Coordinator coordinator(spec, options);
    FakeWorker twin(spec, coordinator, named("twin"));
    (void)coordinator.serve();
    twin.join();
    errors[i] = twin.error();
    merged[i] = slurp(options.store_out);
  };
  std::jthread other(run, 1);  // joins on every exit path
  run(0);
  other.join();

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(errors[i], "") << "campaign " << i;
    EXPECT_EQ(merged[i], reference) << "campaign " << i;
  }
}

TEST(Coordinator, FingerprintMismatchIsRejectedQuotingBothFingerprints) {
  const ScratchDir dir("dist_fingerprint_reject");
  const CampaignSpec spec = small_spec(11, 2);

  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  FakeWorker::Options imposter_options = named("imposter");
  imposter_options.fingerprint_override = "bogus-fingerprint";
  FakeWorker imposter(spec, coordinator, imposter_options);
  FakeWorker honest(spec, coordinator, named("honest"));
  const Coordinator::Report report = coordinator.serve();
  imposter.join();
  honest.join();

  EXPECT_EQ(report.workers_rejected, 1u);
  EXPECT_EQ(honest.error(), "");
  const std::string& error = imposter.error();
  EXPECT_NE(error.find("bogus-fingerprint"), std::string::npos) << error;
  EXPECT_NE(error.find(spec.fingerprint()), std::string::npos)
      << "rejection must quote the coordinator's fingerprint too: " << error;
}

TEST(Coordinator, ProtocolVersionMismatchIsRejectedQuotingBothVersions) {
  const ScratchDir dir("dist_version_reject");
  const CampaignSpec spec = small_spec(12, 2);

  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  FakeWorker::Options relic_options = named("relic");
  relic_options.version = 999;
  FakeWorker relic(spec, coordinator, relic_options);
  FakeWorker honest(spec, coordinator, named("honest"));
  const Coordinator::Report report = coordinator.serve();
  relic.join();
  honest.join();

  EXPECT_EQ(report.workers_rejected, 1u);
  const std::string& error = relic.error();
  EXPECT_NE(error.find("999"), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(kProtocolVersion)),
            std::string::npos)
      << error;
  EXPECT_EQ(slurp(options.store_out),
            reference_columnar_bytes(spec, dir));
}

TEST(Coordinator, RequiresSpoolDirAndStoreOut) {
  const CampaignSpec spec = small_spec(1, 1);
  Coordinator::Options no_spool;
  no_spool.store_out = "/tmp/x.ulpdcol";
  EXPECT_THROW(Coordinator(spec, no_spool), std::invalid_argument);
  Coordinator::Options no_store;
  no_store.spool_dir = "/tmp";
  EXPECT_THROW(Coordinator(spec, no_store), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Connection lifetime: lease expiry under a live peer, the drain after
// the grace period, and reaping under churn.

/// A hand-driven peer on a socketpair the coordinator adopts: it says
/// HELLO and then does only what the test makes it do.
Socket hello_peer(Coordinator& coordinator, const std::string& fingerprint,
                  const std::string& name, MsgType expected_answer) {
  auto [near, far] = Socket::socketpair(name);
  coordinator.adopt(std::move(far));
  send(near, Hello{kProtocolVersion, fingerprint, name});
  Frame frame;
  EXPECT_TRUE(receive(near, frame));
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(expected_answer));
  return std::move(near);
}

TEST(Coordinator, StalledLiveWorkerLeaseExpiresAndIsReLeased) {
  const ScratchDir dir("dist_stalled_live_worker");
  const CampaignSpec spec = small_spec(21, 3);  // 12 items, 4 leases
  const std::string reference = reference_columnar_bytes(spec, dir);

  auto options = coordinator_options(dir);
  options.lease_ttl_ms = 300;
  Coordinator coordinator(spec, options);
  // The staller takes one grant, then heartbeats only a lease it does not
  // hold: its connection stays alive, so only TTL expiry frees the range.
  Socket staller =
      hello_peer(coordinator, spec.fingerprint(), "staller", MsgType::kHelloOk);
  send(staller, LeaseRequest{});
  Frame frame;
  ASSERT_TRUE(receive(staller, frame));
  const LeaseGrant grant = decode_lease_grant(frame, staller.peer());
  std::atomic<bool> stop{false};
  std::thread heartbeats([&staller, &stop, &grant] {
    try {
      Frame ack;
      while (!stop.load()) {
        send(staller, Heartbeat{grant.lease_id + 1000});
        if (!receive(staller, ack)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    } catch (const util::SocketError&) {
      // Cut off by the drain.
    }
  });

  FakeWorker worker(spec, coordinator, named("finisher"));
  const Coordinator::Report report = coordinator.serve();
  worker.join();
  stop.store(true);
  heartbeats.join();

  EXPECT_EQ(worker.error(), "");
  EXPECT_GE(report.leases_expired, 1u);
  EXPECT_EQ(worker.report().items_executed, spec.item_count());
  EXPECT_EQ(slurp(options.store_out), reference);
}

TEST(Coordinator, SilentPeerDoesNotHoldServeOpenPastTheGrace) {
  const ScratchDir dir("dist_silent_peer");
  const CampaignSpec spec = small_spec(22, 2);
  const std::string reference = reference_columnar_bytes(spec, dir);

  auto options = coordinator_options(dir);
  options.lease_ttl_ms = 2'000;
  options.heartbeat_ms = 100;
  Coordinator coordinator(spec, options);
  Socket silent =
      hello_peer(coordinator, spec.fingerprint(), "silent", MsgType::kHelloOk);
  FakeWorker worker(spec, coordinator, named("worker"));
  auto served = std::async(std::launch::async,
                           [&coordinator] { return coordinator.serve(); });
  worker.join();  // the campaign is done and the worker said goodbye
  const auto done = std::chrono::steady_clock::now();
  const Coordinator::Report report = served.get();
  const auto waited = std::chrono::steady_clock::now() - done;

  EXPECT_LT(waited, std::chrono::milliseconds(4 * options.heartbeat_ms +
                                              1'000))
      << "serve() waited out the silent peer's receive timeout";
  EXPECT_EQ(worker.error(), "");
  EXPECT_EQ(report.workers_seen, 2u);
  EXPECT_EQ(slurp(options.store_out), reference);
  Frame frame;
  EXPECT_FALSE(receive(silent, frame)) << "the drain cuts the peer off";
}

TEST(Coordinator, RejectedPeerChurnLeavesMemoryThreadsAndFdsAtBaseline) {
  if (!soak::ProcessUsage::now().available()) GTEST_SKIP() << "no /proc";
  soak::cap_malloc_arenas();
  const ScratchDir dir("dist_rejected_churn");
  const CampaignSpec spec = small_spec(23, 1);
  const auto options = coordinator_options(dir);
  Coordinator coordinator(spec, options);
  const auto churn = [&coordinator](int peers) {
    for (int i = 0; i < peers; ++i) {
      (void)hello_peer(coordinator, "bogus-fingerprint", "churn",
                       MsgType::kHelloReject);
    }
  };
  // Handlers finish after their peers hang up; wait (bounded) until the
  // coordinator's gauge says none is left.
  const auto await_no_peers = [] {
    for (int i = 0; i < 2000; ++i) {
      if (util::telemetry::snapshot().gauges["dist.workers_connected"] ==
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
  ASSERT_TRUE(await_no_peers());
  const soak::ProcessUsage base = soak::ProcessUsage::now();
  churn(5'000);
  ASSERT_TRUE(await_no_peers());
  soak::expect_near_baseline(base, soak::settled_usage(base));

  FakeWorker honest(spec, coordinator, named("honest"));
  const Coordinator::Report report = coordinator.serve();
  honest.join();
  EXPECT_EQ(report.workers_rejected, 7'000u);
  EXPECT_EQ(slurp(options.store_out), reference_columnar_bytes(spec, dir));
}

}  // namespace
}  // namespace ulpdream::dist
