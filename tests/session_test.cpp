// The asynchronous execution runtime's determinism contract: campaigns
// submitted concurrently to one Session, cancelled at arbitrary points,
// or split across checkpoint/resume boundaries must reproduce the
// uninterrupted single-campaign run bit-identically — pinned here by
// byte-comparing the saved raw stores (save() writes exact
// shortest-round-trip doubles in canonical item order, so byte equality
// is sample-level bit equality).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scratch_dir.hpp"
#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/campaign/scenario.hpp"
#include "ulpdream/campaign/session.hpp"

namespace ulpdream::campaign {
namespace {

/// Small, fast grid (1 app x 2 EMTs x 2 voltages x 1 record x reps).
CampaignSpec small_spec(std::uint64_t seed, std::size_t reps = 4) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.7, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = reps;
  spec.seed = seed;
  return spec.normalized();
}

std::string save_bytes(const ResultStore& store) {
  std::ostringstream os;
  store.save(os);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// The uninterrupted single-campaign reference: blocking engine, one
/// thread — the baseline every interleaving must reproduce.
std::string reference_bytes(const CampaignSpec& spec) {
  const CampaignEngine engine(energy::SystemEnergyModel(), 1);
  return save_bytes(engine.run(spec));
}

TEST(Session, ConcurrentSubmitsMatchSerialRunsBitIdentically) {
  // Three different campaigns interleaved item-by-item on one pool; each
  // store must equal its isolated serial run byte-for-byte.
  const std::vector<CampaignSpec> specs = {
      small_spec(2016), small_spec(77, 3), small_spec(424242, 5)};

  Session session(energy::SystemEnergyModel(), 4);
  std::vector<CampaignHandle> handles;
  handles.reserve(specs.size());
  for (const CampaignSpec& spec : specs) {
    handles.push_back(session.submit(spec));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "campaign " << i);
    const ResultStore store = handles[i].wait();
    EXPECT_TRUE(store.complete());
    EXPECT_EQ(save_bytes(store), reference_bytes(specs[i]));
  }
}

TEST(Session, ThreadCountNeverChangesTheStore) {
  const CampaignSpec spec = small_spec(2016);
  const std::string reference = reference_bytes(spec);
  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Session session(energy::SystemEnergyModel(), threads);
    EXPECT_EQ(save_bytes(session.submit(spec).wait()), reference);
  }
}

TEST(Session, ShardsSubmittedConcurrentlyMergeToTheFullStore) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 4);
  SubmitOptions shard0;
  shard0.shard = Shard{0, 2};
  SubmitOptions shard1;
  shard1.shard = Shard{1, 2};
  CampaignHandle h0 = session.submit(spec, shard0);
  CampaignHandle h1 = session.submit(spec, shard1);

  ResultStore merged(spec);
  merged.merge(h0.wait());
  merged.merge(h1.wait());
  ASSERT_TRUE(merged.complete());
  EXPECT_EQ(save_bytes(merged), reference_bytes(spec));
}

TEST(Session, CancelIsItemGranularAndResumableToTheIdenticalStore) {
  const CampaignSpec spec = small_spec(2016, 6);  // 12 items
  const std::string reference = reference_bytes(spec);

  Session session(energy::SystemEnergyModel(), 2);
  SubmitOptions options;
  // Cancel from the observer after the first completed item — the
  // sanctioned "stop after N" idiom; the callback receives the job's
  // own handle, so no caller-side handle plumbing (or racing) needed.
  std::atomic<std::size_t> streamed{0};
  options.on_item = [&](const CampaignHandle& h, const WorkItem&,
                        std::span<const Sample>) {
    if (++streamed == 1) h.cancel();
  };
  const CampaignHandle handle = session.submit(spec, options);
  const ResultStore partial = handle.wait();

  EXPECT_TRUE(handle.progress().cancelled);
  EXPECT_GE(partial.items_done(), 1u);
  ASSERT_FALSE(partial.complete());  // 12 items, cancel at 1, <=2 in flight

  // Every recorded item must already be bit-identical to the reference
  // (no torn or partially-recorded items)...
  // ...and resubmitting with resume_from in a fresh session completes
  // the grid to the exact uninterrupted bytes.
  Session fresh(energy::SystemEnergyModel(), 4);
  SubmitOptions resume;
  resume.resume_from = &partial;
  const ResultStore completed = fresh.submit(spec, resume).wait();
  ASSERT_TRUE(completed.complete());
  EXPECT_EQ(save_bytes(completed), reference);
}

TEST(Session, EveryCheckpointResumesToTheIdenticalStore) {
  const CampaignSpec spec = small_spec(2016, 5);  // 10 items
  const std::string reference = reference_bytes(spec);

  // Checkpoint after every item, each to its own file — i.e. every
  // possible interruption point of this run.
  const test::ScratchDir dir("session_every_ckpt");
  std::vector<std::string> checkpoint_paths;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      checkpoint_paths.push_back(
          dir.file("ckpt" + std::to_string(checkpoint_paths.size()) + ".col"));
      snapshot.save_columnar(checkpoint_paths.back());
    };
    const ResultStore store = session.submit(spec, options).wait();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(checkpoint_paths.size(), spec.item_count());

  // Resume from every checkpoint, each reopened from its file as a fresh
  // process would.
  for (std::size_t at = 0; at < checkpoint_paths.size(); ++at) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    const ResultStore snapshot =
        ColumnarStore::open(checkpoint_paths[at], spec).materialize();
    EXPECT_EQ(snapshot.items_done(), at + 1);

    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions resume;
    resume.resume_from = &snapshot;
    const CampaignHandle handle = session.submit(spec, resume);
    const ResultStore completed = handle.wait();
    ASSERT_TRUE(completed.complete());
    EXPECT_EQ(save_bytes(completed), reference);
    // The resumed run executed only the missing items.
    EXPECT_EQ(handle.progress().items_resumed, at + 1);
  }
}

TEST(Session, ColumnarCheckpointResumesToTheIdenticalStore) {
  // The --checkpoint-every shape: every checkpoint overwrites one path
  // through the staged publish, so whenever the file is looked at it is
  // a complete store of exactly the items done so far. Reopen it after
  // each landing, as a process resuming after a kill at that moment
  // would, and resume from the first, a middle and the last of those.
  const CampaignSpec spec = small_spec(2016, 5);  // 10 items
  const std::string reference = reference_bytes(spec);
  const test::ScratchDir dir("session_ckpt_overwrite");
  const std::string path = dir.file("run.col");

  std::vector<ResultStore> reopened;
  ResultStore store;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      snapshot.save_columnar(path);
      reopened.push_back(ColumnarStore::open(path, spec).materialize());
      EXPECT_EQ(save_bytes(reopened.back()), save_bytes(snapshot));
    };
    store = session.submit(spec, options).wait();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(reopened.size(), spec.item_count());
  // The last overwrite left exactly the bytes a fresh save of the final
  // store writes.
  store.save_columnar(dir.file("fresh.col"));
  EXPECT_EQ(file_bytes(path), file_bytes(dir.file("fresh.col")));

  for (const std::size_t at :
       {std::size_t{0}, reopened.size() / 2, reopened.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    EXPECT_EQ(reopened[at].items_done(), at + 1);
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions resume;
    resume.resume_from = &reopened[at];
    const CampaignHandle handle = session.submit(spec, resume);
    const ResultStore completed = handle.wait();
    ASSERT_TRUE(completed.complete());
    EXPECT_EQ(save_bytes(completed), reference);
    EXPECT_EQ(handle.progress().items_resumed, at + 1);
  }
}

TEST(Session, SaveAtomicPublishesTheExactByteStreamAndCleansItsStaging) {
  // save_columnar is the one staged publish (PATH.tmp.<pid>, fsync,
  // rename): a fresh publish and an overwrite of an existing checkpoint
  // both land the exact bytes of the store and leave no staging file.
  const CampaignSpec spec = small_spec(2016);
  const CampaignEngine engine(energy::SystemEnergyModel(), 1);
  const ResultStore store = engine.run(spec);
  const std::string reference = save_bytes(store);
  const test::ScratchDir dir("session_save_atomic");
  const std::string path = dir.file("run.col");

  store.save_columnar(dir.file("reference.col"));
  const std::string reference_file = file_bytes(dir.file("reference.col"));
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    store.save_columnar(path);
    EXPECT_EQ(file_bytes(path), reference_file);
    EXPECT_EQ(save_bytes(ColumnarStore::open(path, spec).materialize()),
              reference);
  }
  // No staging file survives a successful publish (pid-suffixed or not).
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
  // A failed publish (unwritable target directory) throws and leaves no
  // partial file behind at the destination name.
  const std::string bad = dir.file("missing_subdir/run.col");
  EXPECT_THROW(store.save_columnar(bad), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(bad));
}

TEST(Session, ObserverStreamsEveryItemExactlyOnceWithItsExactSamples) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 4);

  // Callbacks are serialized by the job lock, so a plain map is safe.
  std::map<std::size_t, std::vector<Sample>> streamed;
  SubmitOptions options;
  options.on_item = [&](const CampaignHandle&, const WorkItem& item,
                        std::span<const Sample> s) {
    const bool fresh =
        streamed.emplace(item.index, std::vector<Sample>(s.begin(), s.end()))
            .second;
    EXPECT_TRUE(fresh) << "item " << item.index << " streamed twice";
  };
  const ResultStore store = session.submit(spec, options).wait();

  // Complete: every item streamed exactly once...
  ASSERT_EQ(streamed.size(), spec.item_count());
  // ...with samples identical to the recorded store: a store rebuilt
  // purely from the stream is byte-identical.
  ResultStore rebuilt(spec);
  for (const WorkItem& item : expand(spec)) {
    rebuilt.record_item(item, streamed.at(item.index));
  }
  for (std::size_t ri = 0; ri < spec.records.size(); ++ri) {
    for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
      rebuilt.set_max_snr(ri, ai, store.max_snr_db(ri, ai));
    }
  }
  EXPECT_EQ(save_bytes(rebuilt), save_bytes(store));
}

TEST(Session, SerialObserverSeesCanonicalItemOrder) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 1);
  std::vector<std::size_t> order;
  SubmitOptions options;
  options.on_item = [&](const CampaignHandle&, const WorkItem& item,
                        std::span<const Sample>) {
    order.push_back(item.index);
  };
  (void)session.submit(spec, options).wait();
  ASSERT_EQ(order.size(), spec.item_count());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Session, ResumeRejectsAStoreFromADifferentGrid) {
  const CampaignSpec spec = small_spec(2016);
  CampaignSpec other = spec;
  other.seed = 1;
  const ResultStore wrong(other.normalized());

  Session session(energy::SystemEnergyModel(), 2);
  SubmitOptions resume;
  resume.resume_from = &wrong;
  try {
    (void)session.submit(spec, resume);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(Session, ProgressReportsCompletionAndPerWorkerThroughput) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 3);
  CampaignHandle handle = session.submit(spec);
  (void)handle.wait();

  const Progress p = handle.progress();
  EXPECT_TRUE(p.finished);
  EXPECT_FALSE(p.cancelled);
  EXPECT_EQ(p.items_total, spec.item_count());
  EXPECT_EQ(p.items_done, spec.item_count());
  EXPECT_EQ(p.items_remaining(), 0u);
  EXPECT_EQ(p.items_resumed, 0u);
  EXPECT_GT(p.items_per_second, 0.0);
  EXPECT_GT(p.elapsed_s, 0.0);
  ASSERT_EQ(p.per_worker_items.size(), 3u);
  std::size_t executed = 0;
  for (std::size_t n : p.per_worker_items) executed += n;
  EXPECT_EQ(executed, spec.item_count());
}

TEST(Session, TryResultIsEmptyUntilFinished) {
  const CampaignSpec spec = small_spec(2016, 2);
  Session session(energy::SystemEnergyModel(), 2);
  CampaignHandle handle = session.submit(spec);
  // May or may not be ready yet; once wait() returns it must be.
  (void)handle.wait();
  const auto result = handle.try_result();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete());

  // take() moves the store out of the runtime exactly once.
  const ResultStore taken = handle.take();
  EXPECT_TRUE(taken.complete());
  EXPECT_EQ(handle.wait().items_done(), 0u);
}

TEST(Session, ScenarioSubmitsOntoAnAttachedSession) {
  Session session(energy::SystemEnergyModel(), 2);
  Scenario scenario;
  scenario.app("dwt").emt("none").voltage(0.8).repetitions(2).seed(5)
      .session(session);
  const CampaignHandle handle = scenario.submit();
  const ResultStore store = handle.wait();
  EXPECT_TRUE(store.complete());
  // The blocking facade paths agree with the async one.
  EXPECT_EQ(save_bytes(scenario.run()), save_bytes(store));
  EXPECT_EQ(save_bytes(store), reference_bytes(scenario.build_spec()));

  EXPECT_THROW((void)Scenario().app("dwt").submit(), std::logic_error);
}

TEST(Session, ScenarioRunToPersistsInEitherFormatAndReopensIdentically) {
  // Columnar is the one on-disk format: a scenario's blocking run saved
  // with save_columnar reopens to the identical store, and two saves of
  // the same scenario write identical files.
  Scenario scenario;
  scenario.app("dwt").emt("none").voltage(0.8).repetitions(2).seed(5);
  const test::ScratchDir dir("session_scenario_save");

  const ResultStore first = scenario.run();
  first.save_columnar(dir.file("first.col"));
  scenario.run().save_columnar(dir.file("second.col"));
  EXPECT_EQ(file_bytes(dir.file("first.col")),
            file_bytes(dir.file("second.col")));

  const CampaignSpec spec = scenario.build_spec();
  EXPECT_EQ(save_bytes(
                ColumnarStore::open(dir.file("first.col"), spec).materialize()),
            save_bytes(first));
  EXPECT_EQ(save_bytes(first), reference_bytes(spec));
}

}  // namespace
}  // namespace ulpdream::campaign
