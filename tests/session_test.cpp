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

#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/campaign/scenario.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/store_reader.hpp"

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

ResultStore load_bytes(const std::string& bytes, const CampaignSpec& spec) {
  std::istringstream is(bytes);
  return ResultStore::load(is, spec);
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

  // Checkpoint after every item, capturing each snapshot's bytes — i.e.
  // every possible interruption point of this run.
  std::vector<std::string> checkpoints;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      checkpoints.push_back(save_bytes(snapshot));
    };
    const ResultStore store = session.submit(spec, options).wait();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(checkpoints.size(), spec.item_count());

  // Resume from the first, a middle and the last checkpoint, each loaded
  // from bytes as a fresh process would.
  for (const std::size_t at : {std::size_t{0}, checkpoints.size() / 2,
                               checkpoints.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    const ResultStore snapshot = load_bytes(checkpoints[at], spec);
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
  // The out-of-core sibling of EveryCheckpointResumesToTheIdenticalStore:
  // checkpoints persisted with save_columnar, reopened through the
  // auto-detecting StoreReader as a fresh process would, must complete to
  // the uninterrupted run bit-identically.
  const CampaignSpec spec = small_spec(2016, 5);  // 10 items
  const std::string reference = reference_bytes(spec);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ulpdream_columnar_ckpt";
  std::filesystem::create_directories(dir);
  std::vector<std::string> checkpoint_paths;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      const std::string path =
          (dir / ("ckpt" + std::to_string(checkpoint_paths.size()) + ".col"))
              .string();
      snapshot.save_columnar(path);
      checkpoint_paths.push_back(path);
    };
    const ResultStore store = session.submit(spec, options).wait();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(checkpoint_paths.size(), spec.item_count());

  for (const std::size_t at : {std::size_t{0}, checkpoint_paths.size() / 2,
                               checkpoint_paths.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    const StoreReader reader = StoreReader::open(checkpoint_paths[at], spec);
    EXPECT_EQ(reader.format(), StoreFormat::kColumnar);
    const ResultStore snapshot = reader.materialize();
    EXPECT_EQ(snapshot.items_done(), at + 1);

    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions resume;
    resume.resume_from = &snapshot;
    const CampaignHandle handle = session.submit(spec, resume);
    const ResultStore completed = handle.wait();
    ASSERT_TRUE(completed.complete());
    EXPECT_EQ(save_bytes(completed), reference);
    EXPECT_EQ(handle.progress().items_resumed, at + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, SaveAtomicPublishesTheExactByteStreamAndCleansItsStaging) {
  const CampaignSpec spec = small_spec(2016);
  const CampaignEngine engine(energy::SystemEnergyModel(), 1);
  const ResultStore store = engine.run(spec);
  const std::string reference = save_bytes(store);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ulpdream_session_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "run.store";

  // Fresh publish and an overwrite of an existing checkpoint both go
  // through the staged rename.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    store.save_atomic(path.string());
    std::ifstream f(path, std::ios::binary);
    std::stringstream bytes;
    bytes << f.rdbuf();
    EXPECT_EQ(bytes.str(), reference);
    EXPECT_EQ(save_bytes(load_bytes(bytes.str(), spec)), reference);
  }
  // No staging file survives a successful publish (pid-suffixed or not).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
  // A failed publish (unwritable target directory) throws and leaves no
  // partial file behind at the destination name.
  const std::filesystem::path bad =
      dir / "missing_subdir" / "run.store";
  EXPECT_THROW(store.save_atomic(bad.string()), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(bad));
  std::filesystem::remove_all(dir);
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
  Scenario scenario;
  scenario.app("dwt").emt("none").voltage(0.8).repetitions(2).seed(5);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ulpdream_scenario_run_to";
  std::filesystem::create_directories(dir);

  const ResultStore text_store =
      scenario.run_to((dir / "run.store").string(), StoreFormat::kText);
  const ResultStore col_store = scenario.run_to((dir / "run.col").string(),
                                                StoreFormat::kColumnar);
  EXPECT_EQ(save_bytes(text_store), save_bytes(col_store));

  const CampaignSpec spec = scenario.build_spec();
  const StoreReader text = StoreReader::open((dir / "run.store").string(), spec);
  const StoreReader col = StoreReader::open((dir / "run.col").string(), spec);
  EXPECT_EQ(text.format(), StoreFormat::kText);
  EXPECT_EQ(col.format(), StoreFormat::kColumnar);
  EXPECT_EQ(save_bytes(text.materialize()), save_bytes(text_store));
  EXPECT_EQ(save_bytes(col.materialize()), save_bytes(text_store));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ulpdream::campaign
