#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "ulpdream/campaign/engine.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/sim/policy_explorer.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::campaign {
namespace {

/// Small 5-axis grid: 2 apps x 3 EMTs x 2 voltages x 2 records (different
/// pathology and noise level) x 2 repetitions.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.apps = {"dwt", "morph_filter"};
  spec.emts = core::paper_emt_names();
  spec.voltages = {0.6, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kAtrialFib, 1.25, 11}};
  spec.repetitions = 2;
  spec.seed = 2016;
  return spec.normalized();
}

// Bit-identical row comparison: EXPECT_EQ on every double, no tolerance.
void expect_rows_identical(const std::vector<AggregateRow>& a,
                           const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "row " << i);
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].emt, b[i].emt);
    EXPECT_EQ(a[i].voltage, b[i].voltage);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].snr_mean_db, b[i].snr_mean_db);
    EXPECT_EQ(a[i].snr_stddev_db, b[i].snr_stddev_db);
    EXPECT_EQ(a[i].snr_min_db, b[i].snr_min_db);
    EXPECT_EQ(a[i].snr_max_db, b[i].snr_max_db);
    EXPECT_EQ(a[i].snr_p10_db, b[i].snr_p10_db);
    EXPECT_EQ(a[i].energy_mean_j, b[i].energy_mean_j);
    EXPECT_EQ(a[i].data_dynamic_j, b[i].data_dynamic_j);
    EXPECT_EQ(a[i].side_dynamic_j, b[i].side_dynamic_j);
    EXPECT_EQ(a[i].codec_j, b[i].codec_j);
    EXPECT_EQ(a[i].data_leak_j, b[i].data_leak_j);
    EXPECT_EQ(a[i].side_leak_j, b[i].side_leak_j);
    EXPECT_EQ(a[i].corrected_mean, b[i].corrected_mean);
    EXPECT_EQ(a[i].detected_mean, b[i].detected_mean);
  }
}

// Bit-identical sweep comparison: EXPECT_EQ on every field of every point.
void expect_bit_identical(const sim::SweepResult& a,
                          const sim::SweepResult& b) {
  EXPECT_EQ(a.max_snr_db, b.max_snr_db);
  EXPECT_EQ(a.config.voltages, b.config.voltages);
  EXPECT_EQ(a.config.emts, b.config.emts);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point " << i);
    const sim::SweepPoint& pa = a.points[i];
    const sim::SweepPoint& pb = b.points[i];
    EXPECT_EQ(pa.app, pb.app);
    EXPECT_EQ(pa.emt, pb.emt);
    EXPECT_EQ(pa.voltage, pb.voltage);
    EXPECT_EQ(pa.ber, pb.ber);
    EXPECT_EQ(pa.snr_mean_db, pb.snr_mean_db);
    EXPECT_EQ(pa.snr_stddev_db, pb.snr_stddev_db);
    EXPECT_EQ(pa.snr_min_db, pb.snr_min_db);
    EXPECT_EQ(pa.snr_p10_db, pb.snr_p10_db);
    EXPECT_EQ(pa.energy_mean_j, pb.energy_mean_j);
    EXPECT_EQ(pa.energy_mean.data_dynamic_j, pb.energy_mean.data_dynamic_j);
    EXPECT_EQ(pa.energy_mean.side_dynamic_j, pb.energy_mean.side_dynamic_j);
    EXPECT_EQ(pa.energy_mean.codec_j, pb.energy_mean.codec_j);
    EXPECT_EQ(pa.energy_mean.data_leak_j, pb.energy_mean.data_leak_j);
    EXPECT_EQ(pa.energy_mean.side_leak_j, pb.energy_mean.side_leak_j);
    EXPECT_EQ(pa.corrected_words_mean, pb.corrected_words_mean);
    EXPECT_EQ(pa.detected_uncorrectable_mean, pb.detected_uncorrectable_mean);
  }
}

TEST(CampaignSpec, ExpansionIsCanonical) {
  const CampaignSpec spec = tiny_spec();
  EXPECT_EQ(spec.item_count(), 2u * 2u * 2u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 3u * 2u);
  const auto items = expand(spec);
  ASSERT_EQ(items.size(), spec.item_count());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
    EXPECT_EQ(items[i].index,
              (items[i].record_index * spec.voltages.size() +
               items[i].voltage_index) *
                      spec.repetitions +
                  items[i].rep_index);
    // Seeds depend only on (spec.seed, index) — never on shard/thread.
    EXPECT_EQ(items[i].seed, util::mix64(spec.seed, i));
  }
}

TEST(CampaignSpec, ShardsPartitionTheExpansion) {
  const CampaignSpec spec = tiny_spec();
  std::vector<char> seen(spec.item_count(), 0);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (const WorkItem& item : expand_shard(spec, shard, 3)) {
      EXPECT_FALSE(seen[item.index]);
      seen[item.index] = 1;
    }
  }
  for (char s : seen) EXPECT_TRUE(s);
  EXPECT_THROW((void)expand_shard(spec, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)expand_shard(spec, 0, 0), std::invalid_argument);
}

TEST(CampaignSpec, NormalizeFillsDefaults) {
  const CampaignSpec spec = CampaignSpec{}.normalized();
  EXPECT_EQ(spec.apps, apps::paper_app_names());
  EXPECT_EQ(spec.emts, core::paper_emt_names());
  EXPECT_EQ(spec.voltages.size(), 9u);
  EXPECT_EQ(spec.records.size(), 1u);
  EXPECT_GE(spec.repetitions, 1u);
}

TEST(CampaignSpec, VoltageRangeSnapsGridPoints) {
  const auto v = CampaignSpec::voltage_range(0.5, 0.9, 0.05);
  ASSERT_EQ(v.size(), 9u);
  EXPECT_EQ(v.front(), 0.5);
  EXPECT_EQ(v[6], 0.8);  // no accumulated +=step drift
  EXPECT_EQ(v.back(), 0.9);
}

TEST(CampaignSpec, ParsesAxisLists) {
  const auto apps = parse_app_list("dwt,cs");
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0], "dwt");
  EXPECT_EQ(apps[1], "cs");
  EXPECT_EQ(parse_emt_list("paper"), core::paper_emt_names());
  EXPECT_EQ(parse_pathology_list("afib").front(),
            ecg::Pathology::kAtrialFib);
  EXPECT_THROW((void)parse_app_list("fft"), std::invalid_argument);
  EXPECT_THROW((void)parse_emt_list("raid5"), std::invalid_argument);
  EXPECT_THROW((void)parse_pathology_list("flu"), std::invalid_argument);
}

TEST(CampaignEngine, BitIdenticalAcrossThreadCounts) {
  // The two-app grid, and a one-voltage grid with fewer items (3) than
  // most of the thread counts below.
  CampaignSpec one_voltage = tiny_spec();
  one_voltage.voltages = {0.7};
  one_voltage.records.resize(1);
  one_voltage.repetitions = 3;
  for (const CampaignSpec& spec : {tiny_spec(), one_voltage.normalized()}) {
    SCOPED_TRACE(testing::Message() << "items=" << spec.item_count());
    const CampaignEngine serial(energy::SystemEnergyModel(), 1);
    const ResultStore baseline = serial.run(spec);
    for (const unsigned threads : {2u, 4u, 8u, 16u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      const CampaignEngine engine(energy::SystemEnergyModel(), threads);
      EXPECT_EQ(engine.threads(), threads);
      const ResultStore store = engine.run(spec);
      expect_rows_identical(baseline.aggregate(), store.aggregate());
      for (std::size_t ri = 0; ri < spec.records.size(); ++ri) {
        for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
          SCOPED_TRACE(testing::Message() << "record " << ri << " app " << ai);
          expect_bit_identical(baseline.to_sweep_result(ri, ai),
                               store.to_sweep_result(ri, ai));
        }
      }
    }
  }
}

TEST(CampaignEngine, DefaultThreadCountIsPositive) {
  EXPECT_GE(CampaignEngine().threads(), 1u);
}

// A voltage sweep is a one-record campaign sliced by to_sweep_result: the
// dwt app on the default test record, five voltages, six fault maps each.
CampaignSpec sweep_spec() {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = core::paper_emt_names();
  spec.voltages = {0.5, 0.6, 0.7, 0.8, 0.9};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 29}};
  spec.repetitions = 6;
  return spec.normalized();
}

sim::SweepResult run_sweep(const CampaignSpec& spec, unsigned threads,
                           std::size_t app_index = 0) {
  const CampaignEngine engine(energy::SystemEnergyModel(), threads);
  EXPECT_EQ(engine.threads(), threads);
  return engine.run(spec).to_sweep_result(0, app_index);
}

TEST(ParallelSweep, BitIdenticalToSerialAcrossThreadCounts) {
  const sim::SweepResult serial = run_sweep(sweep_spec(), 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_bit_identical(serial, run_sweep(sweep_spec(), threads));
  }
}

TEST(ParallelSweep, MultiAppBitIdenticalToSerial) {
  CampaignSpec spec = sweep_spec();
  spec.apps = {"dwt", "morph_filter"};
  spec = spec.normalized();
  const ResultStore serial = CampaignEngine(energy::SystemEnergyModel(), 1)
                                 .run(spec);
  const ResultStore parallel = CampaignEngine(energy::SystemEnergyModel(), 4)
                                   .run(spec);
  for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
    SCOPED_TRACE(testing::Message() << "app " << ai);
    expect_bit_identical(serial.to_sweep_result(0, ai),
                         parallel.to_sweep_result(0, ai));
  }
}

TEST(ParallelSweep, RepeatedParallelRunsAreIdentical) {
  expect_bit_identical(run_sweep(sweep_spec(), 8), run_sweep(sweep_spec(), 8));
}

TEST(ParallelSweep, MoreThreadsThanVoltagePointsIsSafe) {
  CampaignSpec spec = sweep_spec();
  spec.voltages = {0.7};
  spec.repetitions = 3;
  spec = spec.normalized();
  expect_bit_identical(run_sweep(spec, 1), run_sweep(spec, 16));
}

TEST(ParallelSweep, FillsInDefaultVoltagesAndEmts) {
  CampaignSpec spec = sweep_spec();
  spec.voltages.clear();
  spec.emts.clear();
  spec.repetitions = 1;
  spec = spec.normalized();
  const sim::SweepResult result = run_sweep(spec, 2);
  const CampaignSpec defaults = CampaignSpec{}.normalized();
  EXPECT_EQ(result.config.voltages, defaults.voltages);
  EXPECT_EQ(result.config.emts, defaults.emts);
  EXPECT_EQ(result.points.size(),
            defaults.voltages.size() * defaults.emts.size());
}

// Regression: generate_record names records <pathology>_s<seed>, which
// collides for axes differing only in noise level; the engine must rename
// records to their (unique) axis label, or the runner's name-keyed
// reference cache scores one record against the other's golden reference.
TEST(CampaignEngine, RecordsDifferingOnlyInNoiseKeepTheirOwnReferences) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none"};
  spec.voltages = {0.9};  // nominal: essentially error-free
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kNormalSinus, 2.0, 7}};
  spec.repetitions = 1;
  spec = spec.normalized();

  const CampaignEngine engine(energy::SystemEnergyModel(), 1);
  const ResultStore store = engine.run(spec);
  const auto rows = store.aggregate();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].record, rows[1].record);
  // A clean run scored against its *own* reference sits near the
  // quantization ceiling for both records; against the other record's
  // reference it collapses to the noise-difference floor.
  EXPECT_GT(rows[0].snr_mean_db, 40.0);
  EXPECT_GT(rows[1].snr_mean_db, 40.0);
  // The clean-run ceilings come from distinct references too.
  EXPECT_NE(store.max_snr_db(0, 0), store.max_snr_db(1, 0));
}

TEST(CampaignEngine, ShardSplitsMergeToTheFullStore) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  const auto full = engine.run(spec).aggregate();

  for (const std::size_t splits : {2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "splits=" << splits);
    std::vector<ResultStore> shards;
    for (std::size_t i = 0; i < splits; ++i) {
      shards.push_back(engine.run(spec, Shard{i, splits}));
      EXPECT_FALSE(shards.back().complete());
    }
    // Merge in reverse order to show order-independence.
    ResultStore merged(spec);
    for (std::size_t i = splits; i-- > 0;) merged.merge(shards[i]);
    ASSERT_TRUE(merged.complete());
    expect_rows_identical(full, merged.aggregate());
  }
}

TEST(CampaignEngine, RawStoreSaveLoadRoundTripsAcrossProcessesShape) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  // Simulate the CLI's cross-process shard workflow: each shard saves its
  // raw store to a stream; a fresh merge "process" reloads and merges.
  std::vector<std::string> blobs;
  for (std::size_t i = 0; i < 2; ++i) {
    std::ostringstream os;
    engine.run(spec, Shard{i, 2}).save(os);
    blobs.push_back(os.str());
  }
  ResultStore merged(spec);
  for (const std::string& blob : blobs) {
    std::istringstream is(blob);
    merged.merge(ResultStore::load(is, spec));
  }
  ASSERT_TRUE(merged.complete());
  expect_rows_identical(engine.run(spec).aggregate(), merged.aggregate());
}

TEST(ResultStore, ShardStoresAreSparseAndScaleWithTheirSlice) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 2);
  const std::size_t total = spec.item_count();

  const ResultStore shard = engine.run(spec, Shard{0, 3});
  // Memory is keyed by the shard's items, not the whole grid.
  EXPECT_LT(shard.stored_items(), total);
  EXPECT_EQ(shard.stored_items(), shard.items_done());
  EXPECT_FALSE(shard.complete());

  // Loading a shard's save materializes only that shard's items.
  std::ostringstream os;
  shard.save(os);
  std::istringstream is(os.str());
  const ResultStore loaded = ResultStore::load(is, spec);
  EXPECT_EQ(loaded.stored_items(), shard.stored_items());
  EXPECT_EQ(loaded.items_done(), shard.items_done());

  // An empty merge target starts with no slots at all and grows only as
  // shards fold in.
  ResultStore merged(spec);
  EXPECT_EQ(merged.stored_items(), 0u);
  merged.merge(shard);
  EXPECT_EQ(merged.stored_items(), shard.stored_items());
}

TEST(ResultStore, RecordItemRejectsOutOfRangeIndex) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store(spec);
  WorkItem bogus;
  bogus.index = spec.item_count();
  const std::vector<Sample> samples(spec.apps.size() * spec.emts.size());
  EXPECT_THROW(store.record_item(bogus, samples), std::invalid_argument);
  WorkItem first;
  first.index = 0;
  EXPECT_THROW(store.record_item(first, {}), std::invalid_argument);
  EXPECT_NO_THROW(store.record_item(first, samples));
  EXPECT_EQ(store.items_done(), 1u);
}

TEST(ResultStore, MergeAndLoadRejectSpecMismatch) {
  const CampaignSpec spec = tiny_spec();
  CampaignSpec other = spec;
  other.seed += 1;
  EXPECT_THROW(ResultStore(spec).merge(ResultStore(other.normalized())),
               std::invalid_argument);

  std::ostringstream os;
  ResultStore(spec).save(os);
  std::istringstream is(os.str());
  EXPECT_THROW((void)ResultStore::load(is, other), std::invalid_argument);
}

TEST(ResultStore, AggregateRequiresCompleteStore) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 2);
  const ResultStore partial = engine.run(spec, Shard{0, 2});
  EXPECT_THROW((void)partial.aggregate(), std::logic_error);
  EXPECT_THROW((void)partial.to_sweep_result(0, 0), std::logic_error);
}

TEST(ResultStore, GroupByMarginalizesUngroupedAxes) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  const ResultStore store = engine.run(spec);

  GroupBy by_app;
  by_app.record = by_app.emt = by_app.voltage = false;
  const auto rows = store.aggregate(by_app);
  ASSERT_EQ(rows.size(), spec.apps.size());
  for (const AggregateRow& row : rows) {
    EXPECT_EQ(row.record, "*");
    EXPECT_EQ(row.emt, "*");
    EXPECT_TRUE(std::isnan(row.voltage));
    // Every sample of the app: items x emts.
    EXPECT_EQ(row.n, spec.item_count() * spec.emts.size());
  }
  EXPECT_EQ(rows[0].app, "dwt");
  EXPECT_EQ(rows[1].app, "morph_filter");
}

TEST(ResultStore, CsvRoundTripIsLossless) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  const auto rows = engine.run(spec).aggregate();

  std::stringstream ss;
  write_rows_csv(ss, rows);
  expect_rows_identical(rows, read_rows_csv(ss));
}

TEST(ResultStore, JsonRoundTripIsLossless) {
  const CampaignSpec spec = tiny_spec();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  const auto rows = engine.run(spec).aggregate();

  std::stringstream ss;
  write_rows_json(ss, rows);
  expect_rows_identical(rows, read_rows_json(ss));
}

TEST(ResultStore, NonFiniteDoublesRoundTripThroughCsvAndJson) {
  // A perfectly reconstructed window has +Inf SNR (zero error power) and a
  // marginalized voltage is NaN, so non-finite values are reachable in real
  // exports. They must survive write -> read in both machine formats: CSV
  // carries the to_chars tokens (inf/-inf/nan) verbatim, while JSON — which
  // has no non-finite literals — encodes NaN as null and the infinities as
  // the quoted strings "inf"/"-inf".
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  AggregateRow row;
  row.record = "nsr_7";
  row.app = "dwt";
  row.emt = "none";
  row.voltage = nan;  // marginalized
  row.n = 3;
  row.snr_mean_db = inf;
  row.snr_stddev_db = nan;
  row.snr_min_db = -inf;
  row.snr_max_db = inf;
  row.snr_p10_db = inf;
  row.energy_mean_j = 1.25e-6;
  const std::vector<AggregateRow> rows = {row};

  auto check = [&](const std::vector<AggregateRow>& back) {
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(std::isnan(back[0].voltage));
    EXPECT_EQ(back[0].n, 3u);
    EXPECT_EQ(back[0].snr_mean_db, inf);
    EXPECT_TRUE(std::isnan(back[0].snr_stddev_db));
    EXPECT_EQ(back[0].snr_min_db, -inf);
    EXPECT_EQ(back[0].snr_max_db, inf);
    EXPECT_EQ(back[0].snr_p10_db, inf);
    EXPECT_EQ(back[0].energy_mean_j, 1.25e-6);
  };

  std::stringstream csv;
  write_rows_csv(csv, rows);
  check(read_rows_csv(csv));

  std::stringstream json;
  write_rows_json(json, rows);
  const std::string text = json.str();
  // The document must be real JSON: every inf token is quoted, NaN is null.
  for (std::size_t at = text.find("inf"); at != std::string::npos;
       at = text.find("inf", at + 1)) {
    const char before = text[at - 1];
    EXPECT_TRUE(before == '"' || before == '-') << "bare inf at " << at;
    if (before == '-') {
      EXPECT_EQ(text[at - 2], '"') << "bare -inf at " << at;
    }
    EXPECT_EQ(text[at + 3], '"') << "unterminated inf token at " << at;
  }
  EXPECT_NE(text.find("\"voltage\":null"), std::string::npos);
  check(read_rows_json(json));

  // Unknown quoted tokens in a numeric field are rejected, not zeroed.
  std::istringstream bogus(
      R"({"rows":[{"record":"r","app":"a","emt":"e","voltage":"fast"}]})");
  EXPECT_THROW((void)read_rows_json(bogus), std::invalid_argument);
}

TEST(ResultStore, BridgesToThePolicyExplorer) {
  CampaignSpec spec = tiny_spec();
  spec.apps = {"dwt"};
  spec.voltages = {0.6, 0.7, 0.8, 0.9};  // policy needs the nominal point
  spec = spec.normalized();
  const CampaignEngine engine(energy::SystemEnergyModel(), 4);
  const ResultStore store = engine.run(spec);

  const sim::SweepResult sweep = store.to_sweep_result(0, 0);
  EXPECT_EQ(sweep.points.size(), spec.voltages.size() * spec.emts.size());
  EXPECT_EQ(sweep.max_snr_db, store.max_snr_db(0, 0));
  ASSERT_NE(sweep.find("dream", 0.8), nullptr);
  EXPECT_EQ(sweep.find("dream", 0.8)->app, "dwt");

  const sim::PolicyResult policy = sim::explore_policy(sweep, 1.0);
  EXPECT_EQ(policy.points.size(), spec.emts.size());
  EXPECT_GT(policy.nominal_energy_j, 0.0);
}

TEST(ResultStore, SweepPointsAreTheMatchingAggregateRows) {
  const CampaignSpec spec = tiny_spec();
  const ResultStore store =
      CampaignEngine(energy::SystemEnergyModel(), 2).run(spec);
  const std::vector<AggregateRow> rows = store.aggregate();
  const auto ber_model = mem::make_ber_model(spec.ber_model);
  const std::size_t ne = spec.emts.size();
  const std::size_t nv = spec.voltages.size();
  for (std::size_t ri = 0; ri < spec.records.size(); ++ri) {
    for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
      const sim::SweepResult sweep = store.to_sweep_result(ri, ai);
      EXPECT_EQ(sweep.max_snr_db, store.max_snr_db(ri, ai));
      EXPECT_EQ(sweep.config.voltages, spec.voltages);
      EXPECT_EQ(sweep.config.emts, spec.emts);
      ASSERT_EQ(sweep.points.size(), ne * nv);
      for (std::size_t vi = 0; vi < nv; ++vi) {
        for (std::size_t ei = 0; ei < ne; ++ei) {
          SCOPED_TRACE(testing::Message() << "record " << ri << " app " << ai
                                          << " emt " << ei << " v " << vi);
          // Points run voltage-major, EMT-minor; rows run record, app,
          // EMT, voltage.
          const sim::SweepPoint& p = sweep.points[vi * ne + ei];
          const AggregateRow& row = rows[((ri * spec.apps.size() + ai) * ne +
                                          ei) * nv + vi];
          EXPECT_EQ(row.record, spec.records[ri].label());
          EXPECT_EQ(p.app, row.app);
          EXPECT_EQ(p.app, spec.apps[ai]);
          EXPECT_EQ(p.emt, row.emt);
          EXPECT_EQ(p.emt, spec.emts[ei]);
          EXPECT_EQ(p.voltage, row.voltage);
          EXPECT_EQ(p.voltage, spec.voltages[vi]);
          EXPECT_EQ(p.ber, ber_model->ber(row.voltage));
          EXPECT_EQ(p.snr_mean_db, row.snr_mean_db);
          EXPECT_EQ(p.snr_stddev_db, row.snr_stddev_db);
          EXPECT_EQ(p.snr_min_db, row.snr_min_db);
          EXPECT_EQ(p.snr_p10_db, row.snr_p10_db);
          EXPECT_EQ(p.energy_mean_j, row.energy_mean_j);
          EXPECT_EQ(p.energy_mean.data_dynamic_j, row.data_dynamic_j);
          EXPECT_EQ(p.energy_mean.side_dynamic_j, row.side_dynamic_j);
          EXPECT_EQ(p.energy_mean.codec_j, row.codec_j);
          EXPECT_EQ(p.energy_mean.data_leak_j, row.data_leak_j);
          EXPECT_EQ(p.energy_mean.side_leak_j, row.side_leak_j);
          EXPECT_EQ(p.corrected_words_mean, row.corrected_mean);
          EXPECT_EQ(p.detected_uncorrectable_mean, row.detected_mean);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ulpdream::campaign
