// The out-of-core columnar persistence contract: a columnar store must
// reproduce the text format's aggregates bit-identically through every
// access mode (mmap, buffered fallback, bounded streaming), every merge
// strategy (in-memory vs append, any shard order) and a checkpoint round
// trip — and every malformed, truncated or mismatched file must fail
// with a typed StoreError naming the path, never an out-of-bounds read.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/campaign/store_reader.hpp"

namespace ulpdream::campaign {
namespace {

namespace fs = std::filesystem;

/// Grid with every axis > 1 so grouping is exercised: 2 apps x 2 EMTs x
/// 2 voltages x 2 records x 2 reps = 8 items, 4 samples per item. Names
/// never resolve against the registries (nothing executes here).
CampaignSpec test_spec(std::uint64_t seed = 99) {
  CampaignSpec spec;
  spec.apps = {"a0", "a1"};
  spec.emts = {"e0", "e1"};
  spec.voltages = {0.6, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kAtrialFib, 1.25, 11}};
  spec.repetitions = 2;
  spec.seed = seed;
  return spec.normalized();
}

Sample synthetic_sample(std::size_t item, std::size_t k) {
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  };
  const std::uint64_t h = mix(item * 11400714819323198485ULL + k + 1);
  Sample s;
  s.snr_db = static_cast<double>(h & 0xFFFF) / 256.0 - 100.0;
  s.energy.data_dynamic_j = static_cast<double>((h >> 8) & 0xFFFF) * 1e-9;
  s.energy.side_dynamic_j = static_cast<double>((h >> 16) & 0xFFFF) * 1e-9;
  s.energy.codec_j = static_cast<double>((h >> 24) & 0xFFFF) * 1e-10;
  s.energy.data_leak_j = static_cast<double>((h >> 32) & 0xFFFF) * 1e-10;
  s.energy.side_leak_j = static_cast<double>((h >> 40) & 0xFFFF) * 1e-10;
  s.corrected_words = static_cast<double>((h >> 48) & 0xFF);
  s.detected_uncorrectable = static_cast<double>((h >> 56) & 0x3);
  return s;
}

/// Fills items i of [0, item_count) with i % stride == phase. `salt`
/// perturbs the synthetic values — overlapping shards filled with
/// different salts hold *different* bytes for the shared items, which is
/// what makes merge-dedup order observable.
void fill(ResultStore& store, std::size_t stride = 1, std::size_t phase = 0,
          std::size_t salt = 0) {
  const CampaignSpec& spec = store.spec();
  const std::size_t per_item = spec.apps.size() * spec.emts.size();
  std::vector<Sample> samples(per_item);
  for (std::size_t i = phase; i < spec.item_count(); i += stride) {
    for (std::size_t k = 0; k < per_item; ++k) {
      samples[k] = synthetic_sample(i, k + salt * 1000);
    }
    WorkItem item;
    item.index = i;
    store.record_item(item, samples);
  }
  for (std::size_t r = 0; r < spec.records.size(); ++r) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      store.set_max_snr(r, a, 30.0 + static_cast<double>(r * 10 + a));
    }
  }
}

ResultStore full_store(const CampaignSpec& spec) {
  ResultStore store(spec);
  fill(store);
  return store;
}

void expect_rows_identical(const std::vector<AggregateRow>& a,
                           const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "row " << i);
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].emt, b[i].emt);
    // Voltage is NaN when marginalized; NaN == NaN is false, so compare
    // NaN-ness first.
    if (std::isnan(a[i].voltage) || std::isnan(b[i].voltage)) {
      EXPECT_TRUE(std::isnan(a[i].voltage) && std::isnan(b[i].voltage));
    } else {
      EXPECT_EQ(a[i].voltage, b[i].voltage);
    }
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

/// RAII temp dir for store files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("ulpdream_columnar_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Round trip and cross-format identity.

TEST(Columnar, RoundTripPreservesEveryItemSampleAndCeiling) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("full.col");
  store.save_columnar(path);

  const ColumnarStore col = ColumnarStore::open(path, spec);
  EXPECT_EQ(col.stored_items(), spec.item_count());
  EXPECT_EQ(col.items_done(), spec.item_count());
  EXPECT_TRUE(col.complete());
  for (std::size_t i = 0; i < spec.item_count(); ++i) {
    EXPECT_TRUE(col.item_done(i)) << "item " << i;
  }
  EXPECT_FALSE(col.item_done(spec.item_count() + 5));
  for (std::size_t r = 0; r < spec.records.size(); ++r) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      EXPECT_EQ(col.max_snr_db(r, a), store.max_snr_db(r, a));
    }
  }

  // Materialize reproduces the exact text serialization: sample-level
  // bit equality, not just aggregate equality.
  std::ostringstream expected;
  store.save(expected);
  std::ostringstream actual;
  col.materialize().save(actual);
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(Columnar, AggregateIsBitIdenticalToTheInMemoryPathForEveryGrouping) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("full.col");
  store.save_columnar(path);
  const ColumnarStore col = ColumnarStore::open(path, spec);

  const std::vector<GroupBy> groupings = {
      GroupBy{},                           // full grid
      GroupBy{false, true, true, true},    // record marginalized
      GroupBy{true, false, false, true},   // app+emt marginalized
      GroupBy{false, false, false, false}  // grand total
  };
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    SCOPED_TRACE(testing::Message() << "grouping " << g);
    expect_rows_identical(col.aggregate(groupings[g]),
                          store.aggregate(groupings[g]));
  }
}

TEST(Columnar, SaveIsByteDeterministic) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  store.save_columnar(dir.file("a.col"));
  store.save_columnar(dir.file("b.col"));
  const std::string a = read_file(dir.file("a.col"));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(dir.file("b.col")));
  // No staging file survives a successful publish.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

TEST(Columnar, FailedSaveLeavesNoPartialOrStagingFile) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string bad = dir.file("missing_subdir/out.col");
  EXPECT_THROW(store.save_columnar(bad), std::runtime_error);
  EXPECT_FALSE(fs::exists(bad));
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Access modes: mmap, forced fallback, bounded streaming.

TEST(Columnar, BufferedFallbackAndBoundedModeMatchTheMappedPath) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("full.col");
  store.save_columnar(path);
  const auto reference = store.aggregate();

  ColumnarStore::OpenOptions no_mmap;
  no_mmap.allow_mmap = false;
  const ColumnarStore buffered = ColumnarStore::open(path, spec, no_mmap);
  EXPECT_FALSE(buffered.mapped());
  EXPECT_FALSE(buffered.bounded());
  expect_rows_identical(buffered.aggregate(), reference);

  // Bounded mode with a deliberately tiny cache: every access pattern
  // (header, index walk, column strides) must survive constant eviction.
  ColumnarStore::OpenOptions bounded;
  bounded.bounded_memory = true;
  bounded.cache_chunk_bytes = 64;
  bounded.cache_chunks = 4;
  const ColumnarStore streaming = ColumnarStore::open(path, spec, bounded);
  EXPECT_TRUE(streaming.bounded());
  EXPECT_FALSE(streaming.mapped());
  expect_rows_identical(streaming.aggregate(), reference);
  std::ostringstream bytes;
  streaming.materialize().save(bytes);
  std::ostringstream expected;
  store.save(expected);
  EXPECT_EQ(bytes.str(), expected.str());
}

// ---------------------------------------------------------------------------
// Merge strategies and orders.

TEST(Columnar, AppendMergeMatchesInMemoryMergeInEveryShardOrder) {
  const CampaignSpec spec = test_spec();
  const ResultStore reference = full_store(spec);
  const auto reference_rows = reference.aggregate();
  TempDir dir;

  // Four strided shards, saved columnar.
  constexpr std::size_t kShards = 4;
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < kShards; ++s) {
    ResultStore shard(spec);
    fill(shard, kShards, s);
    paths.push_back(dir.file("shard" + std::to_string(s) + ".col"));
    shard.save_columnar(paths.back());
  }

  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (std::size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE(testing::Message() << "order " << o);
    std::vector<std::string> ordered;
    for (const std::size_t s : orders[o]) ordered.push_back(paths[s]);
    const std::string merged_path =
        dir.file("merged" + std::to_string(o) + ".col");
    ColumnarStore::append_merge(ordered, merged_path, spec);
    const ColumnarStore merged = ColumnarStore::open(merged_path, spec);
    EXPECT_TRUE(merged.complete());
    expect_rows_identical(merged.aggregate(), reference_rows);
    // Sample-level equality too, via the text serialization.
    std::ostringstream expected;
    reference.save(expected);
    std::ostringstream actual;
    merged.materialize().save(actual);
    EXPECT_EQ(actual.str(), expected.str());
  }
}

TEST(Columnar, MixedFormatMergeThroughStoreReaderMatchesTheReference) {
  const CampaignSpec spec = test_spec();
  const ResultStore reference = full_store(spec);
  TempDir dir;

  // Shard 0+2 text, shard 1+3 columnar — the StoreReader seam folds them
  // without the caller caring which is which.
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 4; ++s) {
    ResultStore shard(spec);
    fill(shard, 4, s);
    const bool text = (s % 2) == 0;
    paths.push_back(
        dir.file("shard" + std::to_string(s) + (text ? ".store" : ".col")));
    save_store(shard, paths.back(),
               text ? StoreFormat::kText : StoreFormat::kColumnar);
  }
  ResultStore merged(spec);
  for (const std::string& path : paths) {
    merged.merge(StoreReader::open(path, spec).materialize());
  }
  std::ostringstream expected;
  reference.save(expected);
  std::ostringstream actual;
  merged.save(actual);
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(Columnar, AppendMergeDeduplicatesOverlapsFirstDoneWins) {
  const CampaignSpec spec = test_spec();
  TempDir dir;

  // Shards overlap on every even item and hold *different* bytes for
  // them (different salt), so which duplicate survives is observable;
  // in-memory merge semantics (first done occurrence wins) are the
  // contract append must match.
  ResultStore a(spec);
  fill(a, 2, 0);  // even items
  ResultStore b(spec);
  fill(b, 1, 0, /*salt=*/7);  // all items, different values
  a.save_columnar(dir.file("a.col"));
  b.save_columnar(dir.file("b.col"));

  ResultStore in_memory(spec);
  in_memory.merge(a);
  in_memory.merge(b);

  ColumnarStore::append_merge({dir.file("a.col"), dir.file("b.col")},
                              dir.file("merged.col"), spec);
  const ColumnarStore merged =
      ColumnarStore::open(dir.file("merged.col"), spec);
  EXPECT_EQ(merged.items_done(), spec.item_count());
  std::ostringstream expected;
  in_memory.save(expected);
  std::ostringstream actual;
  merged.materialize().save(actual);
  EXPECT_EQ(actual.str(), expected.str());
}

// ---------------------------------------------------------------------------
// Format seam.

TEST(StoreReaderSeam, DetectsBothFormatsAndRejectsForeignFiles) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  store.save_atomic(dir.file("run.store"));
  store.save_columnar(dir.file("run.col"));

  EXPECT_EQ(detect_store_format(dir.file("run.store")), StoreFormat::kText);
  EXPECT_EQ(detect_store_format(dir.file("run.col")), StoreFormat::kColumnar);

  write_file(dir.file("junk.bin"), "PNG\x89 definitely not a store");
  EXPECT_THROW((void)detect_store_format(dir.file("junk.bin")), StoreError);
  write_file(dir.file("short.bin"), "abc");
  EXPECT_THROW((void)detect_store_format(dir.file("short.bin")), StoreError);
  EXPECT_THROW((void)detect_store_format(dir.file("absent.bin")), StoreError);

  // Both formats answer the same queries identically through the seam.
  const StoreReader text = StoreReader::open(dir.file("run.store"), spec);
  const StoreReader col = StoreReader::open(dir.file("run.col"), spec);
  EXPECT_EQ(text.format(), StoreFormat::kText);
  EXPECT_EQ(col.format(), StoreFormat::kColumnar);
  EXPECT_EQ(text.items_done(), col.items_done());
  EXPECT_EQ(text.complete(), col.complete());
  EXPECT_TRUE(text.item_done(0));
  EXPECT_TRUE(col.item_done(0));
  expect_rows_identical(col.aggregate(), text.aggregate());
  std::ostringstream ta;
  text.materialize().save(ta);
  std::ostringstream ca;
  col.materialize().save(ca);
  EXPECT_EQ(ca.str(), ta.str());
}

TEST(StoreReaderSeam, ParseStoreFormatNamesTheValidValues) {
  EXPECT_EQ(parse_store_format("text"), StoreFormat::kText);
  EXPECT_EQ(parse_store_format("columnar"), StoreFormat::kColumnar);
  EXPECT_THROW((void)parse_store_format("parquet"), std::invalid_argument);
  EXPECT_STREQ(to_string(StoreFormat::kText), "text");
  EXPECT_STREQ(to_string(StoreFormat::kColumnar), "columnar");
}

// ---------------------------------------------------------------------------
// Malformed-file hardening. Every case must throw StoreError naming the
// path — never crash, never read past the mapping.

/// Expects ColumnarStore::open (all backings) to throw StoreError whose
/// message names the file.
void expect_open_fails(const std::string& path, const CampaignSpec& spec) {
  for (const bool bounded : {false, true}) {
    SCOPED_TRACE(testing::Message() << (bounded ? "bounded" : "mapped"));
    ColumnarStore::OpenOptions options;
    options.bounded_memory = bounded;
    try {
      (void)ColumnarStore::open(path, spec, options);
      FAIL() << "expected StoreError for " << path;
    } catch (const StoreError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

TEST(ColumnarHardening, TruncationAtEveryRegionFailsTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good_path = dir.file("good.col");
  full_store(spec).save_columnar(good_path);
  const std::string good = read_file(good_path);
  ASSERT_GT(good.size(), 64u);

  // Cut in the fixed header, in the index, mid-column and one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{63}, std::size_t{64},
        good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "truncated to " << keep << " bytes");
    const std::string path = dir.file("trunc.col");
    write_file(path, good.substr(0, keep));
    expect_open_fails(path, spec);
  }
}

TEST(ColumnarHardening, BadMagicVersionAndEndiannessFailTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good = [&] {
    const std::string path = dir.file("good.col");
    full_store(spec).save_columnar(path);
    return read_file(path);
  }();

  std::string bad = good;
  bad[0] = 'X';  // magic
  write_file(dir.file("magic.col"), bad);
  expect_open_fails(dir.file("magic.col"), spec);

  bad = good;
  bad[8] = 99;  // version
  write_file(dir.file("version.col"), bad);
  expect_open_fails(dir.file("version.col"), spec);

  bad = good;
  std::swap(bad[12], bad[15]);  // endianness tag byte-reversed
  write_file(dir.file("endian.col"), bad);
  expect_open_fails(dir.file("endian.col"), spec);
}

TEST(ColumnarHardening, FingerprintMismatchNamesBothFingerprints) {
  const CampaignSpec spec = test_spec(99);
  TempDir dir;
  const std::string path = dir.file("store.col");
  full_store(spec).save_columnar(path);

  const CampaignSpec other = test_spec(100);  // different seed
  try {
    (void)ColumnarStore::open(path, other);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
    EXPECT_NE(what.find(spec.fingerprint()), std::string::npos) << what;
    EXPECT_NE(what.find(other.fingerprint()), std::string::npos) << what;
  }
}

TEST(ColumnarHardening, CorruptDirectoryAndIndexFailTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good = [&] {
    const std::string path = dir.file("good.col");
    full_store(spec).save_columnar(path);
    return read_file(path);
  }();

  // Header size lied up: index/column layout no longer fits the file.
  std::string bad = good;
  bad[16] = static_cast<char>(static_cast<unsigned char>(bad[16]) ^ 0x40);
  write_file(dir.file("size.col"), bad);
  expect_open_fails(dir.file("size.col"), spec);

  // Appending junk makes the real size disagree with the header.
  write_file(dir.file("padded.col"), good + "garbage");
  expect_open_fails(dir.file("padded.col"), spec);

  // n_index inflated: the directory lengths disagree with the counts.
  bad = good;
  bad[24] = static_cast<char>(static_cast<unsigned char>(bad[24]) + 1);
  write_file(dir.file("count.col"), bad);
  expect_open_fails(dir.file("count.col"), spec);

  // Locate the index column (fingerprint + max_snr after the 64-byte
  // header, then n_columns + directory) and break its sort order.
  const CampaignSpec norm = spec.normalized();
  const std::size_t fp_pad = (norm.fingerprint().size() + 7) & ~7ull;
  const std::size_t msnr = norm.records.size() * norm.apps.size();
  const std::size_t index_off = 64 + fp_pad + 8 * msnr + 8 + 16 * 11;
  bad = good;
  // items are 0..15 as u64; swapping the first two bytes-of-8 swaps the
  // first two item entries' low bytes (0 <-> 1), breaking ascending order.
  std::swap(bad[index_off], bad[index_off + 8]);
  write_file(dir.file("unsorted.col"), bad);
  expect_open_fails(dir.file("unsorted.col"), spec);

  // An index entry pointing at an out-of-range physical slot.
  bad = good;
  const std::size_t slot_off = index_off + 8 * spec.item_count();
  bad[slot_off] = static_cast<char>(0xEE);
  write_file(dir.file("slot.col"), bad);
  expect_open_fails(dir.file("slot.col"), spec);
}

TEST(ColumnarHardening, TextShortReadsFailTypedThroughTheSeam) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good_path = dir.file("run.store");
  full_store(spec).save_atomic(good_path);
  const std::string good = read_file(good_path);

  // Cut the text stream mid-line and before the trailing "end" marker;
  // the seam must surface a StoreError naming the file.
  for (const std::size_t keep : {good.size() / 2, good.size() - 4}) {
    SCOPED_TRACE(testing::Message() << "truncated to " << keep << " bytes");
    const std::string path = dir.file("trunc.store");
    write_file(path, good.substr(0, keep));
    try {
      (void)StoreReader::open(path, spec);
      FAIL() << "expected StoreError";
    } catch (const StoreError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
}

TEST(ColumnarHardening, AppendMergeRejectsEmptyInputsAndForeignStores) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  EXPECT_THROW(ColumnarStore::append_merge({}, dir.file("out.col"), spec),
               std::invalid_argument);

  // A fingerprint-mismatched shard poisons the whole merge, typed.
  full_store(spec).save_columnar(dir.file("good.col"));
  full_store(test_spec(1234)).save_columnar(dir.file("foreign.col"));
  EXPECT_THROW(
      ColumnarStore::append_merge(
          {dir.file("good.col"), dir.file("foreign.col")},
          dir.file("out.col"), spec),
      StoreError);
  EXPECT_FALSE(fs::exists(dir.file("out.col")));
}

}  // namespace
}  // namespace ulpdream::campaign
