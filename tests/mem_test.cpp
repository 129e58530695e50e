#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::mem {
namespace {

TEST(BerModel, LogLinearCalibrationPoints) {
  const LogLinearBerModel model;
  EXPECT_NEAR(model.ber(0.9), 5e-8, 5e-9);
  EXPECT_NEAR(model.ber(0.5), 2e-2, 1e-3);
}

TEST(BerModel, LogLinearMonotoneDecreasing) {
  const LogLinearBerModel model;
  double prev = 1.0;
  for (double v = 0.5; v <= 0.9 + 1e-9; v += 0.05) {
    const double b = model.ber(v);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(BerModel, ProbitMonotoneAndBounded) {
  const ProbitBerModel model;
  double prev = 1.0;
  for (double v = 0.4; v <= 1.0; v += 0.05) {
    const double b = model.ber(v);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    EXPECT_LE(b, prev + 1e-15);
    prev = b;
  }
}

TEST(BerModel, ProbitHalfAtV50) {
  const ProbitBerModel model(0.42, 0.04);
  EXPECT_NEAR(model.ber(0.42), 0.5, 1e-12);
}

TEST(BerModel, FactoryProducesBothKinds) {
  EXPECT_EQ(make_ber_model("log-linear")->name(), "log-linear");
  EXPECT_EQ(make_ber_model("probit")->name(), "probit");
}

TEST(BerModel, RejectsBadParameters) {
  EXPECT_THROW(LogLinearBerModel(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(LogLinearBerModel(1e-9, 2e-2, 0.5, 0.9),
               std::invalid_argument);
  EXPECT_THROW(ProbitBerModel(0.4, 0.0), std::invalid_argument);
}

TEST(FaultMap, ApplyForcesStuckBits) {
  WordFaults wf;
  wf.mask = 0b1010;
  wf.value = 0b1000;  // bit3 stuck at 1, bit1 stuck at 0
  EXPECT_EQ(wf.apply(0b0000), 0b1000u);
  EXPECT_EQ(wf.apply(0b1111), 0b1101u);
  EXPECT_EQ(wf.apply(0b0101), 0b1101u);
}

TEST(FaultMap, RandomFaultCountTracksBer) {
  util::Xoshiro256 rng(9);
  const std::size_t words = 4096;
  const int bits = 22;
  const double ber = 1e-3;
  util::Xoshiro256 gen_rng(10);
  double total = 0.0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    const FaultMap map = FaultMap::random(words, bits, ber, gen_rng);
    total += static_cast<double>(map.fault_count());
  }
  const double expected = static_cast<double>(words) * bits * ber;
  EXPECT_NEAR(total / reps / expected, 1.0, 0.15);
  (void)rng;
}

TEST(FaultMap, RandomZeroBerIsClean) {
  util::Xoshiro256 rng(1);
  const FaultMap map = FaultMap::random(100, 16, 0.0, rng);
  EXPECT_EQ(map.fault_count(), 0u);
}

TEST(FaultMap, StuckBitCoversEveryWord) {
  const FaultMap map = FaultMap::stuck_bit(64, 16, 7, true);
  EXPECT_EQ(map.fault_count(), 64u);
  for (std::size_t w = 0; w < 64; ++w) {
    EXPECT_EQ(map.at(w).mask, 1u << 7);
    EXPECT_EQ(map.at(w).value, 1u << 7);
  }
}

TEST(FaultMap, StuckBitRejectsOutOfRange) {
  EXPECT_THROW(FaultMap::stuck_bit(8, 16, 16, false), std::invalid_argument);
  EXPECT_THROW(FaultMap::stuck_bit(8, 16, -1, false), std::invalid_argument);
}

TEST(FaultMap, WordsWithAtLeastCountsMultiBit) {
  FaultMap map(4, 16);
  map.edit(0).mask = 0b11;
  map.edit(1).mask = 0b1;
  EXPECT_EQ(map.words_with_at_least(1), 2u);
  EXPECT_EQ(map.words_with_at_least(2), 1u);
  EXPECT_EQ(map.words_with_at_least(3), 0u);
}

TEST(FaultMap, ConcurrentReadersNeverGrowTheMap) {
  // The const read path (lookup/chunk_clean) must be insertion-free: with
  // the mutable accessor split off as edit(), concurrent block readers
  // share one map with no synchronization. Hammer the full read surface
  // from several threads — the same calls FaultyMemory::read_block makes —
  // and pin that every reader sees the exact pre-snapshot answers and the
  // map's shape is untouched afterwards. The const path touches only
  // immutable state, so the sanitizer preset stays clean.
  constexpr std::size_t kWords = 2048;
  util::Xoshiro256 rng(2016);
  const FaultMap map = FaultMap::random(kWords, 16, 1e-3, rng);
  const std::size_t entries_before = map.entry_count();
  const std::size_t faults_before = map.fault_count();
  ASSERT_GT(entries_before, 0u);

  // Serial snapshot of everything a reader can observe.
  std::vector<WordFaults> reference(kWords);
  for (std::size_t w = 0; w < kWords; ++w) {
    if (const WordFaults* f = map.lookup(w)) reference[w] = *f;
  }

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&map, &reference, &mismatches, t] {
        // Stride per thread so the access interleavings differ.
        const std::size_t stride = 1 + static_cast<std::size_t>(t);
        for (int rep = 0; rep < 50; ++rep) {
          for (std::size_t w = 0; w < kWords; ++w) {
            const std::size_t word = (w * stride) % kWords;
            WordFaults seen;
            if (const WordFaults* f = map.lookup(word)) seen = *f;
            const bool clean =
                map.chunk_clean(word / FaultMap::kChunkWords);
            if (seen.mask != reference[word].mask ||
                seen.value != reference[word].value ||
                (clean && seen.mask != 0)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& th : readers) th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(map.entry_count(), entries_before);
  EXPECT_EQ(map.fault_count(), faults_before);
}

TEST(FaultyMemory, CleanReadBackAfterWrite) {
  FaultyMemory mem(128, 16);
  mem.write(5, 0xBEEF);
  EXPECT_EQ(mem.read(5), 0xBEEFu);
}

TEST(FaultyMemory, WidthMaskApplied) {
  FaultyMemory mem(16, 16);
  mem.write(0, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(0), 0xFFFFu);
}

TEST(FaultyMemory, StuckBitsCorruptReads) {
  FaultyMemory mem(16, 16);
  const FaultMap map = FaultMap::stuck_bit(16, 16, 3, true);
  mem.attach_faults(&map);
  mem.write(2, 0x0000);
  EXPECT_EQ(mem.read(2), 0x0008u);
  mem.write(2, 0xFFF7);
  EXPECT_EQ(mem.read(2), 0xFFFFu);
}

TEST(FaultyMemory, FaultMapMustCoverMemory) {
  FaultyMemory mem(128, 22);
  const FaultMap small_map(64, 22);
  EXPECT_THROW(mem.attach_faults(&small_map), std::invalid_argument);
  const FaultMap narrow_map(128, 16);
  EXPECT_THROW(mem.attach_faults(&narrow_map), std::invalid_argument);
}

TEST(FaultyMemory, AccessCountersTrackReadsWrites) {
  FaultyMemory mem(64, 16, 4);
  mem.write(0, 1);
  mem.write(1, 2);
  (void)mem.read(0);
  EXPECT_EQ(mem.stats().writes, 2u);
  EXPECT_EQ(mem.stats().reads, 1u);
  EXPECT_EQ(mem.stats().total(), 3u);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().total(), 0u);
}

TEST(FaultyMemory, BankCountersPartitionAccesses) {
  FaultyMemory mem(64, 16, 4);
  for (std::size_t i = 0; i < 16; ++i) mem.write(i, 0);
  std::uint64_t total = 0;
  for (int b = 0; b < 4; ++b) {
    total += mem.stats().bank_writes[static_cast<std::size_t>(b)];
    EXPECT_EQ(mem.stats().bank_writes[static_cast<std::size_t>(b)], 4u);
  }
  EXPECT_EQ(total, 16u);
}

TEST(FaultyMemory, ScramblerPreservesReadWriteConsistency) {
  FaultyMemory mem(256, 16);
  mem.set_scrambler(77);
  for (std::size_t i = 0; i < 256; ++i) {
    mem.write(i, static_cast<std::uint32_t>(i * 3));
  }
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(mem.read(i), static_cast<std::uint32_t>(i * 3) & 0xFFFFu);
  }
}

TEST(FaultyMemory, ScramblerMovesFaultExposure) {
  // With scrambling, a fault pinned to physical word 0 hits a different
  // logical address than without scrambling.
  FaultMap map(64, 16);
  map.edit(0).mask = 0xFFFF;
  map.edit(0).value = 0xAAAA;

  FaultyMemory plain(64, 16);
  plain.attach_faults(&map);
  plain.write(0, 0x1111);
  EXPECT_EQ(plain.read(0), 0xAAAAu);

  FaultyMemory scrambled(64, 16);
  scrambled.set_scrambler(123);
  scrambled.attach_faults(&map);
  scrambled.write(0, 0x1111);
  // Logical 0 now maps elsewhere; find which logical address is corrupted.
  std::size_t corrupted = 64;
  for (std::size_t i = 0; i < 64; ++i) {
    scrambled.write(i, 0x1111);
    if (scrambled.read(i) == 0xAAAAu) corrupted = i;
  }
  EXPECT_NE(corrupted, 0u);
  EXPECT_LT(corrupted, 64u);
}

TEST(FaultyMemory, RejectsBadGeometry) {
  EXPECT_THROW(FaultyMemory(16, 0), std::invalid_argument);
  EXPECT_THROW(FaultyMemory(16, 33), std::invalid_argument);
  EXPECT_THROW(FaultyMemory(16, 16, 0), std::invalid_argument);
}

TEST(SafeMemory, RoundTripAndMask) {
  SafeMemory mem(32, 5);
  mem.write(3, 0b11111111);
  EXPECT_EQ(mem.read(3), 0b11111u);  // masked to 5 bits
  EXPECT_EQ(mem.stats().writes, 1u);
  EXPECT_EQ(mem.stats().reads, 1u);
}

TEST(SafeMemory, RejectsWideWords) {
  EXPECT_THROW(SafeMemory(16, 17), std::invalid_argument);
}

TEST(Geometry, PaperConstants) {
  EXPECT_EQ(MemoryGeometry::kBytes, 32u * 1024u);
  EXPECT_EQ(MemoryGeometry::kWords16, 16384u);
  EXPECT_EQ(MemoryGeometry::kBanks, 16);
  EXPECT_DOUBLE_EQ(MemoryGeometry::kClockHz, 200e6);
}

class BerSweep : public ::testing::TestWithParam<double> {};

TEST_P(BerSweep, FaultDensityMatchesRequestedBer) {
  const double ber = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(ber * 1e9) + 1);
  const std::size_t words = 16384;
  const int bits = 22;
  const FaultMap map = FaultMap::random(words, bits, ber, rng);
  const double cells = static_cast<double>(words) * bits;
  const double measured = static_cast<double>(map.fault_count()) / cells;
  // Single map: allow generous statistical tolerance at low BER.
  if (ber >= 1e-4) {
    EXPECT_NEAR(measured / ber, 1.0, 0.25);
  } else {
    EXPECT_LE(measured, ber * 10 + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(BerRange, BerSweep,
                         ::testing::Values(1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                           2e-2));

}  // namespace
}  // namespace ulpdream::mem
