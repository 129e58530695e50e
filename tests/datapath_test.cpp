// Differential suite for the batched data path: the block APIs
// (Emt::encode_block/decode_block, FaultyMemory::read_block/write_block,
// ProtectedBuffer::load/store) must be bit-identical to the scalar
// word-at-a-time path — same decoded samples, same CodecCounters, same
// per-bank AccessStats — for every EMT x voltage x scrambler
// setting. Also pins the sparse FaultMap representation against an
// independently-built dense map.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"

namespace ulpdream {
namespace {

constexpr std::size_t kWords = 2048;

fixed::SampleVec test_samples(std::size_t n) {
  const ecg::Record record = ecg::make_default_record(3);
  fixed::SampleVec src(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = record.samples[i % record.samples.size()];
  }
  return src;
}

void expect_stats_eq(const mem::AccessStats& a, const mem::AccessStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bank_reads, b.bank_reads);
  EXPECT_EQ(a.bank_writes, b.bank_writes);
}

void expect_counters_eq(const core::CodecCounters& a,
                        const core::CodecCounters& b) {
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.corrected_words, b.corrected_words);
  EXPECT_EQ(a.detected_uncorrectable, b.detected_uncorrectable);
}

struct DatapathCase {
  std::string emt;
  double voltage;
  std::uint64_t scrambler;
};

class BlockScalarIdentity : public ::testing::TestWithParam<DatapathCase> {};

TEST_P(BlockScalarIdentity, FullSweepMatchesScalarPath) {
  const DatapathCase param = GetParam();
  const auto emt = core::make_emt(param.emt);
  const fixed::SampleVec src = test_samples(kWords);

  util::Xoshiro256 rng(99);
  const double ber = mem::LogLinearBerModel().ber(param.voltage);
  const mem::FaultMap map =
      mem::FaultMap::random(kWords, core::EccSecDed::kPayloadBits, ber, rng);

  // Scalar reference: word-at-a-time write then read.
  core::MemorySystem scalar_sys(*emt, kWords);
  scalar_sys.attach_faults(&map);
  scalar_sys.set_scrambler(param.scrambler);
  auto scalar_buf = core::ProtectedBuffer::allocate(scalar_sys, kWords);
  fixed::SampleVec scalar_out(kWords);
  for (std::size_t i = 0; i < kWords; ++i) scalar_buf.set(i, src[i]);
  for (std::size_t i = 0; i < kWords; ++i) scalar_out[i] = scalar_buf.get(i);

  // Block path: one load, one store.
  core::MemorySystem block_sys(*emt, kWords);
  block_sys.attach_faults(&map);
  block_sys.set_scrambler(param.scrambler);
  auto block_buf = core::ProtectedBuffer::allocate(block_sys, kWords);
  fixed::SampleVec block_out(kWords);
  block_buf.load(0, std::span<const fixed::Sample>(src.data(), kWords));
  block_buf.store(0, std::span<fixed::Sample>(block_out.data(), kWords));

  EXPECT_EQ(scalar_out, block_out);
  expect_counters_eq(scalar_sys.counters(), block_sys.counters());
  expect_stats_eq(scalar_sys.data().stats(), block_sys.data().stats());
  ASSERT_EQ(scalar_sys.safe() != nullptr, block_sys.safe() != nullptr);
  if (scalar_sys.safe() != nullptr) {
    expect_stats_eq(scalar_sys.safe()->stats(), block_sys.safe()->stats());
  }
}

TEST_P(BlockScalarIdentity, OverrideMatchesBaseBlockLoop) {
  // The devirtualized encode_block/decode_block overrides must agree with
  // the Emt base implementation (a plain loop over the scalar virtuals),
  // including counter updates — qualified calls reach the base directly.
  const DatapathCase param = GetParam();
  const auto emt = core::make_emt(param.emt);
  const fixed::SampleVec src = test_samples(512);
  const std::size_t n = src.size();
  const bool has_safe = emt->safe_bits() > 0;

  std::vector<std::uint32_t> payload_base(n);
  std::vector<std::uint32_t> payload_override(n);
  std::vector<std::uint16_t> safe_base(has_safe ? n : 0);
  std::vector<std::uint16_t> safe_override(has_safe ? n : 0);
  emt->Emt::encode_block(std::span<const fixed::Sample>(src),
                         std::span<std::uint32_t>(payload_base),
                         std::span<std::uint16_t>(safe_base));
  emt->encode_block(std::span<const fixed::Sample>(src),
                    std::span<std::uint32_t>(payload_override),
                    std::span<std::uint16_t>(safe_override));
  EXPECT_EQ(payload_base, payload_override);
  EXPECT_EQ(safe_base, safe_override);

  // Corrupt a deterministic sprinkle of payload bits so the decode loops
  // exercise correction and detection.
  util::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n; i += 3) {
    payload_base[i] ^= 1u << rng.bounded(
        static_cast<std::uint64_t>(emt->payload_bits()));
    if (i % 9 == 0) {
      payload_base[i] ^= 1u << rng.bounded(
          static_cast<std::uint64_t>(emt->payload_bits()));
    }
  }
  payload_override = payload_base;

  fixed::SampleVec out_base(n);
  fixed::SampleVec out_override(n);
  core::CodecCounters counters_base;
  core::CodecCounters counters_override;
  emt->Emt::decode_block(std::span<const std::uint32_t>(payload_base),
                         std::span<const std::uint16_t>(safe_base),
                         std::span<fixed::Sample>(out_base), &counters_base);
  emt->decode_block(std::span<const std::uint32_t>(payload_override),
                    std::span<const std::uint16_t>(safe_override),
                    std::span<fixed::Sample>(out_override),
                    &counters_override);
  EXPECT_EQ(out_base, out_override);
  expect_counters_eq(counters_base, counters_override);
}

std::vector<DatapathCase> all_cases() {
  std::vector<DatapathCase> cases;
  for (const std::string& emt : core::emt_names()) {
    for (const double v : {0.9, 0.8, 0.7, 0.6, 0.5}) {
      for (const std::uint64_t scrambler : {std::uint64_t{0},
                                            std::uint64_t{0xC0FFEE}}) {
        cases.push_back({emt, v, scrambler});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllEmtsVoltagesScramblers, BlockScalarIdentity,
    ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<DatapathCase>& info) {
      return info.param.emt + "_v" +
             std::to_string(static_cast<int>(info.param.voltage * 100)) +
             (info.param.scrambler == 0 ? "_plain" : "_scrambled");
    });

/// Every tier the build AND this CPU can run (active_tier() is already
/// clamped by both), lowest first. kScalar is always present.
std::vector<util::simd::Tier> runnable_tiers() {
  std::vector<util::simd::Tier> tiers{util::simd::Tier::kScalar};
  if (util::simd::active_tier() >= util::simd::Tier::kSse2) {
    tiers.push_back(util::simd::Tier::kSse2);
  }
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    tiers.push_back(util::simd::Tier::kAvx2);
  }
  return tiers;
}

TEST(SimdTiers, BlockSweepBitIdenticalAcrossTiersOffsetsAndTails) {
  // The SIMD kernels' full dispatch matrix: every compiled tier x EMT x
  // scrambler setting x unaligned window base x window length around the
  // vector widths (1..3x the 8/16-lane kernels, plus scalar-tail sizes).
  // The word-at-a-time accessors are the tier-independent reference; every
  // tier's block sweep must reproduce them bit-exactly — decoded samples,
  // CodecCounters and per-bank AccessStats alike. 0.5 V gives a dense
  // fault map, so the gather kernel's fault lanes run too.
  constexpr std::size_t kBuf = 256;  // power of two: the gather-kernel path
  const fixed::SampleVec src = test_samples(kBuf);
  util::Xoshiro256 rng(13);
  const mem::FaultMap map = mem::FaultMap::random(
      kBuf, core::EccSecDed::kPayloadBits,
      mem::LogLinearBerModel().ber(0.5), rng);
  ASSERT_GT(map.entry_count(), 0u);

  const std::vector<util::simd::Tier> tiers = runnable_tiers();
  ASSERT_EQ(core::emt_names().size(), 4u);
  for (const std::string& name : core::emt_names()) {
    const auto emt = core::make_emt(name);
    for (const std::uint64_t scrambler :
         {std::uint64_t{0}, std::uint64_t{0xC0FFEE}}) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                       std::size_t{3}, std::size_t{7},
                                       std::size_t{13}}) {
        for (const std::size_t len :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
              std::size_t{8}, std::size_t{9}, std::size_t{15},
              std::size_t{16}, std::size_t{17}, std::size_t{31},
              std::size_t{33}, std::size_t{48}}) {
          ASSERT_LE(offset + len, kBuf);
          SCOPED_TRACE(testing::Message()
                       << name << " scrambler="
                       << scrambler << " offset=" << offset
                       << " len=" << len);

          // Tier-independent reference: scalar word accessors.
          core::MemorySystem ref_sys(*emt, kBuf);
          ref_sys.attach_faults(&map);
          ref_sys.set_scrambler(scrambler);
          auto ref_buf = core::ProtectedBuffer::allocate(ref_sys, kBuf);
          fixed::SampleVec ref_out(len);
          for (std::size_t i = 0; i < len; ++i) {
            ref_buf.set(offset + i, src[offset + i]);
          }
          for (std::size_t i = 0; i < len; ++i) {
            ref_out[i] = ref_buf.get(offset + i);
          }

          for (const util::simd::Tier tier : tiers) {
            SCOPED_TRACE(testing::Message()
                         << "tier=" << util::simd::tier_name(tier));
            util::simd::force_tier(tier);
            core::MemorySystem sys(*emt, kBuf);
            sys.attach_faults(&map);
            sys.set_scrambler(scrambler);
            auto buf = core::ProtectedBuffer::allocate(sys, kBuf);
            fixed::SampleVec out(len);
            buf.load(offset,
                     std::span<const fixed::Sample>(src.data() + offset, len));
            buf.store(offset, std::span<fixed::Sample>(out.data(), len));
            util::simd::clear_forced_tier();

            EXPECT_EQ(ref_out, out);
            expect_counters_eq(ref_sys.counters(), sys.counters());
            expect_stats_eq(ref_sys.data().stats(), sys.data().stats());
            if (ref_sys.safe() != nullptr) {
              expect_stats_eq(ref_sys.safe()->stats(), sys.safe()->stats());
            }
          }
        }
      }
    }
  }
}

TEST(SparseFaultMap, PresenceBitmapChunkBoundaries) {
  // chunk_clean() drives the block read path's wide-copy-vs-lookup
  // decision, so its chunk edges must be exact: words 0 and 63 share
  // chunk 0, word 64 opens chunk 1, and a map whose word count is not a
  // multiple of 64 ends in a partial chunk.
  static_assert(mem::FaultMap::kChunkWords == 64);
  constexpr std::size_t kMapWords = 130;  // chunks 0, 1 and partial 2
  mem::FaultMap map(kMapWords, 16);
  for (const std::size_t word : {std::size_t{0}, std::size_t{63},
                                 std::size_t{64}, std::size_t{127},
                                 std::size_t{129}}) {
    map.edit(word) = {0x1, 0x1};
  }
  EXPECT_FALSE(map.chunk_clean(0));
  EXPECT_FALSE(map.chunk_clean(1));
  EXPECT_FALSE(map.chunk_clean(2));
  // The bitmap view the gather kernel reads agrees bit-for-bit: one bit
  // per chunk, chunks 0..2 dirty, nothing beyond.
  EXPECT_EQ(map.presence_data()[0], 0b111u);

  mem::FaultMap middle(kMapWords, 16);
  middle.edit(64) = {0x2, 0x0};
  middle.edit(127) = {0x2, 0x2};
  EXPECT_TRUE(middle.chunk_clean(0));
  EXPECT_FALSE(middle.chunk_clean(1));
  EXPECT_TRUE(middle.chunk_clean(2));

  // The unscrambled block read crosses every boundary: wide-copy runs for
  // clean chunks, per-word lookups for dirty ones, same answer as the
  // scalar accessor either way.
  mem::FaultyMemory block_mem(kMapWords, 16, 2);
  mem::FaultyMemory scalar_mem(kMapWords, 16, 2);
  for (auto* m : {&block_mem, &scalar_mem}) m->attach_faults(&middle);
  std::vector<std::uint32_t> pattern(kMapWords);
  for (std::size_t i = 0; i < kMapWords; ++i) {
    pattern[i] = static_cast<std::uint32_t>((i * 0x9E37u + 5) & 0xFFFFu);
  }
  block_mem.write_block(0, pattern);
  std::vector<std::uint32_t> block_out(kMapWords);
  block_mem.read_block(0, block_out);
  std::vector<std::uint32_t> scalar_out(kMapWords);
  for (std::size_t i = 0; i < kMapWords; ++i) {
    scalar_mem.write(i, pattern[i]);
    scalar_out[i] = scalar_mem.read(i);
  }
  EXPECT_EQ(block_out, scalar_out);
}

TEST(BlockMemory, SixteenBitOverloadsMatchTheWideOnes) {
  // The staging-free raw-sample path: the u16 read/write_block overloads
  // must agree with the u32 ones word-for-word (the word fits 16 bits, so
  // truncation after the width mask is lossless), and the u16 read must
  // refuse wider geometries instead of silently dropping bits.
  constexpr std::size_t kMemWords = 128;
  util::Xoshiro256 rng(21);
  const mem::FaultMap map = mem::FaultMap::random(kMemWords, 16, 5e-3, rng);
  for (const std::uint64_t scrambler :
       {std::uint64_t{0}, std::uint64_t{0xC0FFEE}}) {
    SCOPED_TRACE(testing::Message() << "scrambler=" << scrambler);
    mem::FaultyMemory wide(kMemWords, 16);
    mem::FaultyMemory narrow(kMemWords, 16);
    for (auto* m : {&wide, &narrow}) {
      m->attach_faults(&map);
      m->set_scrambler(scrambler);
    }
    std::vector<std::uint32_t> src32(kMemWords);
    std::vector<std::uint16_t> src16(kMemWords);
    for (std::size_t i = 0; i < kMemWords; ++i) {
      src16[i] = static_cast<std::uint16_t>(i * 40503u + 7);
      src32[i] = src16[i];
    }
    wide.write_block(0, src32);
    narrow.write_block(0, std::span<const std::uint16_t>(src16));

    std::vector<std::uint32_t> out32(kMemWords);
    std::vector<std::uint16_t> out16(kMemWords);
    wide.read_block(0, out32);
    narrow.read_block(0, std::span<std::uint16_t>(out16));
    for (std::size_t i = 0; i < kMemWords; ++i) {
      EXPECT_EQ(out32[i], static_cast<std::uint32_t>(out16[i])) << i;
    }
    expect_stats_eq(wide.stats(), narrow.stats());
  }

  mem::FaultyMemory too_wide(16, 22);
  std::vector<std::uint16_t> buf(16);
  EXPECT_THROW(too_wide.read_block(0, std::span<std::uint16_t>(buf)),
               std::logic_error);
  // Writes zero-extend, so any width accepts the narrow source.
  EXPECT_NO_THROW(
      too_wide.write_block(0, std::span<const std::uint16_t>(buf)));
}

TEST(BlockMemory, ReadWriteBlockMatchScalarAccessors) {
  mem::FaultyMemory scalar_mem(300, 22, 6);  // non-power-of-two geometry
  mem::FaultyMemory block_mem(300, 22, 6);
  mem::FaultMap map(300, 22);
  map.edit(7) = {0x3, 0x1};
  map.edit(131) = {1u << 21, 1u << 21};
  for (auto* m : {&scalar_mem, &block_mem}) {
    m->attach_faults(&map);
    m->set_scrambler(1234);
  }

  std::vector<std::uint32_t> src(300);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint32_t>(0x5A5A5A5Au + i * 2654435761u);
  }
  for (std::size_t i = 0; i < src.size(); ++i) scalar_mem.write(i, src[i]);
  block_mem.write_block(0, src);

  std::vector<std::uint32_t> scalar_out(src.size());
  std::vector<std::uint32_t> block_out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    scalar_out[i] = scalar_mem.read(i);
  }
  block_mem.read_block(0, block_out);

  EXPECT_EQ(scalar_out, block_out);
  expect_stats_eq(scalar_mem.stats(), block_mem.stats());
}

TEST(BlockMemory, BlockRangeChecks) {
  mem::FaultyMemory memory(64, 16);
  std::vector<std::uint32_t> buf(16);
  EXPECT_THROW(memory.read_block(60, buf), std::out_of_range);
  EXPECT_THROW(memory.write_block(
                   49, std::span<const std::uint32_t>(buf.data(), 16)),
               std::out_of_range);
  EXPECT_NO_THROW(memory.read_block(48, buf));

  mem::SafeMemory side(32, 5);
  std::vector<std::uint16_t> sbuf(8);
  EXPECT_THROW(side.read_block(25, sbuf), std::out_of_range);
  EXPECT_NO_THROW(side.read_block(24, sbuf));
}

TEST(BlockMemory, ProtectedBufferBlockRangeChecks) {
  core::NoProtection none;
  core::MemorySystem system(none, 128);
  auto buf = core::ProtectedBuffer::allocate(system, 64);
  fixed::SampleVec window(32);
  EXPECT_THROW(buf.load(40, std::span<const fixed::Sample>(window.data(), 32)),
               std::out_of_range);
  EXPECT_THROW(buf.store(64, std::span<fixed::Sample>(window.data(), 1)),
               std::out_of_range);
  EXPECT_NO_THROW(
      buf.load(32, std::span<const fixed::Sample>(window.data(), 32)));
  EXPECT_NO_THROW(buf.store(0, std::span<fixed::Sample>(window.data(), 32)));
}

TEST(SparseFaultMap, MatchesDenseReferenceOnRandomMaps) {
  // Build the same map twice: sparsely via FaultMap and densely in a plain
  // word-indexed array, from one shared random cell list. at() (plain
  // binary search) and lookup() (coarse bitmap + chunk scan) must both
  // agree with the dense reference for every word.
  constexpr std::size_t kMapWords = 4096;
  constexpr int kBits = 22;
  util::Xoshiro256 rng(42);

  mem::FaultMap sparse(kMapWords, kBits);
  std::vector<mem::WordFaults> dense(kMapWords);
  for (int fault = 0; fault < 500; ++fault) {
    const auto word = static_cast<std::size_t>(rng.bounded(kMapWords));
    const auto bit = static_cast<int>(rng.bounded(kBits));
    const bool value = rng.bernoulli(0.5);
    const std::uint32_t bitmask = 1u << bit;
    for (auto* wf : {&sparse.edit(word), &dense[word]}) {
      wf->mask |= bitmask;
      if (value) {
        wf->value |= bitmask;
      } else {
        wf->value &= ~bitmask;
      }
    }
  }

  std::size_t dense_faulty_words = 0;
  std::size_t dense_fault_count = 0;
  for (std::size_t w = 0; w < kMapWords; ++w) {
    EXPECT_EQ(sparse.at(w).mask, dense[w].mask) << "word " << w;
    EXPECT_EQ(sparse.at(w).value, dense[w].value) << "word " << w;
    const mem::WordFaults* hot = sparse.lookup(w);
    if (dense[w].mask == 0 && hot != nullptr) {
      // An inserted-then-clean entry is allowed; it must act clean.
      EXPECT_EQ(hot->mask, 0u);
    }
    if (dense[w].mask != 0) {
      ASSERT_NE(hot, nullptr) << "word " << w;
      EXPECT_EQ(hot->mask, dense[w].mask);
      EXPECT_EQ(hot->value, dense[w].value);
      ++dense_faulty_words;
    }
    dense_fault_count +=
        static_cast<std::size_t>(__builtin_popcount(dense[w].mask));
  }
  EXPECT_EQ(sparse.fault_count(), dense_fault_count);
  EXPECT_GE(sparse.entry_count(), dense_faulty_words);
}

TEST(SparseFaultMap, RandomMapLookupAgreesWithAt) {
  util::Xoshiro256 rng(11);
  const mem::FaultMap map = mem::FaultMap::random(8192, 22, 2e-3, rng);
  std::size_t faulty = 0;
  for (std::size_t w = 0; w < map.words(); ++w) {
    const mem::WordFaults* hot = map.lookup(w);
    const mem::WordFaults& ref = map.at(w);
    if (ref.mask == 0) {
      EXPECT_TRUE(hot == nullptr || hot->mask == 0);
    } else {
      ASSERT_NE(hot, nullptr);
      EXPECT_EQ(hot->mask, ref.mask);
      EXPECT_EQ(hot->value, ref.value);
      ++faulty;
    }
  }
  EXPECT_GT(faulty, 0u);
  // Sparse storage: entries track faulty words, not the geometry.
  EXPECT_EQ(map.entry_count(), faulty);
  EXPECT_EQ(map.lookup(map.words()), nullptr);  // out of range -> clean
}

TEST(SparseFaultMap, MemoryScalesWithFaultCountNotGeometry) {
  util::Xoshiro256 rng(5);
  // 0.8 V-class BER on the full 32 kB geometry: a handful of faults.
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, 1e-4, rng);
  EXPECT_LT(map.entry_count(), mem::MemoryGeometry::kWords16 / 100);
  EXPECT_EQ(map.words(), mem::MemoryGeometry::kWords16);
}

TEST(AttachFaults, ValidatesGeometryAndKeepsPreviousMapOnMismatch) {
  mem::FaultyMemory memory(128, 22);
  const mem::FaultMap good(128, 22);
  EXPECT_NO_THROW(memory.attach_faults(&good));

  const mem::FaultMap short_map(127, 22);
  EXPECT_THROW(memory.attach_faults(&short_map), std::invalid_argument);
  const mem::FaultMap narrow_map(128, 21);
  EXPECT_THROW(memory.attach_faults(&narrow_map), std::invalid_argument);

  // Covering (larger) maps are fine, and nullptr clears.
  const mem::FaultMap big(256, 32);
  EXPECT_NO_THROW(memory.attach_faults(&big));
  EXPECT_NO_THROW(memory.attach_faults(nullptr));
}

}  // namespace
}  // namespace ulpdream
