// Randomized cross-EMT torture tests: strong invariants that must hold for
// ANY fault pattern, verified over thousands of random (sample, fault)
// draws. These are the properties that make the Fig. 4 comparisons sound.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/dream_secded.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::core {
namespace {

fixed::Sample random_sample(util::Xoshiro256& rng) {
  return static_cast<fixed::Sample>(
      static_cast<std::int32_t>(rng.bounded(65536)) - 32768);
}

TEST(Torture, DreamNeverIntroducesNewErrors) {
  // Invariant: the bit positions where DREAM's decode differs from the
  // original are a SUBSET of the positions where the corrupted word
  // differs — the mask only forces bits back to their provably-correct
  // values, so DREAM can never make a word worse.
  const Dream dream;
  util::Xoshiro256 rng(1);
  for (int t = 0; t < 20000; ++t) {
    const fixed::Sample s = random_sample(rng);
    const auto corruption = static_cast<std::uint16_t>(rng.bounded(65536));
    const auto raw = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(s) ^ corruption);
    const fixed::Sample decoded =
        dream.decode(raw, dream.encode_safe(s));
    const auto residual = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(decoded) ^ static_cast<std::uint16_t>(s));
    EXPECT_EQ(residual & static_cast<std::uint16_t>(~corruption), 0)
        << "s=" << s << " corruption=" << corruption;
  }
}

TEST(Torture, DreamResidualAlwaysBelowProtectedRegion) {
  // Any surviving error bit must lie strictly below the recorded run+1
  // protected region.
  const Dream dream;
  util::Xoshiro256 rng(2);
  for (int t = 0; t < 20000; ++t) {
    const fixed::Sample s = random_sample(rng);
    const int run = fixed::sign_run_length(s);
    const int protected_bits = run == 16 ? 16 : run + 1;
    const auto corruption = static_cast<std::uint16_t>(rng.bounded(65536));
    const fixed::Sample decoded = dream.decode(
        static_cast<std::uint16_t>(static_cast<std::uint16_t>(s) ^
                                   corruption),
        dream.encode_safe(s));
    const auto residual = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(decoded) ^ static_cast<std::uint16_t>(s));
    if (protected_bits >= 16) {
      EXPECT_EQ(residual, 0);
    } else {
      const auto protected_mask = static_cast<std::uint16_t>(
          ~((1u << (16 - protected_bits)) - 1u) & 0xFFFFu);
      EXPECT_EQ(residual & protected_mask, 0) << "s=" << s;
    }
  }
}

TEST(Torture, EccExactOnAnySingleFaultAnyWord) {
  const EccSecDed ecc;
  util::Xoshiro256 rng(3);
  for (int t = 0; t < 20000; ++t) {
    const fixed::Sample s = random_sample(rng);
    const int bit = static_cast<int>(rng.bounded(22));
    EXPECT_EQ(ecc.decode(ecc.encode_payload(s) ^ (1u << bit), 0), s);
  }
}

TEST(Torture, HybridRecoversWheneverEitherParentMechanismApplies) {
  // If the fault pattern is a single bit OR lies entirely within the sign
  // run of the data field, the hybrid must recover exactly.
  const DreamSecDed hybrid;
  util::Xoshiro256 rng(4);
  int single_cases = 0;
  int run_cases = 0;
  for (int t = 0; t < 30000; ++t) {
    const fixed::Sample s = random_sample(rng);
    const int run = fixed::sign_run_length(s);
    const std::uint16_t safe = hybrid.encode_safe(s);
    if (rng.bernoulli(0.5)) {
      // Single payload bit.
      const int bit = static_cast<int>(rng.bounded(22));
      EXPECT_EQ(hybrid.decode(hybrid.encode_payload(s) ^ (1u << bit), safe),
                s);
      ++single_cases;
    } else {
      // Data-bit burst inside the run (realized as a valid codeword of the
      // corrupted data: the worst case for pure ECC, which sees nothing).
      std::uint16_t corruption = 0;
      const int nbits = 1 + static_cast<int>(rng.bounded(4));
      for (int k = 0; k < nbits; ++k) {
        corruption |= static_cast<std::uint16_t>(
            1u << (15 - rng.bounded(static_cast<std::uint64_t>(run))));
      }
      const auto corrupted = static_cast<fixed::Sample>(
          static_cast<std::uint16_t>(s) ^ corruption);
      EXPECT_EQ(hybrid.decode(hybrid.encode_payload(corrupted), safe), s)
          << "s=" << s << " corruption=" << corruption;
      ++run_cases;
    }
  }
  EXPECT_GT(single_cases, 1000);
  EXPECT_GT(run_cases, 1000);
}

TEST(Torture, ProtectedBufferRandomMapsNeverCrashAndStayDeterministic) {
  // Heavy random maps across every EMT: reads must be total functions
  // (no crash, in-range) and repeatable.
  util::Xoshiro256 rng(5);
  ASSERT_EQ(emt_names().size(), 4u);
  for (const std::string& name : emt_names()) {
    const auto emt = make_emt(name);
    for (double ber : {1e-3, 1e-2, 0.1}) {
      const mem::FaultMap map = mem::FaultMap::random(512, 22, ber, rng);
      MemorySystem system(*emt, 512);
      system.attach_faults(&map);
      auto buf = ProtectedBuffer::allocate(system, 512);
      for (std::size_t i = 0; i < 512; ++i) {
        buf.set(i, random_sample(rng));
      }
      for (std::size_t i = 0; i < 512; ++i) {
        const fixed::Sample a = buf.get(i);
        const fixed::Sample b = buf.get(i);
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(Torture, EmtTransparencyOnFaultFreeMemoryExhaustive) {
  // Every EMT must be the identity channel on clean memory, for every
  // possible sample value (full 16-bit exhaustive sweep).
  ASSERT_EQ(emt_names().size(), 4u);
  for (const std::string& name : emt_names()) {
    const auto emt = make_emt(name);
    for (int v = -32768; v <= 32767; ++v) {
      const auto s = static_cast<fixed::Sample>(v);
      if (emt->decode(emt->encode_payload(s), emt->encode_safe(s)) != s) {
        FAIL() << emt->name() << " not transparent for " << v;
      }
    }
  }
}

/// Reference for the decoded shadow: the word data path without one,
/// where every read patches faults and decodes again.
struct WordLoopReference {
  WordLoopReference(const Emt& e, std::size_t words, int banks)
      : emt(e), data(words, e.payload_bits(), banks) {
    if (e.safe_bits() > 0) safe.emplace(words, e.safe_bits());
  }

  void write(std::size_t addr, fixed::Sample s) {
    data.write(addr, emt.encode_payload(s));
    if (safe) safe->write(addr, emt.encode_safe(s));
  }
  fixed::Sample read(std::size_t addr) {
    const std::uint32_t payload = data.read(addr);
    const std::uint16_t safe_word = safe ? safe->read(addr) : 0;
    return emt.decode(payload, safe_word, &counters);
  }

  const Emt& emt;
  mem::FaultyMemory data;
  std::optional<mem::SafeMemory> safe;
  CodecCounters counters;
};

std::uint64_t fault_patch_words() {
  return util::telemetry::snapshot().counters["mem.fault_patch_words"];
}

void expect_same_accounting(const WordLoopReference& ref,
                            const MemorySystem& sys) {
  EXPECT_EQ(ref.counters.decodes, sys.counters().decodes);
  EXPECT_EQ(ref.counters.corrected_words, sys.counters().corrected_words);
  EXPECT_EQ(ref.counters.detected_uncorrectable,
            sys.counters().detected_uncorrectable);
  EXPECT_EQ(ref.data.stats().reads, sys.data().stats().reads);
  EXPECT_EQ(ref.data.stats().writes, sys.data().stats().writes);
  EXPECT_EQ(ref.data.stats().bank_reads, sys.data().stats().bank_reads);
  EXPECT_EQ(ref.data.stats().bank_writes, sys.data().stats().bank_writes);
  ASSERT_EQ(ref.safe.has_value(), sys.safe() != nullptr);
  if (ref.safe) {
    EXPECT_EQ(ref.safe->stats().reads, sys.safe()->stats().reads);
    EXPECT_EQ(ref.safe->stats().writes, sys.safe()->stats().writes);
    EXPECT_EQ(ref.safe->stats().bank_reads, sys.safe()->stats().bank_reads);
  }
}

TEST(Torture, DecodedShadowMatchesWordLoopReference) {
  // Interleaved block and word writes and reads on random windows of
  // 1-300 words, with fault maps re-attached and the scrambler switched
  // on and off between them, for every EMT. After each step the
  // MemorySystem must agree with the word-loop reference on the samples
  // read, CodecCounters, both arrays' AccessStats (per bank too) and how
  // many words a fault entry patched. Two geometries: the power-of-two
  // banked one the apps use and an odd one that takes the modulo paths.
  struct Geometry {
    std::size_t words;
    int banks;
  };
  util::Xoshiro256 rng(17);
  std::uint64_t total_patched = 0;
  std::uint64_t total_corrected = 0;
  ASSERT_EQ(emt_names().size(), 4u);
  for (const Geometry geo : {Geometry{1024, 16}, Geometry{1000, 3}}) {
    std::vector<mem::FaultMap> maps;
    for (const double v : {0.5, 0.6, 0.75}) {
      maps.push_back(mem::FaultMap::random(
          geo.words, 22, mem::LogLinearBerModel().ber(v), rng));
    }
    maps.emplace_back(geo.words, 22);  // no entries: raw "none" plain copy
    for (const std::string& name : emt_names()) {
      SCOPED_TRACE(name + " words=" + std::to_string(geo.words));
      const auto emt = make_emt(name);
      MemorySystem sys(*emt, geo.words, geo.banks);
      WordLoopReference ref(*emt, geo.words, geo.banks);
      ProtectedBuffer buf(sys, 0, geo.words);
      std::vector<fixed::Sample> got(300);
      std::vector<fixed::Sample> want(300);
      for (int step = 0; step < 600; ++step) {
        const std::uint64_t op = rng.bounded(20);
        if (op == 0) {
          const std::uint64_t pick = rng.bounded(maps.size() + 1);
          const mem::FaultMap* map =
              pick == maps.size() ? nullptr : &maps[pick];
          sys.attach_faults(map);
          ref.data.attach_faults(map);
          continue;
        }
        if (op == 1) {
          const std::uint64_t seed = rng.bounded(2) == 0 ? 0 : rng();
          sys.set_scrambler(seed);
          ref.data.set_scrambler(seed);
          continue;
        }
        if (op == 2) {
          total_corrected += ref.counters.corrected_words;
          sys.reset_stats();
          ref.data.reset_stats();
          if (ref.safe) ref.safe->reset_stats();
          ref.counters.reset();
          continue;
        }
        const std::size_t n = 1 + rng.bounded(300);
        const std::size_t addr = rng.bounded(geo.words - n + 1);
        const std::uint64_t before = fault_patch_words();
        std::uint64_t ref_patched = 0;
        if (op < 8) {  // write: a block, or a word at a time through set()
          std::vector<fixed::Sample> src(n);
          for (auto& s : src) s = random_sample(rng);
          for (std::size_t i = 0; i < n; ++i) ref.write(addr + i, src[i]);
          ref_patched = fault_patch_words() - before;
          if (op < 5) {
            sys.store_block(addr, src);
          } else {
            for (std::size_t i = 0; i < n; ++i) buf.set(addr + i, src[i]);
          }
        } else {  // read: a block, or a word at a time through get()
          for (std::size_t i = 0; i < n; ++i) want[i] = ref.read(addr + i);
          ref_patched = fault_patch_words() - before;
          if (op < 14) {
            sys.load_block(addr, std::span<fixed::Sample>(got.data(), n));
          } else {
            for (std::size_t i = 0; i < n; ++i) got[i] = buf.get(addr + i);
          }
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(want[i], got[i]) << "step " << step << " addr "
                                       << addr + i;
          }
        }
        ASSERT_EQ(fault_patch_words() - before - ref_patched, ref_patched)
            << "step " << step;
        total_patched += ref_patched;
        expect_same_accounting(ref, sys);
        if (HasFailure()) FAIL() << "diverged at step " << step;
      }
      total_corrected += ref.counters.corrected_words;
    }
  }
  // The comparison covered fault patches and corrections, not only
  // clean words.
  EXPECT_GT(total_patched, 0u);
  EXPECT_GT(total_corrected, 0u);
}

class TortureBerSweep : public ::testing::TestWithParam<double> {};

TEST_P(TortureBerSweep, HybridWordErrorRateNeverAboveEcc) {
  // Monte-Carlo at a given cell BER: the hybrid's exact-recovery rate must
  // dominate plain ECC's (it decodes the same codeword, then repairs
  // more).
  const double ber = GetParam();
  const DreamSecDed hybrid;
  const EccSecDed ecc;
  util::Xoshiro256 rng(777);
  int hybrid_bad = 0;
  int ecc_bad = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const fixed::Sample s = random_sample(rng);
    std::uint32_t corruption = 0;
    for (int bit = 0; bit < 22; ++bit) {
      if (rng.bernoulli(ber)) corruption |= 1u << bit;
    }
    if (hybrid.decode(hybrid.encode_payload(s) ^ corruption,
                      hybrid.encode_safe(s)) != s) {
      ++hybrid_bad;
    }
    if (ecc.decode(ecc.encode_payload(s) ^ corruption, 0) != s) {
      ++ecc_bad;
    }
  }
  EXPECT_LE(hybrid_bad, ecc_bad);
}

INSTANTIATE_TEST_SUITE_P(BerLevels, TortureBerSweep,
                         ::testing::Values(1e-3, 5e-3, 2e-2, 5e-2, 0.1));

}  // namespace
}  // namespace ulpdream::core
