#include "ulpdream/mem/memory.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"
#include "ulpdream/util/telemetry.hpp"

#if ULPDREAM_SIMD_X86
#include <immintrin.h>
#endif

namespace ulpdream::mem {

namespace {
/// Words whose stored bits were rewritten by a FaultMap entry on read.
/// Block paths tally locally and flush once per call; the scalar read()
/// adds directly (it only pays when a fault actually applied).
const util::telemetry::Counter& fault_patch_counter() {
  static const util::telemetry::Counter counter("mem.fault_patch_words");
  return counter;
}
}  // namespace

void AccessStats::reset(std::size_t banks) {
  reads = 0;
  writes = 0;
  bank_reads.assign(banks, 0);
  bank_writes.assign(banks, 0);
}

FaultyMemory::FaultyMemory(std::size_t words, int width_bits, int banks)
    : width_(width_bits), banks_(banks), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 32) {
    throw std::invalid_argument("FaultyMemory: width must be in [1, 32]");
  }
  if (banks <= 0) {
    throw std::invalid_argument("FaultyMemory: banks must be positive");
  }
  width_mask_ = width_bits == 32 ? 0xFFFFFFFFu : ((1u << width_bits) - 1u);
  stats_.reset(static_cast<std::size_t>(banks));
}

void FaultyMemory::attach_faults(const FaultMap* map) {
  if (map != nullptr) {
    if (map->words() < store_.size()) {
      throw std::invalid_argument(
          "FaultyMemory: fault map covers " + std::to_string(map->words()) +
          " words, memory has " + std::to_string(store_.size()));
    }
    if (map->bits_per_word() < width_) {
      throw std::invalid_argument(
          "FaultyMemory: fault map is " +
          std::to_string(map->bits_per_word()) + " bits/word, memory needs " +
          std::to_string(width_));
    }
  }
  faults_ = map;
}

void FaultyMemory::set_scrambler(std::uint64_t seed) {
  if (seed == 0) {
    scramble_mul_ = 1;
    scramble_add_ = 0;
    return;
  }
  // Affine permutation over the word index space. For power-of-two sizes
  // any odd multiplier is a bijection mod 2^k; we also fold in an additive
  // offset so the identity row 0 moves too.
  util::SplitMix64 sm(seed);
  scramble_mul_ = sm.next() | 1u;
  scramble_add_ = sm.next();
}

std::size_t FaultyMemory::physical(std::size_t logical) const {
  if (scramble_mul_ == 1 && scramble_add_ == 0) return logical;
  const std::uint64_t n = store_.size();
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(logical) * scramble_mul_ + scramble_add_) %
      n);
}

void FaultyMemory::write(std::size_t addr, std::uint32_t bits) {
  const std::size_t phys = physical(addr);
  store_.at(phys) = bits & width_mask_;
  ++stats_.writes;
  ++stats_.bank_writes[static_cast<std::size_t>(bank_of(phys))];
}

std::uint32_t FaultyMemory::read(std::size_t addr) const {
  const std::size_t phys = physical(addr);
  std::uint32_t bits = store_.at(phys);
  if (faults_ != nullptr) {
    if (const WordFaults* f = faults_->lookup(phys)) {
      bits = f->apply(bits);
      fault_patch_counter().add();
    }
  }
  ++stats_.reads;
  ++stats_.bank_reads[static_cast<std::size_t>(bank_of(phys))];
  return bits & width_mask_;
}

namespace {

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// --- bank accounting, hoisted out of the word loops ----------------------
//
// Bank counts depend only on the physical address sequence, never on the
// data or the fault map, so the block loops compute them arithmetically in
// O(banks) instead of one memory-indirect increment per word.

// Contiguous run [phys, phys + n): every bank gets floor(n / banks), and
// the n % banks remainder lands on consecutive banks starting at
// phys % banks.
void add_contiguous_bank_counts(std::uint64_t* counts, std::size_t banks,
                                std::uint64_t phys, std::uint64_t n) {
  // Masks instead of divisions for the paper's 16 banks: short windows
  // and single words make the divisions the dominant cost here.
  const bool pow2 = is_pow2(banks);
  const std::uint64_t whole = pow2 ? n >> std::countr_zero(banks) : n / banks;
  std::uint64_t rem = pow2 ? n & (banks - 1) : n % banks;
  if (whole != 0) {
    for (std::size_t b = 0; b < banks; ++b) counts[b] += whole;
  }
  auto b = static_cast<std::size_t>(pow2 ? phys & (banks - 1) : phys % banks);
  while (rem-- > 0) {
    ++counts[b];
    if (++b == banks) b = 0;
  }
}

// Strided run phys_i = ((phys0 + i*step) mod 2^64) mod words, with words
// and banks powers of two and banks <= words: banks then divides both
// words and 2^64, so the bank residue collapses to (phys0 + i*step) mod
// banks, which depends only on i mod banks. Index class j therefore
// contributes ceil((n - j) / banks) accesses to bank (phys0 + j*step) mod
// banks.
void add_strided_bank_counts(std::uint64_t* counts, std::size_t banks,
                             std::uint64_t phys0, std::uint64_t step,
                             std::uint64_t n) {
  const std::uint64_t bmask = banks - 1;
  for (std::uint64_t j = 0; j < banks && j < n; ++j) {
    counts[(phys0 + j * step) & bmask] += (n - j + banks - 1) / banks;
  }
}

#if ULPDREAM_SIMD_X86

// Gathered read for the scrambled power-of-two geometry. Eight physical
// addresses per iteration via 32-bit lane arithmetic — (addr + i)*mul +
// add wraps mod 2^32, which agrees with the scalar mod-2^64 wrap on every
// bit the (<= 32-bit) word mask keeps — then a gathered word load, a
// gathered presence-bitmap test, and scalar patch-up only for lanes whose
// chunk actually holds faults (tallied in *patched and, when non-null,
// flagged in patched_at). Returns how many words were handled; the
// caller finishes the tail with the scalar walk. The 16-bit instantiation
// packs the masked lanes down (exact: the caller guarantees the width
// mask fits 16 bits) for the staging-free raw-sample path.
template <typename Word>
__attribute__((target("avx2"))) std::size_t scrambled_gather_read_avx2(
    const std::uint32_t* store, std::uint64_t addr, std::uint64_t mul,
    std::uint64_t add, std::uint64_t wmask, std::uint32_t width_mask,
    const FaultMap* faults, Word* dst, std::size_t n, std::size_t* patched,
    std::uint8_t* patched_at) {
  static_assert(FaultMap::kChunkWords == 64);
  const __m256i vmul =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(mul)));
  const __m256i vadd =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(add)));
  const __m256i vwmask =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(wmask)));
  const __m256i vwidth =
      _mm256_set1_epi32(static_cast<int>(width_mask));
  __m256i vi = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(addr))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i v8 = _mm256_set1_epi32(8);
  const bool check_faults = faults != nullptr && faults->entry_count() != 0;
  // The u64 presence bitmap reinterpreted as u32 lanes (little-endian x86:
  // chunk bit c lives in u32 word c >> 5, bit c & 31).
  const auto* coarse32 =
      check_faults ? reinterpret_cast<const int*>(faults->presence_data())
                   : nullptr;
  alignas(32) std::uint32_t phys_buf[8];
  alignas(32) std::uint32_t bits_buf[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, vi = _mm256_add_epi32(vi, v8)) {
    const __m256i phys = _mm256_and_si256(
        _mm256_add_epi32(_mm256_mullo_epi32(vi, vmul), vadd), vwmask);
    __m256i bits = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(store), phys, 4);
    if (check_faults) {
      const __m256i chunk = _mm256_srli_epi32(phys, 6);
      const __m256i cword = _mm256_i32gather_epi32(
          coarse32, _mm256_srli_epi32(chunk, 5), 4);
      const __m256i hit = _mm256_and_si256(
          _mm256_srlv_epi32(cword,
                            _mm256_and_si256(chunk, _mm256_set1_epi32(31))),
          _mm256_set1_epi32(1));
      if (!_mm256_testz_si256(hit, hit)) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(phys_buf), phys);
        _mm256_store_si256(reinterpret_cast<__m256i*>(bits_buf), bits);
        for (int lane = 0; lane < 8; ++lane) {
          if (const WordFaults* f = faults->lookup(phys_buf[lane])) {
            bits_buf[lane] = f->apply(bits_buf[lane]);
            ++*patched;
            if (patched_at != nullptr) patched_at[i + lane] = 1;
          }
        }
        bits = _mm256_load_si256(reinterpret_cast<const __m256i*>(bits_buf));
      }
    }
    const __m256i masked = _mm256_and_si256(bits, vwidth);
    if constexpr (sizeof(Word) == 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), masked);
    } else {
      static_assert(sizeof(Word) == 2);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packus_epi32(_mm256_castsi256_si128(masked),
                                        _mm256_extracti128_si256(masked, 1)));
    }
  }
  return i;
}

#endif  // ULPDREAM_SIMD_X86

}  // namespace

// The block loops hoist the per-word costs of the scalar accessors — the
// cross-TU call, the at() bounds check and, for the power-of-two word and
// bank counts of the paper geometry, the 64-bit divisions behind the
// affine scrambler and the bank decode (x mod 2^k == x & (2^k - 1), and
// the affine map wraps mod 2^64 first, whose residue mod any 2^k divisor
// is unchanged). On top of that, bank stats are computed arithmetically,
// unscrambled runs move data with wide copies (skipping per-word fault
// lookups for chunks the presence bitmap marks clean), and the scrambled
// power-of-two read dispatches to a gathered AVX2 kernel when available.
// Addresses, stored bits and stats match the scalar loop exactly on every
// path.

void FaultyMemory::check_range(std::size_t addr, std::size_t n,
                               const char* what) const {
  if (n > store_.size() || addr > store_.size() - n) {
    throw std::out_of_range(std::string(what) + ": range");
  }
}

void FaultyMemory::add_bank_counts(std::uint64_t* counts, std::size_t addr,
                                   std::size_t n) const {
  const auto banks = static_cast<std::size_t>(banks_);
  const bool pow2_banks = is_pow2(banks);
  const std::uint64_t words = store_.size();
  if (scramble_mul_ == 1 && scramble_add_ == 0) {
    add_contiguous_bank_counts(counts, banks, addr, n);
    return;
  }
  if (is_pow2(words)) {
    const std::uint64_t wmask = words - 1;
    const std::uint64_t step = scramble_mul_ & wmask;
    const std::uint64_t phys0 =
        (static_cast<std::uint64_t>(addr) * scramble_mul_ + scramble_add_) &
        wmask;
    if (pow2_banks && banks <= words) {
      add_strided_bank_counts(counts, banks, phys0, step, n);
      return;
    }
    std::uint64_t phys = phys0;
    for (std::size_t j = 0; j < n; ++j) {
      ++counts[static_cast<std::size_t>(phys % banks)];
      phys = (phys + step) & wmask;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mapped =
        static_cast<std::uint64_t>(addr + i) * scramble_mul_ + scramble_add_;
    const auto phys = static_cast<std::size_t>(mapped % words);
    ++counts[pow2_banks ? phys & (banks - 1) : phys % banks];
  }
}

template <typename Word>
void FaultyMemory::write_block_impl(std::size_t addr, const Word* src,
                                    std::size_t n) {
  check_range(addr, n, "FaultyMemory::write_block");
  const bool scrambled = scramble_mul_ != 1 || scramble_add_ != 0;
  const std::uint64_t words = store_.size();
  const std::uint32_t wm = width_mask_;
  stats_.writes += n;
  add_bank_counts(stats_.bank_writes.data(), addr, n);
  if (!scrambled) {
    std::uint32_t* const out = store_.data() + addr;
    for (std::size_t i = 0; i < n; ++i) out[i] = src[i] & wm;
    return;
  }
  if (is_pow2(words)) {
    const std::uint64_t wmask = words - 1;
    const std::uint64_t step = scramble_mul_ & wmask;
    const std::uint64_t phys0 =
        (static_cast<std::uint64_t>(addr) * scramble_mul_ + scramble_add_) &
        wmask;
    // Four independent address chains: the scatter itself is inherently
    // scalar (no scatter op below AVX-512), but one chain's add+mask
    // recurrence would cap the loop at 2 cycles/word.
    const std::uint64_t step4 = (step * 4) & wmask;
    std::uint64_t p0 = phys0;
    std::uint64_t p1 = (p0 + step) & wmask;
    std::uint64_t p2 = (p1 + step) & wmask;
    std::uint64_t p3 = (p2 + step) & wmask;
    std::uint32_t* const mem = store_.data();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      mem[static_cast<std::size_t>(p0)] = src[i] & wm;
      mem[static_cast<std::size_t>(p1)] = src[i + 1] & wm;
      mem[static_cast<std::size_t>(p2)] = src[i + 2] & wm;
      mem[static_cast<std::size_t>(p3)] = src[i + 3] & wm;
      p0 = (p0 + step4) & wmask;
      p1 = (p1 + step4) & wmask;
      p2 = (p2 + step4) & wmask;
      p3 = (p3 + step4) & wmask;
    }
    for (; i < n; ++i) {
      mem[static_cast<std::size_t>(p0)] = src[i] & wm;
      p0 = (p0 + step) & wmask;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mapped =
        static_cast<std::uint64_t>(addr + i) * scramble_mul_ + scramble_add_;
    store_[static_cast<std::size_t>(mapped % words)] = src[i] & wm;
  }
}

void FaultyMemory::write_block(std::size_t addr,
                               std::span<const std::uint32_t> src) {
  write_block_impl(addr, src.data(), src.size());
}

void FaultyMemory::write_block(std::size_t addr,
                               std::span<const std::uint16_t> src) {
  write_block_impl(addr, src.data(), src.size());
}

template <typename Word>
std::size_t FaultyMemory::gather_impl(std::size_t addr, Word* dst,
                                      std::size_t n,
                                      std::uint8_t* patched_at) const {
  const FaultMap* const faults = faults_;
  const bool scrambled = scramble_mul_ != 1 || scramble_add_ != 0;
  const std::uint64_t words = store_.size();
  const std::uint32_t wm = width_mask_;
  std::size_t patched = 0;
  // Applies physical word `phys`'s fault entry, if any, to word i's bits.
  const auto patch = [&](std::uint32_t bits, std::size_t phys,
                         std::size_t i) {
    if (const WordFaults* f = faults->lookup(phys)) {
      bits = f->apply(bits);
      ++patched;
      if (patched_at != nullptr) patched_at[i] = 1;
    }
    return bits;
  };
  if (!scrambled) {
    const std::uint32_t* const src = store_.data() + addr;
    if (faults == nullptr || faults->entry_count() == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<Word>(src[i] & wm);
      }
      return 0;
    }
    // Walk chunk by chunk: one presence bit decides between a wide copy
    // and the per-word lookup loop.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t chunk = (addr + i) / FaultMap::kChunkWords;
      const std::size_t run_end = std::min<std::size_t>(
          n, (chunk + 1) * FaultMap::kChunkWords - addr);
      if (faults->chunk_clean(chunk)) {
        for (; i < run_end; ++i) dst[i] = static_cast<Word>(src[i] & wm);
      } else {
        for (; i < run_end; ++i) {
          dst[i] = static_cast<Word>(patch(src[i], addr + i, i) & wm);
        }
      }
    }
    return patched;
  }
  if (is_pow2(words)) {
    const std::uint64_t wmask = words - 1;
    const std::uint64_t step = scramble_mul_ & wmask;
    const std::uint64_t phys0 =
        (static_cast<std::uint64_t>(addr) * scramble_mul_ + scramble_add_) &
        wmask;
    std::size_t i = 0;
#if ULPDREAM_SIMD_X86
    if (util::simd::active_tier() >= util::simd::Tier::kAvx2 &&
        wmask <= 0xFFFFFFFFu) {
      i = scrambled_gather_read_avx2(store_.data(), addr, scramble_mul_,
                                     scramble_add_, wmask, wm, faults, dst,
                                     n, &patched, patched_at);
    }
#endif
    std::uint64_t phys = (phys0 + i * step) & wmask;
    for (; i < n; ++i) {
      std::uint32_t bits = store_[static_cast<std::size_t>(phys)];
      if (faults != nullptr) {
        bits = patch(bits, static_cast<std::size_t>(phys), i);
      }
      dst[i] = static_cast<Word>(bits & wm);
      phys = (phys + step) & wmask;
    }
    return patched;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mapped =
        static_cast<std::uint64_t>(addr + i) * scramble_mul_ + scramble_add_;
    const auto phys = static_cast<std::size_t>(mapped % words);
    std::uint32_t bits = store_[phys];
    if (faults != nullptr) bits = patch(bits, phys, i);
    dst[i] = static_cast<Word>(bits & wm);
  }
  return patched;
}

void FaultyMemory::read_block(std::size_t addr,
                              std::span<std::uint32_t> dst) const {
  check_range(addr, dst.size(), "FaultyMemory::read_block");
  add_read_stats(addr, dst.size(),
                 gather_impl(addr, dst.data(), dst.size(), nullptr));
}

void FaultyMemory::read_block(std::size_t addr,
                              std::span<std::uint16_t> dst) const {
  if (width_ > 16) {
    throw std::logic_error(
        "FaultyMemory::read_block: 16-bit destination for a " +
        std::to_string(width_) + "-bit word");
  }
  check_range(addr, dst.size(), "FaultyMemory::read_block");
  add_read_stats(addr, dst.size(),
                 gather_impl(addr, dst.data(), dst.size(), nullptr));
}

void FaultyMemory::peek_block(std::size_t addr, std::span<std::uint32_t> dst,
                              std::span<std::uint8_t> patched) const {
  if (patched.size() != dst.size()) {
    throw std::invalid_argument("FaultyMemory::peek_block: span lengths");
  }
  check_range(addr, dst.size(), "FaultyMemory::peek_block");
  std::fill(patched.begin(), patched.end(), std::uint8_t{0});
  (void)gather_impl(addr, dst.data(), dst.size(), patched.data());
}

void FaultyMemory::count_reads(std::size_t addr, std::size_t n,
                               std::size_t patched) const {
  check_range(addr, n, "FaultyMemory::count_reads");
  add_read_stats(addr, n, patched);
}

void FaultyMemory::add_read_stats(std::size_t addr, std::size_t n,
                                  std::size_t patched) const {
  stats_.reads += n;
  add_bank_counts(stats_.bank_reads.data(), addr, n);
  if (patched != 0) fault_patch_counter().add(patched);
}

std::uint32_t FaultyMemory::peek_physical(std::size_t addr) const {
  const std::size_t phys = physical(addr);
  std::uint32_t bits = store_.at(phys);
  if (faults_ != nullptr) {
    if (const WordFaults* f = faults_->lookup(phys)) bits = f->apply(bits);
  }
  return bits & width_mask_;
}

void FaultyMemory::fill(std::uint32_t bits) {
  for (auto& w : store_) w = bits & width_mask_;
}

void FaultyMemory::reset_stats() {
  stats_.reset(static_cast<std::size_t>(banks_));
}

SafeMemory::SafeMemory(std::size_t words, int width_bits)
    : width_(width_bits), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 16) {
    throw std::invalid_argument("SafeMemory: width must be in [1, 16]");
  }
  width_mask_ = static_cast<std::uint16_t>((1u << width_bits) - 1u);
  stats_.reset(1);
}

void SafeMemory::check_range(std::size_t addr, std::size_t n,
                             const char* what) const {
  if (n > store_.size() || addr > store_.size() - n) {
    throw std::out_of_range(std::string(what) + ": range");
  }
}

void SafeMemory::write(std::size_t addr, std::uint16_t bits) {
  store_.at(addr) = bits & width_mask_;
  ++stats_.writes;
  ++stats_.bank_writes[0];
}

std::uint16_t SafeMemory::read(std::size_t addr) const {
  ++stats_.reads;
  ++stats_.bank_reads[0];
  return store_.at(addr);
}

void SafeMemory::write_block(std::size_t addr,
                             std::span<const std::uint16_t> src) {
  const std::size_t n = src.size();
  check_range(addr, n, "SafeMemory::write_block");
  for (std::size_t i = 0; i < n; ++i) store_[addr + i] = src[i] & width_mask_;
  stats_.writes += n;
  stats_.bank_writes[0] += n;
}

void SafeMemory::read_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  peek_block(addr, dst);  // checks the range
  stats_.reads += dst.size();
  stats_.bank_reads[0] += dst.size();
}

void SafeMemory::peek_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  check_range(addr, dst.size(), "SafeMemory::peek_block");
  std::copy_n(store_.begin() + static_cast<std::ptrdiff_t>(addr), dst.size(),
              dst.begin());
}

void SafeMemory::count_reads(std::size_t addr, std::size_t n) const {
  check_range(addr, n, "SafeMemory::count_reads");
  stats_.reads += n;
  stats_.bank_reads[0] += n;
}

void SafeMemory::reset_stats() { stats_.reset(1); }

}  // namespace ulpdream::mem
