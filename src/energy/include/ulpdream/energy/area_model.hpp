#pragma once
// Codec area model — substitute for the Synopsys Design Compiler synthesis
// reports (paper Sec. VI-B): "ECC requires 28% of area overhead for the
// encoder and 120% for the decoder, compared to those of DREAM". Areas are
// expressed in gate equivalents (GE, NAND2-equivalent) for a 32 nm
// library; the paper-relevant outputs are the ratios.

#include <string>

#include "ulpdream/core/emt.hpp"

namespace ulpdream::energy {

struct CodecArea {
  double encoder_ge = 0.0;
  double decoder_ge = 0.0;

  [[nodiscard]] double total_ge() const { return encoder_ge + decoder_ge; }
};

/// Codec area of the built-in EMT registered as `emt_name` ("none",
/// "dream", "ecc_secded", "dream_secded"). Throws std::invalid_argument
/// for any other name: a user-registered EMT has no synthesis result.
[[nodiscard]] CodecArea codec_area(const std::string& emt_name);

/// Memory-array area overhead fraction relative to the unprotected 16-bit
/// array (cell area proportional to total bits stored per word): the EMT's
/// extra bits per word (paper Formula 2 / Sec. V: DREAM 1 + log2(16) = 5,
/// ECC SEC/DED 2 + log2(16) = 6, none 0) over 16.
[[nodiscard]] double memory_area_overhead(const core::Emt& emt);

}  // namespace ulpdream::energy
