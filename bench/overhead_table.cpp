// Reproduces the static overhead numbers: paper Formula 2 / Sec. V extra
// memory bits per word, and the Sec. VI-B codec area comparison (ECC
// encoder +28%, decoder +120% vs DREAM).

#include <cmath>
#include <iostream>
#include <string>

#include "ulpdream/core/factory.hpp"
#include "ulpdream/energy/area_model.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

namespace {

/// The paper's extra bits per word (Formula 2 / Sec. V) for the EMTs it
/// evaluates; "-" for any other name.
const char* paper_extra_bits(const std::string& emt_name) {
  if (emt_name == "none") return "0";
  if (emt_name == "dream") return "5";
  if (emt_name == "ecc_secded") return "6";
  return "-";
}

}  // namespace

int main() {
  util::Table bits("Formula 2 / Sec. V - extra bits per 16-bit data word");
  bits.set_header({"emt", "payload_bits", "safe_bits", "extra_bits",
                   "paper_extra_bits", "mem_area_overhead_%"});
  for (const std::string& name : core::paper_emt_names()) {
    const auto emt = core::make_emt(name);
    bits.add_row({emt->name(), std::to_string(emt->payload_bits()),
                  std::to_string(emt->safe_bits()),
                  std::to_string(emt->extra_bits()), paper_extra_bits(name),
                  util::fmt(energy::memory_area_overhead(*emt) * 100.0, 1)});
  }
  bits.print(std::cout);
  std::cout << '\n';

  util::Table area("Sec. VI-B - codec area (gate equivalents)");
  area.set_header({"emt", "encoder_GE", "decoder_GE", "enc_vs_dream",
                   "dec_vs_dream"});
  const energy::CodecArea dream = energy::codec_area("dream");
  for (const std::string name : {"dream", "ecc_secded"}) {
    const energy::CodecArea a = energy::codec_area(name);
    // Built via append rather than `"+" + fmt(...) + "%"`: the temporary
    // chain trips GCC 12's -Wrestrict false positive (GCC PR105651).
    std::string enc_vs_dream = "+";
    enc_vs_dream += util::fmt((a.encoder_ge / dream.encoder_ge - 1.0) * 100.0, 0);
    enc_vs_dream += "%";
    std::string dec_vs_dream = "+";
    dec_vs_dream += util::fmt((a.decoder_ge / dream.decoder_ge - 1.0) * 100.0, 0);
    dec_vs_dream += "%";
    area.add_row({name, util::fmt(a.encoder_ge, 0),
                  util::fmt(a.decoder_ge, 0), enc_vs_dream, dec_vs_dream});
  }
  area.print(std::cout);
  std::cout << '\n';

  util::Table codec("Codec energy model (per operation)");
  codec.set_header({"emt", "encode_pJ", "decode_pJ"});
  for (const std::string& name : core::paper_emt_names()) {
    const auto e = energy::codec_energy(*core::make_emt(name));
    codec.add_row({name, util::fmt(e.encode_pj, 2),
                   util::fmt(e.decode_pj, 2)});
  }
  codec.print(std::cout);

  std::cout << "\nShape checks:\n";
  bool all_pass = true;
  const auto check = [&all_pass](const char* label, bool pass) {
    std::cout << "  " << label << ": " << (pass ? "PASS" : "FAIL") << '\n';
    all_pass = all_pass && pass;
  };
  check("DREAM 5 extra bits, ECC 6 (paper Sec. V)",
        core::make_emt("dream")->extra_bits() == 5 &&
            core::make_emt("ecc_secded")->extra_bits() == 6);
  const auto ecc_area = energy::codec_area("ecc_secded");
  check("ECC encoder +28% / decoder +120% vs DREAM",
        std::abs(ecc_area.encoder_ge / dream.encoder_ge - 1.28) < 0.01 &&
            std::abs(ecc_area.decoder_ge / dream.decoder_ge - 2.20) < 0.01);
  return all_pass ? 0 : 1;
}
