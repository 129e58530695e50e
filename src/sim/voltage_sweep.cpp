#include "ulpdream/sim/voltage_sweep.hpp"

#include <cmath>

namespace ulpdream::sim {

const SweepPoint* SweepResult::find(std::string_view emt, double v) const {
  for (const auto& p : points) {
    if (p.emt == emt && std::fabs(p.voltage - v) < 1e-6) return &p;
  }
  return nullptr;
}

}  // namespace ulpdream::sim
