// D1HT: MAAN's placement rule on the single-hop ring (see maan_service.hpp).
#pragma once

#include "discovery/maan_service.hpp"

namespace lorm::discovery {

using D1htService = BasicMaanService<singlehop::SingleHopRing>;

}  // namespace lorm::discovery
