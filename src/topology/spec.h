// Textual topology specs, so examples and tools can build any supported
// network from a command-line string:
//   "sf:q=7"            Slim Fly, p = floor(r'/2)
//   "sf:q=7,p=ceil"     Slim Fly, p = ceil(r'/2)
//   "sf:q=7,p=4"        Slim Fly with an explicit endpoint count
//   "mlfm:h=7"          balanced h-MLFM
//   "mlfm:h=4,l=2,p=3"  general (h,l,p)-MLFM
//   "oft:k=6"           two-level k-OFT
//   "hyperx:r=12"       balanced 2-D HyperX for radix r
//   "hyperx:s1=11,s2=11,p=4"  s1 x s2 HyperX with p endpoints per router
//   "ft2:r=8" "ft3:r=8" two- / three-level Fat-Trees
#pragma once

#include <string>

#include "topology/topology.h"

namespace d2net {

/// Parses a spec string and builds the topology. Throws ArgumentError with
/// a usable message on malformed specs.
Topology build_topology_from_spec(const std::string& spec);

/// One-line human description of the supported spec grammar.
const char* topology_spec_help();

}  // namespace d2net
