#pragma once
// Umbrella header: the full public API of the radiobcast library.
//
// For finer-grained includes, pull in the individual headers; they are laid
// out one subsystem per directory (see README.md / DESIGN.md).

// Substrate: geometry and randomness.
#include "radiobcast/grid/coord.h"          // IWYU pragma: export
#include "radiobcast/grid/metric.h"         // IWYU pragma: export
#include "radiobcast/grid/neighborhood.h"   // IWYU pragma: export
#include "radiobcast/grid/region.h"         // IWYU pragma: export
#include "radiobcast/grid/torus.h"          // IWYU pragma: export
#include "radiobcast/util/cli.h"            // IWYU pragma: export
#include "radiobcast/util/rng.h"            // IWYU pragma: export
#include "radiobcast/util/table.h"          // IWYU pragma: export

// Node-disjoint path machinery and the paper's constructions.
#include "radiobcast/paths/construction.h"  // IWYU pragma: export
#include "radiobcast/paths/disjoint.h"      // IWYU pragma: export
#include "radiobcast/paths/flow.h"          // IWYU pragma: export
#include "radiobcast/paths/packing.h"       // IWYU pragma: export

// The locally bounded adversary.
#include "radiobcast/fault/fault_set.h"     // IWYU pragma: export
#include "radiobcast/fault/placement.h"     // IWYU pragma: export

// Observability: counters, round traces, phase timers.
#include "radiobcast/obs/counters.h"        // IWYU pragma: export
#include "radiobcast/obs/timers.h"          // IWYU pragma: export
#include "radiobcast/obs/trace.h"           // IWYU pragma: export

// The radio network and its extensions.
#include "radiobcast/net/channel.h"         // IWYU pragma: export
#include "radiobcast/net/jamming.h"         // IWYU pragma: export
#include "radiobcast/net/message.h"         // IWYU pragma: export
#include "radiobcast/net/network.h"         // IWYU pragma: export
#include "radiobcast/net/tdma.h"            // IWYU pragma: export

// Protocols.
#include "radiobcast/protocols/byzantine.h"    // IWYU pragma: export
#include "radiobcast/protocols/common.h"       // IWYU pragma: export
#include "radiobcast/protocols/earmark.h"      // IWYU pragma: export
#include "radiobcast/protocols/pool.h"         // IWYU pragma: export
#include "radiobcast/protocols/source.h"       // IWYU pragma: export

// Arbitrary radio graphs (Sections III and V).
#include "radiobcast/graph/graph.h"            // IWYU pragma: export
#include "radiobcast/graph/graph_net.h"        // IWYU pragma: export
#include "radiobcast/graph/graph_protocols.h"  // IWYU pragma: export

// Experiment drivers and analysis.
#include "radiobcast/core/analysis.h"      // IWYU pragma: export
#include "radiobcast/core/ascii_viz.h"     // IWYU pragma: export
#include "radiobcast/core/experiment.h"    // IWYU pragma: export
#include "radiobcast/core/reachability.h"  // IWYU pragma: export
#include "radiobcast/core/simulation.h"    // IWYU pragma: export
