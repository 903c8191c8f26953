#pragma once
// Parameters shared by every protocol.

#include <cstdint>

#include "radiobcast/grid/coord.h"

namespace rbcast {

/// Parameters shared by all protocol behaviors.
struct ProtocolParams {
  std::int64_t t = 0;   // local fault bound the protocol is configured for
  Coord source{0, 0};   // the designated dealer (known to every node)
  /// Keep accumulating evidence and determinations after committing. The
  /// paper's protocol never stops; operationally the post-commit bookkeeping
  /// is dead state (a node's only outward signal is its COMMITTED broadcast,
  /// already sent), so the default skips it for speed. The Fig 1 fidelity
  /// tests turn it on to observe the full determination set.
  bool track_after_commit = false;
};

}  // namespace rbcast
