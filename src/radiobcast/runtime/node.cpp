#include "radiobcast/runtime/node.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "radiobcast/net/channel.h"

namespace rbcast {

namespace {

std::vector<std::uint32_t> neighbor_indices(const Adjacency& adjacency,
                                            std::int32_t self_index) {
  std::vector<std::uint32_t> out;
  const auto receivers = adjacency.receivers(self_index);
  out.reserve(receivers.size());
  // On a torus the radio graph is symmetric: the nodes hearing me are the
  // nodes I hear, so my barrier peers are exactly my CSR receivers.
  for (const std::int32_t r : receivers) {
    out.push_back(static_cast<std::uint32_t>(r));
  }
  return out;
}

const Adjacency& adjacency_for(const Torus& torus, const SimConfig& sim) {
  return Adjacency::get(torus, NeighborhoodTable::get(sim.r, sim.metric));
}

void validate(const RuntimeNode::Options& opts) {
  if (!(opts.sim.loss_p >= 0.0 && opts.sim.loss_p <= 1.0)) {
    throw std::invalid_argument("runtime: loss_p must be in [0,1]");
  }
  if (opts.sim.retransmissions != 1) {
    throw std::invalid_argument(
        "runtime: retransmissions are a link-layer concern here; set 1");
  }
  if (opts.sim.adversary == AdversaryKind::kSpoofing) {
    throw std::invalid_argument(
        "runtime: the spoofing adversary lives in the simulated channel "
        "and has no socket analogue (source-port identity)");
  }
  if (opts.sim.adversary == AdversaryKind::kJamming &&
      opts.sim.jam_budget > 0) {
    throw std::invalid_argument(
        "runtime: a bounded jamming budget is a globally ordered ledger no "
        "distributed node can replicate; use jam_budget -1 (unbounded) or 0");
  }
}

/// The node's protocol object. Every role first builds the honest protocol,
/// so a configuration the protocols reject (e.g. an unsupported radius)
/// fails on every node of a deployment before round 1, not only on the
/// honest ones while the source and the faults wait at the first barrier.
std::unique_ptr<NodeBehavior> make_behavior(const RuntimeNode::Options& opts,
                                            const Torus& torus) {
  if (opts.behavior_factory) {
    return opts.behavior_factory(opts.sim, torus, opts.role);
  }
  auto honest = make_node_behavior(opts.sim, torus, NodeRole::kHonest);
  if (opts.role == NodeRole::kHonest) return honest;
  return make_node_behavior(opts.sim, torus, opts.role);
}

}  // namespace

RuntimeNode::RuntimeNode(Options opts, Transport& transport)
    : opts_((validate(opts), std::move(opts))),
      torus_(opts_.sim.width, opts_.sim.height),
      self_index_(torus_.index(torus_.wrap(opts_.self))),
      // Per-node generator: the simulator's single shared stream cannot be
      // replicated across processes, and no shipped behavior draws from it;
      // hash_seeds keeps distinct nodes decorrelated.
      rng_(hash_seeds(opts_.sim.seed,
                      static_cast<std::uint64_t>(self_index_))),
      transport_(&transport),
      link_(static_cast<std::uint32_t>(self_index_), transport, opts_.link),
      sync_(neighbor_indices(adjacency_for(torus_, opts_.sim), self_index_),
            RoundSynchronizer::Options{opts_.round_timeout,
                                       opts_.suspect_after}),
      adjacency_(&adjacency_for(torus_, opts_.sim)),
      behavior_(make_behavior(opts_, torus_)) {
  opts_.self = torus_.wrap(opts_.self);
  if (opts_.sim.adversary == AdversaryKind::kJamming) {
    // Unbounded jamming is a static geometric blackout: every receiver
    // within r of a jammer loses honest traffic (faulty transmissions are
    // never jammed — the adversary coordinates). A zero budget jams nothing,
    // exactly like the simulator's JammingChannel with budget 0.
    jam_active_ = opts_.sim.jam_budget < 0 &&
                  opts_.role != NodeRole::kFaulty && !opts_.jammers.empty();
    if (jam_active_) {
      jammed_receiver_.assign(
          static_cast<std::size_t>(torus_.node_count()), false);
      for (const std::int32_t receiver : adjacency_->receivers(self_index_)) {
        const Coord rc = torus_.coord(receiver);
        for (const Coord jammer : opts_.jammers) {
          if (torus_.within(torus_.wrap(jammer), rc, opts_.sim.r,
                            opts_.sim.metric)) {
            jammed_receiver_[static_cast<std::size_t>(receiver)] = true;
            break;
          }
        }
      }
    }
  } else if (opts_.sim.loss_p > 0.0) {
    // The runtime's loss channel: the simulator's PairwiseLossChannel
    // schedule, computed sender-side. Per-pair streams mean this node can
    // reproduce the simulator's exact per-(transmission, receiver) drop
    // decisions with no shared state — the equivalence argument of
    // docs/RUNTIME.md extended to lossy channels.
    loss_active_ = true;
    for (const std::int32_t receiver : adjacency_->receivers(self_index_)) {
      loss_.emplace(
          static_cast<std::uint32_t>(receiver),
          LossStream{Rng(pairwise_loss_seed(opts_.sim.seed, opts_.self,
                                            torus_.coord(receiver))),
                     0});
    }
  }
}

void RuntimeNode::record_commit(Coord node, std::uint8_t value) {
  counters_.commits += 1;
  commit_hist_.record_us(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - run_start_)
          .count()));
  if (round_ > counters_.last_commit_round) {
    counters_.last_commit_round = round_;
  }
  if (opts_.trace != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kNodeCommitted;
    e.round = round_;
    e.node = torus_.wrap(node);
    e.value = value;
    opts_.trace->record(e);
  }
}

void RuntimeNode::queue_broadcast(Coord sender, Message msg) {
  (void)sender;  // always this node; identity is enforced by the socket layer
  counters_.broadcasts_queued += 1;
  if (msg.type == MsgType::kCommitted) {
    counters_.committed_queued += 1;
  } else {
    counters_.heard_queued += 1;
  }
  outbox_.push_back(std::move(msg));
}

void RuntimeNode::queue_spoofed_broadcast(Coord, Coord, Message) {
  throw std::logic_error(
      "address spoofing is impossible in the networked runtime: datagram "
      "origin is resolved from the socket source address");
}

void RuntimeNode::pump() {
  rx_buffer_.clear();
  link_.poll(rx_buffer_);
  for (const ReceivedMessage& rm : rx_buffer_) {
    sync_.on_message(rm.from, rm.msg);
  }
  link_.tick(std::chrono::steady_clock::now());
}

void RuntimeNode::wait_for_traffic(
    std::chrono::steady_clock::time_point cap) {
  // Sleep until the transport has traffic or the earliest deadline that
  // demands action — a pending retransmission, or the caller's cap (barrier
  // timeout / stop probe / linger deadline).
  if (const auto d = link_.next_deadline(); d.has_value() && *d < cap) {
    cap = *d;
  }
  transport_->wait(cap);
}

bool RuntimeNode::suppressed(std::uint32_t receiver) {
  if (jam_active_) return jammed_receiver_[receiver];
  if (loss_active_) {
    LossStream& stream = loss_.find(receiver)->second;
    ++stream.draws;
    return stream.rng.chance(opts_.sim.loss_p);
  }
  return false;
}

void RuntimeNode::finish_round(std::int64_t k, std::int64_t bound) {
  // Final-round traffic is consumed by nobody: the highest barrier any node
  // runs is bound-1, so round-`bound` messages and markers would only sit
  // unacked while peers (whose own sends completed) exit and stop acking —
  // the one systematic way a clean deployment could burn its whole linger
  // timeout. Skip the transmissions (the simulator equally never delivers
  // round-`bound` broadcasts) but still run the loss/jam draws below: the
  // drop counters and the snapshot's loss-stream positions must keep
  // matching the simulator schedule draw-for-draw.
  const bool transmit = k < bound;
  // Each receiver gets its unsuppressed messages, then its own marker
  // counting exactly the messages it was sent — FIFO then guarantees
  // marker ⇒ all counted messages in. On a perfect channel every receiver
  // gets the whole outbox. Suppression happens *above* the link (the link
  // would mask socket-level drops by retransmitting), which is what makes
  // the schedule match the simulator's channel semantics message-for-message.
  // Markers themselves are never suppressed: they are barrier scaffolding
  // with no simulator analogue.
  for (const std::int32_t r : adjacency_->receivers(self_index_)) {
    const std::uint32_t receiver = static_cast<std::uint32_t>(r);
    std::uint32_t sent = 0;
    for (const Message& msg : outbox_) {
      if (suppressed(receiver)) {
        ++counters_.envelopes_dropped;
        continue;
      }
      if (!transmit) continue;  // final round: draw, count, never send
      WireMessage wm;
      wm.kind = WireKind::kProtocol;
      wm.round = k;
      wm.msg = msg;
      link_.send(receiver, wm);
      ++sent;
    }
    if (!transmit) continue;
    WireMessage marker;
    marker.kind = WireKind::kRoundDone;
    marker.round = k;
    marker.done_count = sent;
    link_.send(receiver, marker);
  }
  outbox_.clear();
  link_.flush();
  // Snapshot after flush: every sequence number the snapshot records has
  // been handed to the transport, so a restart never reuses a live id.
  if (!opts_.snapshot_path.empty()) write_state(k);
}

void RuntimeNode::write_state(std::int64_t k) {
  NodeSnapshot snap;
  snap.round = k;
  if (const auto v = behavior_->committed_value(); v.has_value()) {
    snap.committed = v;
    snap.commit_round = behavior_->commit_round().value_or(-1);
  } else if (restored_committed_.has_value()) {
    snap.committed = restored_committed_;
    snap.commit_round = restored_commit_round_;
  }
  snap.restarts = counters_.node_restarts;
  snap.link = link_.export_state();
  snap.loss_draws.reserve(loss_.size());
  for (const auto& [peer, stream] : loss_) {
    snap.loss_draws.emplace_back(peer, stream.draws);
  }
  std::sort(snap.loss_draws.begin(), snap.loss_draws.end());
  write_snapshot(opts_.snapshot_path, snap);
}

std::int64_t RuntimeNode::restore_state() {
  if (opts_.snapshot_path.empty()) return -1;
  const auto snap = load_snapshot(opts_.snapshot_path);
  if (!snap.has_value()) return -1;  // died before the first snapshot
  link_.restore_state(snap->link);
  // Fast-forward each pairwise loss stream to its recorded position so the
  // deterministic loss schedule continues where the crashed process left it.
  for (const auto& [peer, draws] : snap->loss_draws) {
    const auto it = loss_.find(peer);
    if (it == loss_.end()) continue;
    for (std::uint64_t i = 0; i < draws; ++i) {
      (void)it->second.rng.chance(opts_.sim.loss_p);
    }
    it->second.draws = draws;
  }
  restored_committed_ = snap->committed;
  restored_commit_round_ = snap->commit_round;
  counters_.node_restarts = snap->restarts + 1;
  return snap->round;
}

RuntimeVerdict RuntimeNode::run() {
  using clock = std::chrono::steady_clock;
  // Stop-probe cadence: the longest a blocked node goes without re-checking
  // stop_requested() when nothing else wakes it.
  constexpr std::chrono::milliseconds kStopProbe(10);
  run_start_ = clock::now();
  RuntimeVerdict verdict;
  verdict.index = self_index_;
  verdict.self = opts_.self;
  verdict.role = opts_.role;

  NodeContext ctx(*this, opts_.self);
  // Crash recovery: a resumed node skips on_start (its round-0 traffic is
  // already out in the world under already-consumed sequence numbers) and
  // rejoins at the round after its last snapshot; peers' stubborn
  // retransmissions replay everything it missed while dead.
  const std::int64_t bound = opts_.max_rounds > 0
                                 ? opts_.max_rounds
                                 : default_round_bound(opts_.sim);
  const std::int64_t resumed_round = opts_.resume ? restore_state() : -1;
  std::int64_t first_round = 1;
  if (resumed_round < 0) {
    round_ = 0;
    behavior_->on_start(ctx);
    finish_round(0, bound);
    if (opts_.crash_at_round == 0) verdict.crashed = true;
  } else {
    round_ = resumed_round;
    first_round = resumed_round + 1;
  }
  std::int64_t rounds_run = std::max<std::int64_t>(resumed_round, 0);
  for (std::int64_t k = first_round; k <= bound && !verdict.crashed; ++k) {
    // Barrier: wait until every neighbor's round-(k-1) traffic is in.
    const auto wait_start = clock::now();
    sync_.begin_round(k - 1, wait_start);
    while (!sync_.complete(k - 1)) {
      if (stop_requested()) {
        verdict.interrupted = true;
        break;
      }
      pump();
      if (sync_.timed_out(k - 1, clock::now())) break;
      if (sync_.complete(k - 1)) break;
      auto cap = clock::now() + kStopProbe;
      if (const auto d = sync_.deadline(k - 1); d.has_value() && *d < cap) {
        cap = *d;
      }
      wait_for_traffic(cap);
    }
    counters_.barrier_wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                              wait_start)
            .count());
    if (verdict.interrupted) break;

    round_ = k;
    if (opts_.trace != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kRoundStarted;
      e.round = k;
      opts_.trace->record(e);
    }
    // Deliver round k-1's traffic in the simulator's TDMA order.
    for (const RoundMessage& rm : sync_.take(k - 1)) {
      const Coord sender =
          torus_.coord(static_cast<std::int32_t>(rm.sender));
      counters_.envelopes_delivered += 1;
      if (opts_.trace != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kMessageDelivered;
        e.round = k;
        e.node = opts_.self;
        e.sender = sender;
        e.origin = torus_.wrap(rm.msg.origin);
        e.value = rm.msg.value;
        e.msg_type = rm.msg.type == MsgType::kCommitted ? 0 : 1;
        opts_.trace->record(e);
      }
      behavior_->on_receive(ctx, Envelope{sender, rm.msg});
    }
    behavior_->on_round_end(ctx);
    finish_round(k, bound);
    round_hist_.record_us(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                              wait_start)
            .count()));
    rounds_run = k;
    // Crash injection fires right after the snapshot — the cleanest possible
    // crash point, so the test matrix exercises recovery rather than torn
    // state (torn-write recovery is snapshot_cpp's rename discipline).
    if (opts_.crash_at_round == k) verdict.crashed = true;
  }

  // Linger: our last DATA batches may still be unacked, and peers may still
  // be retransmitting at us. Keep the link alive until everything we sent
  // landed (or the deadline passes), so no peer barrier-waits on a ghost.
  // A crashed node does not linger — that is the point of the crash.
  if (!verdict.crashed) {
    const auto linger_deadline = clock::now() + opts_.linger_timeout;
    while (!link_.all_acked() && clock::now() < linger_deadline &&
           !stop_requested()) {
      pump();
      if (link_.all_acked()) break;
      wait_for_traffic(std::min(linger_deadline, clock::now() + kStopProbe));
    }
    verdict.lingered_clean = link_.all_acked();
  }

  verdict.rounds = rounds_run;
  if (const auto v = behavior_->committed_value(); v.has_value()) {
    verdict.committed = v;
    verdict.commit_round = behavior_->commit_round().value_or(-1);
  } else if (restored_committed_.has_value()) {
    // The pre-crash process had committed; the value survives via snapshot.
    verdict.committed = restored_committed_;
    verdict.commit_round = restored_commit_round_;
  }
  counters_.packets_sent = link_.stats().packets_sent;
  counters_.packets_retransmitted = link_.stats().packets_retransmitted;
  counters_.packets_acked = link_.stats().packets_acked;
  counters_.duplicates_dropped = link_.stats().duplicates_dropped;
  counters_.barrier_timeouts = sync_.timeouts();
  counters_.peers_suspected = sync_.suspect_transitions();
  counters_.degraded_rounds = sync_.degraded_rounds();
  verdict.counters = counters_;
  verdict.round_latency = round_hist_;
  verdict.commit_latency = commit_hist_;
  return verdict;
}

}  // namespace rbcast
