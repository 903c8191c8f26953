#include "radiobcast/net/network.h"

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

namespace {

std::int32_t checked_radius(std::int32_t r) {
  if (r < 1) throw std::invalid_argument("radius must be >= 1");
  return r;
}

const Adjacency& checked_adjacency(const Torus& torus,
                                   const Adjacency& adjacency) {
  if (adjacency.node_count() != torus.node_count()) {
    throw std::invalid_argument("adjacency rows do not match the torus");
  }
  return adjacency;
}

}  // namespace

RadioNetwork::RadioNetwork(Torus torus, std::int32_t r, Metric metric,
                           std::uint64_t seed)
    : RadioNetwork(torus,
                   Adjacency::get(torus, NeighborhoodTable::get(
                                             checked_radius(r), metric)),
                   seed) {}

RadioNetwork::RadioNetwork(Torus torus, const Adjacency& adjacency,
                           std::uint64_t seed)
    : torus_(std::move(torus)),
      rng_(seed),
      channel_(std::make_unique<PerfectChannel>()),
      adjacency_(checked_adjacency(torus_, adjacency)),
      node_coords_(torus_.all_coords()),
      behaviors_(static_cast<std::size_t>(torus_.node_count())),
      node_flags_(static_cast<std::size_t>(torus_.node_count()), 0),
      tx_count_(static_cast<std::size_t>(torus_.node_count()), 0) {
  // Take over the buffers earlier networks on this thread grew, so a
  // campaign worker grows its flood buffers once, not once per trial.
  // Reserving up to one fresh broadcast per node keeps the steady-state
  // delivery loop allocation-free (every flood protocol queues at most one
  // broadcast per node per round; heavier traffic grows the buffers once and
  // the round-to-round swap below then reuses their capacity).
  std::array<std::vector<Pending>, 3>& spare = spare_buffers();
  pending_.swap(spare[0]);
  outbox_.swap(spare[1]);
  repeats_.swap(spare[2]);
  pending_.reserve(static_cast<std::size_t>(torus_.node_count()));
  outbox_.reserve(static_cast<std::size_t>(torus_.node_count()));
}

RadioNetwork::~RadioNetwork() {
  // Insertion by capacity: the spare keeps the three largest of its buffers
  // and this network's, whichever of them ended the trial as pending_, so
  // the next network's pending_/outbox_ ping-pong gets the two largest.
  std::array<std::vector<Pending>, 3>& spare = spare_buffers();
  for (std::vector<Pending>* buffer : {&pending_, &outbox_, &repeats_}) {
    buffer->clear();
    for (std::vector<Pending>& slot : spare) {
      if (buffer->capacity() > slot.capacity()) slot.swap(*buffer);
    }
  }
}

std::array<std::vector<RadioNetwork::Pending>, 3>&
RadioNetwork::spare_buffers() {
  thread_local std::array<std::vector<Pending>, 3> spare;
  return spare;
}

void RadioNetwork::set_channel(std::unique_ptr<ChannelModel> channel) {
  if (channel == nullptr) throw std::invalid_argument("null channel");
  channel_ = std::move(channel);
  channel_always_delivers_ = channel_->always_delivers();
}

void RadioNetwork::set_retransmissions(int count) {
  if (count < 1) throw std::invalid_argument("retransmissions must be >= 1");
  retransmissions_ = count;
}

void RadioNetwork::set_behavior(Coord c, std::unique_ptr<NodeBehavior> b) {
  const auto idx = static_cast<std::size_t>(torus_.index(c));
  behaviors_[idx] = std::move(b);
  node_flags_[idx] = 0;
}

void RadioNetwork::set_pool(std::unique_ptr<NodePool> pool) {
  if (started_) throw std::logic_error("set_pool after start");
  pool_ = std::move(pool);
}

void RadioNetwork::assign_to_pool(Coord c) {
  if (pool_ == nullptr) throw std::logic_error("assign_to_pool without a pool");
  const auto idx = static_cast<std::size_t>(torus_.index(c));
  behaviors_[idx].reset();
  node_flags_[idx] = kPoolManaged;
}

NodeBehavior* RadioNetwork::behavior(Coord c) {
  return behaviors_[static_cast<std::size_t>(torus_.index(c))].get();
}

const NodeBehavior* RadioNetwork::behavior(Coord c) const {
  return behaviors_[static_cast<std::size_t>(torus_.index(c))].get();
}

std::optional<std::uint8_t> RadioNetwork::committed_value_of(Coord c) const {
  const std::int32_t i = torus_.index(c);
  if (node_flags_[static_cast<std::size_t>(i)] & kPoolManaged) {
    return pool_->committed_value(i);
  }
  const NodeBehavior* b = behaviors_[static_cast<std::size_t>(i)].get();
  return b != nullptr ? b->committed_value() : std::nullopt;
}

std::optional<std::int64_t> RadioNetwork::commit_round_of(Coord c) const {
  const std::int32_t i = torus_.index(c);
  if (node_flags_[static_cast<std::size_t>(i)] & kPoolManaged) {
    return pool_->commit_round(i);
  }
  const NodeBehavior* b = behaviors_[static_cast<std::size_t>(i)].get();
  return b != nullptr ? b->commit_round() : std::nullopt;
}

void RadioNetwork::count_queued(const Message& msg) {
  counters_.broadcasts_queued += 1;
  if (msg.type == MsgType::kCommitted) {
    counters_.committed_queued += 1;
  } else {
    counters_.heard_queued += 1;
  }
  counters_.retransmission_copies +=
      static_cast<std::uint64_t>(retransmissions_ - 1);
}

void RadioNetwork::record_commit(Coord node, std::uint8_t value) {
  counters_.commits += 1;
  if (round_ > counters_.last_commit_round) {
    counters_.last_commit_round = round_;
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kNodeCommitted;
    e.round = round_;
    e.node = torus_.wrap(node);
    e.value = value;
    trace_->record(e);
  }
}

void RadioNetwork::ignore(Coord node, MessageClasses classes) {
  node_flags_[static_cast<std::size_t>(torus_.index(torus_.wrap(node)))] |=
      static_cast<std::uint8_t>(classes.bits() << kIgnoreShift);
}

void RadioNetwork::queue_broadcast(Coord sender, Message msg) {
  const Coord canon = torus_.wrap(sender);
  count_queued(msg);
  outbox_.push_back(Pending{Envelope{canon, std::move(msg)}, canon,
                            torus_.index(canon), retransmissions_ - 1});
}

void RadioNetwork::queue_spoofed_broadcast(Coord actual_sender,
                                           Coord claimed_sender,
                                           Message msg) {
  if (!spoofing_allowed_) {
    throw std::logic_error(
        "address spoofing is disabled (the paper's model); call "
        "allow_spoofing(true) to run the Section X negative control");
  }
  count_queued(msg);
  counters_.spoofed_sends += 1;
  const Coord actual = torus_.wrap(actual_sender);
  outbox_.push_back(Pending{Envelope{torus_.wrap(claimed_sender),
                                     std::move(msg)},
                            actual, torus_.index(actual),
                            retransmissions_ - 1});
}

void RadioNetwork::start() {
  if (started_) throw std::logic_error("RadioNetwork::start called twice");
  sweep_nodes_.clear();
  const bool pool_round_end = pool_ != nullptr && pool_->has_round_end();
  const auto pool_ignored = static_cast<std::uint8_t>(
      pool_ != nullptr ? pool_->ignored().bits() << kIgnoreShift : 0);
  for (std::int64_t i = 0; i < torus_.node_count(); ++i) {
    std::uint8_t& flags = node_flags_[static_cast<std::size_t>(i)];
    if (flags & kPoolManaged) {
      // The only start work is the pool's standing mask; round-end work
      // only if the pool asks for it.
      flags |= pool_ignored;
      if (pool_round_end) sweep_nodes_.push_back(static_cast<std::int32_t>(i));
      continue;
    }
    NodeBehavior* b = behaviors_[static_cast<std::size_t>(i)].get();
    if (b == nullptr) {
      throw std::logic_error("node " + to_string(torus_.coord(
                                 static_cast<std::int32_t>(i))) +
                             " has no behavior");
    }
    sweep_nodes_.push_back(static_cast<std::int32_t>(i));
    NodeContext ctx(*this, node_coords_[static_cast<std::size_t>(i)]);
    b->on_start(ctx);
  }
  started_ = true;
  std::swap(pending_, outbox_);  // outbox_ keeps its capacity for round 1
  // Fixed dense per-node arrays plus this network's share of the CSR
  // fan-out; pool/in-flight bytes are folded in per round.
  const auto n = static_cast<std::uint64_t>(torus_.node_count());
  fixed_state_bytes_ =
      n * (sizeof(Coord) + sizeof(std::uint64_t) +
           sizeof(std::unique_ptr<NodeBehavior>) + sizeof(std::uint8_t)) +
      adjacency_.size() * sizeof(std::int32_t) +
      sweep_nodes_.size() * sizeof(std::int32_t);
  update_engine_bytes();
}

inline void RadioNetwork::dispatch(std::int32_t ri, const Envelope& env,
                                   std::uint8_t class_flag) {
  const std::uint8_t flags = node_flags_[static_cast<std::size_t>(ri)];
  if (flags & class_flag) return;  // the node discards this class unread
  NodeContext ctx(*this, node_coords_[static_cast<std::size_t>(ri)]);
  if (flags & kPoolManaged) {
    pool_->on_receive(ctx, ri, env);
  } else {
    behaviors_[static_cast<std::size_t>(ri)]->on_receive(ctx, env);
  }
}

void RadioNetwork::run_round() {
  if (!started_) throw std::logic_error("RadioNetwork::run_round before start");
  ++round_;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kRoundStarted;
    e.round = round_;
    trace_->record(e);
  }
  // Deliver last round's transmissions. pending_ preserves sender order
  // (node-index-major, send-order-minor) because behaviors run in index
  // order, which gives every receiver the same deterministic TDMA order.
  // Receivers come from the precomputed CSR fan-out, whose per-row order is
  // the neighborhood table's offset order — the exact sequence the old
  // per-offset wrap loop visited, so results are bit-identical.
  repeats_.clear();
  const bool fast_path = channel_always_delivers_ && trace_ == nullptr;
  for (const Pending& p : pending_) {
    const Envelope& env = p.envelope;
    tx_count_[static_cast<std::size_t>(p.sender_index)] += 1;
    stats_.transmissions += 1;
    stats_.payload_units += 2 + env.msg.relayers.size();
    const std::span<const std::int32_t> receivers =
        adjacency_.receivers(p.sender_index);
    // A receiver whose ignore mask holds this transmission's class is
    // skipped only at dispatch, after the delivery counters, the channel
    // draw and the trace event, so no counter, RNG draw or trace byte moves.
    const auto class_flag = static_cast<std::uint8_t>(
        MessageClasses::of(env.msg).bits() << kIgnoreShift);
    if (fast_path) {
      // A channel honoring always_delivers() consumes no randomness and a
      // null trace emits nothing, so the per-receiver checks collapse to
      // bulk counter updates plus the dispatch.
      counters_.envelopes_delivered += receivers.size();
      for (const std::int32_t ri : receivers) dispatch(ri, env, class_flag);
    } else {
      for (const std::int32_t ri : receivers) {
        // Receivers are the ACTUAL transmitter's neighbors, even when the
        // envelope claims a spoofed identity.
        const Coord receiver = node_coords_[static_cast<std::size_t>(ri)];
        if (!channel_->delivers(p.actual_sender, receiver, rng_)) {
          counters_.envelopes_dropped += 1;
          continue;
        }
        counters_.envelopes_delivered += 1;
        if (trace_ != nullptr) {
          TraceEvent e;
          e.kind = TraceEventKind::kMessageDelivered;
          e.round = round_;
          e.node = receiver;
          e.sender = env.sender;
          e.origin = torus_.wrap(env.msg.origin);
          e.value = env.msg.value;
          e.msg_type = env.msg.type == MsgType::kCommitted ? 0 : 1;
          trace_->record(e);
        }
        dispatch(ri, env, class_flag);
      }
    }
    if (p.repeats_left > 0) {
      repeats_.push_back(
          Pending{env, p.actual_sender, p.sender_index, p.repeats_left - 1});
    }
  }
  pending_.clear();
  // One sweep in node-index order, each node handed to its pool or its
  // behavior, so round-end commits queue their COMMITTEDs in index order
  // however the nodes are hosted. Message-driven pools stay out of the
  // sweep: on a million-node crash-flood torus it visits just the source
  // and the faults.
  for (const std::int32_t i : sweep_nodes_) {
    NodeContext ctx(*this, node_coords_[static_cast<std::size_t>(i)]);
    if (node_flags_[static_cast<std::size_t>(i)] & kPoolManaged) {
      pool_->on_round_end(ctx, i);
    } else {
      behaviors_[static_cast<std::size_t>(i)]->on_round_end(ctx);
    }
  }
  // Swap instead of move-assign so both buffers keep their capacity across
  // rounds (the steady-state allocation-free contract).
  std::swap(pending_, outbox_);
  // Retransmission copies go after this round's fresh sends.
  for (const Pending& p : repeats_) pending_.push_back(p);
  update_engine_bytes();
}

void RadioNetwork::update_engine_bytes() {
  // Logical sizes only (never std::vector capacities), so the figure cannot
  // depend on a standard library's growth factor; the pool's own tables
  // report their deterministic open-addressing capacity.
  const std::uint64_t bytes =
      fixed_state_bytes_ +
      (pending_.size() + outbox_.size() + repeats_.size()) * sizeof(Pending) +
      (pool_ != nullptr ? pool_->state_bytes() : 0);
  if (bytes > counters_.engine_bytes_peak) {
    counters_.engine_bytes_peak = bytes;
  }
}

std::int64_t RadioNetwork::run_until_quiescent(std::int64_t max_rounds) {
  std::int64_t rounds = 0;
  while (!quiescent() && rounds < max_rounds) {
    run_round();
    ++rounds;
  }
  return rounds;
}

std::uint64_t RadioNetwork::transmissions_of(Coord c) const {
  return tx_count_[static_cast<std::size_t>(torus_.index(c))];
}

}  // namespace rbcast
