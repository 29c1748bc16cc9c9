#include "runtime/system.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "base/logging.h"

namespace wdl {

System::System(SystemOptions options)
    : options_(options),
      network_(std::make_unique<SimulatedNetwork>(options.network_seed,
                                                  options.default_link)) {
  simulated_ = static_cast<SimulatedNetwork*>(network_.get());
}

System::System(std::unique_ptr<Network> network, SystemOptions options)
    : options_(options), network_(std::move(network)) {}

SimulatedNetwork& System::network() {
  assert(simulated_ != nullptr && "system runs on a non-simulated network");
  return *simulated_;
}

const SimulatedNetwork& System::network() const {
  assert(simulated_ != nullptr && "system runs on a non-simulated network");
  return *simulated_;
}

Peer* System::CreatePeer(const std::string& name, PeerOptions options) {
  options.lazy_engine = options_.lazy_peer_state;
  if (options.durability.dir.empty() && !options_.durability_root.empty()) {
    options.durability = options_.durability;
    options.durability.dir = options_.durability_root + "/" + name;
  }
  auto [it, inserted] =
      peers_.emplace(name, std::make_unique<Peer>(name, options));
  if (!inserted) {
    WDL_LOG(Warning) << "peer " << name << " already exists";
    return it->second.get();
  }
  return it->second.get();
}

size_t System::MaterializedPeerCount() const {
  size_t n = 0;
  for (const auto& [name, peer] : peers_) {
    if (peer->has_engine()) ++n;
  }
  return n;
}

size_t System::ApproxPeerBytes(const std::string& name) const {
  const Peer* peer = GetPeer(name);
  if (peer == nullptr) return 0;
  // Registry cost: one map node (rb-tree: three pointers + color) with
  // its key string and unique_ptr, plus the Peer's own bookkeeping.
  size_t bytes = 4 * sizeof(void*) + sizeof(std::string) +
                 sizeof(std::unique_ptr<Peer>);
  if (name.capacity() > sizeof(std::string)) bytes += name.capacity() + 1;
  return bytes + peer->ApproxIdleBytes();
}

Peer* System::GetPeer(const std::string& name) {
  auto it = peers_.find(name);
  return it == peers_.end() ? nullptr : it->second.get();
}

const Peer* System::GetPeer(const std::string& name) const {
  auto it = peers_.find(name);
  return it == peers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> System::PeerNames() const {
  std::vector<std::string> names;
  names.reserve(peers_.size());
  for (const auto& [name, peer] : peers_) names.push_back(name);
  return names;
}

Status System::AttachWrapper(std::unique_ptr<Wrapper> wrapper) {
  Peer* peer = GetPeer(wrapper->peer_name());
  if (peer == nullptr) {
    return Status::NotFound("wrapper's peer " + wrapper->peer_name() +
                            " does not exist");
  }
  WDL_RETURN_IF_ERROR(wrapper->Setup(peer));
  wrappers_.push_back(std::move(wrapper));
  return Status::OK();
}

RoundReport System::RunRound() {
  RoundReport report;
  now_ += 1.0;
  report.round = ++rounds_run_;

  // Deliver everything due by now.
  for (Envelope& e : network_->DeliverDue(now_)) {
    Peer* target = GetPeer(e.to);
    if (target == nullptr) {
      WDL_LOG(Warning) << "dropping envelope to unknown peer: "
                       << e.ToString();
      continue;
    }
    target->HandleEnvelope(e);
    ++report.envelopes_delivered;
  }

  // Link resets (an asynchronous transport lost and/or re-established
  // a connection): every local peer re-establishes its streams with
  // the affected remote through the resync machinery.
  // (Engine-less peers have no streams to heal — NoteLinkReset no-ops
  // on them without materializing anything.)
  for (const std::string& reset : network_->TakePeerResets()) {
    for (auto& [name, peer] : peers_) {
      if (name != reset) peer->NoteLinkReset(reset);
    }
  }

  // Wrappers move external data in/out before the stages.
  SyncWrappers();

  // Run a stage at every peer with pending work, in map (name) order,
  // submitting each stage's envelopes before the next stage runs. The
  // submit order is therefore fixed by peer names, so traffic — and on
  // the simulated transport the RNG stream — is identical run to run.
  uint64_t bytes_before = network_->StatsSnapshot().bytes_sent;
  std::vector<Peer*> pending;
  for (auto& [name, peer] : peers_) {
    if (peer->HasPendingWork()) pending.push_back(peer.get());
  }
  report.stages_run = pending.size();
  for (Peer* peer : pending) {
    for (Envelope& e : peer->RunStage()) {
      switch (e.message.type) {
        case MessageType::kDerivedSet:
          ++report.full_set_messages;
          report.derived_tuples_sent += e.message.derived.tuples.size();
          break;
        case MessageType::kDerivedDelta:
          ++report.delta_messages;
          report.delta_tuples_sent += e.message.delta.inserts.size() +
                                      e.message.delta.deletes.size();
          break;
        case MessageType::kResyncRequest:
          ++report.resync_requests;
          break;
        default:
          break;
      }
      Status st = network_->Submit(std::move(e), now_);
      if (!st.ok()) WDL_LOG(Error) << "submit failed: " << st;
      ++report.envelopes_sent;
    }
  }
  // Periodic stream heartbeats: emitted outside the stage machinery (a
  // heartbeat is pure observation — it neither changes engine state nor
  // marks peers dirty), so a converged system stays quiescent between
  // intervals and RunUntilQuiescent still terminates.
  if (options_.heartbeat_interval_rounds > 0 &&
      rounds_run_ % options_.heartbeat_interval_rounds == 0) {
    for (auto& [name, peer] : peers_) {
      for (Envelope& e : peer->MakeHeartbeats()) {
        ++report.heartbeats_sent;
        Status st = network_->Submit(std::move(e), now_);
        if (!st.ok()) WDL_LOG(Error) << "heartbeat submit failed: " << st;
        ++report.envelopes_sent;
      }
    }
  }
  report.bytes_sent = network_->StatsSnapshot().bytes_sent - bytes_before;
  return report;
}

bool System::IsQuiescent() const {
  if (network_->HasInFlight()) return false;
  for (const auto& [name, peer] : peers_) {
    if (peer->HasPendingWork()) return false;
  }
  return true;
}

void System::SyncWrappers() {
  for (auto& wrapper : wrappers_) {
    Peer* peer = GetPeer(wrapper->peer_name());
    if (peer == nullptr) continue;
    Status st = wrapper->Sync(peer);
    if (!st.ok()) {
      WDL_LOG(Error) << "wrapper sync failed for " << wrapper->peer_name()
                     << ": " << st;
    }
  }
}

Result<int> System::RunUntilQuiescent(int max_rounds) {
  for (int i = 0; i < max_rounds; ++i) {
    if (IsQuiescent()) {
      // The engines are done, but the last stage may have materialized
      // tuples a wrapper still has to drain to its external service —
      // and that drain may in turn create engine work.
      SyncWrappers();
      if (IsQuiescent()) return rounds_run_;
    }
    RunRound();
  }
  if (IsQuiescent()) return rounds_run_;
  return Status::FailedPrecondition(
      "system did not quiesce within " + std::to_string(max_rounds) +
      " rounds");
}

Result<int> System::RunUntilIdle(int idle_rounds, int max_wall_ms,
                                 int sleep_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(max_wall_ms);
  int idle = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    RoundReport r = RunRound();
    // Heartbeats are pure observation; they must not keep an otherwise
    // idle system looking busy.
    bool worked = r.envelopes_delivered > 0 || r.stages_run > 0 ||
                  r.envelopes_sent > r.heartbeats_sent;
    if (worked) {
      idle = 0;
      continue;
    }
    if (IsQuiescent() && ++idle >= idle_rounds) return rounds_run_;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return Status::FailedPrecondition(
      "system did not go idle within " + std::to_string(max_wall_ms) +
      " ms");
}

}  // namespace wdl
