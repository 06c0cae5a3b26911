// Live cluster over real UDP sockets (the paper's transport): the same
// NodeRuntimes as the simulator, exchanging sealed batches on localhost.
//
// Pipelined distribution (paper §5.2): a receive thread drains every
// socket, verifies each datagram's seal against its claimed source, and
// enqueues the opened payloads; the apply loop drains that queue and
// coalesces payloads per destination — across sources — into multi-source
// transactions (dist/batcher.h, the same policy SimCluster runs in
// simulated time). Crypto thus overlaps the fixpoint computation, and
// per-message transaction overhead amortizes across the batch.
//
// Placement runs over a static membership of all nodes: join/leave
// handoff goes through the runtimes directly (ExtractHandoff and
// SetShardMap), and the transport only adds envelope routing hints.
#ifndef SECUREBLOX_DIST_UDP_CLUSTER_H_
#define SECUREBLOX_DIST_UDP_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "dist/runtime.h"
#include "net/udp_transport.h"

namespace secureblox::dist {

class UdpCluster {
 public:
  struct Config : ClusterConfig {
    /// Receive window per drain sweep; the run stops after `idle_sweeps`
    /// consecutive sweeps with no traffic.
    int poll_timeout_ms = 50;
    int idle_sweeps = 3;
  };

  struct Stats {
    uint64_t messages_delivered = 0;
    /// Hostile or malformed traffic: unparseable envelopes, payloads whose
    /// verdict was rejection (bad seal, unparseable, constraint
    /// violation), and envelope tuple-count hints contradicting the
    /// decoded payload (each lying hint counts once here and in
    /// hint_mismatches; the payload itself is still applied if its seal
    /// and contents verify).
    uint64_t rejected = 0;
    /// Datagrams whose envelope hint disagreed with the decoded payload's
    /// actual tuple count — the hint rides outside the seal, so this is
    /// the MITM/bug canary for batch-sizing abuse.
    uint64_t hint_mismatches = 0;
    /// Datagrams whose envelope shard/epoch hints disagreed with the
    /// sealed batch header. Routing decisions always come from the sealed
    /// header, so a lying envelope cannot misroute — but it is counted
    /// here, same canary contract as hint_mismatches.
    uint64_t routing_mismatches = 0;
    /// Coalesced apply transactions executed by the drain loop.
    uint64_t apply_transactions = 0;
    /// Datagrams that shared an apply transaction with at least one other.
    uint64_t coalesced_messages = 0;
  };

  /// Bind one socket per node on 127.0.0.1 (ephemeral ports) and create
  /// the runtimes.
  static Result<std::unique_ptr<UdpCluster>> Create(Config config);

  /// Apply a local transaction on `node` and send its advertisements.
  Status Insert(net::NodeIndex node,
                const std::vector<engine::FactUpdate>& facts);

  /// Pipelined run: the receive thread verifies and enqueues while the
  /// apply loop drains coalesced batches, until the sockets stay quiet
  /// for `idle_sweeps` windows.
  Result<Stats> Run();

  NodeRuntime& node(net::NodeIndex i) { return *nodes_[i]; }
  uint16_t port_of(net::NodeIndex i) const {
    return transports_[i].local_port();
  }

 private:
  UdpCluster() = default;

  Status SendOutgoing(net::NodeIndex src,
                      const std::vector<NodeRuntime::Outgoing>& outgoing);

  Config config_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<net::UdpTransport> transports_;
  Stats stats_;
};

}  // namespace secureblox::dist

#endif  // SECUREBLOX_DIST_UDP_CLUSTER_H_
