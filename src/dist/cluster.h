// Simulated cluster: N node runtimes over the discrete-event network
// model, standing in for the paper's 36/72-node GbE deployment.
//
// Distribution loop (paper §5.2): a node coalesces queued deliveries
// addressed to it — across source nodes — into multi-source transactions
// (dist/batcher.h decides when a batch closes). Compute and network
// overlap: a node's fixpoint occupies only that node in simulated time, so
// other nodes' transactions and in-flight messages proceed concurrently,
// and messages that land while a node is busy coalesce into its next
// transaction. Compute time is the measured wall-clock cost
// (scaled by compute_scale) and message latency comes from the SimNet
// latency/bandwidth model — the quantities behind Figures 4–12.
#ifndef SECUREBLOX_DIST_CLUSTER_H_
#define SECUREBLOX_DIST_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "dist/runtime.h"
#include "net/sim_net.h"

namespace secureblox::dist {

class SimCluster {
 public:
  struct Config : ClusterConfig {
    net::SimNet::Config net;
    /// Simulated seconds per measured wall-clock second of compute.
    double compute_scale = 1.0;
    /// Nodes 0..initial_members-1 own shards at time zero; the rest hold
    /// empty placed relations until a scheduled join admits them. 0 = all
    /// nodes are members from the start.
    size_t initial_members = 0;
  };

  /// One transaction (local update or coalesced delivery) in simulated
  /// time. Every transaction — including rejected deliveries — carries a
  /// real duration (end_s > start_s): verification work costs cycles.
  struct TxRecord {
    net::NodeIndex node = 0;
    bool accepted = true;
    bool is_delivery = false;
    double start_s = 0;
    double end_s = 0;
    /// Messages coalesced into this transaction (0 for local updates).
    size_t num_payloads = 0;
    /// Sender-declared tuples across those messages.
    size_t num_tuples = 0;
    /// Shard-snapshot extraction on a membership change: the node spent
    /// this time detaching and sealing departing shards.
    bool is_handoff = false;
  };

  struct Metrics {
    /// Time until the last node stopped changing (distributed fixpoint).
    double fixpoint_latency_s = 0;
    /// Per-node time of the last accepted state change (Figures 8/9 CDF).
    std::vector<double> node_convergence_s;
    uint64_t total_messages = 0;
    uint64_t total_bytes = 0;
    /// Delivered payloads rejected (bad seal, unparseable, constraint
    /// violation) — counted per payload, not per coalesced transaction.
    uint64_t rejected_batches = 0;
    /// Coalesced delivery transactions executed.
    uint64_t delivery_transactions = 0;
    /// Messages that shared a delivery transaction with at least one other.
    uint64_t coalesced_messages = 0;
    /// Membership changes executed (joins + leaves).
    uint64_t membership_changes = 0;
    /// Handoff batches shipped on membership changes, and the snapshot
    /// rows they carried.
    uint64_t handoff_transfers = 0;
    uint64_t handoff_rows = 0;
    /// Placement batches re-sealed and forwarded by a non-owner (stale
    /// epoch after a membership change), summed over nodes.
    uint64_t rerouted_batches = 0;
    std::vector<TxRecord> transactions;
    /// Bytes sent per node (Figures 6/12).
    std::vector<uint64_t> node_bytes_sent;

    double MeanPerNodeKb() const;
    double MeanTxDurationMs() const;
  };

  /// Build runtimes for principals p0..p(n-1) with issued credentials.
  static Result<std::unique_ptr<SimCluster>> Create(Config config);

  /// Queue a local base-fact transaction for node `node` at time zero (in
  /// scheduling order; a node processes its queue sequentially).
  void ScheduleInsert(net::NodeIndex node,
                      std::vector<engine::FactUpdate> facts);

  /// Queue a mixed insert+delete transaction no earlier than `at_s`
  /// simulated seconds — churn interleaving with in-flight deliveries.
  void ScheduleUpdate(net::NodeIndex node,
                      std::vector<engine::FactUpdate> inserts,
                      std::vector<engine::FactUpdate> deletes,
                      double at_s = 0.0);

  /// Queue a membership change (placement mode only): at `at_s`, the
  /// named node joins or leaves the shard map. Departing shards are
  /// detached at their old owners (simulated-time-accounted handoff
  /// transactions) and streamed to the new owners; the new map activates
  /// on every node synchronously (an idealized membership service).
  void ScheduleJoin(net::NodeIndex node, double at_s);
  void ScheduleLeave(net::NodeIndex node, double at_s);

  /// Run scheduled updates and message deliveries until the network drains.
  Result<Metrics> Run();

  const ShardMap& shard_map() const { return map_; }

  NodeRuntime& node(net::NodeIndex i) { return *nodes_[i]; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct ScheduledTx {
    net::NodeIndex node = 0;
    std::vector<engine::FactUpdate> inserts;
    std::vector<engine::FactUpdate> deletes;
    double at_s = 0;
    /// Membership event: kJoin/kLeave of `node` instead of a transaction.
    enum class Kind { kTx, kJoin, kLeave };
    Kind kind = Kind::kTx;
  };

  SimCluster() = default;

  Config config_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  net::SimNet net_;
  std::vector<ScheduledTx> scheduled_;
  /// Authoritative shard map in placement mode (nodes hold copies).
  ShardMap map_;
};

}  // namespace secureblox::dist

#endif  // SECUREBLOX_DIST_CLUSTER_H_
