// Partitioned shard placement: ShardMap ring properties, co-shardability
// validation, and the tentpole invariant — the distributed fixpoint over
// placed relations (tuples, support counts, anonymous labels) is
// byte-identical to the single-node baseline for any placement at any
// node count, through insert/delete churn and membership changes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "dist/cluster.h"
#include "dist/placement.h"
#include "engine/placement.h"
#include "engine/workspace.h"
#include "policy/says_policy.h"

namespace secureblox::dist {
namespace {

using datalog::Value;
using engine::FactUpdate;

// -- ShardMap ---------------------------------------------------------------

TEST(ShardMapTest, InitialMapCoversAllMembers) {
  ShardMap map = ShardMap::Initial(4);
  EXPECT_EQ(map.epoch(), 1u);
  ASSERT_EQ(map.members().size(), 4u);
  std::set<uint32_t> owners;
  for (size_t s = 0; s < 256; ++s) {
    uint32_t o = map.OwnerOf(s);
    EXPECT_LT(o, 4u);
    owners.insert(o);
  }
  // 32 virtual points per node over 256 shards: every node owns some.
  EXPECT_EQ(owners.size(), 4u);
}

TEST(ShardMapTest, OwnershipIsDeterministic) {
  ShardMap a = ShardMap::Initial(5);
  ShardMap b = ShardMap::Initial(5);
  for (size_t s = 0; s < 64; ++s) EXPECT_EQ(a.OwnerOf(s), b.OwnerOf(s));
}

TEST(ShardMapTest, JoinMovesOnlyAMinorityOfShards) {
  ShardMap before = ShardMap::Initial(4);
  ShardMap after = before;
  after.Join(4);
  EXPECT_EQ(after.epoch(), 2u);
  EXPECT_TRUE(after.HasMember(4));
  constexpr size_t kShards = 1024;
  size_t moved = 0;
  for (size_t s = 0; s < kShards; ++s) {
    if (before.OwnerOf(s) != after.OwnerOf(s)) {
      ++moved;
      // Consistent hashing: shards only move *to* the joiner.
      EXPECT_EQ(after.OwnerOf(s), 4u);
    }
  }
  EXPECT_GT(moved, 0u);
  // Expected 1/5 of the space; allow generous slack for hash variance.
  EXPECT_LT(moved, kShards / 2);
}

TEST(ShardMapTest, LeaveReassignsOnlyTheLeaverShards) {
  ShardMap before = ShardMap::Initial(5);
  ShardMap after = before;
  after.Leave(2);
  EXPECT_EQ(after.epoch(), 2u);
  EXPECT_FALSE(after.HasMember(2));
  for (size_t s = 0; s < 1024; ++s) {
    EXPECT_NE(after.OwnerOf(s), 2u);
    if (before.OwnerOf(s) != 2) {
      // Shards the leaver did not own stay put.
      EXPECT_EQ(after.OwnerOf(s), before.OwnerOf(s));
    }
  }
}

TEST(ShardMapTest, NoOpChangesDoNotBumpEpoch) {
  ShardMap map = ShardMap::Initial(2);
  uint64_t e = map.epoch();
  map.Join(1);  // already a member
  EXPECT_EQ(map.epoch(), e);
  map.Leave(9);  // not a member
  EXPECT_EQ(map.epoch(), e);
  map.Leave(1);
  map.Leave(0);  // last member: refused
  EXPECT_TRUE(map.HasMember(0));
}

// -- co-shardability validation --------------------------------------------

void InstallProgram(engine::Workspace* ws, const std::string& src) {
  auto program = datalog::Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

std::unordered_set<datalog::PredId> Placed(
    const engine::Workspace& ws, const std::vector<std::string>& names) {
  std::unordered_set<datalog::PredId> out;
  for (const auto& n : names) out.insert(ws.catalog().Lookup(n).value());
  return out;
}

TEST(ValidatePlacementTest, RejectsEntityShardKey) {
  engine::Workspace ws;
  InstallProgram(&ws, R"(
    node(X) -> .
    hop(X, Y) -> node(X), node(Y).
  )");
  Status st = engine::ValidatePlacement(ws, Placed(ws, {"hop"}));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("entity"), std::string::npos);
}

TEST(ValidatePlacementTest, RejectsAnchorDisagreement) {
  engine::Workspace ws;
  InstallProgram(&ws, R"(
    a(X, Y) -> string(X), string(Y).
    b(X, Y) -> string(X), string(Y).
    c(X, Y) -> string(X), string(Y).
    c(X, Y) <- a(X, Z), b(Z, Y).
  )");
  Status st = engine::ValidatePlacement(ws, Placed(ws, {"a", "b", "c"}));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("anchor"), std::string::npos);
}

TEST(ValidatePlacementTest, RejectsRecursiveReKeying) {
  engine::Workspace ws;
  InstallProgram(&ws, R"(
    p(X, Y) -> string(X), string(Y).
    p(Y, X) <- p(X, Y).
  )");
  Status st = engine::ValidatePlacement(ws, Placed(ws, {"p"}));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("recursi"), std::string::npos);
}

TEST(ValidatePlacementTest, AcceptsCoShardableProgram) {
  engine::Workspace ws;
  InstallProgram(&ws, R"(
    link(X, Y) -> string(X), string(Y).
    seed(X, Y) -> string(X), string(Y).
    grow(X, Y) -> string(X), string(Y).
    inv(X, Y) -> string(X), string(Y).
    grow(X, Y) <- seed(X, Y).
    grow(X, Y) <- grow(X, Z), link(Z, Y).
    inv(Y, X) <- seed(X, Y).
  )");
  Status st =
      engine::ValidatePlacement(ws, Placed(ws, {"seed", "grow", "inv"}));
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// -- placement invariance ----------------------------------------------------

// Co-shardable app: `link` is a replicated dimension relation; `seed` is
// the placed base relation; `grow` closes recursively shard-locally;
// `inv` re-keys across shards (routed support-adds); `tagged` re-keys
// and mints anonymous `tag` entities, whose content-addressed labels
// must come out identical wherever the rule fires.
const char* kPlacementApp = R"(
link(X, Y) -> string(X), string(Y).
seed(X, Y) -> string(X), string(Y).
grow(X, Y) -> string(X), string(Y).
inv(X, Y) -> string(X), string(Y).
tag(P) -> .
tagged(X, P) -> string(X), tag(P).
grow(X, Y) <- seed(X, Y).
grow(X, Y) <- grow(X, Z), link(Z, Y).
inv(Y, X) <- seed(X, Y).
tagged(Y, P) <- seed(X, Y).
)";

const std::vector<std::string>& PlacedPreds() {
  static const std::vector<std::string> kPreds = {"seed", "grow", "inv",
                                                  "tagged"};
  return kPreds;
}

SimCluster::Config PlacementConfig(size_t nodes, int shards,
                                   size_t initial_members = 0) {
  policy::SaysPolicyOptions popts;
  SimCluster::Config cfg;
  cfg.num_nodes = nodes;
  cfg.sources = {policy::PreludeSource(), kPlacementApp,
                 policy::SaysPolicySource(popts)};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "placement-test";
  cfg.placement = true;
  cfg.placed_preds = PlacedPreds();
  cfg.storage_shards = shards;
  cfg.initial_members = initial_members;
  return cfg;
}

// The same logical workload for every topology: replicated links at every
// node, placed seeds spread over the member nodes, then two rounds of
// mixed insert/delete churn. Final net seeds:
//   {(k_i, a|b|c) by i%3, i != 1} + (k0, b) + (k1, c)  minus (k0, a).
void ScheduleWorkload(SimCluster* cluster, size_t members) {
  constexpr size_t kKeys = 24;
  std::vector<FactUpdate> links = {
      {"link", {Value::Str("a"), Value::Str("b")}},
      {"link", {Value::Str("b"), Value::Str("c")}},
      {"link", {Value::Str("c"), Value::Str("d")}},
  };
  for (size_t n = 0; n < cluster->num_nodes(); ++n) {
    cluster->ScheduleInsert(static_cast<net::NodeIndex>(n), links);
  }
  const char* cols[] = {"a", "b", "c"};
  for (size_t i = 0; i < kKeys; ++i) {
    std::string key = "k" + std::to_string(i);
    cluster->ScheduleInsert(
        static_cast<net::NodeIndex>(i % members),
        {{"seed", {Value::Str(key), Value::Str(cols[i % 3])}}});
  }
  // k0 gains a second derivation path for grow(k0, b): seed(k0,a)+link
  // and seed(k0,b) — support 2 until the churn below deletes seed(k0,a).
  cluster->ScheduleInsert(0, {{"seed", {Value::Str("k0"), Value::Str("b")}}});
  // Churn from nodes that do not own the affected shards (routed deletes).
  cluster->ScheduleUpdate(
      static_cast<net::NodeIndex>(1 % members),
      {{"seed", {Value::Str("k1"), Value::Str("c")}}},
      {{"seed", {Value::Str("k1"), Value::Str("b")}}}, 0.5);
  cluster->ScheduleUpdate(
      static_cast<net::NodeIndex>(2 % members), {},
      {{"seed", {Value::Str("k0"), Value::Str("a")}}}, 0.7);
}

// Dump of all placed tuples across the cluster: rendered tuple + exact
// support count -> number of nodes holding it. Placement must keep every
// placed tuple on exactly one node.
std::map<std::string, int> DumpPlaced(SimCluster& cluster) {
  std::map<std::string, int> out;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    const engine::Workspace& ws =
        cluster.node(static_cast<net::NodeIndex>(n)).workspace();
    const datalog::Catalog& catalog = ws.catalog();
    for (const std::string& name : PlacedPreds()) {
      auto id = catalog.Lookup(name);
      if (!id.ok()) continue;
      const engine::Relation* rel = ws.GetRelationIfExists(id.value());
      if (rel == nullptr || rel->empty()) continue;
      for (const auto& t : rel->AllTuples()) {
        std::string line = name + "(";
        for (size_t i = 0; i < t.size(); ++i) {
          if (i) line += ",";
          line += catalog.ValueToString(t[i]);
        }
        const engine::RowState st = rel->state(*rel->Find(t));
        line += ")x" + std::to_string(st.support) + (st.base ? "+base" : "");
        ++out[line];
      }
    }
  }
  return out;
}

std::string Render(const std::map<std::string, int>& dump) {
  std::string out;
  for (const auto& [line, n] : dump) {
    out += line + (n != 1 ? " @" + std::to_string(n) + "nodes" : "") + "\n";
  }
  return out;
}

struct RunOutcome {
  std::map<std::string, int> dump;
  SimCluster::Metrics metrics;
};

RunOutcome RunPlacement(size_t nodes, int shards) {
  auto cluster = SimCluster::Create(PlacementConfig(nodes, shards));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  ScheduleWorkload(cluster->get(), nodes);
  auto metrics = (*cluster)->Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->rejected_batches, 0u);
  return {DumpPlaced(**cluster), std::move(metrics).value()};
}

TEST(PlacementInvarianceTest, FixpointIdenticalAcrossNodeAndShardCounts) {
  RunOutcome baseline = RunPlacement(1, 1);
  ASSERT_FALSE(baseline.dump.empty());
  // The baseline itself is sane: the closure, the re-keyed inverse, the
  // double-support row, and an anonymous label minted under the shared
  // cluster tag.
  std::string rendered = Render(baseline.dump);
  EXPECT_NE(rendered.find("grow(\"k0\",\"d\")x1"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("inv(\"c\",\"k1\")x1"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("@cluster#"), std::string::npos) << rendered;
  // seed(k1, b) was churned away: nothing derived from it survives.
  EXPECT_EQ(rendered.find("grow(\"k1\",\"b\")x"), std::string::npos)
      << rendered;

  for (size_t nodes : {size_t{2}, size_t{5}}) {
    for (int shards : {1, 7}) {
      RunOutcome run = RunPlacement(nodes, shards);
      EXPECT_EQ(Render(run.dump), rendered)
          << nodes << " nodes, " << shards << " shards";
      // Partitioned, not replicated: every placed tuple on exactly one
      // node.
      for (const auto& [line, count] : run.dump) {
        EXPECT_EQ(count, 1) << line << " at " << nodes << "x" << shards;
      }
    }
  }
}

TEST(PlacementInvarianceTest, JoinAndLeaveMidRunPreserveTheFixpoint) {
  const std::string baseline = Render(RunPlacement(1, 1).dump);

  constexpr size_t kNodes = 5;
  constexpr int kShards = 7;
  // Node 4 starts outside the map and joins mid-churn; the post-join
  // owner of shard 0 (deterministic consistent hashing) then leaves, so
  // at least shard 0 is guaranteed to hand off.
  ShardMap expected = ShardMap::Initial(4);
  expected.Join(4);
  const uint32_t leaver = expected.OwnerOf(0);
  ASSERT_NE(leaver, 4u);  // the fresh joiner stays

  auto cluster =
      SimCluster::Create(PlacementConfig(kNodes, kShards,
                                         /*initial_members=*/4));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ScheduleWorkload(cluster->get(), /*members=*/4);
  (*cluster)->ScheduleJoin(4, 0.6);
  (*cluster)->ScheduleLeave(leaver, 0.9);
  auto metrics = (*cluster)->Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(metrics->rejected_batches, 0u);
  EXPECT_EQ(metrics->membership_changes, 2u);
  EXPECT_GT(metrics->handoff_rows, 0u);
  EXPECT_GT(metrics->handoff_transfers, 0u);

  auto dump = DumpPlaced(**cluster);
  EXPECT_EQ(Render(dump), baseline);
  for (const auto& [line, count] : dump) EXPECT_EQ(count, 1) << line;

  // The departed node holds no placed data.
  const engine::Workspace& left_ws = (*cluster)->node(leaver).workspace();
  for (const std::string& name : PlacedPreds()) {
    auto id = left_ws.catalog().Lookup(name);
    ASSERT_TRUE(id.ok());
    const engine::Relation* rel = left_ws.GetRelationIfExists(id.value());
    EXPECT_TRUE(rel == nullptr || rel->empty()) << name;
  }

  // Satellite: handoff consumes simulated time. Every handoff transaction
  // has a real duration, and per-node transactions never overlap — the
  // handoff pushed the node's clock forward like any other work.
  size_t handoffs = 0;
  std::vector<double> last_end(kNodes, 0.0);
  for (const SimCluster::TxRecord& tx : metrics->transactions) {
    EXPECT_GE(tx.start_s, last_end[tx.node] - 1e-12);
    EXPECT_GT(tx.end_s, tx.start_s);
    last_end[tx.node] = tx.end_s;
    if (tx.is_handoff) ++handoffs;
  }
  EXPECT_GT(handoffs, 0u);
}

}  // namespace
}  // namespace secureblox::dist
