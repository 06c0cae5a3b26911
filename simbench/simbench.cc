// Fixed-schedule SimCluster benchmark program (see README.md next to this
// file; simbench/run.py is the entry point that builds, repeats and
// aggregates).
//
// One invocation is one cold process: it builds one cluster (timed as
// set-up), runs it to a distributed fixpoint (timed as converge), checks
// the answer, and prints one JSON record as its last stdout line. A fixed
// host-speed probe runs before and after, for run.py to calibrate with.
//
// Every workload runs on a fixed schedule: compute_scale = 0 (measured
// compute never feeds the simulated clock), a 1 ms batch window and no
// tuple cap, so deliveries are ordered only by the seeded SimNet latency
// model and the message sequence repeats exactly. Host wall time of a
// fixed amount of work is what gets measured.
//
// --trace replays the same schedule through a copy of SimCluster::Run's
// event loop written against public calls only (SimNet, ApplyLocal,
// OpenFromPeer, DeliverOpened, ExtractHandoff, SetShardMap), with a span
// around each call. Layers nested inside a delivery (wire decode/encode,
// outbound sealing) are timed by replaying that delivery's own bytes
// after it commits; replays must reproduce the original bytes exactly.
//
//   simbench --workload pathvector-noauth --input-seed 1000
//            --shuffle-seed 1 --net-seed 1 [--trace] [--spans FILE]
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/hashjoin.h"
#include "apps/pathvector.h"
#include "common/random.h"
#include "dist/cluster.h"
#include "dist/runtime.h"
#include "engine/eval.h"
#include "engine/kernels.h"
#include "engine/workspace.h"
#include "net/sim_net.h"
#include "net/wire.h"
#include "policy/keystore.h"
#include "policy/says_policy.h"

namespace {

using namespace secureblox;
using datalog::Value;
using dist::NodeRuntime;
using dist::SimCluster;
using engine::FactUpdate;
using net::NodeIndex;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Workloads: a cluster config, a fixed event schedule, and an answer check.
// ---------------------------------------------------------------------------

struct Event {
  enum class Kind { kTx, kJoin, kLeave };
  Kind kind = Kind::kTx;
  NodeIndex node = 0;
  std::vector<FactUpdate> inserts;
  std::vector<FactUpdate> deletes;
  double at_s = 0;
};

using Nodes = std::vector<NodeRuntime*>;

struct Workload {
  SimCluster::Config config;
  std::vector<Event> events;
  /// Empty string when the converged cluster holds the right answer.
  std::function<std::string(const Nodes&)> check;
};

void FixSchedule(SimCluster::Config* cfg) {
  cfg->compute_scale = 0;
  cfg->max_batch_delay_s = 1e-3;
  cfg->max_batch_tuples = 0;
}

std::string Principal(size_t i) { return "p" + std::to_string(i); }

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<size_t> Shuffled(size_t n, Xoshiro256* rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->Uniform(i)]);
  return p;
}

// Path-vector routing (paper §7.1) on a random connected graph, average
// degree 3. The input seed picks the graph; the shuffle seed relabels its
// nodes, which changes names, hash layouts and tie-breaks but not the
// amount of routing work.
constexpr size_t kPvNodes = 24;

Workload PathVector(dist::BatchSecurity security, uint64_t input_seed,
                    uint64_t shuffle_seed, uint64_t net_seed) {
  Workload w;
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  w.config.num_nodes = kPvNodes;
  w.config.sources = {policy::PreludeSource(), apps::PathVectorSource(),
                      policy::SaysPolicySource(popts)};
  w.config.batch_security = security;
  w.config.credentials.rsa_bits = 1024;
  w.config.credentials.seed = "simbench-pathvector";
  w.config.net.seed = net_seed;
  FixSchedule(&w.config);

  std::vector<apps::Edge> edges =
      apps::RandomConnectedGraph(kPvNodes, 3.0, input_seed);
  Xoshiro256 rng(shuffle_seed);
  const std::vector<size_t> label = Shuffled(kPvNodes, &rng);
  for (apps::Edge& e : edges) e = {label[e.a], label[e.b]};
  std::vector<std::vector<FactUpdate>> links(kPvNodes);
  for (const apps::Edge& e : edges) {
    links[e.a].push_back(
        {"link", {Value::Str(Principal(e.a)), Value::Str(Principal(e.b))}});
    links[e.b].push_back(
        {"link", {Value::Str(Principal(e.b)), Value::Str(Principal(e.a))}});
  }
  for (size_t i = 0; i < kPvNodes; ++i) {
    if (links[i].empty()) continue;
    Event ev;
    ev.node = static_cast<NodeIndex>(i);
    ev.inserts = std::move(links[i]);
    w.events.push_back(std::move(ev));
  }

  auto reference = apps::ReferenceHopCounts(kPvNodes, edges);
  w.check = [reference](const Nodes& nodes) -> std::string {
    for (size_t i = 0; i < nodes.size(); ++i) {
      const engine::Workspace& ws = nodes[i]->workspace();
      auto rows = ws.Query("bestcost");
      if (!rows.ok()) return rows.status().ToString();
      std::map<size_t, int64_t> got;
      for (const engine::Tuple& row : *rows) {
        auto src = ws.catalog().EntityLabel(row[0]);
        auto dst = ws.catalog().EntityLabel(row[1]);
        if (!src.ok() || !dst.ok()) return "unlabelled bestcost row";
        if (*src != Principal(i)) continue;
        got[std::stoul(dst->substr(1))] = row[2].AsInt();
      }
      std::map<size_t, int64_t> want;
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (j != i) want[j] = reference[i][j];
      }
      if (got != want) {
        return "node " + std::to_string(i) + ": " +
               std::to_string(got.size()) +
               " bestcost rows disagree with the BFS reference";
      }
    }
    return "";
  };
  return w;
}

// Parallel rehash join (paper §7.2). Per-value multiplicities are fixed
// (the i-th value carries the R and S tuples whose shuffled index is i mod
// 216), so every seed joins the same number of rows; the input seed picks
// the join values, the shuffle seed which keys carry them.
constexpr size_t kHjNodes = 12;
constexpr size_t kHjR = 2700;
constexpr size_t kHjS = 2400;
constexpr size_t kHjValues = 216;

Workload HashJoin(uint64_t input_seed, uint64_t shuffle_seed,
                  uint64_t net_seed) {
  Workload w;
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  w.config.num_nodes = kHjNodes;
  w.config.sources = {policy::PreludeSource(), apps::HashJoinSource(),
                      policy::SaysPolicySource(popts)};
  w.config.batch_security.auth = policy::AuthScheme::kHmac;
  w.config.batch_security.enc = policy::EncScheme::kAes;
  w.config.credentials.rsa_bits = 1024;
  w.config.credentials.seed = "simbench-hashjoin";
  w.config.net.seed = net_seed;
  FixSchedule(&w.config);

  Xoshiro256 rng(input_seed);
  std::vector<int64_t> domain;
  std::set<int64_t> seen;
  while (domain.size() < kHjValues) {
    int64_t v = static_cast<int64_t>(rng.Next() % 1000000007);
    if (seen.insert(v).second) domain.push_back(v);
  }
  Xoshiro256 shuffle(shuffle_seed);
  const std::vector<size_t> perm_r = Shuffled(kHjR, &shuffle);
  const std::vector<size_t> perm_s = Shuffled(kHjS, &shuffle);
  std::map<int64_t, int64_t> value_r, value_s;  // key -> join value
  std::map<int64_t, size_t> count_r;            // join value -> |R_v|
  std::vector<std::vector<FactUpdate>> facts(kHjNodes);
  for (size_t i = 0; i < kHjR; ++i) {
    int64_t k = static_cast<int64_t>(i);
    int64_t j = domain[perm_r[i] % kHjValues];
    value_r[k] = j;
    ++count_r[j];
    facts[i % kHjNodes].push_back({"tbl_r", {Value::Int(k), Value::Int(j)}});
  }
  size_t expected = 0;
  for (size_t i = 0; i < kHjS; ++i) {
    int64_t k = static_cast<int64_t>(1000000 + i);
    int64_t j = domain[perm_s[i] % kHjValues];
    value_s[k] = j;
    expected += count_r[j];
    facts[static_cast<size_t>(k) % kHjNodes].push_back(
        {"tbl_s", {Value::Int(k), Value::Int(j)}});
  }
  constexpr int64_t kHashSpace = 1000000;
  const int64_t n = static_cast<int64_t>(kHjNodes);
  for (size_t i = 0; i < kHjNodes; ++i) {
    facts[i].push_back({"initiator", {Value::Str("p0")}});
    for (size_t u = 0; u < kHjNodes; ++u) {
      const int64_t lo = static_cast<int64_t>(u) * kHashSpace / n;
      const int64_t hi = static_cast<int64_t>(u + 1) * kHashSpace / n;
      facts[i].push_back(
          {"prin_minhash", {Value::Str(Principal(u)), Value::Int(lo)}});
      facts[i].push_back(
          {"prin_maxhash", {Value::Str(Principal(u)), Value::Int(hi)}});
    }
    Event ev;
    ev.node = static_cast<NodeIndex>(i);
    ev.inserts = std::move(facts[i]);
    w.events.push_back(std::move(ev));
  }

  // Per-value counting gives the expected size in O(|R| + |S|); every row
  // must also pair an R key and an S key that really carry its value.
  w.check = [expected, value_r, value_s](const Nodes& nodes) -> std::string {
    auto rows = nodes[0]->workspace().Query("joinresult");
    if (!rows.ok()) return rows.status().ToString();
    if (rows->size() != expected) {
      return std::to_string(rows->size()) + " join rows at the initiator, " +
             std::to_string(expected) + " expected";
    }
    for (const engine::Tuple& row : *rows) {
      auto r = value_r.find(row[0].AsInt());
      auto s = value_s.find(row[2].AsInt());
      if (r == value_r.end() || s == value_s.end() ||
          r->second != row[1].AsInt() || s->second != row[1].AsInt()) {
        return "join row pairs keys that do not share its value";
      }
    }
    return "";
  };
  return w;
}

// Placed churn: the co-shardable closure program of bench/abl_placement.cc
// under partitioned placement. 1500 keys each close over a 20-hop chain;
// three rounds each delete a third of the original keys and add 500 new
// ones. Node 5 joins while the last round's deltas are in flight (so
// batches sealed under the old epoch re-route) and node 1 leaves once the
// cluster has settled. The input seed picks the keys, the shuffle seed
// which ones are deleted.
constexpr size_t kChurnNodes = 6;
constexpr size_t kChurnMembers = 5;
constexpr size_t kChurnKeys = 1500;
constexpr size_t kChurnHops = 20;
constexpr size_t kChurnRounds = 3;
constexpr size_t kChurnPerRound = 500;
constexpr double kChurnGapS = 0.02;  // simulated seconds between events

const char* kChurnApp = R"(
link(X, Y) -> string(X), string(Y).
seed(X, Y) -> string(X), string(Y).
grow(X, Y) -> string(X), string(Y).
inv(X, Y) -> string(X), string(Y).
grow(X, Y) <- seed(X, Y).
grow(X, Y) <- grow(X, Z), link(Z, Y).
inv(Y, X) <- seed(X, Y).
)";

Workload PlacedChurn(uint64_t input_seed, uint64_t shuffle_seed,
                     uint64_t net_seed) {
  Workload w;
  policy::SaysPolicyOptions popts;
  w.config.num_nodes = kChurnNodes;
  w.config.sources = {policy::PreludeSource(), kChurnApp,
                      policy::SaysPolicySource(popts)};
  w.config.batch_security.auth = policy::AuthScheme::kHmac;
  w.config.batch_security.enc = policy::EncScheme::kAes;
  w.config.credentials.rsa_bits = 1024;
  w.config.credentials.seed = "simbench-placement";
  w.config.net.seed = net_seed;
  w.config.placement = true;
  w.config.placed_preds = {"seed", "grow", "inv"};
  w.config.initial_members = kChurnMembers;
  w.config.storage_shards = 61;
  FixSchedule(&w.config);

  auto chain = [](size_t i) { return "c" + std::to_string(i); };
  Xoshiro256 rng(input_seed);
  std::set<std::string> used;
  auto fresh_key = [&] {
    while (true) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "key-%016" PRIx64, rng.Next());
      if (used.insert(buf).second) return std::string(buf);
    }
  };
  auto seed_fact = [&](const std::string& key) {
    return FactUpdate{"seed", {Value::Str(key), Value::Str(chain(0))}};
  };

  std::vector<FactUpdate> links;
  for (size_t h = 0; h < kChurnHops; ++h) {
    links.push_back(
        {"link", {Value::Str(chain(h)), Value::Str(chain(h + 1))}});
  }
  for (size_t n = 0; n < kChurnNodes; ++n) {
    Event ev;
    ev.node = static_cast<NodeIndex>(n);
    ev.inserts = links;
    w.events.push_back(std::move(ev));
  }
  // Original keys spread round-robin over the members; a key is always
  // deleted at the node that inserted it.
  std::vector<std::string> keys;
  std::vector<std::vector<FactUpdate>> initial(kChurnMembers);
  for (size_t i = 0; i < kChurnKeys; ++i) {
    keys.push_back(fresh_key());
    initial[i % kChurnMembers].push_back(seed_fact(keys.back()));
  }
  for (size_t m = 0; m < kChurnMembers; ++m) {
    Event ev;
    ev.node = static_cast<NodeIndex>(m);
    ev.inserts = std::move(initial[m]);
    w.events.push_back(std::move(ev));
  }
  Xoshiro256 shuffle(shuffle_seed);
  const std::vector<size_t> order = Shuffled(kChurnKeys, &shuffle);
  std::set<std::string> survivors(keys.begin(), keys.end());
  for (size_t r = 0; r < kChurnRounds; ++r) {
    std::vector<Event> round(kChurnMembers);
    for (size_t m = 0; m < kChurnMembers; ++m) {
      round[m].node = static_cast<NodeIndex>(m);
      round[m].at_s = kChurnGapS * static_cast<double>(r + 1);
    }
    for (size_t d = 0; d < kChurnPerRound; ++d) {
      size_t i = order[r * kChurnPerRound + d];
      round[i % kChurnMembers].deletes.push_back(seed_fact(keys[i]));
      survivors.erase(keys[i]);
    }
    for (size_t a = 0; a < kChurnPerRound; ++a) {
      std::string key = fresh_key();
      round[a % kChurnMembers].inserts.push_back(seed_fact(key));
      survivors.insert(key);
    }
    for (Event& ev : round) w.events.push_back(std::move(ev));
  }
  Event join;
  join.kind = Event::Kind::kJoin;
  join.node = static_cast<NodeIndex>(kChurnMembers);
  join.at_s = kChurnGapS * kChurnRounds;
  w.events.push_back(std::move(join));
  Event leave;
  leave.kind = Event::Kind::kLeave;
  leave.node = 1;
  leave.at_s = kChurnGapS * (kChurnRounds + 1);
  w.events.push_back(std::move(leave));

  // Cluster-wide, seed and inv hold exactly the surviving keys and grow
  // holds hops+1 rows per surviving key; the departed node holds nothing.
  w.check = [survivors](const Nodes& nodes) -> std::string {
    std::map<std::string, size_t> seed, grow, inv;
    for (size_t n = 0; n < nodes.size(); ++n) {
      const engine::Workspace& ws = nodes[n]->workspace();
      size_t held = 0;
      for (auto [pred, out, col] :
           {std::tuple{"seed", &seed, 0}, std::tuple{"grow", &grow, 0},
            std::tuple{"inv", &inv, 1}}) {
        auto rows = ws.Query(pred);
        if (!rows.ok()) return rows.status().ToString();
        held += rows->size();
        for (const engine::Tuple& row : *rows) ++(*out)[row[col].AsString()];
      }
      if (n == 1 && held != 0) {
        return "departed node 1 still holds " + std::to_string(held) +
               " placed rows";
      }
    }
    for (auto [name, rows, per_key] :
         {std::tuple{"seed", &seed, size_t{1}},
          std::tuple{"grow", &grow, kChurnHops + 1},
          std::tuple{"inv", &inv, size_t{1}}}) {
      bool ok = rows->size() == survivors.size();
      for (const auto& [key, count] : *rows) {
        ok = ok && count == per_key && survivors.count(key) != 0;
      }
      if (!ok) {
        return std::string(name) + " rows disagree with the " +
               std::to_string(survivors.size()) + " surviving keys";
      }
    }
    return "";
  };
  return w;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t input_seed,
                              uint64_t shuffle_seed, uint64_t net_seed) {
  if (name == "pathvector-noauth") {
    return PathVector({}, input_seed, shuffle_seed, net_seed);
  }
  if (name == "pathvector-rsa-aes") {
    dist::BatchSecurity security;
    security.auth = policy::AuthScheme::kRsa;
    security.enc = policy::EncScheme::kAes;
    return PathVector(security, input_seed, shuffle_seed, net_seed);
  }
  if (name == "hashjoin-hmac-aes") {
    return HashJoin(input_seed, shuffle_seed, net_seed);
  }
  if (name == "placed-churn-hmac-aes") {
    return PlacedChurn(input_seed, shuffle_seed, net_seed);
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

using Record = std::map<std::string, double>;

struct EngineTotals {
  std::vector<engine::EngineStats> per_node;
  uint64_t eval_frame_allocs = 0;
};

EngineTotals Snapshot(const Nodes& nodes) {
  EngineTotals t;
  for (const NodeRuntime* n : nodes) {
    t.per_node.push_back(n->workspace().stats());
  }
  t.eval_frame_allocs = engine::EvalFrameAllocs();
  return t;
}

/// Counts and gauges shared by the plain and traced runs: what the
/// exact-repeat guard compares and what the end-to-end byte metrics read.
void RecordOutcome(const SimCluster::Metrics& m, const Nodes& nodes,
                   const EngineTotals& before, Record* rec) {
  Record& r = *rec;
  r["wire_kb_per_node"] = m.MeanPerNodeKb();
  r["rejected"] = static_cast<double>(m.rejected_batches);
  r["net.messages"] = static_cast<double>(m.total_messages);
  r["net.bytes"] = static_cast<double>(m.total_bytes);
  r["dist.delivery_txns"] = static_cast<double>(m.delivery_transactions);
  r["dist.handoff_rows"] = static_cast<double>(m.handoff_rows);
  r["dist.rerouted"] = static_cast<double>(m.rerouted_batches);
  double local = 0, payloads = 0, tuples = 0;
  for (const SimCluster::TxRecord& tx : m.transactions) {
    if (tx.is_delivery) {
      payloads += static_cast<double>(tx.num_payloads);
      tuples += static_cast<double>(tx.num_tuples);
    } else if (!tx.is_handoff) {
      ++local;
    }
  }
  r["dist.local_txns"] = local;
  r["dist.payloads_per_txn"] =
      payloads / std::max(1.0, r["dist.delivery_txns"]);
  // Sender-declared tuples of every delivered message (at least one each).
  r["net.bytes_per_tuple"] = r["net.bytes"] / std::max(1.0, tuples);

  using engine::EngineStats;
  using Counter = uint64_t EngineStats::*;
  static constexpr std::pair<const char*, Counter> kCounters[] = {
      {"engine.transactions", &EngineStats::transactions},
      {"engine.aborts", &EngineStats::aborts},
      {"engine.derived_tuples", &EngineStats::derived_tuples},
      {"engine.fixpoint_rounds", &EngineStats::fixpoint_rounds},
      {"engine.rule_firings", &EngineStats::rule_firings},
      {"engine.firings_skipped", &EngineStats::firings_skipped},
      {"engine.retractions", &EngineStats::retractions},
      {"engine.deleted_tuples", &EngineStats::deleted_tuples},
      {"engine.rescued_tuples", &EngineStats::rescued_tuples},
      {"engine.group_rederives", &EngineStats::group_rederives},
      {"engine.index_rebuilds", &EngineStats::index_rebuilds},
      {"engine.plan_builds", &EngineStats::plan_builds},
  };
  for (const auto& [name, field] : kCounters) {
    uint64_t total = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      total += nodes[i]->workspace().stats().*field - before.per_node[i].*field;
    }
    r[name] = static_cast<double>(total);
  }
  r["engine.derive_yield"] =
      r["engine.derived_tuples"] / std::max(1.0, r["engine.rule_firings"]);
  r["engine.eval_frame_allocs"] =
      static_cast<double>(engine::EvalFrameAllocs() - before.eval_frame_allocs);

  double node_max = 0, rel_max = 0, index_max = 0;
  for (const NodeRuntime* n : nodes) {
    const EngineStats& a = n->workspace().stats();
    const double rel =
        static_cast<double>(a.relation_dict_bytes + a.relation_column_bytes);
    const double index = static_cast<double>(a.relation_index_bytes);
    node_max = std::max(node_max, rel + index);
    rel_max = std::max(rel_max, rel);
    index_max = std::max(index_max, index);
  }
  r["node_kb_max"] = node_max / 1024.0;
  r["engine.relation_kb_max"] = rel_max / 1024.0;
  r["engine.index_kb_max"] = index_max / 1024.0;
}

// ---------------------------------------------------------------------------
// Plain run: SimCluster end to end, no instrumentation inside the run.
// ---------------------------------------------------------------------------

Status RunPlain(Workload w, Record* rec) {
  auto t0 = Clock::now();
  SB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(w.config));
  (*rec)["setup_s"] = Since(t0);

  for (Event& ev : w.events) {
    switch (ev.kind) {
      case Event::Kind::kTx:
        cluster->ScheduleUpdate(ev.node, std::move(ev.inserts),
                                std::move(ev.deletes), ev.at_s);
        break;
      case Event::Kind::kJoin:
        cluster->ScheduleJoin(ev.node, ev.at_s);
        break;
      case Event::Kind::kLeave:
        cluster->ScheduleLeave(ev.node, ev.at_s);
        break;
    }
  }
  Nodes nodes;
  for (size_t i = 0; i < cluster->num_nodes(); ++i) {
    nodes.push_back(&cluster->node(static_cast<NodeIndex>(i)));
  }
  EngineTotals before = Snapshot(nodes);

  const double cpu0 = CpuSeconds();
  t0 = Clock::now();
  auto metrics = cluster->Run();
  (*rec)["converge_s"] = Since(t0);
  (*rec)["cpu_s"] = CpuSeconds() - cpu0;
  if (!metrics.ok()) return metrics.status();

  RecordOutcome(*metrics, nodes, before, rec);
  t0 = Clock::now();
  std::string verdict = w.check(nodes);
  (*rec)["check_s"] = Since(t0);
  if (!verdict.empty()) return Status::Internal("answer check: " + verdict);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced run: SimCluster::Run's event loop replayed through public calls.
// ---------------------------------------------------------------------------

/// One timed call into a layer. `txn` is the transaction that caused it
/// (-1 for the event loop's own network pops).
struct Span {
  const char* name;
  double start_s;
  double end_s;
  int64_t txn;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Time `fn` as span `name` of transaction `txn`; returns its result.
  template <typename Fn>
  auto Time(const char* name, int64_t txn, Fn&& fn) {
    const double start = Now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({name, start, Now(), txn});
    } else {
      auto out = fn();
      spans_.push_back({name, start, Now(), txn});
      return out;
    }
  }

  double Now() const { return Since(origin_); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct TxnInfo {
  const char* kind;
  double host_s = 0;  // layer spans on the transaction's own path
  /// False for a node that had nothing to hand off: SimCluster runs no
  /// transaction for it.
  bool counted = true;
};

Status RunTraced(Workload w, Record* rec, const std::string& spans_path) {
  const SimCluster::Config& cfg = w.config;
  Record& r = *rec;
  if (cfg.compute_scale != 0 || cfg.max_batch_tuples != 0 ||
      !(cfg.max_batch_delay_s > 0)) {
    return Status::InvalidArgument(
        "the traced loop mirrors SimCluster::Run for the fixed schedule only");
  }

  // Set-up, mirroring SimCluster::Create.
  auto t0 = Clock::now();
  std::vector<std::string> principals;
  for (size_t i = 0; i < cfg.num_nodes; ++i) principals.push_back(Principal(i));
  policy::CredentialAuthority authority(principals, cfg.credentials);
  std::vector<policy::Credentials> creds(cfg.num_nodes);
  for (size_t i = 0; i < cfg.num_nodes; ++i) {
    SB_ASSIGN_OR_RETURN(creds[i], authority.IssueFor(principals[i]));
  }
  r["setup.credentials_s"] = Since(t0);
  t0 = Clock::now();
  std::vector<std::unique_ptr<NodeRuntime>> owned;
  Nodes nodes;
  for (size_t i = 0; i < cfg.num_nodes; ++i) {
    NodeRuntime::Config ncfg;
    ncfg.index = static_cast<NodeIndex>(i);
    ncfg.principals = principals;
    ncfg.creds = std::move(creds[i]);
    ncfg.batch_security = cfg.batch_security;
    ncfg.placement = cfg.placement;
    ncfg.placed_preds = cfg.placed_preds;
    ncfg.storage_shards = cfg.storage_shards;
    SB_ASSIGN_OR_RETURN(std::unique_ptr<NodeRuntime> node,
                        NodeRuntime::Create(std::move(ncfg), cfg.sources));
    nodes.push_back(node.get());
    owned.push_back(std::move(node));
  }
  dist::ShardMap map;
  if (cfg.placement) {
    map = dist::ShardMap::Initial(static_cast<uint32_t>(
        cfg.initial_members == 0 ? cfg.num_nodes : cfg.initial_members));
    for (NodeRuntime* n : nodes) n->SetShardMap(map);
  }
  r["setup.install_s"] = Since(t0);
  r["setup_s"] = r["setup.credentials_s"] + r["setup.install_s"];
  net::SimNet net(cfg.net);
  EngineTotals before = Snapshot(nodes);

  // The event loop. compute_scale is 0 on every workload, so each
  // transaction occupies its node for the 1 ns floor SimCluster applies.
  constexpr double kTxDuration = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t num_nodes = nodes.size();
  SimCluster::Metrics m;
  std::vector<double> available(num_nodes, 0.0);
  std::vector<std::deque<net::SimNet::Delivery>> pending(num_nodes);
  std::vector<TxnInfo> txns;
  double seal_calls = 0, open_calls = 0, open_failures = 0, sealed_bytes = 0;
  bool replay_ok = true;

  std::stable_sort(
      w.events.begin(), w.events.end(),
      [](const Event& a, const Event& b) { return a.at_s < b.at_s; });
  size_t next_event = 0;

  const auto loop_start = Clock::now();
  Tracer tr(loop_start);

  auto fire_time = [&](size_t n) {
    return std::max(available[n],
                    pending[n].front().time_s + cfg.max_batch_delay_s);
  };
  auto finish_tx = [&](NodeIndex node, double start, bool accepted,
                       bool is_delivery, size_t num_payloads,
                       size_t num_tuples,
                       std::vector<NodeRuntime::Outgoing> outgoing) {
    const double end = start + kTxDuration;
    available[node] = end;
    m.transactions.push_back(
        {node, accepted, is_delivery, start, end, num_payloads, num_tuples});
    if (!accepted) return;
    const int64_t txn = static_cast<int64_t>(txns.size()) - 1;
    for (auto& out : outgoing) {
      tr.Time("net.send", txn, [&] {
        net.Send(node, out.dst, std::move(out.payload), end, out.num_tuples);
      });
    }
  };

  while (true) {
    const double t_sched =
        next_event < w.events.size() ? w.events[next_event].at_s : kInf;
    double t_fire = kInf;
    size_t fire_dst = 0;
    uint64_t fire_seq = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      if (pending[n].empty()) continue;
      const double t = fire_time(n);
      const uint64_t seq = pending[n].front().seq;
      if (t < t_fire || (t == t_fire && seq < fire_seq)) {
        t_fire = t;
        fire_dst = n;
        fire_seq = seq;
      }
    }
    const double t_net = net.PeekNextTime().value_or(kInf);
    if (t_sched == kInf && t_fire == kInf && t_net == kInf) break;

    if (t_net <= std::min(t_sched, t_fire)) {
      auto d = tr.Time("net.pop", -1, [&] { return net.PopNext(); });
      pending[d->dst].push_back(std::move(*d));
      continue;
    }

    if (t_sched <= t_fire) {
      Event& ev = w.events[next_event++];
      if (ev.kind != Event::Kind::kTx) {
        dist::ShardMap new_map = map;
        if (ev.kind == Event::Kind::kJoin) {
          new_map.Join(ev.node);
        } else {
          new_map.Leave(ev.node);
        }
        if (new_map.epoch() == map.epoch()) continue;
        for (size_t n = 0; n < num_nodes; ++n) {
          txns.push_back({"handoff"});
          const int64_t txn = static_cast<int64_t>(txns.size()) - 1;
          const double s0 = tr.Now();
          auto handoff = tr.Time("dist.handoff", txn, [&] {
            return nodes[n]->ExtractHandoff(new_map);
          });
          txns.back().host_s = tr.Now() - s0;
          if (!handoff.ok()) return handoff.status();
          if (handoff->empty()) {
            txns.back().counted = false;
            continue;
          }
          size_t rows = 0;
          for (const auto& o : *handoff) rows += o.num_tuples;
          m.handoff_rows += rows;
          const size_t batches = handoff->size();
          const double start = std::max(ev.at_s, available[n]);
          finish_tx(static_cast<NodeIndex>(n), start, true, false, batches,
                    rows, std::move(*handoff));
          m.transactions.back().is_handoff = true;
        }
        map = new_map;
        for (NodeRuntime* n : nodes) {
          tr.Time("dist.set_map", -1, [&] { n->SetShardMap(map); });
        }
        continue;
      }
      txns.push_back({"local"});
      const int64_t txn = static_cast<int64_t>(txns.size()) - 1;
      const double start = std::max(ev.at_s, available[ev.node]);
      const double s0 = tr.Now();
      auto outcome = tr.Time("dist.local", txn, [&] {
        return nodes[ev.node]->ApplyLocal(ev.inserts, ev.deletes);
      });
      txns.back().host_s = tr.Now() - s0;
      if (!outcome.ok()) return outcome.status();
      finish_tx(ev.node, start, outcome->accepted, false, 0, 0,
                std::move(outcome->outgoing));
      continue;
    }

    // Coalesced delivery: open every queued payload's seal, then apply the
    // survivors as one transaction (what DeliverBatch does in one call).
    txns.push_back({"delivery"});
    const int64_t txn = static_cast<int64_t>(txns.size()) - 1;
    NodeRuntime& dst = *nodes[fire_dst];
    std::vector<net::SimNet::Delivery> taken(
        std::make_move_iterator(pending[fire_dst].begin()),
        std::make_move_iterator(pending[fire_dst].end()));
    pending[fire_dst].clear();
    size_t tuples = 0;
    std::vector<NodeRuntime::OpenedDelivery> opened(taken.size());
    double host_s = 0;
    for (size_t i = 0; i < taken.size(); ++i) {
      tuples += std::max<size_t>(1, taken[i].tuple_hint);
      opened[i].src = taken[i].src;
      const double s0 = tr.Now();
      auto plain = tr.Time("crypto.open", txn, [&] {
        return dst.OpenFromPeer(taken[i].payload, taken[i].src);
      });
      host_s += tr.Now() - s0;
      ++open_calls;
      sealed_bytes += static_cast<double>(taken[i].payload.size());
      if (!plain.ok()) {
        ++open_failures;
        opened[i].auth_ok = false;
        opened[i].error = plain.status().ToString();
      } else {
        opened[i].opened = std::move(plain).value();
      }
    }
    const double start = std::max(t_fire, available[fire_dst]);
    const double s0 = tr.Now();
    auto outcome = tr.Time("dist.deliver", txn,
                           [&] { return dst.DeliverOpened(opened); });
    txns.back().host_s = host_s + (tr.Now() - s0);
    const NodeIndex dst_index = static_cast<NodeIndex>(fire_dst);
    if (!outcome.ok()) {
      m.rejected_batches += taken.size();
      finish_tx(dst_index, start, false, true, taken.size(), tuples, {});
      continue;
    }
    // Replays of the layers nested inside the delivery, on its own bytes:
    // the wire decode it ran, the sender's encode and seal that produced
    // them. Each must reproduce the original bytes.
    for (size_t i = 0; i < taken.size(); ++i) {
      if (!opened[i].auth_ok) continue;
      auto wire = tr.Time("net.decode", txn, [&] {
        return net::DecodeBatch(opened[i].opened, &dst.workspace().catalog());
      });
      if (!wire.ok()) {
        replay_ok = false;
        continue;
      }
      auto encoded = tr.Time("net.encode", txn, [&] {
        return net::EncodeBatch(*wire, dst.workspace().catalog());
      });
      replay_ok = replay_ok && encoded.ok() && *encoded == opened[i].opened;
      auto sealed = tr.Time("crypto.seal", txn, [&] {
        return nodes[taken[i].src]->SealForPeer(opened[i].opened, dst_index);
      });
      ++seal_calls;
      replay_ok = replay_ok && sealed.ok() && *sealed == taken[i].payload;
    }
    m.rejected_batches += taken.size() - outcome->accepted_payloads;
    ++m.delivery_transactions;
    finish_tx(dst_index, start, outcome->accepted_payloads > 0, true,
              taken.size(), tuples, std::move(outcome->outgoing));
  }
  const double converge_s = Since(loop_start);
  r["converge_s"] = converge_s;

  m.total_messages = net.total_messages();
  m.total_bytes = net.total_bytes();
  for (size_t i = 0; i < num_nodes; ++i) {
    m.node_bytes_sent.push_back(net.bytes_sent(static_cast<NodeIndex>(i)));
    m.rerouted_batches += nodes[i]->stats().batches_rerouted;
  }
  RecordOutcome(m, nodes, before, rec);

  std::map<std::string, double> busy;
  double spanned = 0;
  for (const Span& s : tr.spans()) {
    busy[s.name] += s.end_s - s.start_s;
    spanned += s.end_s - s.start_s;
  }
  r["dist.local_s"] = busy["dist.local"];
  r["dist.deliver_s"] = busy["dist.deliver"];
  r["dist.handoff_s"] = busy["dist.handoff"] + busy["dist.set_map"];
  r["dist.loop_self_s"] = converge_s - spanned;
  r["net.sim_s"] = busy["net.send"] + busy["net.pop"];
  r["net.decode_s"] = busy["net.decode"];
  r["net.encode_s"] = busy["net.encode"];
  r["crypto.open_s"] = busy["crypto.open"];
  r["crypto.seal_s"] = busy["crypto.seal"];
  r["crypto.open_calls"] = open_calls;
  r["crypto.open_failures"] = open_failures;
  r["crypto.seal_calls"] = seal_calls;
  r["crypto.sealed_kb"] = sealed_bytes / 1024.0;
  r["engine.self_s"] = r["dist.local_s"] + r["dist.deliver_s"] -
                       r["net.decode_s"] - r["net.encode_s"] -
                       r["crypto.seal_s"];
  r["trace.span_cover"] = spanned / converge_s;
  r["crypto.share"] = (r["crypto.open_s"] + r["crypto.seal_s"]) / converge_s;

  // Per-transaction host time: the median and the highest whole
  // percentile that still leaves at least ten transactions beyond it.
  std::vector<double> tx_ms;
  for (const TxnInfo& t : txns) {
    if (t.counted) tx_ms.push_back(t.host_s * 1e3);
  }
  std::sort(tx_ms.begin(), tx_ms.end());
  auto pct = [&tx_ms](double p) {
    const double rank = p / 100.0 * static_cast<double>(tx_ms.size() - 1);
    const size_t i = static_cast<size_t>(rank + 0.5);
    return tx_ms[std::min(i, tx_ms.size() - 1)];
  };
  const double n_tx = static_cast<double>(tx_ms.size());
  const double tail_pct =
      std::max(50.0, std::floor(100.0 * (1.0 - 10.0 / n_tx)));
  r["dist.tx_count"] = n_tx;
  r["dist.tx_ms_p50"] = pct(50);
  r["dist.tx_ms_tail_pct"] = tail_pct;
  r["dist.tx_ms_tail"] = pct(tail_pct);

  if (!spans_path.empty()) {
    if (FILE* f = std::fopen(spans_path.c_str(), "w")) {
      for (const Span& s : tr.spans()) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                     "\"txn\":%" PRId64 ",\"kind\":\"%s\"}\n",
                     s.name, s.start_s, s.end_s, s.txn,
                     s.txn >= 0 ? txns[static_cast<size_t>(s.txn)].kind
                                : "loop");
      }
      std::fclose(f);
    }
  }

  std::string verdict = w.check(nodes);
  if (!verdict.empty()) return Status::Internal("answer check: " + verdict);
  if (!replay_ok) {
    return Status::Internal("replayed decode/encode/seal did not reproduce "
                            "the delivered bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Host-speed probe.
// ---------------------------------------------------------------------------

/// Fixed work that shares no code with SecureBlox: random inserts and
/// probes into a hash table of a few MB, the access pattern of relation
/// index probes. Its time moves with interference from other tenants of
/// the host the way the engine's does, so run.py divides every end-to-end
/// time by it. Changing it changes the benchmark.
double HostProbe() {
  const auto t0 = Clock::now();
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(200000);
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % 1000003;
  };
  for (uint64_t i = 0; i < 200000; ++i) table[next()] += i;
  for (int i = 0; i < 700000; ++i) {
    auto it = table.find(next());
    if (it != table.end()) acc += it->second;
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return Since(t0);
}

// ---------------------------------------------------------------------------
// Command line and output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: simbench --workload NAME --input-seed N "
               "--shuffle-seed N --net-seed N [--trace] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  uint64_t seeds[3] = {0, 0, 0};
  const char* seed_names[3] = {"input-seed", "shuffle-seed", "net-seed"};
  for (int k = 0; k < 3; ++k) {
    auto it = args.find(seed_names[k]);
    if (it == args.end()) return Usage();
    char* end = nullptr;
    seeds[k] = std::strtoull(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0') return Usage();
    args.erase(it);
  }
  const std::string workload = args["workload"];
  const std::string spans_path = args["spans"];
  args.erase("workload");
  args.erase("spans");
  if (workload.empty() || !args.empty()) return Usage();

  // Engine knobs select layouts, planners and threading; the benchmark
  // measures the defaults only.
  for (const char* knob : {"SB_THREADS", "SB_SHARDS", "SB_PLAN", "SB_COLUMNAR",
                           "SB_SIMD", "SB_EXPLAIN"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "refusing to run with %s set\n", knob);
      return 2;
    }
  }

  auto w = MakeWorkload(workload, seeds[0], seeds[1], seeds[2]);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  Record rec;
  const double probe_before = HostProbe();
  Status status = trace ? RunTraced(std::move(*w), &rec, spans_path)
                        : RunPlain(std::move(*w), &rec);
  rec["host.probe_s"] = (probe_before + HostProbe()) / 2;

  std::string out = "{\"ok\": ";
  out += status.ok() ? "true" : "false";
  out += ", \"error\": " + JsonString(status.ok() ? "" : status.ToString());
  out += ", \"traced\": ";
  out += trace ? "true" : "false";
  out += ", \"simd\": " + JsonString(engine::SimdModeName(
                               engine::ResolveSimdMode(
                                   engine::FixpointOptions().simd)));
#ifdef __clang__
  out += ", \"compiler\": " + JsonString("clang " __VERSION__);
#else
  out += ", \"compiler\": " + JsonString("gcc " __VERSION__);
#endif
  out += ", \"build_type\": " + JsonString(SIMBENCH_BUILD_TYPE);
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  char buf[64];
  for (const auto& [key, v] : rec) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += ", " + JsonString(key) + ": " + buf;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return status.ok() ? 0 : 1;
}
