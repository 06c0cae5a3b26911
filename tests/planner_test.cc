// Cost-based rule execution planning: online relation statistics stay
// symmetric under insert/erase churn, worst-ordered rule bodies are
// reordered selective-first, a wide bound column is read by a linear pass
// and a selective one by an index, every plan enumerates exactly the
// bindings of the compiler's written order, the fixpoint is byte-identical
// at every SB_SIMD x SB_THREADS x SB_SHARDS combination, the Executor's
// probe and batch paths allocate nothing in steady state, and the
// SB_EXPLAIN dump describes the chosen plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "engine/kernels.h"
#include "engine/planner.h"
#include "engine/workspace.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::PredicateDecl;
using datalog::Value;

void Install(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

PredicateDecl MakeDecl(size_t arity, bool functional) {
  PredicateDecl d;
  d.name = "t";
  d.arg_types.assign(arity, 0);
  d.functional = functional;
  return d;
}

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

std::string Label(int i) { return "v" + std::to_string(i); }

/// Full database image: every predicate's tuples (rendered with entity
/// labels) with their support counts, order-insensitive.
using Snapshot = std::map<std::string, std::set<std::pair<std::string,
                                                          uint32_t>>>;

Snapshot Snap(const Workspace& ws) {
  Snapshot out;
  const datalog::Catalog& catalog = ws.catalog();
  for (size_t id = 0; id < catalog.num_predicates(); ++id) {
    const datalog::PredicateDecl& decl =
        catalog.decl(static_cast<datalog::PredId>(id));
    const Relation* rel =
        ws.GetRelationIfExists(static_cast<datalog::PredId>(id));
    if (rel == nullptr || rel->empty()) continue;
    auto& rows = out[decl.name];
    for (const Tuple& t : rel->AllTuples()) {
      rows.emplace(TupleToString(t, catalog),
                   rel->state(*rel->Find(t)).support);
    }
  }
  return out;
}

/// The SIMD-, thread- and shard-count-invariant face of FixpointStats
/// (everything except parallel_tasks, which counts shard-aligned chunks).
std::vector<uint64_t> SemanticCounters(const FixpointStats& fp) {
  return {fp.rounds,          fp.rule_firings,    fp.firings_skipped,
          fp.agg_recomputes,  fp.agg_skipped,     fp.derivations,
          fp.waves,           fp.retract_firings, fp.retractions,
          fp.deleted,         fp.rescued,         fp.group_rederives,
          fp.rederive_seeded, fp.plans_built};
}

/// The planner's plan for one variant; fails the test when planning does.
const VariantPlan& PlanOf(ExecPlanner* planner, const CompiledRule& rule,
                          int occ) {
  Result<const VariantPlan*> plan = planner->PlanFor(rule, occ);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  static const VariantPlan kEmpty;
  return plan.ok() ? **plan : kEmpty;
}

// ---------------------------------------------------------------------------
// Online statistics: symmetric maintenance across Insert and Erase.
// ---------------------------------------------------------------------------

// Single-column masks answer from the column dictionaries' live counts,
// so the hashed per-mask statistics (KeyStat) only track multi-column
// masks; these cases bind two columns of an arity-3 relation to keep the
// insert/erase symmetry of that statistic covered.

TEST(RelationStatsTest, DistinctKeysSymmetricUnderEraseChurn) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, /*shards=*/3);
  EXPECT_FALSE(r.DistinctKeys(0x3).has_value());  // untracked
  r.EnsureKeyStat(0x3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) r.Insert(T({i, i * 10, j}));
  }
  ASSERT_TRUE(r.DistinctKeys(0x3).has_value());
  EXPECT_EQ(*r.DistinctKeys(0x3), 8u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 4.0);
  EXPECT_EQ(r.EstimateSourceFor(0x3), EstimateSource::kStat);

  // Heavy retraction: erase every odd key completely (swap-remove churn in
  // every shard). Stats must shrink with the data, never inflate.
  for (int i = 1; i < 8; i += 2) {
    for (int j = 0; j < 4; ++j) EXPECT_TRUE(r.Erase(T({i, i * 10, j})));
  }
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 4.0);

  // Partial erase of a surviving key: distinct count holds, estimate drops.
  for (int j = 0; j < 3; ++j) EXPECT_TRUE(r.Erase(T({0, 0, j})));
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 13.0 / 4.0);

  // Erase the last row of that key: the key disappears from the stats.
  EXPECT_TRUE(r.Erase(T({0, 0, 3})));
  EXPECT_EQ(*r.DistinctKeys(0x3), 3u);

  // Reinsert-after-erase must recount from the live data, not resurrect
  // stale counts.
  r.Insert(T({0, 0, 0}));
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 13.0 / 4.0);

  // A stat seeded *after* the same churn agrees with the incrementally
  // maintained one (seed-vs-maintain equivalence).
  Relation fresh(&decl, /*shards=*/3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) fresh.Insert(T({i, i * 10, j}));
  }
  for (int i = 1; i < 8; i += 2) {
    for (int j = 0; j < 4; ++j) fresh.Erase(T({i, i * 10, j}));
  }
  for (int j = 0; j < 3; ++j) fresh.Erase(T({0, 0, j}));
  fresh.Erase(T({0, 0, 3}));
  fresh.Insert(T({0, 0, 0}));
  fresh.EnsureKeyStat(0x3);
  EXPECT_EQ(*fresh.DistinctKeys(0x3), *r.DistinctKeys(0x3));
  EXPECT_DOUBLE_EQ(fresh.EstimateMatches(0x3), r.EstimateMatches(0x3));
}

TEST(RelationStatsTest, EmptyAndUntrackedMasksFallBackToSize) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 0.0);  // empty relation
  r.Insert(T({1, 2, 5}));
  r.Insert(T({1, 3, 5}));
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0), 2.0);    // mask 0 = full scan
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 2.0);  // untracked mask
  EXPECT_EQ(r.EstimateSourceFor(0x3), EstimateSource::kSize);
  r.EnsureKeyStat(0x3);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 1.0);  // 2 rows / 2 values
  EXPECT_EQ(r.EstimateSourceFor(0x3), EstimateSource::kStat);
  // A single column needs no tracking: its dictionary counts live values.
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x4), 2.0);  // 2 rows / 1 value
  EXPECT_EQ(r.EstimateSourceFor(0x4), EstimateSource::kDict);
}

TEST(RelationStatsTest, EstimateMatchesFiniteOnJustEmptiedRelation) {
  // Pins the division guards in Relation::EstimateMatches (audit: the
  // total_size_ == 0 early return and the distinct == 0 fallback keep
  // every path off 0/0): a relation emptied AFTER its stats were seeded
  // must estimate 0 matches — finite, never NaN/inf — for tracked masks,
  // untracked masks, and the dictionary path, and the planner's
  // wide-match ratio (EstimateMatches * 4 >= size) must stay well-defined.
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, /*shards=*/3);
  r.EnsureKeyStat(0x3);
  for (int i = 0; i < 6; ++i) r.Insert(T({i, i * 10, i % 2}));
  ASSERT_GT(r.EstimateMatches(0x1), 0.0);
  ASSERT_GT(r.EstimateMatches(0x3), 0.0);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(r.Erase(T({i, i * 10, i % 2})));
  ASSERT_EQ(r.size(), 0u);
  for (uint32_t mask : {0x0u, 0x1u, 0x2u, 0x3u, 0x5u}) {
    const double est = r.EstimateMatches(mask);
    EXPECT_TRUE(std::isfinite(est)) << "mask=" << mask;
    EXPECT_DOUBLE_EQ(est, 0.0);
  }
  // The just-emptied dictionary and the tracked stat both report zero
  // live keys; neither may reach the division.
  EXPECT_EQ(r.DistinctKeys(0x1), 0u);
  EXPECT_EQ(r.DistinctKeys(0x3), 0u);
  // Refill after the empty phase: estimates recover from live data.
  r.Insert(T({1, 2, 0}));
  r.Insert(T({1, 3, 0}));
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x1), 2.0);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 1.0);
}

TEST(RelationStatsTest, ProbeBucketsStaySortedAcrossEraseChurn) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, /*shards=*/1);
  for (int j = 0; j < 20; ++j) {
    r.Insert(T({1, j}));
    r.Insert(T({2, j}));
  }
  Tuple key = T({1});
  ASSERT_EQ(r.ProbeShard(0, 0x1, key).size(), 20u);
  // Swap-remove churn: erases repoint moved rows, and the patched buckets
  // must stay ascending so scans walk each shard as a sorted run.
  for (int j = 0; j < 20; j += 2) ASSERT_TRUE(r.Erase(T({2, j})));
  for (int j = 1; j < 20; j += 3) ASSERT_TRUE(r.Erase(T({1, j})));
  for (uint32_t who = 1; who <= 2; ++who) {
    Tuple k = T({static_cast<int64_t>(who)});
    const std::vector<size_t>& rows = r.ProbeShard(0, 0x1, k);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()))
        << "bucket for key " << who << " lost its sort order";
    for (size_t slot : rows) {
      EXPECT_EQ(r.At(0, slot, 0), Value::Int(who));
    }
  }
}

// ---------------------------------------------------------------------------
// Plan shape: worst-ordered bodies get reordered selective-first.
// ---------------------------------------------------------------------------

const char* kWorstOrderedProgram = R"(
  big(X, Y) -> int(X), int(Y).
  filt(X) -> int(X).
  hit(Y) -> int(Y).
  hit(Y) <- big(X, Y), filt(X).
)";

TEST(PlannerTest, WorstOrderedBodyReorderedSelectiveFirst) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  // big: 300 rows over 100 keys; filt: 2 rows. Written order enumerates
  // all of big and probes filt 300 times; selective-first scans filt and
  // probes big's index twice.
  std::vector<FactUpdate> facts;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 3; ++j) {
      facts.push_back({"big", {Value::Int(i), Value::Int(1000 + 3 * i + j)}});
    }
  }
  facts.push_back({"filt", {Value::Int(7)}});
  facts.push_back({"filt", {Value::Int(42)}});
  ASSERT_TRUE(ws.Apply(facts).ok());

  const datalog::PredId big_id = ws.catalog().Lookup("big").value();
  const datalog::PredId filt_id = ws.catalog().Lookup("filt").value();
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  // Baseline (written order): big before filt — the worst order.
  ASSERT_EQ(rule->steps[0].pred, big_id);

  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  const VariantPlan* full = &PlanOf(&planner, *rule, ExecPlanner::kFullBody);
  ASSERT_EQ(full->steps.size(), rule->steps.size());
  // Selective-first: the 2-row filt scan leads, and big becomes an
  // indexed probe on its now-bound join column.
  EXPECT_EQ(full->steps[0].pred, filt_id);
  EXPECT_EQ(full->steps[0].kind, Step::Kind::kScan);
  const Step* big_step = nullptr;
  for (const Step& s : full->steps) {
    if (s.pred == big_id) big_step = &s;
  }
  ASSERT_NE(big_step, nullptr);
  EXPECT_EQ(big_step->probe_mask, 0x1u) << "big should probe on bound X";
  EXPECT_FALSE(big_step->scan_all);

  // Semi-naïve variants put their delta atom first regardless of cost.
  const VariantPlan* d0 = &PlanOf(&planner, *rule, 0);
  ASSERT_FALSE(d0->steps.empty());
  EXPECT_EQ(d0->steps[0].pred, big_id);
  EXPECT_EQ(d0->steps[0].occurrence, 0);
  const VariantPlan* d1 = &PlanOf(&planner, *rule, 1);
  ASSERT_EQ(d1->steps.size(), 2u);
  EXPECT_EQ(d1->steps[0].pred, filt_id);
  EXPECT_EQ(d1->steps[0].occurrence, 1);
  // With filt's delta bound first, big is again an indexed probe.
  const Step& after = d1->steps[1];
  EXPECT_EQ(after.pred, big_id);
  EXPECT_EQ(after.probe_mask, 0x1u);

  // The workspace's own driver may have populated the shared cache's
  // occurrence slots during Apply; the full-body slot is ours.
  EXPECT_GE(planner.plans_built(), 1u);
}

// The one probe decision the planner makes: a bound column whose
// dictionary estimate keeps a quarter or more of the relation is read by
// one linear pass (Step::scan_all), and the fixpoint warms that column's
// sorted runs instead of an index; a selective column probes an index.
TEST(PlannerTest, WideBoundColumnScansSelectiveColumnProbes) {
  Workspace ws;
  Install(&ws, R"(
    wide(X, Y) -> int(X), int(Y).
    narrow(X, Y) -> int(X), int(Y).
    sel(X) -> int(X).
    hitw(X) -> int(X).
    hitw(X) <- sel(Y), wide(X, Y).
    hitn(Y) -> int(Y).
    hitn(Y) <- sel(X), narrow(X, Y).
  )");
  // wide: 40 rows over 2 values of Y (20 matches per probe, half the
  // relation); narrow: 40 rows over 40 values of X (1 match per probe).
  std::vector<FactUpdate> facts;
  for (int i = 0; i < 40; ++i) {
    facts.push_back({"wide", {Value::Int(i), Value::Int(i % 2)}});
    facts.push_back({"narrow", {Value::Int(i), Value::Int(100 + i)}});
  }
  ASSERT_TRUE(ws.Apply(facts).ok());
  // sel's delta leads both rules' sel-variants; the next step binds one
  // column of wide / narrow.
  auto commit = ws.Apply({{"sel", {Value::Int(1)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();

  const datalog::PredId wide_id = ws.catalog().Lookup("wide").value();
  const datalog::PredId narrow_id = ws.catalog().Lookup("narrow").value();
  const datalog::PredId sel_id = ws.catalog().Lookup("sel").value();
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  int checked = 0;
  for (const CompiledRule& rule : ws.compiled_rules()) {
    int sel_occ = -1;
    for (int occ = 0; occ < rule.num_scan_occurrences; ++occ) {
      if (rule.scan_preds[occ] == sel_id) sel_occ = occ;
    }
    ASSERT_GE(sel_occ, 0);
    const VariantPlan& plan = PlanOf(&planner, rule, sel_occ);
    ASSERT_EQ(plan.steps.size(), 2u);
    const Step& probe = plan.steps[1];
    const std::string dump = planner.Explain(rule, sel_occ, plan);
    if (probe.pred == wide_id) {
      EXPECT_EQ(probe.probe_mask, 0x2u);
      EXPECT_TRUE(probe.scan_all) << dump;
      EXPECT_NE(dump.find("probe=scan-all mask=0x2"), std::string::npos)
          << dump;
    } else {
      ASSERT_EQ(probe.pred, narrow_id);
      EXPECT_EQ(probe.probe_mask, 0x1u);
      EXPECT_FALSE(probe.scan_all) << dump;
      EXPECT_NE(dump.find("probe=index mask=0x1"), std::string::npos)
          << dump;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 2);
  // Both rules fired, and the two reads agree with the data.
  EXPECT_EQ(ws.GetRelationIfExists(ws.catalog().Lookup("hitw").value())
                ->size(),
            20u);
  EXPECT_EQ(ws.GetRelationIfExists(ws.catalog().Lookup("hitn").value())
                ->size(),
            1u);
  // What the fixpoint warmed for those plans: wide's bound column has
  // current sorted runs in every shard and no index was ever built on
  // wide; narrow got its index and no sorted runs.
  const Relation* wide = ws.GetRelationIfExists(wide_id);
  const Relation* narrow = ws.GetRelationIfExists(narrow_id);
  ASSERT_NE(wide, nullptr);
  ASSERT_NE(narrow, nullptr);
  for (size_t sh = 0; sh < wide->shard_count(); ++sh) {
    EXPECT_NE(wide->SortedRunBoundsIfWarm(sh, 1), nullptr) << "shard " << sh;
    EXPECT_EQ(narrow->SortedRunBoundsIfWarm(sh, 0), nullptr)
        << "shard " << sh;
  }
  EXPECT_EQ(wide->index_builds(), 0u);
  EXPECT_GE(narrow->index_builds(), 1u);
}

TEST(PlannerTest, PlansReplanWhenStatsDrift) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  ASSERT_TRUE(ws.Apply({{"big", {Value::Int(1), Value::Int(2)}},
                        {"filt", {Value::Int(1)}}})
                  .ok());
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  ASSERT_TRUE(planner.PlanFor(*rule, ExecPlanner::kFullBody).ok());
  const uint64_t built = planner.plans_built();
  // Same sizes: cached plan, no rebuild.
  ASSERT_TRUE(planner.PlanFor(*rule, ExecPlanner::kFullBody).ok());
  EXPECT_EQ(planner.plans_built(), built);
  // Grow big far past the drift threshold: the next request replans.
  std::vector<FactUpdate> more;
  for (int i = 0; i < 200; ++i) {
    more.push_back({"big", {Value::Int(i + 10), Value::Int(i)}});
  }
  ASSERT_TRUE(ws.Apply(more).ok());
  const VariantPlan* rebuilt =
      &PlanOf(&planner, *rule, ExecPlanner::kFullBody);
  EXPECT_GT(planner.plans_built(), built);
  EXPECT_GE(rebuilt->builds, 2u);
}

// ---------------------------------------------------------------------------
// Plans enumerate exactly the bindings of the written order.
// ---------------------------------------------------------------------------

// One rule per rebinding the planner performs when it reorders a body:
// fl's functional lookup is forced to a scan (f is smaller than big, and
// its own delta leads), as's assignment becomes an equality once tag's
// delta binds its target, sl repeats a variable within one atom (kSame),
// ng/nf negate a plain and a functional atom, bk's builtin output is bound
// by an earlier tag step, and cnt's aggregate runs its full body.
const char* kRebindProgram = R"(
  big(X, Y) -> int(X), int(Y).
  f[X] = V -> int(X), int(V).
  link(X, Y) -> int(X), int(Y).
  tag(X, Y) -> int(X), int(Y).
  blocked(X) -> int(X).
  fl(Y, V) -> int(Y), int(V).
  fl(Y, V) <- big(X, Y), f[X] = V.
  as(X, Z, W) -> int(X), int(Z), int(W).
  as(X, Z, W) <- big(X, Y), Z = Y + 1, tag(Z, W).
  sl(X, Y) -> int(X), int(Y).
  sl(X, Y) <- link(X, X), tag(X, Y).
  ng(X, Y) -> int(X), int(Y).
  ng(X, Y) <- link(X, Y), !blocked(Y).
  nf(X, Y) -> int(X), int(Y).
  nf(X, Y) <- big(X, Y), !f[X] = _.
  bk(Y, B, W) -> int(Y), int(B), int(W).
  bk(Y, B, W) <- big(X, Y), sha1_bucket(Y, 4, B), tag(B, W).
  cnt[X] = N -> int(X), int(N).
  cnt[X] = N <- agg<< N = count() >> big(X, _y).
)";

std::vector<FactUpdate> RebindFacts() {
  std::vector<FactUpdate> facts;
  for (int x = 0; x < 40; ++x) {
    for (int j = 0; j < 3; ++j) {
      facts.push_back({"big", {Value::Int(x), Value::Int(3 * x + j)}});
    }
    if (x % 3 == 0) facts.push_back({"f", {Value::Int(x), Value::Int(7 * x)}});
    facts.push_back({"link", {Value::Int(x), Value::Int((x * 5) % 40)}});
    if (x % 4 == 0) facts.push_back({"blocked", {Value::Int(x)}});
  }
  for (int z = 0; z < 90; ++z) {
    if (z % 3 == 0) continue;
    facts.push_back({"tag", {Value::Int(z), Value::Int(z % 5)}});
  }
  return facts;
}

/// Every head tuple (an aggregate's key columns plus its input) one
/// enumeration of `steps` instantiates, rendered, as a multiset.
std::multiset<std::string> HeadTuples(Workspace* ws, const CompiledRule& rule,
                                      const std::vector<Step>& steps,
                                      const std::vector<OccView>* views) {
  EvalContext ctx{&ws->catalog()};
  Executor executor(&ctx, ws);
  std::multiset<std::string> out;
  auto arg = [](const ArgPat& p, const Env& e) {
    return p.kind == ArgPat::Kind::kConst ? p.constant : *e[p.slot];
  };
  Env env(rule.num_slots);
  Status st = executor.Run(steps, &env, views, [&](Env& e) -> Status {
    if (rule.agg.has_value()) {
      Tuple t;
      for (const ArgPat& p : rule.agg->key_args) t.push_back(arg(p, e));
      if (rule.agg->input_slot >= 0) t.push_back(*e[rule.agg->input_slot]);
      out.insert(TupleToString(t, ws->catalog()));
    }
    for (const CompiledHead& head : rule.heads) {
      Tuple t;
      for (const ArgPat& p : head.args) t.push_back(arg(p, e));
      out.insert(ws->catalog().decl(head.pred).name +
                 TupleToString(t, ws->catalog()));
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(PlannerTest, PlansEnumerateWrittenOrderBindings) {
  Workspace ws;
  Install(&ws, kRebindProgram);
  ASSERT_TRUE(ws.Apply(RebindFacts()).ok());
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  bool forced_lookup = false, downgraded_assign = false, same_arg = false;
  bool negation = false, builtin = false;
  auto note = [&](const CompiledRule& rule, const VariantPlan& plan) {
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const Step& s = plan.steps[i];
      const Step::Kind src = rule.steps[plan.source_index[i]].kind;
      forced_lookup |=
          src == Step::Kind::kLookup && s.kind == Step::Kind::kScan;
      downgraded_assign |=
          src == Step::Kind::kAssign && s.kind == Step::Kind::kCompare;
      for (const ArgPat& p : s.args) same_arg |= p.kind == ArgPat::Kind::kSame;
      negation |= s.kind == Step::Kind::kNegCheck;
      builtin |= s.kind == Step::Kind::kBuiltin;
    }
  };
  ASSERT_EQ(ws.compiled_rules().size(), 7u);
  for (const CompiledRule& rule : ws.compiled_rules()) {
    const std::string name = rule.source.ToString();
    const VariantPlan& full = PlanOf(&planner, rule, ExecPlanner::kFullBody);
    note(rule, full);
    const auto want = HeadTuples(&ws, rule, rule.steps, nullptr);
    EXPECT_FALSE(want.empty()) << name;
    EXPECT_EQ(HeadTuples(&ws, rule, full.steps, nullptr), want)
        << "full body of " << name;
    for (int occ = 0; occ < rule.num_scan_occurrences; ++occ) {
      // Every other row of the occurrence's relation, in value order so
      // the slice is the same at every shard count: a semi-naïve delta.
      const Relation* rel = ws.GetRelationIfExists(rule.scan_preds[occ]);
      ASSERT_NE(rel, nullptr) << name;
      std::vector<Tuple> rows = rel->AllTuples();
      std::sort(rows.begin(), rows.end());
      std::vector<Tuple> slice;
      for (size_t i = 0; i < rows.size(); i += 2) slice.push_back(rows[i]);
      std::vector<OccView> views(rule.num_scan_occurrences);
      views[occ].only = &slice;
      const VariantPlan& plan = PlanOf(&planner, rule, occ);
      note(rule, plan);
      const auto written = HeadTuples(&ws, rule, rule.steps, &views);
      EXPECT_FALSE(written.empty()) << name << " occ " << occ;
      EXPECT_EQ(HeadTuples(&ws, rule, plan.steps, &views), written)
          << "variant " << occ << " of " << name;
    }
  }
  EXPECT_TRUE(forced_lookup) << "no plan forced a functional lookup to a scan";
  EXPECT_TRUE(downgraded_assign) << "no plan turned an assignment into =";
  EXPECT_TRUE(same_arg) << "no plan carried a repeated-variable column";
  EXPECT_TRUE(negation);
  EXPECT_TRUE(builtin);
}

// ---------------------------------------------------------------------------
// Equivalence: SB_SIMD={0,1} x SB_THREADS={1,4} x SB_SHARDS={1,7}.
// ---------------------------------------------------------------------------

// fig08-flavoured convergence plus deletion churn — recursion, a lattice
// aggregate recomputing, counting deletes and group-local DRed all run
// through the planner's reordered bodies at every knob combination.
const char* kConvergenceProgram = R"(
  node(X) -> .
  link(X, Y) -> node(X), node(Y).
  reachable(X, Y) -> node(X), node(Y).
  reachable(X, Y) <- link(X, Y).
  reachable(X, Y) <- link(X, Z), reachable(Z, Y).
  cost(X, Y) -> node(X), node(Y).
  cost(X, Y) <- link(X, Y).
  dist[X] = D -> node(X), int(D).
  dist[X] = D <- agg<< D = count() >> reachable(X, _anon).
)";

std::vector<FactUpdate> ConvergenceLinks(int nodes, int degree) {
  uint64_t seed = 0x5eedULL;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  std::vector<FactUpdate> links;
  for (int i = 0; i < nodes; ++i) {
    links.push_back({"link", {Value::Str(Label(i)),
                              Value::Str(Label(static_cast<int>(
                                  (i + 1) % nodes)))}});
    for (int d = 0; d < degree; ++d) {
      links.push_back({"link", {Value::Str(Label(i)),
                                Value::Str(Label(static_cast<int>(
                                    next() % nodes)))}});
    }
  }
  return links;
}

TEST(PlannerTest, FixpointMatrixEquivalence) {
  struct Run {
    std::vector<Snapshot> trace;
    std::vector<std::vector<uint64_t>> counters;
  };
  auto run = [&](int threads, size_t shards, int simd) {
    Run out;
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    ws.fixpoint_options().simd = simd;
    Install(&ws, kConvergenceProgram);
    auto seeded = ws.Apply(ConvergenceLinks(40, 2));
    EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
    out.trace.push_back(Snap(ws));
    out.counters.push_back(SemanticCounters(seeded->fixpoint));
    // Deletion churn: counting path + group-local DRed for the recursive
    // group, aggregate recompute on top.
    for (int i = 0; i < 40; i += 7) {
      auto del = ws.Apply({}, {{"link", {Value::Str(Label(i)),
                                         Value::Str(Label((i + 1) % 40))}}});
      EXPECT_TRUE(del.ok()) << del.status().ToString();
      out.trace.push_back(Snap(ws));
      out.counters.push_back(SemanticCounters(del->fixpoint));
    }
    return out;
  };
  Run base = run(1, 1, /*simd=*/0);
  ASSERT_FALSE(base.trace.empty());
  ASSERT_FALSE(base.trace[0].empty());
  for (int simd : {0, 1}) {
    for (int threads : {1, 4}) {
      for (size_t shards : {size_t{1}, size_t{7}}) {
        if (simd == 0 && threads == 1 && shards == 1) continue;
        Run other = run(threads, shards, simd);
        ASSERT_EQ(base.trace.size(), other.trace.size());
        for (size_t step = 0; step < base.trace.size(); ++step) {
          EXPECT_EQ(base.trace[step], other.trace[step])
              << "fixpoint diverged at step " << step
              << " threads=" << threads << " shards=" << shards
              << " simd=" << simd;
          EXPECT_EQ(base.counters[step], other.counters[step])
              << "semantic counters diverged at step " << step
              << " threads=" << threads << " shards=" << shards
              << " simd=" << simd;
        }
      }
    }
  }
}

// Plan building itself is deterministic: identical transaction streams
// build the same number of plans at every thread x shard combination.
TEST(PlannerTest, PlanBuildCountsThreadAndShardInvariant) {
  auto run = [&](int threads, size_t shards) {
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    Install(&ws, kConvergenceProgram);
    auto commit = ws.Apply(ConvergenceLinks(40, 2));
    EXPECT_TRUE(commit.ok()) << commit.status().ToString();
    return ws.stats().plan_builds;
  };
  const uint64_t base = run(1, 1);
  EXPECT_GT(base, 0u);
  EXPECT_EQ(base, run(4, 1));
  EXPECT_EQ(base, run(1, 7));
  EXPECT_EQ(base, run(4, 7));
}

// ---------------------------------------------------------------------------
// Cache-friendliness: no per-call allocation in steady state.
// ---------------------------------------------------------------------------

TEST(PlannerTest, SteadyStateEvaluationAllocatesNoFrames) {
  // The index-probe and batch-scan paths (selection-vector kernels) must
  // reuse pooled frames in steady state.
  Workspace ws;
  ws.fixpoint_options().threads = 1;
  Install(&ws, R"(
    e(X, Y) -> string(X), string(Y).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
  )");
  std::vector<FactUpdate> edges;
  for (int i = 0; i < 10; ++i) {
    edges.push_back({"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}});
  }
  ASSERT_TRUE(ws.Apply(edges).ok());
  FactUpdate churn{"e", {Value::Str(Label(3)), Value::Str(Label(8))}};
  // Warm-up: the first insert/delete pair reaches this workload's maximum
  // body depth and fills the thread-local frame pool.
  ASSERT_TRUE(ws.Apply({churn}).ok());
  ASSERT_TRUE(ws.Apply({}, {churn}).ok());
  const uint64_t warm = EvalFrameAllocs();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ws.Apply({churn}).ok());
    ASSERT_TRUE(ws.Apply({}, {churn}).ok());
  }
  EXPECT_EQ(EvalFrameAllocs(), warm)
      << "evaluation frames allocated in steady state";
  EXPECT_EQ(ws.stats().eval_frame_allocs, EvalFrameAllocs());
}

// ---------------------------------------------------------------------------
// SB_EXPLAIN dump and environment knobs.
// ---------------------------------------------------------------------------

TEST(PlannerTest, ExplainDescribesChosenPlan) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  std::vector<FactUpdate> facts;
  for (int i = 0; i < 50; ++i) {
    facts.push_back({"big", {Value::Int(i), Value::Int(i + 100)}});
  }
  facts.push_back({"filt", {Value::Int(7)}});
  ASSERT_TRUE(ws.Apply(facts).ok());
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  const std::string dump = planner.Explain(
      *rule, ExecPlanner::kFullBody,
      PlanOf(&planner, *rule, ExecPlanner::kFullBody));
  EXPECT_NE(dump.find("[plan] rule#"), std::string::npos);
  EXPECT_NE(dump.find("variant=full"), std::string::npos);
  EXPECT_NE(dump.find("scan filt"), std::string::npos);
  EXPECT_NE(dump.find("scan big"), std::string::npos);
  EXPECT_NE(dump.find("probe="), std::string::npos);
  EXPECT_NE(dump.find("est="), std::string::npos);
  // The header names the resolved kernel level for this process.
  EXPECT_NE(dump.find(std::string("simd=") +
                      SimdModeName(ResolveSimdMode(
                          ws.fixpoint_options().simd))),
            std::string::npos)
      << dump;
  // Estimate provenance: big's single-column probe estimate comes straight
  // from the dictionary's live distinct count; the unkeyed filt scan falls
  // back to relation size.
  EXPECT_NE(dump.find("via=dict"), std::string::npos) << dump;
  EXPECT_NE(dump.find("via=size"), std::string::npos) << dump;
  EXPECT_NE(dump.find("distinct=50"), std::string::npos) << dump;
  const std::string delta_dump =
      planner.Explain(*rule, 0, PlanOf(&planner, *rule, 0));
  EXPECT_NE(delta_dump.find("variant=d0"), std::string::npos);
  EXPECT_NE(delta_dump.find("est=delta"), std::string::npos);

  // A probe binding two columns has no single dictionary to answer from:
  // its estimate comes from the hashed-mask statistic instead.
  Workspace pair_ws;
  Install(&pair_ws, R"(
    big3(X, Y, Z) -> int(X), int(Y), int(Z).
    pairs(X, Y) -> int(X), int(Y).
    hit3(Z) -> int(Z).
    hit3(Z) <- big3(X, Y, Z), pairs(X, Y).
  )");
  std::vector<FactUpdate> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({"big3", {Value::Int(i), Value::Int(i % 5),
                             Value::Int(i + 100)}});
  }
  rows.push_back({"pairs", {Value::Int(7), Value::Int(2)}});
  ASSERT_TRUE(pair_ws.Apply(rows).ok());
  const CompiledRule* pair_rule = nullptr;
  for (const CompiledRule& r : pair_ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) pair_rule = &r;
  }
  ASSERT_NE(pair_rule, nullptr);
  ExecPlanner pair_planner(&pair_ws.catalog(), &pair_ws,
                           &pair_ws.fixpoint_options());
  const std::string pair_dump = pair_planner.Explain(
      *pair_rule, ExecPlanner::kFullBody,
      PlanOf(&pair_planner, *pair_rule, ExecPlanner::kFullBody));
  EXPECT_NE(pair_dump.find("scan big3"), std::string::npos) << pair_dump;
  EXPECT_NE(pair_dump.find("via=stat"), std::string::npos) << pair_dump;
  EXPECT_NE(pair_dump.find("distinct=50"), std::string::npos) << pair_dump;
}

TEST(PlannerTest, EnvironmentKnobsParsed) {
  ASSERT_EQ(setenv("SB_EXPLAIN", "1", 1), 0);
  ASSERT_EQ(setenv("SB_SIMD", "0", 1), 0);
  {
    Workspace ws;
    EXPECT_TRUE(ws.fixpoint_options().explain);
    EXPECT_EQ(ws.fixpoint_options().simd, 0);
  }
  ASSERT_EQ(setenv("SB_SIMD", "1", 1), 0);
  {
    Workspace ws;
    EXPECT_EQ(ws.fixpoint_options().simd, 1);
  }
  ASSERT_EQ(setenv("SB_SIMD", "auto", 1), 0);
  {
    Workspace ws;
    EXPECT_EQ(ws.fixpoint_options().simd, 2);
  }
  ASSERT_EQ(setenv("SB_SIMD", "7", 1), 0);
  ASSERT_EQ(unsetenv("SB_EXPLAIN"), 0);
  {
    Workspace ws;
    EXPECT_FALSE(ws.fixpoint_options().explain);
    EXPECT_EQ(ws.fixpoint_options().simd, 2)
        << "out-of-range keeps the auto default";
  }
  ASSERT_EQ(setenv("SB_SIMD", "garbage", 1), 0);
  {
    Workspace ws;
    EXPECT_EQ(ws.fixpoint_options().simd, 2) << "garbage keeps the default";
  }
  ASSERT_EQ(unsetenv("SB_SIMD"), 0);
}

}  // namespace
}  // namespace secureblox::engine
