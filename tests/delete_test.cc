// Counting-based incremental deletion: support counts keep tuples with
// alternative derivations alive, negation flips are counted too, recursive
// groups fall back to group-local DRed, aggregate outputs retract with
// their inputs, and failed deletes roll back exactly — including
// functional key slots and every row's support count and base flag. A
// differential test checks every relation, support count and base flag of
// random programs with negation against a workspace rebuilt from the
// surviving base facts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "datalog/parser.h"
#include "engine/workspace.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::Value;

void Install(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

std::set<std::string> QuerySet(Workspace& ws, const std::string& pred) {
  auto rows = ws.Query(pred);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<std::string> out;
  if (!rows.ok()) return out;
  for (const auto& t : rows.value()) {
    out.insert(TupleToString(t, ws.catalog()));
  }
  return out;
}

bool Contains(Workspace& ws, const std::string& pred,
              std::vector<Value> values) {
  auto r = ws.ContainsFact(pred, values);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && r.value();
}

TEST(CountingDeleteTest, AlternativeDerivationSurvives) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    b(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
    p(X) <- b(X).
  )");
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("b", {Value::Str("x")}).ok());
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));

  // Dropping one support must keep the tuple (count 2 -> 1), not erase it.
  auto del1 = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del1.ok()) << del1.status().ToString();
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_GE(del1->fixpoint.rescued, 1u);
  EXPECT_EQ(del1->fixpoint.deleted, 0u);
  EXPECT_EQ(del1->fixpoint.group_rederives, 0u);  // pure counting path

  // The last support goes: now the tuple cascades out.
  auto del2 = ws.Apply({}, {{"b", {Value::Str("x")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_GE(del2->fixpoint.deleted, 1u);
}

TEST(CountingDeleteTest, CascadesThroughStrata) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    p(X) -> string(X).
    q(X) -> string(X).
    p(X) <- a(X).
    q(X) <- p(X).
  )");
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  EXPECT_TRUE(Contains(ws, "q", {Value::Str("x")}));
  auto del = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_FALSE(Contains(ws, "q", {Value::Str("x")}));
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
}

TEST(CountingDeleteTest, MultiOccurrenceCountsAreExact) {
  // twohop joins link with itself: inserting both edges in one transaction
  // must count the (a,b),(b,c) instantiation exactly once — a double count
  // would leave twohop(a,c) alive after deleting link(a,b).
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    twohop(X, Y) -> node(X), node(Y).
    twohop(X, Y) <- link(X, Z), link(Z, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_FALSE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
}

TEST(CountingDeleteTest, DiamondSupportsCountBothPaths) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    twohop(X, Y) -> node(X), node(Y).
    twohop(X, Y) <- link(X, Z), link(Z, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("m1")}},
                          {"link", {Value::Str("m1"), Value::Str("c")}},
                          {"link", {Value::Str("a"), Value::Str("m2")}},
                          {"link", {Value::Str("m2"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  // Two distinct instantiations derive twohop(a,c): losing one leg keeps it.
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("m1")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
  auto del2 = ws.Apply({}, {{"link", {Value::Str("m2"), Value::Str("c")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
}

TEST(CountingDeleteTest, RecursiveGroupUsesGroupLocalDRed) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}},
                          {"link", {Value::Str("c"), Value::Str("d")}}});
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 6u);

  auto del = ws.Apply({}, {{"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 2u);  // a->b, c->d
  EXPECT_GE(del->fixpoint.group_rederives, 1u);
  // The over-deleted survivors were rederived, not newly derived: the
  // commit lists no reachable row as inserted.
  auto reachable = ws.catalog().Lookup("reachable");
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(del->inserted.count(reachable.value()), 0u);
}

TEST(CountingDeleteTest, DeleteRetractsAggregateAndDownstream) {
  // A retraction must flow through an aggregate recompute point: the stale
  // total — and anything derived from it — cannot survive.
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    total[X] = V -> string(X), int(V).
    big(X) -> string(X).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S).
    big(X) <- total[X] = V, V > 10.
  )");
  auto commit = ws.Apply({{"sale", {Value::Str("a"), Value::Int(8)}},
                          {"sale", {Value::Str("a"), Value::Int(7)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(15)}));
  EXPECT_TRUE(Contains(ws, "big", {Value::Str("a")}));

  auto del = ws.Apply({}, {{"sale", {Value::Str("a"), Value::Int(7)}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(8)}));
  EXPECT_FALSE(Contains(ws, "total", {Value::Str("a"), Value::Int(15)}));
  EXPECT_FALSE(Contains(ws, "big", {Value::Str("a")}));

  // Deleting the last input drops the group entirely.
  auto del2 = ws.Apply({}, {{"sale", {Value::Str("a"), Value::Int(8)}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_EQ(QuerySet(ws, "total").size(), 0u);
}

TEST(CountingDeleteTest, DeleteRecomputesLatticeShortestPath) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y, C) -> node(X), node(Y), int(C).
    cost(X, Y, C) -> node(X), node(Y), int(C).
    bestcost[X, Y] = C -> node(X), node(Y), int(C).
    cost(X, Y, C) <- link(X, Y, C).
    cost(X, Y, C1 + C2) <- bestcost[X, Z] = C1, link(Z, Y, C2).
    bestcost[X, Y] = C <- agg<< C = min(Cx) >> cost(X, Y, Cx).
  )");
  auto commit = ws.Apply({
      {"link", {Value::Str("a"), Value::Str("b"), Value::Int(1)}},
      {"link", {Value::Str("b"), Value::Str("c"), Value::Int(1)}},
      {"link", {Value::Str("a"), Value::Str("c"), Value::Int(5)}},
  });
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "bestcost",
                       {Value::Str("a"), Value::Str("c"), Value::Int(2)}));

  // Retracting the cheap leg must re-route a->c through the direct link —
  // a monotone lattice cannot do this incrementally, so the group
  // rederives locally.
  auto del = ws.Apply(
      {}, {{"link", {Value::Str("a"), Value::Str("b"), Value::Int(1)}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "bestcost",
                       {Value::Str("a"), Value::Str("c"), Value::Int(5)}));
  EXPECT_FALSE(Contains(ws, "bestcost",
                        {Value::Str("a"), Value::Str("b"), Value::Int(1)}));
  EXPECT_GE(del->fixpoint.group_rederives, 1u);
}

TEST(CountingDeleteTest, NegationFlipRecomputesAggregate) {
  // A negated atom inside an aggregate body is invisible to the
  // scan-predicate delta index; the flip queue alone must force the
  // recompute, in both directions.
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    excluded(X) -> string(X).
    total[X] = V -> string(X), int(V).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S), !excluded(X).
  )");
  auto commit = ws.Apply({{"sale", {Value::Str("a"), Value::Int(5)}},
                          {"sale", {Value::Str("b"), Value::Int(7)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(QuerySet(ws, "total").size(), 2u);

  ASSERT_TRUE(ws.Insert("excluded", {Value::Str("a")}).ok());
  EXPECT_EQ(QuerySet(ws, "total").size(), 1u);
  EXPECT_FALSE(Contains(ws, "total", {Value::Str("a"), Value::Int(5)}));

  auto del = ws.Apply({}, {{"excluded", {Value::Str("a")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(5)}));
}

TEST(CountingDeleteTest, NegationFlipsOnDeleteAndInsert) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    unlinked(X, Y) -> node(X), node(Y).
    unlinked(X, Y) <- node(X), node(Y), !link(X, Y), X != Y.
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 4u);

  // Insert into the negated predicate: unlinked(a,c) must retract.
  auto ins = ws.Apply({{"link", {Value::Str("a"), Value::Str("c")}}});
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_FALSE(Contains(ws, "unlinked", {Value::Str("a"), Value::Str("c")}));
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 3u);
  EXPECT_EQ(ins->fixpoint.group_rederives, 0u);  // counted, not rederived
  EXPECT_EQ(ins->fixpoint.retractions, 1u);

  // Delete from the negated predicate: unlinked(a,b) must appear.
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "unlinked", {Value::Str("a"), Value::Str("b")}));
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 4u);
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
}

TEST(CountingDeleteTest, BaseFactWithDerivedSupportSurvivesBaseDelete) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
  )");
  // p("x") asserted as base AND derived from a("x").
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("p", {Value::Str("x")}).ok());
  // Deleting the base assertion keeps the derived support.
  auto del = ws.Apply({}, {{"p", {Value::Str("x")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));
  // Now the derivation goes too.
  auto del2 = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
}

TEST(CountingDeleteTest, RollbackAfterFailedDelete) {
  Workspace ws;
  Install(&ws, R"(
    item(X) -> string(X).
    approved(X) -> string(X).
    item(X) -> approved(X).
  )");
  ASSERT_TRUE(ws.Insert("approved", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("item", {Value::Str("x")}).ok());

  // Deleting the approval while the item remains violates the constraint;
  // the whole transaction — including the delete — must roll back.
  auto del = ws.Apply({}, {{"approved", {Value::Str("x")}}});
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(Contains(ws, "approved", {Value::Str("x")}));
  EXPECT_TRUE(Contains(ws, "item", {Value::Str("x")}));
  EXPECT_GE(ws.stats().aborts, 1u);

  // The workspace stays fully usable: delete both in one transaction.
  auto ok = ws.Apply({}, {{"item", {Value::Str("x")}},
                          {"approved", {Value::Str("x")}}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(Contains(ws, "item", {Value::Str("x")}));
}

TEST(CountingDeleteTest, RollbackRestoresReoccupiedFunctionalSlot) {
  Workspace ws;
  Install(&ws, R"(
    owner[X] = Y -> string(X), string(Y).
    ok(Y) -> string(Y).
    owner[X] = Y -> ok(Y).
  )");
  ASSERT_TRUE(ws.Insert("ok", {Value::Str("ann")}).ok());
  ASSERT_TRUE(
      ws.Insert("owner", {Value::Str("book"), Value::Str("ann")}).ok());

  // One transaction frees the key slot and reoccupies it with a value that
  // violates the constraint: rollback must restore owner[book] = ann, not
  // silently drop it because the slot was taken.
  auto swap = ws.Apply({{"owner", {Value::Str("book"), Value::Str("bob")}}},
                       {{"owner", {Value::Str("book"), Value::Str("ann")}}});
  EXPECT_FALSE(swap.ok());
  EXPECT_EQ(swap.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(Contains(ws, "owner", {Value::Str("book"), Value::Str("ann")}));
  EXPECT_FALSE(Contains(ws, "owner", {Value::Str("book"), Value::Str("bob")}));

  // Counts survived the rollback: deleting the restored fact still works.
  auto del = ws.Apply({}, {{"owner", {Value::Str("book"),
                                      Value::Str("ann")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "owner").size(), 0u);
}

TEST(CountingDeleteTest, DeleteWorkIsProportionalToAffectedTuples) {
  // Large non-recursive database: deleting one base fact must not replay
  // the whole database (the old engine over-deleted and rederived all of
  // it; firings would scale with N).
  Workspace ws;
  Install(&ws, R"(
    pair(X, Y) -> string(X), string(Y).
    left(X) -> string(X).
    left(X) <- pair(X, Y).
  )");
  std::vector<FactUpdate> inserts;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    inserts.push_back({"pair",
                       {Value::Str("k" + std::to_string(i)),
                        Value::Str("v" + std::to_string(i))}});
  }
  ASSERT_TRUE(ws.Apply(inserts).ok());
  ASSERT_EQ(QuerySet(ws, "left").size(), static_cast<size_t>(n));

  auto del = ws.Apply({}, {{"pair", {Value::Str("k7"), Value::Str("v7")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "left").size(), static_cast<size_t>(n - 1));
  // One retraction variant fired, one support dropped, one tuple deleted —
  // and nothing was reseeded.
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.retractions, 1u);
  EXPECT_EQ(del->fixpoint.deleted, 1u);
  EXPECT_LE(del->fixpoint.rule_firings + del->fixpoint.retract_firings, 4u);
}

TEST(CountingDeleteTest, GroupLocalDRedDoesNotReseedUnrelatedPredicates) {
  // A recursive group forces DRed, but rederivation must stay inside the
  // group's own inputs — the big unrelated predicate family is untouched.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
    pair(X, Y) -> string(X), string(Y).
    left(X) -> string(X).
    left(X) <- pair(X, Y).
  )");
  std::vector<FactUpdate> inserts;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    inserts.push_back({"pair",
                       {Value::Str("k" + std::to_string(i)),
                        Value::Str("v" + std::to_string(i))}});
  }
  inserts.push_back({"link", {Value::Str("a"), Value::Str("b")}});
  inserts.push_back({"link", {Value::Str("b"), Value::Str("c")}});
  ASSERT_TRUE(ws.Apply(inserts).ok());

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 1u);  // b->c
  EXPECT_GE(del->fixpoint.group_rederives, 1u);
  // The reseed covers the reachable group's inputs (links + entity
  // membership), not the 400 unrelated pairs.
  EXPECT_LT(del->fixpoint.rederive_seeded, 50u);
}

// -- negation flips on the counting path -----------------------------------

/// Row (rendered) -> its derivation-support count, suffixed "+base" when
/// the row is also asserted as a base fact, per predicate.
using SupportMap = std::map<std::string, std::map<std::string, std::string>>;

SupportMap Supports(Workspace& ws, const std::vector<std::string>& preds) {
  SupportMap out;
  for (const std::string& name : preds) {
    auto id = ws.catalog().Lookup(name);
    EXPECT_TRUE(id.ok()) << name;
    if (!id.ok()) continue;
    Relation* rel = ws.GetRelation(id.value());
    auto& rows = out[name];
    for (const Tuple& t : rel->AllTuples()) {
      const RowState st = rel->state(*rel->Find(t));
      rows[TupleToString(t, ws.catalog())] =
          std::to_string(st.support) + (st.base ? "+base" : "");
    }
  }
  return out;
}

uint32_t SupportOf(Workspace& ws, const std::string& pred,
                   std::vector<Value> values) {
  auto id = ws.catalog().Lookup(pred);
  EXPECT_TRUE(id.ok()) << pred;
  if (!id.ok()) return 0;
  const Relation* rel = ws.GetRelation(id.value());
  const std::optional<RowRef> row = rel->Find(values);
  return row ? rel->state(*row).support : 0;
}

TEST(CountingDeleteTest, RollbackRestoresEveryRowState) {
  // One transaction moves every kind of row state — a base assertion on a
  // derived row, a base delete under derived support, support adds and
  // drops, a group-local DRed over-delete of a recursive group holding a
  // base row — and then violates a constraint. Rollback must restore
  // each row's support and base flag exactly.
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    b(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
    p(X) <- b(X).
    link(X, Y) -> string(X), string(Y).
    reach(X, Y) -> string(X), string(Y).
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- link(X, Z), reach(Z, Y).
    ok(X) -> string(X).
    trigger(X) -> string(X).
    trigger(X) -> ok(X).
  )");
  auto s = [](const char* v) { return Value::Str(v); };
  ASSERT_TRUE(ws.Apply({{"a", {s("x")}},
                        {"a", {s("y")}},
                        {"p", {s("y")}},
                        {"a", {s("z")}},
                        {"b", {s("z")}},
                        {"link", {s("u"), s("v")}},
                        {"link", {s("v"), s("w")}},
                        {"reach", {s("u"), s("w")}}})
                  .ok());
  const std::vector<std::string> preds = {"a", "b", "p", "link", "reach"};
  const SupportMap before = Supports(ws, preds);
  EXPECT_EQ(before.at("p").at("(\"x\")"), "1");
  EXPECT_EQ(before.at("p").at("(\"y\")"), "1+base");
  EXPECT_EQ(before.at("p").at("(\"z\")"), "2");
  EXPECT_EQ(before.at("reach").at("(\"u\", \"w\")"), "1+base");

  const std::vector<FactUpdate> ins = {
      {"p", {s("x")}},  // base assertion on a derived row
      {"b", {s("x")}},  // one more support for p(x)
      {"a", {s("q")}},  // a new derived row p(q)
  };
  const std::vector<FactUpdate> del = {
      {"p", {s("y")}},            // base delete; p(y) keeps its support
      {"a", {s("z")}},            // one support less for p(z)
      {"link", {s("v"), s("w")}}, // over-deletes reach, base row included
  };
  std::vector<FactUpdate> ins_bad = ins;
  ins_bad.push_back({"trigger", {s("t")}});  // no ok(t): violation
  auto failed = ws.Apply(ins_bad, del);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(Supports(ws, preds), before);

  // The same transaction without the violation commits, so the one above
  // really moved each of those rows before it rolled back.
  auto commit = ws.Apply(ins, del);
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_GE(commit->fixpoint.group_rederives, 1u);
  const SupportMap after = Supports(ws, preds);
  EXPECT_EQ(after.at("p").at("(\"x\")"), "2+base");
  EXPECT_EQ(after.at("p").at("(\"y\")"), "1");
  EXPECT_EQ(after.at("p").at("(\"z\")"), "1");
  EXPECT_EQ(after.at("p").at("(\"q\")"), "1");
  EXPECT_EQ(after.at("reach").at("(\"u\", \"w\")"), "0+base");
  EXPECT_EQ(after.at("reach").count("(\"v\", \"w\")"), 0u);
}

TEST(CountingDeleteTest, SupportOverflowFailsTheTransaction) {
  // A handoff row arrives at the largest support its state word holds;
  // one more derivation must abort the transaction, not wrap the count.
  Workspace ws;
  Install(&ws, "p(X) -> string(X).");
  auto op = [](RemoteDelta::Kind kind, uint32_t support) {
    return RemoteOp{kind, "p", {Value::Str("x")}, support, false};
  };
  EXPECT_FALSE(ws.Apply({}, {},
                        {op(RemoteDelta::Kind::kHandoff,
                            RowState::kMaxSupport + 1)})
                   .ok());
  ASSERT_TRUE(ws.Apply({}, {},
                       {op(RemoteDelta::Kind::kHandoff,
                           RowState::kMaxSupport)})
                  .ok());
  auto add = ws.Apply({}, {}, {op(RemoteDelta::Kind::kSupportAdd, 0)});
  EXPECT_FALSE(add.ok());
  EXPECT_EQ(SupportOf(ws, "p", {Value::Str("x")}), RowState::kMaxSupport);
  EXPECT_EQ(Supports(ws, {"p"}).at("p").at("(\"x\")"),
            std::to_string(RowState::kMaxSupport));
}

TEST(NegationCountingTest, WildcardDoubleFlipRetractsOnce) {
  // The path-vector loop check: two hops of one path arriving together
  // flip !hop(P, U, _) once, so ext(P, U) loses its one support once.
  Workspace ws;
  Install(&ws, R"(
    path(P) -> string(P).
    nb(U) -> string(U).
    hop(P, U, H) -> string(P), string(U), string(H).
    ext(P, U) -> string(P), string(U).
    ext(P, U) <- path(P), nb(U), !hop(P, U, _).
  )");
  ASSERT_TRUE(ws.Apply({{"path", {Value::Str("p")}},
                        {"nb", {Value::Str("u")}}}).ok());
  EXPECT_EQ(SupportOf(ws, "ext", {Value::Str("p"), Value::Str("u")}), 1u);

  auto both = ws.Apply(
      {{"hop", {Value::Str("p"), Value::Str("u"), Value::Str("a")}},
       {"hop", {Value::Str("p"), Value::Str("u"), Value::Str("b")}}});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_FALSE(Contains(ws, "ext", {Value::Str("p"), Value::Str("u")}));
  EXPECT_EQ(both->fixpoint.retractions, 1u);
  EXPECT_EQ(both->fixpoint.group_rederives, 0u);

  // One hop left: still blocked. Both gone: back with exactly one support.
  ASSERT_TRUE(ws.Apply({}, {{"hop", {Value::Str("p"), Value::Str("u"),
                                     Value::Str("a")}}}).ok());
  EXPECT_FALSE(Contains(ws, "ext", {Value::Str("p"), Value::Str("u")}));
  ASSERT_TRUE(ws.Apply({}, {{"hop", {Value::Str("p"), Value::Str("u"),
                                     Value::Str("b")}}}).ok());
  EXPECT_EQ(SupportOf(ws, "ext", {Value::Str("p"), Value::Str("u")}), 1u);
}

TEST(NegationCountingTest, ManyFlipsSpreadOverChunks) {
  // Hundreds of flipped keys: the variants are cut into several staged
  // chunks, which run on the worker pool when SB_THREADS > 1.
  Workspace ws;
  Install(&ws, R"(
    path(P) -> string(P).
    nb(U) -> string(U).
    hop(P, U, H) -> string(P), string(U), string(H).
    ext(P, U) -> string(P), string(U).
    ext(P, U) <- path(P), nb(U), !hop(P, U, _).
  )");
  const int n = 300;
  std::vector<FactUpdate> base = {{"nb", {Value::Str("u")}},
                                  {"nb", {Value::Str("v")}}};
  std::vector<FactUpdate> hops;
  for (int i = 0; i < n; ++i) {
    const Value p = Value::Str("p" + std::to_string(i));
    base.push_back({"path", {p}});
    hops.push_back({"hop", {p, Value::Str("u"), Value::Str("h")}});
  }
  ASSERT_TRUE(ws.Apply(base).ok());
  EXPECT_EQ(QuerySet(ws, "ext").size(), 2u * n);

  auto on = ws.Apply(hops);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(QuerySet(ws, "ext").size(), static_cast<size_t>(n));
  EXPECT_EQ(on->fixpoint.retractions, static_cast<uint64_t>(n));
  EXPECT_GT(on->fixpoint.parallel_tasks, 1u);

  hops.resize(n / 2);
  auto off = ws.Apply({}, hops);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(QuerySet(ws, "ext").size(), static_cast<size_t>(n + n / 2));
  EXPECT_EQ(off->fixpoint.group_rederives, 0u);
}

TEST(NegationCountingTest, NegAddAndPositiveDelOfOneInstantiation) {
  // The same instantiation loses its positive literal and its negation in
  // one transaction: it is destroyed once, not twice.
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    b(X) -> string(X).
    n(X) -> string(X).
    r(X) -> string(X).
    r(X) <- a(X), !n(X).
    r(X) <- b(X).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x")}},
                        {"b", {Value::Str("x")}}}).ok());
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 2u);

  auto tx = ws.Apply({{"n", {Value::Str("x")}}}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 1u);
  EXPECT_EQ(tx->fixpoint.retractions, 1u);
  EXPECT_EQ(tx->fixpoint.group_rederives, 0u);
}

TEST(NegationCountingTest, NegAddAndDeleteInOneTransaction) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    n(X, V) -> string(X), string(V).
    r(X) -> string(X).
    r(X) <- a(X), !n(X, _).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x")}}, {"a", {Value::Str("y")}},
                        {"n", {Value::Str("y"), Value::Str("1")}},
                        {"n", {Value::Str("z"), Value::Str("1")}}})
                  .ok());
  EXPECT_EQ(QuerySet(ws, "r"), std::set<std::string>{"(\"x\")"});

  // x flips on, y flips off, z swaps its only row for another: no flip.
  auto tx = ws.Apply({{"n", {Value::Str("x"), Value::Str("1")}},
                      {"n", {Value::Str("z"), Value::Str("2")}}},
                     {{"n", {Value::Str("y"), Value::Str("1")}},
                      {"n", {Value::Str("z"), Value::Str("1")}}});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  EXPECT_EQ(QuerySet(ws, "r"), std::set<std::string>{"(\"y\")"});
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("y")}), 1u);
  EXPECT_EQ(tx->fixpoint.retractions, 1u);
  EXPECT_EQ(tx->fixpoint.group_rederives, 0u);
}

TEST(NegationCountingTest, OffFlipEnablesInstantiation) {
  Workspace ws;
  Install(&ws, R"(
    a(X, Y) -> string(X), string(Y).
    n(X) -> string(X).
    r(X) -> string(X).
    r(X) <- a(X, Y), !n(Y).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x"), Value::Str("1")}},
                        {"a", {Value::Str("x"), Value::Str("2")}},
                        {"n", {Value::Str("1")}},
                        {"n", {Value::Str("2")}}})
                  .ok());
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x")}));

  auto one = ws.Apply({}, {{"n", {Value::Str("1")}}});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 1u);
  EXPECT_EQ(one->fixpoint.group_rederives, 0u);
  auto two = ws.Apply({}, {{"n", {Value::Str("2")}}});
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 2u);
}

TEST(NegationCountingTest, NegatedVariableBoundByAssignment) {
  // The flip variant binds Y from the key first, so the assignment that
  // bound it in written order becomes an equality filter.
  Workspace ws;
  Install(&ws, R"(
    a(X) -> int(X).
    n(X) -> int(X).
    r(X) -> int(X).
    r(X) <- a(X), Y = X + 1, !n(Y).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Int(1)}}, {"a", {Value::Int(5)}}}).ok());
  EXPECT_EQ(QuerySet(ws, "r").size(), 2u);
  auto on = ws.Apply({{"n", {Value::Int(2)}}});
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_FALSE(Contains(ws, "r", {Value::Int(1)}));
  EXPECT_TRUE(Contains(ws, "r", {Value::Int(5)}));
  EXPECT_EQ(on->fixpoint.group_rederives, 0u);
  auto off = ws.Apply({}, {{"n", {Value::Int(2)}}});
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(SupportOf(ws, "r", {Value::Int(1)}), 1u);
}

TEST(NegationCountingTest, TwoNegatedLiteralsFlipTogether) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    n(X) -> string(X).
    m(X) -> string(X).
    r(X) -> string(X).
    r(X) <- a(X), !n(X), !m(X).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x")}}}).ok());
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 1u);

  // Both literals flip on: one instantiation, retracted once.
  auto on = ws.Apply({{"n", {Value::Str("x")}}, {"m", {Value::Str("x")}}});
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x")}));
  EXPECT_EQ(on->fixpoint.retractions, 1u);

  // One flips off while the other stays on: still blocked.
  ASSERT_TRUE(ws.Apply({}, {{"n", {Value::Str("x")}}}).ok());
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x")}));
  // Swap which one blocks: still blocked, no underflow.
  auto swap = ws.Apply({{"n", {Value::Str("x")}}}, {{"m", {Value::Str("x")}}});
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x")}));

  // Re-block with both, then both flip off together: one support.
  ASSERT_TRUE(ws.Apply({{"m", {Value::Str("x")}}}).ok());
  auto off = ws.Apply({}, {{"n", {Value::Str("x")}}, {"m", {Value::Str("x")}}});
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x")}), 1u);
  EXPECT_EQ(off->fixpoint.group_rederives, 0u);
}

TEST(NegationCountingTest, RollbackAfterNegationRetractionRestoresSupports) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    c(X) -> string(X).
    blk(X) -> string(X).
    bad(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X), !blk(X).
    p(X) <- c(X).
    bad(X) -> p(X).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x")}}, {"c", {Value::Str("x")}},
                        {"bad", {Value::Str("x")}}})
                  .ok());
  EXPECT_EQ(SupportOf(ws, "p", {Value::Str("x")}), 2u);

  // The flip drops one support, the delete the other: p(x) goes, bad(x)
  // is left without it, and the whole transaction rolls back.
  auto tx = ws.Apply({{"blk", {Value::Str("x")}}}, {{"c", {Value::Str("x")}}});
  EXPECT_FALSE(tx.ok());
  EXPECT_EQ(tx.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(SupportOf(ws, "p", {Value::Str("x")}), 2u);
  EXPECT_FALSE(Contains(ws, "blk", {Value::Str("x")}));

  // The restored counts are exact: each support goes on its own.
  ASSERT_TRUE(ws.Apply({{"blk", {Value::Str("x")}}}).ok());
  EXPECT_EQ(SupportOf(ws, "p", {Value::Str("x")}), 1u);
  ASSERT_TRUE(ws.Apply({}, {{"bad", {Value::Str("x")}},
                            {"c", {Value::Str("x")}}}).ok());
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
}

// -- functional heads: a value that moves never holds both values --------

TEST(NegationCountingTest, FunctionalHeadFollowsNegationSwap) {
  // The negation swaps which row it blocks: f[x] moves from 2 to 3. The
  // old value's support drops before the new one's rises.
  Workspace ws;
  Install(&ws, R"(
    a(X, V) -> string(X), int(V).
    n(X, V) -> string(X), int(V).
    f[X] = V -> string(X), int(V).
    f[X] = V <- a(X, V), !n(X, V).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x"), Value::Int(2)}},
                        {"a", {Value::Str("x"), Value::Int(3)}},
                        {"n", {Value::Str("x"), Value::Int(3)}}})
                  .ok());
  EXPECT_TRUE(Contains(ws, "f", {Value::Str("x"), Value::Int(2)}));

  auto swap = ws.Apply({{"n", {Value::Str("x"), Value::Int(2)}}},
                       {{"n", {Value::Str("x"), Value::Int(3)}}});
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_EQ(QuerySet(ws, "f"), std::set<std::string>{"(\"x\", 3)"});
  EXPECT_EQ(SupportOf(ws, "f", {Value::Str("x"), Value::Int(3)}), 1u);
  EXPECT_EQ(swap->fixpoint.group_rederives, 0u);
}

TEST(NegationCountingTest, UnblockedRowDeletedInSameTransaction) {
  // a(x, 1) is blocked by n(x); both go in one transaction. The row the
  // negation would have unblocked is gone, so f[x] keeps the other rule's
  // value and never holds 1, even for a moment.
  Workspace ws;
  Install(&ws, R"(
    a(X, V) -> string(X), int(V).
    b(X, V) -> string(X), int(V).
    n(X) -> string(X).
    f[X] = V -> string(X), int(V).
    f[X] = V <- b(X, V).
    f[X] = V <- a(X, V), !n(X).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x"), Value::Int(1)}},
                        {"b", {Value::Str("x"), Value::Int(2)}},
                        {"n", {Value::Str("x")}}})
                  .ok());
  auto tx = ws.Apply({}, {{"a", {Value::Str("x"), Value::Int(1)}},
                          {"n", {Value::Str("x")}}});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  EXPECT_EQ(QuerySet(ws, "f"), std::set<std::string>{"(\"x\", 2)"});
  EXPECT_EQ(SupportOf(ws, "f", {Value::Str("x"), Value::Int(2)}), 1u);
}

TEST(NegationCountingTest, FunctionalHeadMovesBetweenRules) {
  // f[x] moves from one rule's value to the other's in one transaction:
  // by a negation flip, and by a plain insert. Every support that falls
  // in a stratum falls before any rises, whichever rule's group the
  // topological order visits first — so both install orders commit.
  for (bool b_first : {true, false}) {
    SCOPED_TRACE(b_first ? "b rule first" : "a rule first");
    const std::string rule_a = "f[X] = V <- a(X, V), !n(X).\n";
    const std::string rule_b = "f[X] = V <- b(X, V).\n";
    Workspace ws;
    Install(&ws, std::string(R"(
      a(X, V) -> string(X), int(V).
      b(X, V) -> string(X), int(V).
      c(X, V) -> string(X), int(V).
      n(X) -> string(X).
      f[X] = V -> string(X), int(V).
      f[X] = V <- c(X, V).
    )") + (b_first ? rule_b + rule_a : rule_a + rule_b));
    ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x"), Value::Int(1)}},
                          {"b", {Value::Str("x"), Value::Int(2)}},
                          {"n", {Value::Str("x")}}})
                    .ok());

    // The negation flips off while the other rule's row goes.
    auto flip = ws.Apply({}, {{"b", {Value::Str("x"), Value::Int(2)}},
                              {"n", {Value::Str("x")}}});
    ASSERT_TRUE(flip.ok()) << flip.status().ToString();
    EXPECT_EQ(QuerySet(ws, "f"), std::set<std::string>{"(\"x\", 1)"});
    EXPECT_EQ(flip->fixpoint.group_rederives, 0u);

    // A plain insert into one rule while the other's row goes.
    auto move = ws.Apply({{"c", {Value::Str("x"), Value::Int(3)}}},
                         {{"a", {Value::Str("x"), Value::Int(1)}}});
    ASSERT_TRUE(move.ok()) << move.status().ToString();
    EXPECT_EQ(QuerySet(ws, "f"), std::set<std::string>{"(\"x\", 3)"});

    // A real conflict still fails, and rolls back.
    auto clash = ws.Apply({{"b", {Value::Str("x"), Value::Int(4)}}});
    EXPECT_EQ(clash.status().code(), StatusCode::kConstraintViolation);
    EXPECT_EQ(QuerySet(ws, "f"), std::set<std::string>{"(\"x\", 3)"});
  }
}

TEST(NegationCountingTest, RiseSupersededByClusterRederive) {
  // r has a counted rule with a negation and a recursive group. In one
  // transaction the negation flips off (the counted rule's support for
  // r(x, y) is due to rise) and a link goes (the recursive group rederives
  // every r row, the counted rule's included). The rederive recounts the
  // rise, so it must not be added again.
  Workspace ws;
  Install(&ws, R"(
    a(X, Y) -> string(X), string(Y).
    blk(X) -> string(X).
    link(X, Y) -> string(X), string(Y).
    r(X, Y) -> string(X), string(Y).
    r(X, Y) <- a(X, Y), !blk(X).
    r(X, Y) <- link(X, Y).
    r(X, Y) <- link(X, Z), r(Z, Y).
  )");
  ASSERT_TRUE(ws.Apply({{"a", {Value::Str("x"), Value::Str("y")}},
                        {"blk", {Value::Str("x")}},
                        {"link", {Value::Str("u"), Value::Str("v")}}})
                  .ok());
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x"), Value::Str("y")}));

  auto tx = ws.Apply({}, {{"blk", {Value::Str("x")}},
                          {"link", {Value::Str("u"), Value::Str("v")}}});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  EXPECT_GE(tx->fixpoint.group_rederives, 1u);
  EXPECT_EQ(QuerySet(ws, "r"), std::set<std::string>{"(\"x\", \"y\")"});
  EXPECT_EQ(SupportOf(ws, "r", {Value::Str("x"), Value::Str("y")}), 1u);

  // Exact: its one support goes with the negation's return.
  ASSERT_TRUE(ws.Apply({{"blk", {Value::Str("x")}}}).ok());
  EXPECT_FALSE(Contains(ws, "r", {Value::Str("x"), Value::Str("y")}));
}

/// A random stratified program: a recursive closure `tc` over b1, then
/// heads d0..d2, each from one or two non-recursive rules that join base
/// or lower predicates and carry one or two negated literals with
/// variables, wildcards and constants. d0 is functional (d0[X] = Y), so a
/// transaction can move its value from one row or rule to another.
std::string RandomNegationProgram(Xoshiro256& rng) {
  std::string src = R"(
    b1(X, Y) -> string(X), string(Y).
    b2(X, Y) -> string(X), string(Y).
    b3(X) -> string(X).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- b1(X, Y).
    tc(X, Y) <- b1(X, Z), tc(Z, Y).
    d0[X] = Y -> string(X), string(Y).
  )";
  std::vector<std::string> binary = {"b1", "b2", "tc"};
  auto pick = [&](const std::vector<std::string>& v) {
    return v[rng.Uniform(v.size())];
  };
  auto atom = [](const std::string& pred, const std::string& a,
                 const std::string& b) {
    return pred == "d0" ? pred + "[" + a + "] = " + b
                        : pred + "(" + a + ", " + b + ")";
  };
  for (int h = 0; h < 3; ++h) {
    const std::string head = "d" + std::to_string(h);
    if (h > 0) src += head + "(X, Y) -> string(X), string(Y).\n";
    const int rules = 1 + static_cast<int>(rng.Uniform(2));
    for (int r = 0; r < rules; ++r) {
      std::vector<std::string> vars = {"X", "Y"};
      std::string body;
      if (rng.Chance(0.5)) {
        body = atom(pick(binary), "X", "Z") + ", " + atom(pick(binary), "Z", "Y");
        vars.push_back("Z");
      } else {
        body = atom(pick(binary), "X", "Y");
      }
      auto arg = [&]() -> std::string {
        const uint64_t c = rng.Uniform(10);
        if (c < 2) return "_";
        if (c < 4) return "\"" + std::string(1, 'a' + rng.Uniform(3)) + "\"";
        return pick(vars);
      };
      const int negs = 1 + static_cast<int>(rng.Uniform(2));
      for (int k = 0; k < negs; ++k) {
        if (rng.Chance(0.25)) {
          body += ", !b3(" + arg() + ")";
        } else {
          const std::string a = arg();
          body += ", !" + atom(pick(binary), a, arg());
        }
      }
      src += atom(head, "X", "Y") + " <- " + body + ".\n";
    }
    binary.push_back(head);
  }
  return src;
}

TEST(NegationCountingTest, DifferentialAgainstFreshWorkspace) {
  const std::vector<std::string> preds = {"b1", "b2", "b3", "tc",
                                          "d0", "d1", "d2"};
  int committed = 0;
  int refused = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    const std::string src = RandomNegationProgram(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);
    Workspace ws;
    Install(&ws, src);

    // Base facts as (pred, values); the model the fresh workspace gets.
    using Fact = std::pair<std::string, std::vector<std::string>>;
    std::set<Fact> base;
    auto random_fact = [&]() -> Fact {
      const std::string pred = std::string("b") +
                               static_cast<char>('1' + rng.Uniform(3));
      std::vector<std::string> vals;
      for (int i = 0; i < (pred == "b3" ? 1 : 2); ++i) {
        vals.push_back(std::string(1, 'a' + rng.Uniform(3)));
      }
      return {pred, vals};
    };
    auto update = [](const Fact& f) {
      FactUpdate u{f.first, {}};
      for (const std::string& v : f.second) u.values.push_back(Value::Str(v));
      return u;
    };

    for (int round = 0; round < 12; ++round) {
      // Every transaction both inserts and deletes (once base facts
      // exist), so both sides of a negation move together.
      std::vector<FactUpdate> ins;
      std::vector<FactUpdate> del;
      std::set<Fact> added;
      std::set<Fact> removed;
      const int ops = 2 + static_cast<int>(rng.Uniform(5));
      for (int op = 0; op < ops; ++op) {
        const bool want_delete = op % 2 == 1 || rng.Chance(0.3);
        if (want_delete && !base.empty()) {
          auto it = base.begin();
          std::advance(it, rng.Uniform(base.size()));
          removed.insert(*it);
          del.push_back(update(*it));
        } else {
          Fact f = random_fact();
          added.insert(f);
          ins.push_back(update(f));
        }
      }
      const std::set<Fact> old_base = base;
      bool b1_deleted = false;
      for (const Fact& f : removed) {
        base.erase(f);
        b1_deleted |= f.first == "b1";
      }
      base.insert(added.begin(), added.end());  // deletes apply first

      const SupportMap before = Supports(ws, preds);
      auto commit = ws.Apply(ins, del);

      Workspace fresh;
      Install(&fresh, src);
      std::vector<FactUpdate> all;
      for (const Fact& f : base) all.push_back(update(f));
      Status rebuilt = fresh.Apply(all).status();
      if (!rebuilt.ok()) {
        // The new state gives some d0[X] two values: the transaction must
        // be refused and leave the old state exactly.
        ASSERT_EQ(rebuilt.code(), StatusCode::kConstraintViolation)
            << rebuilt.ToString();
        ASSERT_FALSE(commit.ok()) << "after round " << round;
        ASSERT_EQ(commit.status().code(), StatusCode::kConstraintViolation)
            << commit.status().ToString();
        ASSERT_EQ(Supports(ws, preds), before) << "after round " << round;
        base = old_base;
        ++refused;
        continue;
      }
      ASSERT_TRUE(commit.ok())
          << "after round " << round << ": " << commit.status().ToString();
      ++committed;
      // Only the recursive closure may rederive, and only on a b1 delete.
      if (!b1_deleted) {
        EXPECT_EQ(commit->fixpoint.group_rederives, 0u);
      }
      ASSERT_EQ(Supports(ws, preds), Supports(fresh, preds))
          << "after round " << round;
    }
  }
  // Both outcomes are exercised, and most transactions commit.
  EXPECT_GT(refused, 0);
  EXPECT_GT(committed, 2 * refused);
}

}  // namespace
}  // namespace secureblox::engine
