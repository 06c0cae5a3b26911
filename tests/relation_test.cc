// Relation storage: set semantics, functional dependencies, erasure,
// row states, secondary-index probing, and hash-partitioned shards
// (logical content and point lookups are shard-count invariant).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/relation.h"

namespace secureblox::engine {
namespace {

using datalog::PredicateDecl;
using datalog::Value;

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

// LookupByKeys materializes into caller-provided space; these tests just
// want the pointer.
const Tuple* Lookup(const Relation& r, const Tuple& keys) {
  static Tuple scratch;
  return r.LookupByKeys(keys, &scratch);
}

// The row state of `t`; {0, 0} when absent.
RowState StateOf(const Relation& r, const Tuple& t) {
  const std::optional<RowRef> row = r.Find(t);
  return row ? r.state(*row) : RowState{};
}

// Add one support to `t`; returns the new count (0 when `t` is absent).
uint32_t AddSupport(Relation& r, const Tuple& t) {
  const std::optional<RowRef> row = r.Find(t);
  if (!row) return 0;
  EXPECT_TRUE(r.AddSupport(*row).ok());
  return r.state(*row).support;
}

// Every row whose `mask` columns equal `key`, materialized, gathered over
// the shards the probe resolves to: the one owning shard when the mask
// covers the shard key, all shards in order otherwise.
std::vector<Tuple> ProbeRows(Relation& r, uint32_t mask, const Tuple& key) {
  std::vector<Tuple> out;
  const int only = r.ProbeShardOf(mask, key);
  const size_t begin = only >= 0 ? static_cast<size_t>(only) : 0;
  const size_t end = only >= 0 ? begin + 1 : r.shard_count();
  for (size_t sh = begin; sh < end; ++sh) {
    for (size_t slot : r.ProbeShard(sh, mask, key)) {
      out.push_back(r.MaterializeTuple(sh, slot));
    }
  }
  return out;
}

TEST(RelationTest, InsertAndDuplicate) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  EXPECT_EQ(r.Insert(T({1, 2})), InsertOutcome::kInserted);
  EXPECT_EQ(r.Insert(T({1, 2})), InsertOutcome::kDuplicate);
  EXPECT_EQ(r.Insert(T({1, 3})), InsertOutcome::kInserted);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({9, 9})));
}

TEST(RelationTest, FunctionalDependency) {
  PredicateDecl decl = MakeDecl(2, true);
  Relation r(&decl);
  EXPECT_EQ(r.Insert(T({1, 10})), InsertOutcome::kInserted);
  EXPECT_EQ(r.Insert(T({1, 10})), InsertOutcome::kDuplicate);
  EXPECT_EQ(r.Insert(T({1, 20})), InsertOutcome::kFdConflict);
  EXPECT_EQ(r.Insert(T({2, 20})), InsertOutcome::kInserted);
  const Tuple* found = Lookup(r, T({1}));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->back().AsInt(), 10);
  EXPECT_EQ(Lookup(r, T({3})), nullptr);
}

TEST(RelationTest, EraseMaintainsIndexes) {
  PredicateDecl decl = MakeDecl(2, true);
  Relation r(&decl);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i, i * 10}));
  EXPECT_TRUE(r.Erase(T({4, 40})));
  EXPECT_FALSE(r.Erase(T({4, 40})));
  EXPECT_EQ(r.size(), 9u);
  EXPECT_FALSE(r.Contains(T({4, 40})));
  EXPECT_EQ(Lookup(r, T({4})), nullptr);
  // The swap-removed last element is still reachable.
  EXPECT_TRUE(r.Contains(T({9, 90})));
  ASSERT_NE(Lookup(r, T({9})), nullptr);
  // Reinsert after erase works (FD slot freed).
  EXPECT_EQ(r.Insert(T({4, 44})), InsertOutcome::kInserted);
}

TEST(RelationTest, SecondaryIndexProbe) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl);
  for (int64_t i = 0; i < 100; ++i) r.Insert(T({i % 5, i, i % 3}));
  // Probe on column 0.
  const std::vector<Tuple> rows = ProbeRows(r, 0b001, T({2}));
  EXPECT_EQ(rows.size(), 20u);
  for (const Tuple& row : rows) EXPECT_EQ(row[0].AsInt(), 2);
  // Probe on columns 0 and 2.
  const std::vector<Tuple> rows2 = ProbeRows(r, 0b101, T({2, 1}));
  EXPECT_FALSE(rows2.empty());
  for (const Tuple& row : rows2) {
    EXPECT_EQ(row[0].AsInt(), 2);
    EXPECT_EQ(row[2].AsInt(), 1);
  }
  // Missing key: empty result.
  EXPECT_TRUE(ProbeRows(r, 0b001, T({77})).empty());
}

TEST(RelationTest, ProbeRebuildsAfterMutation) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  r.Insert(T({1, 1}));
  EXPECT_EQ(ProbeRows(r, 0b01, T({1})).size(), 1u);
  uint64_t v1 = r.version();
  r.Insert(T({1, 2}));
  EXPECT_GT(r.version(), v1);
  EXPECT_EQ(ProbeRows(r, 0b01, T({1})).size(), 2u);
  r.Erase(T({1, 1}));
  EXPECT_EQ(ProbeRows(r, 0b01, T({1})).size(), 1u);
}

TEST(RelationTest, ProbeStaysCorrectAcrossGrowthAndErasure) {
  // Grow-only growth appends to the secondary index; erasure (swap-remove
  // shifts row ids) forces a rebuild. Interleave both and re-verify.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i % 2, i}));
  EXPECT_EQ(ProbeRows(r, 0b01, T({0})).size(), 5u);
  // Grow after the index was built: the appended rows must be visible.
  for (int64_t i = 10; i < 20; ++i) r.Insert(T({i % 2, i}));
  EXPECT_EQ(ProbeRows(r, 0b01, T({0})).size(), 10u);
  // Erase invalidates row ids: results must still be exact.
  r.Erase(T({0, 0}));
  r.Erase(T({1, 19}));
  const std::vector<Tuple> rows = ProbeRows(r, 0b01, T({0}));
  EXPECT_EQ(rows.size(), 9u);
  for (const Tuple& row : rows) EXPECT_EQ(row[0].AsInt(), 0);
  // And grow again after the rebuild.
  r.Insert(T({0, 100}));
  EXPECT_EQ(ProbeRows(r, 0b01, T({0})).size(), 10u);
}

TEST(RelationTest, SupportCountsTrackTuples) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  EXPECT_FALSE(r.Find(T({1, 2})).has_value());  // absent
  RowRef row;
  ASSERT_EQ(r.Insert(T({1, 2}), &row), InsertOutcome::kInserted);
  EXPECT_EQ(r.state(row), RowState{});  // present, uncounted, not base
  EXPECT_EQ(AddSupport(r, T({1, 2})), 1u);
  EXPECT_EQ(AddSupport(r, T({1, 2})), 2u);
  EXPECT_EQ(AddSupport(r, T({9, 9})), 0u);  // absent: no-op
  r.set_state(row, {.support = 7, .base = 1});
  EXPECT_EQ(StateOf(r, T({1, 2})), (RowState{.support = 7, .base = 1}));
  // A duplicate insert reports the existing row and leaves its state.
  RowRef again;
  EXPECT_EQ(r.Insert(T({1, 2}), &again), InsertOutcome::kDuplicate);
  EXPECT_EQ(r.state(again), (RowState{.support = 7, .base = 1}));
  r.Erase(T({1, 2}));
  EXPECT_FALSE(r.Find(T({1, 2})).has_value());
  // A re-inserted row starts from a clear state.
  ASSERT_EQ(r.Insert(T({1, 2}), &row), InsertOutcome::kInserted);
  EXPECT_EQ(r.state(row), RowState{});
}

TEST(RelationTest, AddSupportFailsAtMaxWithoutTouchingBase) {
  // Support and base flag share one 32-bit word; a full support count
  // must not carry into the base bit.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  RowRef row;
  ASSERT_EQ(r.Insert(T({1, 2}), &row), InsertOutcome::kInserted);
  for (uint32_t base : {0u, 1u}) {
    const RowState full{.support = RowState::kMaxSupport, .base = base};
    r.set_state(row, {.support = RowState::kMaxSupport - 1, .base = base});
    ASSERT_TRUE(r.AddSupport(row).ok());
    EXPECT_EQ(r.state(row), full);
    EXPECT_FALSE(r.AddSupport(row).ok());
    EXPECT_EQ(r.state(row), full) << "base=" << base;
  }
}

TEST(RelationTest, SupportCountsSurviveSwapRemove) {
  // Erasing a middle row swap-removes the last one into its slot; the
  // moved row's support must move with it.
  // The base flag rides in the same word and moves with it too.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  auto want = [](int64_t i) {
    return RowState{.support = static_cast<uint32_t>(i + 1),
                    .base = static_cast<uint32_t>(i % 3 == 0)};
  };
  for (int64_t i = 0; i < 8; ++i) {
    RowRef row;
    r.Insert(T({i, i + 100}), &row);
    r.set_state(row, want(i));
  }
  r.Erase(T({2, 102}));
  r.Erase(T({5, 105}));
  for (int64_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      EXPECT_FALSE(r.Find(T({i, i + 100})).has_value());
    } else {
      EXPECT_EQ(StateOf(r, T({i, i + 100})), want(i)) << "i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded storage: logical content is shard-count invariant.
// ---------------------------------------------------------------------------

std::multiset<std::string> Contents(const Relation& r) {
  std::multiset<std::string> out;
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
      Tuple t = r.MaterializeTuple(sh, slot);
      std::string line;
      for (const Value& v : t) line += v.ToString() + ",";
      const RowState st = r.state({sh, slot});
      line += "#" + std::to_string(st.support) + (st.base ? "b" : "");
      out.insert(std::move(line));
    }
  }
  return out;
}

TEST(ShardedRelationTest, ContentIdenticalAcrossShardCounts) {
  PredicateDecl decl = MakeDecl(3, false);
  auto fill = [&](Relation* r) {
    for (int64_t i = 0; i < 200; ++i) {
      r->Insert(T({i % 11, i, i % 3}));
      if (i % 4 == 0) AddSupport(*r, T({i % 11, i, i % 3}));
    }
    for (int64_t i = 0; i < 200; i += 5) r->Erase(T({i % 11, i, i % 3}));
  };
  Relation base(&decl, 1);
  fill(&base);
  for (size_t shards : {size_t{4}, size_t{7}}) {
    Relation r(&decl, shards);
    EXPECT_EQ(r.shard_count(), shards);
    fill(&r);
    EXPECT_EQ(r.size(), base.size());
    EXPECT_EQ(Contents(r), Contents(base)) << "shards=" << shards;
    // Point lookups agree with the unsharded layout.
    for (int64_t i = 0; i < 200; ++i) {
      EXPECT_EQ(r.Contains(T({i % 11, i, i % 3})),
                base.Contains(T({i % 11, i, i % 3})));
    }
  }
}

TEST(ShardedRelationTest, BoundKeyProbeTouchesExactlyOneShard) {
  // Non-functional: the shard key is the first column, so a probe binding
  // column 0 resolves to one shard; probes missing it fan out.
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 100; ++i) r.Insert(T({i % 5, i, i % 3}));
  for (int64_t k = 0; k < 5; ++k) {
    int shard = r.ProbeShardOf(0b001, T({k}));
    ASSERT_GE(shard, 0);
    EXPECT_EQ(static_cast<size_t>(shard), r.ShardOf(T({k, 0, 0})));
    // All matches live in that one shard.
    const auto& rows = r.ProbeShard(static_cast<size_t>(shard), 0b001,
                                    T({k}));
    EXPECT_EQ(rows.size(), 20u);
    for (size_t slot : rows) {
      EXPECT_EQ(r.At(static_cast<size_t>(shard), slot, 0).AsInt(), k);
    }
  }
  // Column 1 alone does not cover the shard key: fan-out.
  EXPECT_EQ(r.ProbeShardOf(0b010, T({42})), -1);
  // A fanned-out probe gathers across shards.
  const std::vector<Tuple> rows = ProbeRows(r, 0b010, T({42}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 42);
}

TEST(ShardedRelationTest, FunctionalShardsByKeys) {
  PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
  Relation r(&decl, 7);
  for (int64_t i = 0; i < 60; ++i) r.Insert(T({i, i % 4, i * 10}));
  // LookupByKeys is a single-shard probe and agrees with Contains.
  for (int64_t i = 0; i < 60; ++i) {
    const Tuple* row = Lookup(r, T({i, i % 4}));
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->back().AsInt(), i * 10);
  }
  // FD conflicts are detected across the sharded layout.
  EXPECT_EQ(r.Insert(T({3, 3, 999})), InsertOutcome::kFdConflict);
  EXPECT_EQ(Lookup(r, T({3, 3}))->back().AsInt(), 30);
  EXPECT_EQ(r.size(), 60u);
}

TEST(ShardedRelationTest, EraseHeavyChurnPatchesPerShardIndexes) {
  // Swap-remove erasure must patch each shard's built buckets in place:
  // the build counter stays at the initial per-(shard, mask) builds no
  // matter how much churn the probes see.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 120; ++i) r.Insert(T({i % 6, i}));
  // A bound-key probe builds only its own shard's index lazily; warm all
  // shards (what the fixpoint's pre-parallel phase does) so the counter
  // below reflects the full initial build.
  EXPECT_EQ(ProbeRows(r, 0b01, T({0})).size(), 20u);
  EXPECT_GE(r.index_builds(), 1u);
  r.EnsureIndex(0b01);
  uint64_t builds = r.index_builds();
  EXPECT_EQ(builds, r.shard_count());
  for (int64_t i = 0; i < 60; ++i) r.Erase(T({i % 6, i}));
  for (int64_t k = 0; k < 6; ++k) {
    const std::vector<Tuple> rows = ProbeRows(r, 0b01, T({k}));
    EXPECT_EQ(rows.size(), 10u);
    for (const Tuple& row : rows) EXPECT_EQ(row[0].AsInt(), k);
  }
  // Reinsert into patched buckets (tail append, no rebuild).
  for (int64_t i = 0; i < 60; ++i) r.Insert(T({i % 6, i}));
  for (int64_t k = 0; k < 6; ++k) {
    EXPECT_EQ(ProbeRows(r, 0b01, T({k})).size(), 20u);
  }
  EXPECT_EQ(r.index_builds(), builds)
      << "erase churn forced a per-shard bucket rebuild";
}

TEST(ShardedRelationTest, ProbeShardReferenceSurvivesForeignIndexWork) {
  // The reference-stability contract (relation.h): a ProbeShard reference
  // stays valid across probes of other masks and other shards while the
  // version is unchanged. This mirrors how the executor nests probes
  // inside one enumeration.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 64; ++i) r.Insert(T({i % 4, i}));
  int shard = r.ProbeShardOf(0b01, T({1}));
  ASSERT_GE(shard, 0);
  const auto& rows = r.ProbeShard(static_cast<size_t>(shard), 0b01, T({1}));
  const size_t before = rows.size();
  ASSERT_GT(before, 0u);
  const size_t first = rows[0];
  // Foreign index work: a different mask (new index built on every
  // shard) and different keys on other shards.
  r.EnsureIndex(0b10);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    (void)r.ProbeShard(sh, 0b10, T({7}));
    (void)r.ProbeShard(sh, 0b01, T({2}));
  }
  EXPECT_EQ(rows.size(), before);
  EXPECT_EQ(rows[0], first);
  EXPECT_EQ(r.At(static_cast<size_t>(shard), rows[0], 0).AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Column storage: dictionary-encoded column segments must agree with an
// independent content model under churn, at every shard count.
// ---------------------------------------------------------------------------

Tuple Mixed(int64_t k, int64_t tag) {
  Tuple t;
  t.push_back(Value::Int(k));
  t.push_back(Value::Str("name-" + std::to_string(k % 9)));
  t.push_back(Value::Int(tag));
  return t;
}

TEST(ColumnarRelationTest, DictionaryRoundTripUnderChurn) {
  PredicateDecl decl = MakeDecl(3, false);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    Relation r(&decl, shards);
    for (int64_t i = 0; i < 150; ++i) r.Insert(Mixed(i, i % 5));
    // Every stored code decodes back to the value the accessor reports,
    // and MaterializeTuple reassembles the logical row.
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        Tuple t = r.MaterializeTuple(sh, slot);
        ASSERT_EQ(t.size(), 3u);
        for (size_t col = 0; col < t.size(); ++col) {
          uint32_t code = r.shard_codes(sh, col)[slot];
          EXPECT_EQ(r.Decode(col, code), t[col]);
          EXPECT_EQ(r.At(sh, slot, col), t[col]);
          auto back = r.CodeOf(col, t[col]);
          ASSERT_TRUE(back.has_value());
          EXPECT_EQ(*back, code);
        }
        EXPECT_TRUE(r.Contains(t));
      }
    }
    // Erase a stride (middle rows force swap-remove repointing), then
    // verify content and codes again, then reinsert.
    for (int64_t i = 0; i < 150; i += 3) EXPECT_TRUE(r.Erase(Mixed(i, i % 5)));
    EXPECT_EQ(r.size(), 100u);
    for (int64_t i = 0; i < 150; ++i) {
      EXPECT_EQ(r.Contains(Mixed(i, i % 5)), i % 3 != 0) << "i=" << i;
    }
    for (int64_t i = 0; i < 150; i += 3) {
      EXPECT_EQ(r.Insert(Mixed(i, i % 5)), InsertOutcome::kInserted);
    }
    EXPECT_EQ(r.size(), 150u);
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        Tuple t = r.MaterializeTuple(sh, slot);
        for (size_t col = 0; col < t.size(); ++col) {
          EXPECT_EQ(r.Decode(col, r.shard_codes(sh, col)[slot]), t[col]);
        }
      }
    }
  }
}

TEST(ColumnarRelationTest, ColumnDistinctTracksLiveValuesExactly) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  auto expect_distinct = [&](int64_t upto) {
    std::set<std::string> c0, c1, c2;
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        c0.insert(r.At(sh, slot, 0).ToString());
        c1.insert(r.At(sh, slot, 1).ToString());
        c2.insert(r.At(sh, slot, 2).ToString());
      }
    }
    EXPECT_EQ(r.ColumnDistinct(0), c0.size()) << "upto=" << upto;
    EXPECT_EQ(r.ColumnDistinct(1), c1.size()) << "upto=" << upto;
    EXPECT_EQ(r.ColumnDistinct(2), c2.size()) << "upto=" << upto;
  };
  for (int64_t i = 0; i < 120; ++i) r.Insert(Mixed(i, i % 7));
  expect_distinct(120);
  // Erase churn must decay live counts exactly: erasing the only row
  // using a value frees it; shared values stay live.
  for (int64_t i = 0; i < 120; i += 2) r.Erase(Mixed(i, i % 7));
  expect_distinct(60);
  // Reinserting erased values revives retired codes (refcount 0 -> 1).
  for (int64_t i = 0; i < 120; i += 2) r.Insert(Mixed(i, i % 7));
  expect_distinct(120);
}

TEST(ColumnarRelationTest, ContentMatchesModelAcrossShardCounts) {
  // The reference is a plain ordered map of tuple -> support count, driven
  // through the same mutation sequence with set semantics spelled out.
  PredicateDecl decl = MakeDecl(3, false);
  std::map<Tuple, RowState> model;
  for (int64_t i = 0; i < 200; ++i) {
    RowState& st = model[Mixed(i % 31, i)];
    if (i % 4 == 0) ++st.support;
    if (i % 6 == 0) st.base = 1;
  }
  for (int64_t i = 0; i < 200; i += 5) model.erase(Mixed(i % 31, i));
  std::multiset<std::string> want;
  for (const auto& [t, st] : model) {
    std::string line;
    for (const Value& v : t) line += v.ToString() + ",";
    want.insert(line + "#" + std::to_string(st.support) +
                (st.base ? "b" : ""));
  }
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    Relation r(&decl, shards);
    for (int64_t i = 0; i < 200; ++i) {
      RowRef row;
      EXPECT_EQ(r.Insert(Mixed(i % 31, i), &row), InsertOutcome::kInserted);
      if (i % 4 == 0) {
        EXPECT_EQ(AddSupport(r, Mixed(i % 31, i)), 1u);
      }
      if (i % 6 == 0) {
        r.set_state(row, {.support = r.state(row).support, .base = 1});
      }
    }
    for (int64_t i = 0; i < 200; i += 5) {
      EXPECT_TRUE(r.Erase(Mixed(i % 31, i)));
    }
    EXPECT_EQ(r.size(), model.size());
    EXPECT_EQ(Contents(r), want) << "shards=" << shards;
    for (int64_t i = 0; i < 200; ++i) {
      const Tuple t = Mixed(i % 31, i);
      auto it = model.find(t);
      EXPECT_EQ(r.Contains(t), it != model.end()) << "i=" << i;
      EXPECT_EQ(StateOf(r, t), it == model.end() ? RowState{} : it->second)
          << "i=" << i;
    }
  }
}

TEST(ColumnarRelationTest, FunctionalAndSupportSurviveSwapRemove) {
  PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
  Relation r(&decl, 7);
  for (int64_t i = 0; i < 60; ++i) r.Insert(Mixed(i, i * 10));
  EXPECT_EQ(r.Insert(Mixed(3, 999)), InsertOutcome::kFdConflict);
  for (int64_t i = 0; i < 60; ++i) {
    const Tuple* row = Lookup(r, {Value::Int(i),
                                  Value::Str("name-" + std::to_string(i % 9))});
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->back().AsInt(), i * 10);
  }
  EXPECT_EQ(r.size(), 60u);
  // Support moves with swap-removed rows.
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j <= i; ++j) AddSupport(r, Mixed(i, i * 10));
  }
  r.Erase(r.MaterializeTuple(r.ShardOf(Mixed(2, 20)), 0));  // arbitrary row
  for (int64_t i = 4; i < 8; ++i) {
    if (!r.Contains(Mixed(i, i * 10))) continue;
    EXPECT_EQ(StateOf(r, Mixed(i, i * 10)).support,
              static_cast<uint32_t>(i + 1));
  }
}

TEST(ColumnarRelationTest, ProbeComparesCodesAndMissesFast) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 100; ++i) r.Insert(Mixed(i % 5, i));
  const std::vector<Tuple> rows = ProbeRows(r, 0b001, T({2}));
  EXPECT_EQ(rows.size(), 20u);
  for (const Tuple& row : rows) EXPECT_EQ(row[0].AsInt(), 2);
  // A key absent from the dictionary answers without touching buckets.
  EXPECT_TRUE(ProbeRows(r, 0b001, T({77})).empty());
  EXPECT_FALSE(r.CodeOf(0, Value::Int(77)).has_value());
  // Bound-key single-shard probes route like full tuples (ShardOf).
  int shard = r.ProbeShardOf(0b001, T({2}));
  ASSERT_GE(shard, 0);
  EXPECT_EQ(static_cast<size_t>(shard), r.ShardOf(T({2, 0, 0})));
  // Erase churn patches the code-keyed buckets in place, no rebuilds.
  r.EnsureIndex(0b001);
  uint64_t builds = r.index_builds();
  for (int64_t i = 0; i < 50; ++i) r.Erase(Mixed(i % 5, i));
  for (int64_t k = 0; k < 5; ++k) {
    const std::vector<Tuple> got = ProbeRows(r, 0b001, T({k}));
    EXPECT_EQ(got.size(), 10u);
    for (const Tuple& row : got) EXPECT_EQ(row[0].AsInt(), k);
  }
  EXPECT_EQ(r.index_builds(), builds);
}

TEST(ColumnarRelationTest, MemoryFootprintReportsDictionaryAndColumns) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  for (int64_t i = 0; i < 64; ++i) r.Insert(Mixed(i % 4, i % 8));
  Relation::MemoryFootprint m = r.Memory();
  EXPECT_GT(m.dict_bytes, 0u);
  EXPECT_GT(m.column_bytes, 0u);
  EXPECT_GT(m.index_bytes, 0u);  // the full-tuple index
  // A secondary index adds its buckets to the index component only.
  r.EnsureIndex(0b001);
  Relation::MemoryFootprint indexed = r.Memory();
  EXPECT_GT(indexed.index_bytes, m.index_bytes);
  EXPECT_EQ(indexed.dict_bytes, m.dict_bytes);
  EXPECT_EQ(indexed.column_bytes, m.column_bytes);
}

TEST(ColumnarRelationTest, EncodeTupleRoundTripsAndReportsMisses) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 3);
  for (int64_t i = 0; i < 40; ++i) r.Insert(Mixed(i % 6, i));
  std::vector<uint32_t> codes = {123u};  // pre-existing content survives
  Tuple present = Mixed(4, 17);
  ASSERT_TRUE(r.EncodeTuple(present, &codes));
  ASSERT_EQ(codes.size(), 4u);
  for (size_t col = 0; col < 3; ++col) {
    auto want = r.CodeOf(col, present[col]);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(codes[1 + col], *want);
  }
  // Any dictionary-absent value fails the whole tuple and leaves the
  // output exactly as it was (no partial append).
  Tuple absent = Mixed(4, 17);
  absent[2] = Value::Int(9999);
  EXPECT_FALSE(r.EncodeTuple(absent, &codes));
  EXPECT_EQ(codes.size(), 4u);
  EXPECT_EQ(codes[0], 123u);
}

TEST(ColumnarRelationTest, SortedRunBoundsWarmStaleAndCorrect) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  // Cold cache: nothing warm before the first EnsureSortedRuns.
  for (int64_t i = 0; i < 90; ++i) r.Insert(Mixed(i % 7, i));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 1), nullptr);
  r.EnsureSortedRuns(1);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    const std::vector<uint32_t>* bounds = r.SortedRunBoundsIfWarm(sh, 1);
    ASSERT_NE(bounds, nullptr) << "shard " << sh;
    const std::vector<uint32_t>& codes = r.shard_codes(sh, 1);
    // Boundaries delimit maximal non-decreasing runs of the code vector.
    ASSERT_GE(bounds->size(), 1u);
    EXPECT_EQ(bounds->front(), 0u);
    if (!codes.empty()) {
      ASSERT_GE(bounds->size(), 2u);
      EXPECT_EQ(bounds->back(), codes.size());
      for (size_t b = 1; b + 1 < bounds->size(); ++b) {
        uint32_t at = (*bounds)[b];
        EXPECT_LT(codes[at], codes[at - 1]) << "boundary not a descent";
      }
      for (size_t b = 0; b + 1 < bounds->size(); ++b) {
        for (uint32_t i = (*bounds)[b] + 1; i < (*bounds)[b + 1]; ++i) {
          EXPECT_GE(codes[i], codes[i - 1]) << "run not sorted";
        }
      }
    }
  }
  // Column out of range never reports warm.
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 9), nullptr);
  // Any mutation stales the cache; rebuilding warms it again.
  r.Insert(Mixed(3, 1000));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 1), nullptr);
  EXPECT_EQ(r.SortedRunBoundsIfWarm(1, 1), nullptr);
  r.EnsureSortedRuns(1);
  EXPECT_NE(r.SortedRunBoundsIfWarm(0, 1), nullptr);
}

TEST(ColumnarRelationTest, SortedRunsStaleAfterEraseChurnAndRewarm) {
  // Regression pin for the sorted-run version stamp (audit: every mutation
  // bumps version_, and SortedRunBoundsIfWarm compares stamps, so the
  // cache can never serve bounds computed against pre-churn code
  // vectors). Erase churn swap-removes rows INSIDE the vectors — unlike
  // an append it shifts codes into earlier slots — so stale bounds would
  // silently mis-delimit runs rather than crash. After a re-warm the
  // bounds must describe the post-churn vectors exactly.
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  for (int64_t i = 0; i < 80; ++i) r.Insert(Mixed(i % 11, i));
  r.EnsureSortedRuns(2);
  ASSERT_NE(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  // Swap-remove churn from the middle of every shard.
  for (int64_t i = 10; i < 70; i += 3) ASSERT_TRUE(r.Erase(Mixed(i % 11, i)));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  EXPECT_EQ(r.SortedRunBoundsIfWarm(1, 2), nullptr);
  r.EnsureSortedRuns(2);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    const std::vector<uint32_t>* bounds = r.SortedRunBoundsIfWarm(sh, 2);
    ASSERT_NE(bounds, nullptr) << "shard " << sh;
    const std::vector<uint32_t>& codes = r.shard_codes(sh, 2);
    ASSERT_GE(bounds->size(), 2u);
    EXPECT_EQ(bounds->front(), 0u);
    EXPECT_EQ(bounds->back(), codes.size());
    for (size_t b = 0; b + 1 < bounds->size(); ++b) {
      for (uint32_t i = (*bounds)[b] + 1; i < (*bounds)[b + 1]; ++i) {
        EXPECT_GE(codes[i], codes[i - 1]) << "run not sorted post-churn";
      }
    }
  }
  // Erase-then-rewarm round two: the stamp keeps pace with every bump.
  for (int64_t i = 0; i < 80; i += 7) {
    if (r.Contains(Mixed(i % 11, i))) ASSERT_TRUE(r.Erase(Mixed(i % 11, i)));
  }
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  r.EnsureSortedRuns(2);
  EXPECT_NE(r.SortedRunBoundsIfWarm(0, 2), nullptr);
}

TEST(ColumnarRelationTest, RejectedInsertsLeaveDictionaryRefcountsClean) {
  // Audit pin for dictionary refcount hygiene: Insert interns nothing
  // until the row is known to commit (phase A is lookup-only), so a
  // duplicate or FD-conflict rejection must leave refcounts, live counts,
  // and dictionary sizes byte-identical — erasing the original rows
  // afterwards must still retire every code to zero live values.
  {
    PredicateDecl decl = MakeDecl(3, false);
    Relation r(&decl, 3);
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_EQ(r.Insert(Mixed(i % 6, i)), InsertOutcome::kInserted);
    }
    const auto live0 = r.ColumnDistinct(0);
    const auto live2 = r.ColumnDistinct(2);
    const Relation::MemoryFootprint before = r.Memory();
    for (int64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(r.Insert(Mixed(i % 6, i)), InsertOutcome::kDuplicate);
    }
    EXPECT_EQ(r.ColumnDistinct(0), live0);
    EXPECT_EQ(r.ColumnDistinct(2), live2);
    EXPECT_EQ(r.Memory().dict_bytes, before.dict_bytes);
    EXPECT_EQ(r.size(), 30u);
    // A leaked reference from any rejected insert would keep the value
    // alive past the erase of its only real row.
    for (int64_t i = 0; i < 30; ++i) ASSERT_TRUE(r.Erase(Mixed(i % 6, i)));
    for (size_t col = 0; col < 3; ++col) EXPECT_EQ(r.ColumnDistinct(col), 0u);
  }
  {
    PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
    Relation r(&decl, 3);
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_EQ(r.Insert(Mixed(i, i)), InsertOutcome::kInserted);
    }
    const auto live2 = r.ColumnDistinct(2);
    // Conflicting value column: the key exists with a different payload.
    // The novel payload value must NOT be interned by the rejection.
    for (int64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(r.Insert(Mixed(i, i + 5000)), InsertOutcome::kFdConflict);
      EXPECT_FALSE(r.CodeOf(2, Value::Int(i + 5000)).has_value());
    }
    EXPECT_EQ(r.ColumnDistinct(2), live2);
    for (int64_t i = 0; i < 20; ++i) ASSERT_TRUE(r.Erase(Mixed(i, i)));
    for (size_t col = 0; col < 3; ++col) EXPECT_EQ(r.ColumnDistinct(col), 0u);
  }
}

TEST(RelationTest, TupleHashingQuality) {
  TupleHash h;
  // Different orderings hash differently (order matters).
  EXPECT_NE(h(T({1, 2})), h(T({2, 1})));
  EXPECT_EQ(h(T({1, 2})), h(T({1, 2})));
  // Kind matters.
  Tuple str_tuple = {Value::Str("1"), Value::Str("2")};
  EXPECT_NE(h(T({1, 2})), h(str_tuple));
}

}  // namespace
}  // namespace secureblox::engine
