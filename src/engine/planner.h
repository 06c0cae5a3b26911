// Cost-based execution planning for compiled rule bodies.
//
// The planner sits between the RuleCompiler and the Executor: per compiled
// rule it builds one VariantPlan per semi-naïve occurrence variant (plus one
// for the full body, used by aggregate recomputes), reordering the baseline
// steps greedily by estimated bound-cardinality and choosing, for each scan
// with bound columns, an index probe or a linear pass (Step::scan_all). It
// is the only way the fixpoint orders a rule body: the compiler's
// written-order steps are its input (and what constraint bodies execute),
// never a runtime alternative. Plans are cached on the rule's RulePlanCache
// and rebuilt when body-relation sizes drift past a threshold, so long
// fixpoints replan as relations grow.
//
// Cost model. Statistics come from Relation's online counters: total rows
// plus distinct-key estimates per probe mask (Relation::EstimateMatches),
// maintained incrementally across inserts *and* erases. A candidate step's
// cost is the estimated number of rows matching its currently-bound
// columns; the delta occurrence is forced first (its cardinality is the
// round's delta, the semi-naïve premise), filters/lookups/negations/
// builtins run as early as their bindings allow, and remaining scans go
// ascending by estimate. Reordering is a pure enumeration-order change —
// RebindStep recomputes each argument's bound/bind pattern for the new
// position — so a plan enumerates exactly the bindings of the baseline
// order (pinned by PlannerTest.PlansEnumerateWrittenOrderBindings).
//
// Determinism. Plans are built and cached only on the fixpoint's
// coordinating thread, and every input to a planning decision — relation
// sizes and content-hashed distinct counts — is independent of SB_THREADS
// and SB_SHARDS. Identical transaction streams therefore produce identical
// plans (and identical replan points) at every thread × shard combination,
// preserving the engine's byte-identical fixpoint contract.
#ifndef SECUREBLOX_ENGINE_PLANNER_H_
#define SECUREBLOX_ENGINE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/eval.h"

namespace secureblox::engine {

struct FixpointOptions;

class ExecPlanner {
 public:
  /// Variant index for the full-body plan (aggregate recomputes).
  static constexpr int kFullBody = -1;

  /// All pointers are borrowed and must outlive the planner.
  ExecPlanner(const datalog::Catalog* catalog, RelationStore* store,
              const FixpointOptions* options)
      : catalog_(*catalog), store_(*store), options_(*options) {}

  /// The cached plan for `rule`'s occurrence-`occ` variant (kFullBody for
  /// the whole body; scan occurrences, then negated ones), building or
  /// rebuilding it when absent or stale. Never null on success; an
  /// out-of-range `occ` or a body the greedy order cannot place is an
  /// Internal error (a planner bug) that fails the transaction. The
  /// returned pointer stays valid for the relation-frozen window the
  /// caller executes in: plans mutate only through this method, only on
  /// the coordinating thread, and the cache vector is sized once. Must be
  /// called single-threaded (it reads and seeds relation statistics).
  Result<const VariantPlan*> PlanFor(const CompiledRule& rule, int occ);

  /// Plans built or rebuilt through this planner (EngineStats feed).
  uint64_t plans_built() const { return plans_built_; }

  /// Human-readable plan dump (the SB_EXPLAIN format; see docs/engine.md).
  std::string Explain(const CompiledRule& rule, int occ,
                      const VariantPlan& plan) const;

 private:
  /// Greedy bound-cardinality ordering of `rule`'s baseline steps for one
  /// variant. Internal error when `occ` names no step or a step cannot be
  /// placed or rebound — every body the compiler accepts has an order.
  Result<VariantPlan> Build(const CompiledRule& rule, int occ) const;

  /// Has any body relation grown or shrunk past the replan threshold since
  /// `plan` was built?
  bool Stale(const VariantPlan& plan) const;

  /// Estimated rows one enumeration of `step` yields given the bound slot
  /// set (uses and seeds the per-mask distinct-key statistics). `src` and
  /// `distinct` report which statistic answered — exact dictionary live
  /// count, hashed mask stat, or the bare relation size — and the distinct
  /// count consulted (-1 when none was).
  double EstimateBound(const Step& step, const std::vector<bool>& bound,
                       EstimateSource* src, int64_t* distinct) const;

  const datalog::Catalog& catalog_;
  RelationStore& store_;
  const FixpointOptions& options_;
  uint64_t plans_built_ = 0;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_PLANNER_H_
