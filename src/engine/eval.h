// Rule/constraint compilation and body execution.
//
// A rule body compiles to an ordered list of steps (greedy ordering: cheap
// filters first, then functional lookups, negation probes, builtins, and
// scans by descending boundness). Execution enumerates bindings over an
// environment of value slots. Semi-naïve evaluation re-runs each rule once
// per scan occurrence with that occurrence reading the round's delta.
//
// Head existentials (unbound head variables in entity-typed positions)
// create fresh entities, memoized per (rule, binding of head-relevant
// variables) so re-evaluation is idempotent.
#ifndef SECUREBLOX_ENGINE_EVAL_H_
#define SECUREBLOX_ENGINE_EVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/catalog.h"
#include "engine/builtins.h"
#include "engine/kernels.h"
#include "engine/relation.h"

namespace secureblox::engine {

/// Source of relations during execution (implemented by Workspace).
class RelationStore {
 public:
  virtual ~RelationStore() = default;
  virtual Relation* GetRelation(datalog::PredId pred) = 0;
};

/// Environment: one optional value slot per rule variable.
using Env = std::vector<std::optional<datalog::Value>>;

/// Compiled term: variable slots resolved.
struct CExpr {
  enum class Kind { kSlot, kConst, kArith };
  Kind kind = Kind::kConst;
  int slot = -1;
  datalog::Value constant;
  char op = 0;
  std::shared_ptr<CExpr> lhs, rhs;
};

/// Compiled atom argument pattern.
struct ArgPat {
  enum class Kind {
    kBound,  // slot already holds a value: match/compare
    kBind,   // slot unbound: bind from the tuple / builtin output
    kConst,  // literal constant: match
    kWild,   // anonymous variable in a negation probe: matches anything
    kSame,   // repeated variable within one scan atom: equal to this
             // atom's earlier column `same_col` (the kBind occurrence).
             // The slot is only bound when the row is accepted, so the
             // comparison must read the candidate row, never the
             // environment — env[slot] is still unengaged here.
  };
  Kind kind = Kind::kConst;
  int slot = -1;
  int same_col = -1;  // kSame: earlier column of the same atom to equal
  datalog::Value constant;
};

struct Step {
  enum class Kind {
    kScan,      // enumerate relation (or the round's delta) by pattern
    kLookup,    // functional atom with all keys bound: one probe
    kNegCheck,  // negated atom: probe by bound columns, fail if any match
    kCompare,   // comparison over bound expressions
    kAssign,    // bind a slot from an expression
    kBuiltin,   // builtin function call
    kTypeCheck, // primitive type predicate over a bound slot
  };
  Kind kind;
  datalog::PredId pred = datalog::kInvalidPred;
  std::vector<ArgPat> args;
  int occurrence = -1;  // kScan: index among this body's scan occurrences
  datalog::CmpOp cmp_op = datalog::CmpOp::kEq;
  std::shared_ptr<CExpr> lhs, rhs;  // kCompare: both; kAssign: rhs
  int assign_slot = -1;
  const BuiltinImpl* builtin = nullptr;
  std::string builtin_name;
  datalog::ValueKind check_kind = datalog::ValueKind::kInt;  // kTypeCheck
  /// Static probe shape (kScan/kNegCheck), precomputed by ComputeProbeInfo:
  /// bound/const column mask (bit i = column i, first 32 columns) and the
  /// same columns in ascending order — the probe-key recipe the executor
  /// materializes keys from without re-inspecting arg kinds.
  uint32_t probe_mask = 0;
  std::vector<int> key_cols;
  /// A kScan with bound columns makes one linear pass over every shard
  /// instead of probing the index on `probe_mask`. Only the planner sets
  /// it, when the bound columns are expected to keep a quarter or more of
  /// the relation; both ways enumerate the same rows in the same order. An
  /// index probe touches one shard when the mask covers the shard key
  /// (Relation::ProbeShardOf), every shard otherwise.
  bool scan_all = false;
};

/// Recompute each step's static probe info (probe_mask / key_cols) from its
/// arg patterns. Run by the compiler on every compiled body and by the
/// planner after reordering and rebinding.
void ComputeProbeInfo(std::vector<Step>* steps);

/// One planned body execution: the baseline steps reordered and rebound for
/// a semi-naïve occurrence variant, or for the full body (aggregate
/// recomputes). Built by ExecPlanner (engine/planner.h) from online
/// relation statistics; executing `steps` enumerates exactly the bindings
/// of the baseline order.
struct VariantPlan {
  std::vector<Step> steps;
  std::vector<size_t> source_index;  // baseline step index per position
  std::vector<double> est_rows;      // estimated matches per position (<0 = Δ)
  /// Where each position's estimate came from (kSize for filter/Δ/lookup
  /// positions whose cost is fixed, kDict/kStat for scans) and the distinct
  /// count behind it (-1 when no distinct statistic was consulted). Both
  /// parallel to est_rows; surfaced by SB_EXPLAIN.
  std::vector<EstimateSource> est_src;
  std::vector<int64_t> est_distinct;
  /// Body relation sizes at plan time — the replan drift reference.
  std::vector<std::pair<datalog::PredId, size_t>> stat_rows;
  uint64_t builds = 0;  // times this slot was (re)planned
};

/// Per-rule plan cache, attached to CompiledRule: slot 0 holds the
/// full-body plan, slot occ+1 the occurrence-`occ` variant — the scan
/// occurrences first, then the negated ones (CompiledRule::neg_preds).
/// Sized once (plans hand out interior pointers) and mutated only by the
/// planner, on the fixpoint's coordinating thread.
struct RulePlanCache {
  std::vector<std::optional<VariantPlan>> variants;
};

struct CompiledHead {
  datalog::PredId pred = datalog::kInvalidPred;
  std::vector<ArgPat> args;  // kBind entries are existential slots
};

struct CompiledAgg {
  datalog::AggFunc func;
  int input_slot = -1;  // -1 for count
  // Head (single, functional): key arg patterns; value is the agg result.
  datalog::PredId head_pred = datalog::kInvalidPred;
  std::vector<ArgPat> key_args;
  bool lattice = false;  // recursive min/max: monotone improvement semantics
};

struct CompiledRule {
  datalog::Rule source;
  int id = 0;
  int stratum = 0;
  size_t num_slots = 0;
  std::vector<std::string> slot_names;
  std::vector<Step> steps;
  std::vector<CompiledHead> heads;            // empty for aggregate rules
  std::optional<CompiledAgg> agg;
  int num_scan_occurrences = 0;
  std::vector<datalog::PredId> scan_preds;    // indexed by occurrence
  /// Negated literals, numbered after the scan occurrences: the kNegCheck
  /// step for neg_preds[k] carries occurrence num_scan_occurrences + k, so
  /// counting maintenance can read it through an OccView (the pre-change
  /// state) or run it as a flipped-key variant (engine/fixpoint.h).
  std::vector<datalog::PredId> neg_preds;
  // Head existentials.
  std::vector<int> existential_slots;
  std::vector<datalog::PredId> existential_types;
  std::vector<int> memo_key_slots;  // bound slots used anywhere in heads
  /// Body enumeration is free of side effects (no head existentials, no
  /// thread-unsafe builtins), so the parallel fixpoint may run it on
  /// worker threads. Other rules stage like every rule but enumerate on
  /// the coordinating thread, before the pool starts.
  bool parallel_safe = true;
  /// Cost-based plans per semi-naïve variant (see RulePlanCache). Shared
  /// across copies of the compiled rule; null only for value-initialized
  /// placeholders.
  std::shared_ptr<RulePlanCache> plan_cache = std::make_shared<RulePlanCache>();
};

struct CompiledConstraint {
  datalog::ConstraintDecl source;
  int id = 0;
  size_t num_slots = 0;
  std::vector<std::string> slot_names;
  std::vector<Step> lhs_steps;
  std::vector<Step> rhs_steps;
  int num_scan_occurrences = 0;               // lhs only
  std::vector<datalog::PredId> scan_preds;    // lhs scans by occurrence
};

/// Compiles analyzed rules/constraints against a catalog + builtin registry.
class RuleCompiler {
 public:
  RuleCompiler(const datalog::Catalog& catalog,
               const BuiltinRegistry& builtins)
      : catalog_(catalog), builtins_(builtins) {}

  Result<CompiledRule> CompileRule(const datalog::Rule& rule, int id) const;
  Result<CompiledConstraint> CompileConstraint(
      const datalog::ConstraintDecl& c, int id) const;

 private:
  const datalog::Catalog& catalog_;
  const BuiltinRegistry& builtins_;
};

using TupleSet = std::unordered_set<Tuple, TupleHash>;

/// Per-occurrence relation view, the one way a body reads a delta:
///  - `only`: the occurrence reads exactly these tuples (a semi-naïve
///    delta, a constraint's inserted tuples), or the [only_begin, only_end)
///    slice of them — the parallel fixpoint chunks a large delta across
///    workers without copying it;
///  - `exclude`: tuples skipped when reading the relation (deltas that a
///    variant with a later occurrence will cover, or queued inserts whose
///    derivations have not been counted yet);
///  - `extra`: tuples appended to the relation's contents (tuples already
///    erased, restored so retraction variants see the pre-delete state).
/// A negated occurrence reads `exclude` and `extra` the same way: its probe
/// then tests the relation's pre-change state.
struct OccView {
  const std::vector<Tuple>* only = nullptr;
  size_t only_begin = 0;
  size_t only_end = SIZE_MAX;  // clamped to only->size()
  /// When set, the view reads `only` through this indirection: row k of the
  /// slice is (*only)[(*only_index)[k]] and [only_begin, only_end) ranges
  /// over only_index. The parallel fixpoint stages shard-aligned delta
  /// chunks as index lists into the round's one delta vector — segment
  /// slices — instead of materializing per-shard tuple copies.
  const std::vector<uint32_t>* only_index = nullptr;
  const TupleSet* exclude = nullptr;
  const std::vector<Tuple>* extra = nullptr;
  bool active() const { return only || exclude || extra; }
};

/// Does `rel` hold a row, outside `exclude`, whose `mask` columns (bit i =
/// column i) equal `key` (the bound values in column order)? Mask 0 asks
/// whether any row is left. The negation probe and the counting path's
/// flip classification share this test; worker threads may call it only
/// for masks whose index is warm (Relation::EnsureIndex).
bool HasMatch(Relation& rel, uint32_t mask, const Tuple& key,
              const TupleSet* exclude);

/// Executes compiled step lists.
class Executor {
 public:
  /// `simd` picks the instruction set for the columnar filter kernels
  /// (engine/kernels.h); the default resolves the CPU's best level. Every
  /// mode enumerates the identical bindings in the identical order.
  Executor(EvalContext* ctx, RelationStore* store,
           SimdMode simd = ResolveSimdMode(2))
      : ctx_(*ctx), store_(*store), simd_(simd) {}

  /// Enumerate all bindings of `steps`; invoke `on_match` for each.
  /// `views`, when set, is indexed by occurrence: a step whose occurrence
  /// has an active view reads the relation through it (OccView); other
  /// steps read the whole relation. `on_match` returning an error aborts
  /// enumeration.
  Status Run(const std::vector<Step>& steps, Env* env,
             const std::vector<OccView>* views,
             const std::function<Status(Env&)>& on_match);

  /// Existence check: do `steps` admit at least one binding, starting from
  /// the (partially bound) environment? Used for constraint rhs.
  Result<bool> Exists(const std::vector<Step>& steps, Env* env);

  /// Compare two values under `op`, coercing entity-vs-string comparisons
  /// through entity labels.
  Result<bool> Compare(const datalog::Value& a, datalog::CmpOp op,
                       const datalog::Value& b);

  Result<datalog::Value> Eval(const CExpr& e, const Env& env);

 private:
  Status RunFrom(const std::vector<Step>& steps, size_t idx, Env& env,
                 const std::vector<OccView>* views,
                 const std::function<Status(Env&)>& on_match);

  EvalContext& ctx_;
  RelationStore& store_;
  /// Resolved kernel instruction set for columnar scans (never affects
  /// enumeration order, only throughput).
  SimdMode simd_ = SimdMode::kScalar;
  /// Base of this Run's window into the thread-local frame stack (see
  /// EvalFrame in eval.cc): depth `idx` uses frame `frame_base_ + idx`.
  /// Nested Run/Exists calls on the same thread — the constraint checker
  /// probes its rhs from inside the lhs enumeration — stack their windows
  /// above the caller's, so scratch at equal depths never aliases.
  size_t frame_base_ = 0;
};

/// Process-wide count of evaluation frames ever allocated across all
/// thread-local frame pools. Flat once the pools reach the workload's
/// maximum body depth — EngineStats snapshots it so tests and benches can
/// pin the no-allocation-in-steady-state property of the probe paths.
uint64_t EvalFrameAllocs();

// (Stratification and the rule dependency graph live in engine/rule_graph.)

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_EVAL_H_
