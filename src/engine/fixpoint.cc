#include "engine/fixpoint.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "engine/planner.h"

namespace secureblox::engine {

using datalog::PredId;
using datalog::Value;
using datalog::ValueKind;

namespace {

/// Marks groups as actively (re)computing for a scope; removes only the
/// ids it added so nested scopes compose.
class ActiveSetGuard {
 public:
  explicit ActiveSetGuard(std::unordered_set<int>* set) : set_(set) {}
  ActiveSetGuard(const ActiveSetGuard&) = delete;
  ActiveSetGuard& operator=(const ActiveSetGuard&) = delete;
  ~ActiveSetGuard() {
    for (int id : added_) set_->erase(id);
  }
  void Add(int id) {
    if (set_->insert(id).second) added_.push_back(id);
  }

 private:
  std::unordered_set<int>* set_;
  std::vector<int> added_;
};

/// Delta rows per enumeration window. Small enough that a single rule
/// firing over a large round spreads across every worker; large enough
/// that task dispatch overhead stays negligible against the join work per
/// row. With sharded storage a delta is first partitioned on the target
/// relation's shard boundaries and each shard partition is then windowed.
constexpr size_t kChunkTuples = 64;
/// Cap on windows per (rule, occurrence, shard) partition. Both constants
/// are fixed — never derived from the thread count — so the work
/// decomposition, and with it the merge order, is identical at every
/// `threads` setting.
constexpr size_t kMaxChunksPerVariant = 32;

size_t ChunkCountFor(size_t rows) {
  size_t chunks = (rows + kChunkTuples - 1) / kChunkTuples;
  return std::max<size_t>(1, std::min(chunks, kMaxChunksPerVariant));
}

}  // namespace

/// One staged enumeration: a semi-naïve variant of one rule restricted to
/// a chunk of the delta at one occurrence, with a private result buffer.
/// Workers only ever touch `chunk`, the shared read-only views, and their
/// own `pending`/`status`; the wave barrier publishes the results to the
/// merge phase.
struct FixpointDriver::EnumTask {
  const CompiledRule* rule = nullptr;
  /// Step list to enumerate: the rule's planned variant (interior pointer
  /// into the rule's RulePlanCache, stable for the task's lifetime).
  const std::vector<Step>* steps = nullptr;
  size_t rule_idx = 0;
  int gid = 0;
  bool retract = false;
  int occ = 0;
  /// Shared across the chunks of one variant (read-only while running).
  std::shared_ptr<std::vector<OccView>> base_views;
  std::shared_ptr<std::vector<TupleSet>> excl;
  /// Per-shard partition of the variant's delta as index lists into the
  /// round snapshot's delta vector — segment slices, no tuple copies
  /// (shared by the variant's tasks; null when the target relation has one
  /// shard and the snapshot's vector is windowed directly).
  std::shared_ptr<std::vector<std::vector<uint32_t>>> shard_parts;
  /// The chunk's delta source: the occurrence's whole delta vector (owned
  /// by the round snapshot, which outlives the task), read through
  /// `only_index` when the chunk covers one shard's slice of it, and this
  /// chunk's [lo, hi) window (over only_index when set, over `only`
  /// otherwise).
  const std::vector<Tuple>* only = nullptr;
  const std::vector<uint32_t>* only_index = nullptr;
  size_t lo = 0;
  size_t hi = SIZE_MAX;
  /// Instantiated head tuples (insert) / destroyed instantiations
  /// (retract), in enumeration order.
  std::vector<std::pair<PredId, Tuple>> pending;
  Status status = Status::OK();
};

FixpointDriver::FixpointDriver(const RuleGraph* graph,
                               const std::vector<CompiledRule>* rules,
                               EvalContext* ctx, RelationStore* store,
                               FixpointHost* host,
                               const FixpointOptions* options)
    : graph_(*graph), rules_(*rules), ctx_(*ctx), store_(*store),
      host_(*host), options_(*options),
      planner_(ctx->catalog, store, options) {}

FixpointDriver::~FixpointDriver() = default;

void FixpointDriver::Begin() {
  delta_.assign(graph_.groups().size(), {});
  neg_.assign(graph_.groups().size(), {});
  rises_.clear();
  active_.clear();
  touched_.clear();
  stats_ = {};
  plans_built_at_begin_ = planner_.plans_built();
}

bool FixpointDriver::EraseFromDeltaMap(DeltaMap* m, PredId pred,
                                       const Tuple& tuple) {
  auto it = m->find(pred);
  if (it == m->end()) return false;
  auto& vec = it->second;
  auto mid = std::remove(vec.begin(), vec.end(), tuple);
  if (mid == vec.end()) return false;
  vec.erase(mid, vec.end());
  if (vec.empty()) m->erase(it);
  return true;
}

void FixpointDriver::PushToDeltaMap(DeltaMap* m, PredId pred,
                                    const Tuple& tuple) {
  auto& vec = (*m)[pred];
  // Within a transaction a tuple is notified once per direction (set
  // semantics), so a vector ending in `tuple` means this call already
  // pushed it for another notification of the same group.
  if (!vec.empty() && vec.back() == tuple) return;
  vec.push_back(tuple);
}

void FixpointDriver::NotifyInsert(PredId pred, const Tuple& tuple) {
  touched_.insert(pred);
  for (int g : graph_.consumer_groups_of(pred)) {
    ChangeQueue& q = delta_[g];
    // Annihilation: the tuple left and came back before the group looked —
    // no net change, no downstream work (DRed's "rescued" case).
    if (EraseFromDeltaMap(&q.dels, pred, tuple)) {
      ++stats_.rescued;
      continue;
    }
    PushToDeltaMap(&q.adds, pred, tuple);
  }
  for (int g : graph_.negator_groups_of(pred)) {
    if (active_.count(g)) continue;  // being recomputed against this state
    ChangeQueue& q = neg_[g];
    if (!EraseFromDeltaMap(&q.dels, pred, tuple)) {
      PushToDeltaMap(&q.adds, pred, tuple);
    }
  }
}

void FixpointDriver::NotifyDelete(PredId pred, const Tuple& tuple) {
  touched_.insert(pred);
  for (int g : graph_.consumer_groups_of(pred)) {
    // A group's own erasure churn (lattice improvement replacing a value,
    // over-delete during its rederivation) must not re-queue it.
    if (active_.count(g)) continue;
    ChangeQueue& q = delta_[g];
    // The insert was never consumed: cancel it instead of cascading.
    if (EraseFromDeltaMap(&q.adds, pred, tuple)) continue;
    PushToDeltaMap(&q.dels, pred, tuple);
  }
  for (int g : graph_.negator_groups_of(pred)) {
    if (active_.count(g)) continue;
    ChangeQueue& q = neg_[g];
    if (!EraseFromDeltaMap(&q.adds, pred, tuple)) {
      PushToDeltaMap(&q.dels, pred, tuple);
    }
  }
}

bool FixpointDriver::HasPendingWork() const {
  for (size_t g = 0; g < delta_.size(); ++g) {
    if (!delta_[g].empty() || !neg_[g].empty()) return true;
  }
  return false;
}

bool FixpointDriver::HasRetractWork(int gid) const {
  return !delta_[gid].dels.empty() || !neg_[gid].empty();
}

bool FixpointDriver::HasDeltaFor(const CompiledRule& rule,
                                 const DeltaMap& delta) const {
  for (PredId p : rule.scan_preds) {
    auto it = delta.find(p);
    if (it != delta.end() && !it->second.empty()) return true;
  }
  return false;
}

bool FixpointDriver::TouchedAny(const CompiledRule& rule) const {
  for (PredId p : rule.scan_preds) {
    if (touched_.count(p)) return true;
  }
  return false;
}

Status FixpointDriver::Run() {
  // The budget bounds *new* work: tuples seeded before the run (base
  // updates) and tuples reseeded by group-local rederivation extend the
  // limit so routine maintenance of a large database never trips it.
  budget_limit_ = options_.max_derivations;
  for (const ChangeQueue& q : delta_) {
    for (const auto& [pred, tuples] : q.adds) budget_limit_ += tuples.size();
    for (const auto& [pred, tuples] : q.dels) budget_limit_ += tuples.size();
  }
  // Strata in order; repeat while cross-stratum feedback (multi-head rules
  // whose heads live in an earlier stratum) left unconsumed deltas. The
  // first pass always runs so stratified aggregates see erasures that left
  // no queued delta.
  bool first = true;
  while (first || HasPendingWork()) {
    first = false;
    for (int s = 0; s <= graph_.max_stratum(); ++s) {
      SB_RETURN_IF_ERROR(RunStratum(s));
    }
  }
  stats_.plans_built = planner_.plans_built() - plans_built_at_begin_;
  return Status::OK();
}

Status FixpointDriver::RunStratum(int stratum) {
  // Stratified aggregates recompute on stratum entry (their inputs are
  // complete); skipped entirely when nothing they read changed.
  for (int gid : graph_.groups_in_stratum(stratum)) {
    for (size_t idx : graph_.group(gid).rules) {
      const CompiledRule& rule = rules_[idx];
      if (!rule.agg.has_value() || graph_.lattice(idx)) continue;
      if (TouchedAny(rule)) {
        ++stats_.agg_recomputes;
        SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
        SB_RETURN_IF_ERROR(CheckBudget(graph_.group(gid)));
      } else {
        ++stats_.agg_skipped;
      }
    }
  }

  // Sweep the stratum's groups in topological order: first every pending
  // retraction, then the insert rounds. All the supports that fall in a
  // sweep fall before any rises (the rises of counting retractions wait
  // in rises_ until the retractions are done), so a functional head whose
  // value moves from one rule or instantiation to another never holds
  // both values at once. Each group with an insert delta anchors a wave
  // of concurrently evaluable groups (CollectWave) that is drained to its
  // local fixpoint; retract work that waves raise, or a later group
  // deriving into an earlier one, re-arms the sweep.
  const std::vector<int>& order = graph_.groups_in_stratum(stratum);
  bool any = true;
  while (any) {
    any = false;
    for (int gid : order) {
      if (HasRetractWork(gid)) {
        any = true;
        SB_RETURN_IF_ERROR(ProcessRetractions(gid));
      }
    }
    SB_RETURN_IF_ERROR(ApplyRises());
    for (size_t i = 0; i < order.size(); ++i) {
      int gid = order[i];
      // Retractions run before insert rounds: back to the first pass.
      if (HasRetractWork(gid)) {
        any = true;
        break;
      }
      if (!delta_[gid].adds.empty()) {
        any = true;
        SB_RETURN_IF_ERROR(RunWave(CollectWave(order, i)));
      }
    }
  }
  return Status::OK();
}

std::vector<int> FixpointDriver::CollectWave(const std::vector<int>& order,
                                             size_t from) const {
  std::vector<int> wave{order[from]};
  const RuleGroup& anchor = graph_.group(order[from]);
  // Predicates owned by pending groups seen so far. A later group joins
  // the wave only when it touches none of them — it neither reads nor
  // writes anything a pending predecessor or wave member does, so its
  // predecessors are quiescent and its evaluation commutes with theirs.
  std::unordered_set<PredId> taken(anchor.footprint.begin(),
                                   anchor.footprint.end());
  for (size_t j = from + 1; j < order.size(); ++j) {
    int gid = order[j];
    bool pending = HasRetractWork(gid) || !delta_[gid].adds.empty();
    if (!pending) continue;
    const RuleGroup& g = graph_.group(gid);
    bool disjoint = true;
    for (PredId p : g.footprint) {
      if (taken.count(p)) {
        disjoint = false;
        break;
      }
    }
    // Retract work must run before insert rounds, so such groups only
    // block; the sweep reaches them next.
    if (disjoint && !HasRetractWork(gid)) wave.push_back(gid);
    taken.insert(g.footprint.begin(), g.footprint.end());
  }
  return wave;
}

void FixpointDriver::EnsureRelations() {
  if (relations_ensured_) return;
  relations_ensured_ = true;
  // The rule set is fixed for this driver's lifetime (Recompile builds a
  // fresh driver), so one pass covers every predicate a worker can read.
  for (const CompiledRule& rule : rules_) {
    for (const Step& s : rule.steps) {
      if (s.kind == Step::Kind::kScan || s.kind == Step::Kind::kLookup ||
          s.kind == Step::Kind::kNegCheck) {
        store_.GetRelation(s.pred);
      }
    }
  }
}

void FixpointDriver::BuildVariantViews(const CompiledRule& rule,
                                       const DeltaMap& delta,
                                       const DeltaMap& unconsumed, int occ,
                                       bool retract,
                                       std::vector<OccView>* views,
                                       std::vector<TupleSet>* excl) {
  const int n = rule.num_scan_occurrences;
  for (int j = 0; j < n; ++j) {
    if (j == occ) continue;
    PredId q = rule.scan_preds[j];
    TupleSet& e = (*excl)[j];
    if (!retract) {
      // Mixed semi-naïve insert variant: occurrence `occ` reads the
      // delta, earlier occurrences pretend it has not arrived, and every
      // occurrence hides unconsumed tuples born this round — each new
      // instantiation is enumerated (and its head support counted)
      // exactly once.
      if (j < occ) {
        auto dj = delta.find(q);
        if (dj != delta.end()) e.insert(dj->second.begin(), dj->second.end());
      }
    } else {
      // Destroyed-instantiation variant: occurrence `occ` reads the
      // erased tuples; later occurrences see them restored (the
      // pre-delete state), earlier ones read the post-delete relation —
      // each destroyed instantiation is enumerated exactly once.
      if (j > occ) {
        auto dj = delta.find(q);
        if (dj != delta.end()) (*views)[j].extra = &dj->second;
      }
    }
    auto uj = unconsumed.find(q);
    if (uj != unconsumed.end() && !uj->second.empty()) {
      e.insert(uj->second.begin(), uj->second.end());
    }
    if (!e.empty()) (*views)[j].exclude = &e;
  }
}

Status FixpointDriver::StageVariantTasks(
    const CompiledRule& rule, size_t rule_idx, int gid, const DeltaMap& delta,
    bool retract, std::vector<std::unique_ptr<EnumTask>>* tasks) {
  // Insert deltas this group has not consumed yet (meaningful on the
  // retract path; always empty during a wave round, whose snapshot just
  // drained the queue). Copied into the exclude sets so workers never read
  // the live queue.
  const DeltaMap& unconsumed = delta_[gid].adds;
  const int n = rule.num_scan_occurrences;

  for (int occ = 0; occ < n; ++occ) {
    auto it = delta.find(rule.scan_preds[occ]);
    if (it == delta.end() || it->second.empty()) continue;
    auto excl = std::make_shared<std::vector<TupleSet>>(n);
    auto views = std::make_shared<std::vector<OccView>>(n);
    BuildVariantViews(rule, delta, unconsumed, occ, retract, views.get(),
                      excl.get());
    SB_RETURN_IF_ERROR(StageOccurrence(rule, rule_idx, gid, occ, retract,
                                       it->second, views, excl, tasks));
  }
  return Status::OK();
}

Status FixpointDriver::StageOccurrence(
    const CompiledRule& rule, size_t rule_idx, int gid, int occ, bool retract,
    const std::vector<Tuple>& only,
    const std::shared_ptr<std::vector<OccView>>& views,
    const std::shared_ptr<std::vector<TupleSet>>& excl,
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  // Plan (or fetch the cached plan for) this variant, and warm exactly the
  // indexes its probes hit — still on the coordinating thread, so plan
  // building and stats seeding stay deterministic. One plan serves both
  // the insert and the retract direction of a variant: the step order is
  // cardinality-driven, the delta routing is per occurrence.
  SB_ASSIGN_OR_RETURN(const VariantPlan* plan, planner_.PlanFor(rule, occ));
  WarmSteps(plan->steps);
  // Chunks are cut on the delta relation's shard boundaries: one partition
  // per shard (relative delta order preserved within each), windowed so a
  // huge shard still spreads across workers. Staging order — and with it
  // the merge order — is (occ, shard, window). With one shard the round
  // snapshot's vector is windowed directly, exactly the pre-shard
  // decomposition.
  auto stage_windows =
      [&](const std::vector<uint32_t>* index,
          const std::shared_ptr<std::vector<std::vector<uint32_t>>>& parts) {
        const size_t rows = index != nullptr ? index->size() : only.size();
        const size_t chunks = ChunkCountFor(rows);
        for (size_t c = 0; c < chunks; ++c) {
          auto task = std::make_unique<EnumTask>();
          task->rule = &rule;
          task->steps = &plan->steps;
          task->rule_idx = rule_idx;
          task->gid = gid;
          task->retract = retract;
          task->occ = occ;
          task->base_views = views;
          task->excl = excl;
          task->shard_parts = parts;
          task->only = &only;
          task->only_index = index;
          task->lo = c * rows / chunks;
          task->hi = (c + 1) * rows / chunks;
          tasks->push_back(std::move(task));
        }
      };
  const PredId pred =
      occ < rule.num_scan_occurrences
          ? rule.scan_preds[occ]
          : rule.neg_preds[occ - rule.num_scan_occurrences];
  Relation* rel = store_.GetRelation(pred);
  const size_t nshards = rel != nullptr ? rel->shard_count() : 1;
  if (nshards <= 1) {
    stage_windows(nullptr, nullptr);
    return Status::OK();
  }
  // Segment slices: partition the delta into per-shard index lists over
  // the snapshot's one vector (relative order preserved within each shard)
  // instead of materializing per-shard tuple copies. The partition sizes —
  // and with them the window decomposition and merge order — are exactly
  // those of the copying layout.
  auto parts = std::make_shared<std::vector<std::vector<uint32_t>>>(nshards);
  for (size_t k = 0; k < only.size(); ++k) {
    (*parts)[rel->ShardOf(only[k])].push_back(static_cast<uint32_t>(k));
  }
  for (size_t s = 0; s < nshards; ++s) {
    if ((*parts)[s].empty()) continue;
    stage_windows(&(*parts)[s], parts);
  }
  return Status::OK();
}

void FixpointDriver::WarmSteps(const std::vector<Step>& steps) {
  for (const Step& s : steps) {
    if (s.kind != Step::Kind::kScan && s.kind != Step::Kind::kNegCheck) {
      continue;
    }
    Relation* rel = store_.GetRelation(s.pred);
    if (rel == nullptr) continue;
    if (!s.scan_all) {
      // Bound-column masks are precomputed per step (ComputeProbeInfo) —
      // exactly what Executor::RunFrom probes with.
      if (s.probe_mask != 0) rel->EnsureIndex(s.probe_mask);
    } else if (s.key_cols.size() == 1) {
      // Only a planner-chosen linear pass with exactly one bound column
      // takes the executor's sorted-run path.
      rel->EnsureSortedRuns(static_cast<size_t>(s.key_cols[0]));
    }
  }
}

WorkerPool* FixpointDriver::pool() {
  int want = options_.threads;
  if (want == 0) {
    want = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  if (want <= 1) return nullptr;
  if (pool_ == nullptr || pool_->total_threads() != want) {
    pool_ = std::make_unique<WorkerPool>(want);
  }
  return pool_.get();
}

Status FixpointDriver::RunStagedTasks(
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  if (tasks->empty()) return Status::OK();
  stats_.parallel_tasks += tasks->size();
  auto run_one = [this](EnumTask& t) {
    // Views are assembled per execution: the base is shared read-only, the
    // occurrence slot points at this task's chunk of the delta.
    std::vector<OccView> views = *t.base_views;
    views[t.occ].only = t.only;
    views[t.occ].only_index = t.only_index;
    views[t.occ].only_begin = t.lo;
    views[t.occ].only_end = t.hi;
    Executor executor(&ctx_, &store_, ResolveSimdMode(options_.simd));
    Env env(t.rule->num_slots);
    t.status = executor.Run(
        *t.steps, &env, &views, [&](Env& e) -> Status {
          return InstantiateHeads(*t.rule, e, &t.pending);
        });
  };
  // Rules with side effects (head existentials, thread-unsafe builtins)
  // enumerate on this thread, before the pool starts. They stage like
  // every rule, so they too read the frozen pre-round state.
  WorkerPool* p = pool();
  std::vector<std::function<void()>> fns;
  for (auto& t : *tasks) {
    if (p == nullptr || !t->rule->parallel_safe) {
      run_one(*t);
    } else {
      fns.push_back([&run_one, task = t.get()] { run_one(*task); });
    }
  }
  if (fns.size() == 1) {
    fns[0]();
  } else if (!fns.empty()) {
    p->Run(fns);
  }
  for (const auto& t : *tasks) {
    SB_RETURN_IF_ERROR(t->status);
  }
  return Status::OK();
}

Status FixpointDriver::ApplyStagedTasks(
    std::vector<std::unique_ptr<EnumTask>>& tasks, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    EnumTask& t = *tasks[i];
    for (auto& [pred, tuple] : t.pending) {
      SB_RETURN_IF_ERROR(t.retract ? Retract(pred, tuple)
                                   : Derive(pred, tuple));
    }
  }
  return Status::OK();
}

Status FixpointDriver::ApplyRetractRound(
    int gid, std::vector<std::unique_ptr<EnumTask>>& tasks) {
  const bool rises = std::any_of(
      tasks.begin(), tasks.end(),
      [](const std::unique_ptr<EnumTask>& t) { return !t->retract; });
  if (!rises) return ApplyStagedTasks(tasks, 0, tasks.size());
  // Net the round per head tuple, in first-staged order: an instantiation
  // created by one flip and destroyed by another change of the same
  // transaction leaves no trace, and no head holds its old and its new
  // value at once. Counting is exact, so no net fall exceeds the support.
  std::map<PredId, std::unordered_map<Tuple, int64_t, TupleHash>> net;
  std::vector<std::pair<PredId, std::pair<const Tuple, int64_t>*>> order;
  for (auto& t : tasks) {
    for (auto& [pred, tuple] : t->pending) {
      auto [it, fresh] = net[pred].try_emplace(std::move(tuple), 0);
      if (fresh) order.emplace_back(pred, &*it);
      it->second += t->retract ? -1 : 1;
    }
  }
  std::vector<std::pair<PredId, Tuple>> up;
  for (const auto& [pred, entry] : order) {
    for (int64_t c = entry->second; c < 0; ++c) {
      SB_RETURN_IF_ERROR(Retract(pred, entry->first));
    }
    for (int64_t c = 0; c < entry->second; ++c) {
      up.emplace_back(pred, entry->first);
    }
  }
  if (!up.empty()) rises_.emplace_back(gid, std::move(up));
  return Status::OK();
}

Status FixpointDriver::ApplyRises() {
  std::vector<std::pair<int, std::vector<std::pair<PredId, Tuple>>>> rises =
      std::move(rises_);
  rises_.clear();
  for (const auto& [gid, heads] : rises) {
    // The group's own head churn must not flip its own negation probes,
    // as during its retraction round.
    ActiveSetGuard guard(&active_);
    guard.Add(gid);
    for (const auto& [pred, tuple] : heads) {
      SB_RETURN_IF_ERROR(Derive(pred, tuple));
    }
  }
  return Status::OK();
}

Status FixpointDriver::Derive(PredId pred, const Tuple& tuple) {
  SB_ASSIGN_OR_RETURN(bool inserted, host_.InsertHeadTuple(pred, tuple));
  if (inserted) ++stats_.derivations;
  return Status::OK();
}

Status FixpointDriver::Retract(PredId pred, const Tuple& tuple) {
  ++stats_.retractions;
  SB_ASSIGN_OR_RETURN(bool erased, host_.RetractSupport(pred, tuple));
  if (erased) {
    ++stats_.deleted;
  } else {
    ++stats_.rescued;
  }
  return Status::OK();
}

Status FixpointDriver::RunWave(const std::vector<int>& wave) {
  ActiveSetGuard guard(&active_);
  for (int gid : wave) guard.Add(gid);
  ++stats_.waves;
  EnsureRelations();

  while (true) {
    // Snapshot each member's queued insert delta: one round per member.
    // Members are mutually independent, so draining them together is
    // round-for-round identical to draining each in turn.
    std::vector<std::pair<int, DeltaMap>> rounds;
    for (int gid : wave) {
      if (delta_[gid].adds.empty()) continue;
      rounds.emplace_back(gid, std::move(delta_[gid].adds));
      delta_[gid].adds.clear();
      ++stats_.rounds;
    }
    if (rounds.empty()) return Status::OK();

    // Enumeration phase: chunked semi-naïve variants of every rule with a
    // delta, run against the frozen pre-round state. Nothing mutates the
    // database until the merge phase, so the tasks are pure reads staging
    // into private buffers. Each member's tasks are contiguous, in
    // install-order rules; `staged_end` records where each member's tasks
    // end.
    std::vector<std::unique_ptr<EnumTask>> tasks;
    std::vector<size_t> staged_end;
    for (auto& [gid, delta] : rounds) {
      for (size_t idx : graph_.group(gid).rules) {
        const CompiledRule& rule = rules_[idx];
        if (rule.agg.has_value()) continue;
        if (!HasDeltaFor(rule, delta)) {
          ++stats_.firings_skipped;
          continue;
        }
        ++stats_.rule_firings;
        SB_RETURN_IF_ERROR(StageVariantTasks(rule, idx, gid, delta,
                                             /*retract=*/false, &tasks));
      }
      staged_end.push_back(tasks.size());
    }
    SB_RETURN_IF_ERROR(RunStagedTasks(&tasks));

    // Merge phase: strictly sequential and in a fixed order — wave
    // (topological) group order, install-order rules, staged chunk order —
    // so insertion order and FD-conflict detection are reproducible at
    // every thread count.
    for (size_t r = 0; r < rounds.size(); ++r) {
      const auto& [gid, delta] = rounds[r];
      const RuleGroup& group = graph_.group(gid);
      const size_t begin = r == 0 ? 0 : staged_end[r - 1];
      SB_RETURN_IF_ERROR(ApplyStagedTasks(tasks, begin, staged_end[r]));
      // Lattice aggregates re-run after every round of their group.
      for (size_t idx : group.rules) {
        const CompiledRule& rule = rules_[idx];
        if (!rule.agg.has_value() || !graph_.lattice(idx)) continue;
        if (HasDeltaFor(rule, delta)) {
          ++stats_.agg_recomputes;
          SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/true));
        } else {
          ++stats_.agg_skipped;
        }
      }
      SB_RETURN_IF_ERROR(CheckBudget(group));
    }
  }
}

Status FixpointDriver::ProcessRetractions(int gid) {
  const RuleGroup& group = graph_.group(gid);

  // Pure stratified-aggregate group: the full recompute (already armed via
  // touched_) subsumes retraction; run it now so a delete delta arriving
  // mid-stratum cannot leave a stale aggregate behind.
  bool all_agg = true;
  for (size_t idx : group.rules) {
    if (!rules_[idx].agg.has_value() || graph_.lattice(idx)) {
      all_agg = false;
      break;
    }
  }
  if (all_agg) {
    // A flipped negation probe never shows up in scan_preds (TouchedAny
    // cannot see it), so it forces the recompute on its own.
    bool flipped = !neg_[gid].empty();
    delta_[gid].dels.clear();
    neg_[gid].clear();
    for (size_t idx : group.rules) {
      const CompiledRule& rule = rules_[idx];
      if (!flipped && !TouchedAny(rule)) continue;
      ++stats_.agg_recomputes;
      SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
      SB_RETURN_IF_ERROR(CheckBudget(group));
    }
    return Status::OK();
  }

  // Recursive groups cannot be maintained by counting alone: rederive
  // locally.
  if (group.recursive) return RederiveCluster(gid);

  // Counting path: the group is a single rule. One round moves its
  // supports from the counted state to the new one: the negation flips,
  // read against the counted positive state (pending dels restored,
  // unconsumed adds hidden), then the destroyed instantiations of the
  // delete deltas, with negations read in the new state. Both stage into
  // one task list, netted per head tuple when applied; the insert rounds
  // follow. Enumeration runs on the pool (same phase split as a wave
  // round — supports move in the merge phase). The group's own head churn
  // must not flip its own negation probes (derivation-time semantics, as
  // in its insert rounds).
  EnsureRelations();
  ActiveSetGuard guard(&active_);
  guard.Add(gid);
  // The views point into `neg`, `dels` and `keys`: they outlive the tasks.
  ChangeQueue neg = std::move(neg_[gid]);
  neg_[gid].clear();
  DeltaMap dels = std::move(delta_[gid].dels);
  delta_[gid].dels.clear();
  std::deque<std::vector<Tuple>> keys;
  ++stats_.rounds;
  std::vector<std::unique_ptr<EnumTask>> tasks;
  for (size_t idx : group.rules) {
    const CompiledRule& rule = rules_[idx];
    const size_t staged = tasks.size();
    if (!neg.empty()) {
      SB_RETURN_IF_ERROR(
          StageNegationFlips(rule, idx, gid, neg, dels, &keys, &tasks));
    }
    if (HasDeltaFor(rule, dels)) {
      SB_RETURN_IF_ERROR(StageVariantTasks(rule, idx, gid, dels,
                                           /*retract=*/true, &tasks));
    }
    if (tasks.size() > staged) {
      ++stats_.retract_firings;
    } else {
      ++stats_.firings_skipped;
    }
  }
  SB_RETURN_IF_ERROR(RunStagedTasks(&tasks));
  return ApplyRetractRound(gid, tasks);
}

Status FixpointDriver::StageNegationFlips(
    const CompiledRule& rule, size_t rule_idx, int gid, const ChangeQueue& neg,
    const DeltaMap& pending_dels, std::deque<std::vector<Tuple>>* keys,
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  // Counting maintenance of negation (Gupta, Mumick & Subrahmanian,
  // SIGMOD 1993). The supports count instantiations in the *counted*
  // state: positive occurrences without the unconsumed insert deltas and
  // with the pending delete deltas, negated occurrences in their old state
  // (current minus the queued flips' adds, plus their dels). Moving the
  // negated occurrences to the new state one at a time telescopes the
  // change: variant k reads earlier negated occurrences new and later ones
  // old, and enumerates exactly the instantiations whose k-th literal
  // flipped.
  const DeltaMap& unconsumed = delta_[gid].adds;
  const int n = rule.num_scan_occurrences;
  // Aggregate heads carry no derivation supports (recompute-managed).
  const int m =
      rule.agg.has_value() ? 0 : static_cast<int>(rule.neg_preds.size());
  for (int k = 0; k < m; ++k) {
    std::vector<Tuple> on;
    std::vector<Tuple> off;
    FlippedKeys(rule, n + k, neg, &on, &off);
    if (on.empty() && off.empty()) continue;
    auto excl = std::make_shared<std::vector<TupleSet>>(n + m);
    auto views = std::make_shared<std::vector<OccView>>(n + m);
    auto view_change = [&](int occ, PredId pred, const DeltaMap& erased,
                           const DeltaMap& added) {
      auto e = erased.find(pred);
      if (e != erased.end()) (*views)[occ].extra = &e->second;
      auto a = added.find(pred);
      if (a != added.end() && !a->second.empty()) {
        (*excl)[occ].insert(a->second.begin(), a->second.end());
        (*views)[occ].exclude = &(*excl)[occ];
      }
    };
    for (int j = 0; j < n; ++j) {
      view_change(j, rule.scan_preds[j], pending_dels, unconsumed);
    }
    for (int j = k + 1; j < m; ++j) {
      view_change(n + j, rule.neg_preds[j], neg.dels, neg.adds);
    }
    // An off key (last match gone) creates instantiations, an on key
    // (first match arrived) destroys them.
    if (!off.empty()) {
      keys->push_back(std::move(off));
      SB_RETURN_IF_ERROR(StageOccurrence(rule, rule_idx, gid, n + k,
                                         /*retract=*/false, keys->back(),
                                         views, excl, tasks));
    }
    if (!on.empty()) {
      keys->push_back(std::move(on));
      SB_RETURN_IF_ERROR(StageOccurrence(rule, rule_idx, gid, n + k,
                                         /*retract=*/true, keys->back(),
                                         views, excl, tasks));
    }
  }
  return Status::OK();
}

void FixpointDriver::FlippedKeys(const CompiledRule& rule, int occ,
                                 const ChangeQueue& neg,
                                 std::vector<Tuple>* on,
                                 std::vector<Tuple>* off) {
  const Step* lit = nullptr;
  for (const Step& s : rule.steps) {
    if (s.occurrence == occ) lit = &s;
  }
  auto added = neg.adds.find(lit->pred);
  auto erased = neg.dels.find(lit->pred);
  const bool any_added = added != neg.adds.end();
  const bool any_erased = erased != neg.dels.end();
  if (!any_added && !any_erased) return;
  // The literal's key for a tuple: full arity, wildcard columns blanked;
  // nullopt when the tuple fails a constant or a repeated variable.
  auto project = [&](const Tuple& t) -> std::optional<Tuple> {
    Tuple key(t.size());
    for (size_t c = 0; c < lit->args.size(); ++c) {
      const ArgPat& p = lit->args[c];
      if (p.kind == ArgPat::Kind::kWild) continue;
      if (p.kind == ArgPat::Kind::kConst && !(t[c] == p.constant)) {
        return std::nullopt;
      }
      for (size_t e = 0; e < c; ++e) {
        const ArgPat& q = lit->args[e];
        if (p.kind == ArgPat::Kind::kBound &&
            q.kind == ArgPat::Kind::kBound && q.slot == p.slot &&
            !(t[e] == t[c])) {
          return std::nullopt;
        }
      }
      key[c] = t[c];
    }
    return key;
  };
  TupleSet added_rows;
  if (any_added) added_rows.insert(added->second.begin(), added->second.end());
  TupleSet erased_keys;
  if (any_erased) {
    for (const Tuple& t : erased->second) {
      if (auto key = project(t)) erased_keys.insert(std::move(*key));
    }
  }
  Relation& rel = *store_.GetRelation(lit->pred);
  TupleSet seen;
  Tuple probe;
  auto classify = [&](const Tuple& t) {
    std::optional<Tuple> key = project(t);
    if (!key.has_value() || !seen.insert(*key).second) return;
    probe.clear();
    for (int col : lit->key_cols) probe.push_back((*key)[col]);
    const bool now =
        HasMatch(rel, lit->probe_mask, probe, /*exclude=*/nullptr);
    const bool before = erased_keys.count(*key) > 0 ||
                        HasMatch(rel, lit->probe_mask, probe, &added_rows);
    if (now && !before) {
      on->push_back(std::move(*key));
    } else if (before && !now) {
      off->push_back(std::move(*key));
    }
  };
  if (any_added) {
    for (const Tuple& t : added->second) classify(t);
  }
  if (any_erased) {
    for (const Tuple& t : erased->second) classify(t);
  }
}

Status FixpointDriver::CheckBudget(const RuleGroup& group) {
  if (stats_.derivations <= budget_limit_) return Status::OK();
  std::string culprits;
  for (size_t idx : group.rules) {
    const CompiledRule& rule = rules_[idx];
    if (rule.agg.has_value() ||
        HasDeltaFor(rule, delta_[group.id].adds) || TouchedAny(rule)) {
      if (!culprits.empty()) culprits += "; ";
      culprits += rule.source.ToString();
    }
  }
  return Status::Internal(
      "fixpoint exceeded derivation budget (" +
      std::to_string(options_.max_derivations) + " tuples) in stratum " +
      std::to_string(group.stratum) + ", rule group " +
      std::to_string(group.id) +
      (culprits.empty() ? "" : "; rules still producing deltas: " + culprits));
}

Status FixpointDriver::InstantiateHeads(
    const CompiledRule& rule, Env& env,
    std::vector<std::pair<PredId, Tuple>>* pending) {
  std::vector<int> bound_here;
  if (!rule.existential_slots.empty()) {
    SB_RETURN_IF_ERROR(host_.BindExistentials(rule, &env, &bound_here));
  }
  for (const CompiledHead& head : rule.heads) {
    Tuple t;
    t.reserve(head.args.size());
    for (const ArgPat& p : head.args) {
      if (p.kind == ArgPat::Kind::kConst) {
        t.push_back(p.constant);
      } else {
        t.push_back(*env[p.slot]);
      }
    }
    pending->emplace_back(head.pred, std::move(t));
  }
  for (int s : bound_here) env[s].reset();
  return Status::OK();
}

Status FixpointDriver::RederiveCluster(int gid) {
  ++stats_.group_rederives;
  // Closure over shared head predicates: every rule deriving an
  // over-deleted predicate must re-fire, whichever group it lives in.
  std::set<int> cluster{gid};
  std::set<PredId> cpreds;
  std::vector<int> work{gid};
  while (!work.empty()) {
    int g = work.back();
    work.pop_back();
    for (size_t idx : graph_.group(g).rules) {
      for (PredId h : HeadPreds(rules_[idx])) {
        if (!cpreds.insert(h).second) continue;
        for (size_t r : graph_.producers_of(h)) {
          int pg = graph_.group_of_rule(r);
          if (cluster.insert(pg).second) work.push_back(pg);
        }
      }
    }
  }

  ActiveSetGuard guard(&active_);
  for (int g : cluster) guard.Add(g);
  // Pending deltas, flips and rises for cluster members are superseded by
  // the full local recompute.
  for (int g : cluster) {
    delta_[g].clear();
    neg_[g].clear();
  }
  std::erase_if(rises_,
                [&](const auto& r) { return cluster.count(r.first) > 0; });
  for (PredId p : cpreds) {
    SB_ASSIGN_OR_RETURN(uint64_t over_deleted, host_.OverDeleteDerived(p));
    // Rederiving what was just over-deleted is not runaway work.
    budget_limit_ += over_deleted;
  }

  // Reseed each cluster group from the full extension of its body
  // predicates — the group-local analogue of DRed's rederivation pass.
  for (int g : cluster) {
    std::set<PredId> seen;
    for (size_t idx : graph_.group(g).rules) {
      for (PredId p : rules_[idx].scan_preds) {
        if (!seen.insert(p).second) continue;
        Relation* rel = store_.GetRelation(p);
        if (rel == nullptr || rel->empty()) continue;
        std::vector<Tuple>& vec = delta_[g].adds[p];
        vec = rel->AllTuples();
        stats_.rederive_seeded += vec.size();
        budget_limit_ += vec.size();
      }
    }
  }

  // Local fixpoint over the cluster: strata in order, groups topological
  // within; each group drains as a singleton wave (cluster members share
  // head predicates, so they are never mutually independent — but the
  // bulky reseed rounds still fan out across the pool). A stratified
  // aggregate whose head was over-deleted recomputes when its inputs have
  // a pending delta — the seed always provides one, so the first pass
  // restores the output and quiet passes skip the scan.
  std::vector<int> order(cluster.begin(), cluster.end());
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::make_pair(graph_.group(a).stratum, a) <
           std::make_pair(graph_.group(b).stratum, b);
  });
  bool any = true;
  while (any) {
    any = false;
    for (int g : order) {
      const RuleGroup& grp = graph_.group(g);
      for (size_t idx : grp.rules) {
        const CompiledRule& rule = rules_[idx];
        if (rule.agg.has_value() && !graph_.lattice(idx) &&
            HasDeltaFor(rule, delta_[g].adds)) {
          ++stats_.agg_recomputes;
          SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
        }
      }
      if (!delta_[g].adds.empty()) {
        any = true;
        SB_RETURN_IF_ERROR(RunWave({g}));
      }
    }
  }
  return Status::OK();
}

Status FixpointDriver::RecomputeAggregate(const CompiledRule& rule,
                                          bool lattice) {
  const CompiledAgg& agg = *rule.agg;
  Executor executor(&ctx_, &store_, ResolveSimdMode(options_.simd));
  SB_ASSIGN_OR_RETURN(const VariantPlan* plan,
                      planner_.PlanFor(rule, ExecPlanner::kFullBody));

  // Group body bindings by the head keys.
  std::map<Tuple, int64_t> groups;
  Env env(rule.num_slots);
  SB_RETURN_IF_ERROR(executor.Run(
      plan->steps, &env, nullptr,
      [&](Env& e) -> Status {
        Tuple key;
        for (const ArgPat& p : agg.key_args) {
          key.push_back(p.kind == ArgPat::Kind::kConst ? p.constant
                                                       : *e[p.slot]);
        }
        int64_t v = 0;
        if (agg.input_slot >= 0) {
          const Value& val = *e[agg.input_slot];
          if (val.kind() != ValueKind::kInt) {
            return Status::TypeError("aggregate input is not an integer");
          }
          v = val.AsInt();
        }
        auto [it, fresh] = groups.try_emplace(std::move(key), 0);
        switch (agg.func) {
          case datalog::AggFunc::kMin:
            it->second = fresh ? v : std::min(it->second, v);
            break;
          case datalog::AggFunc::kMax:
            it->second = fresh ? v : std::max(it->second, v);
            break;
          case datalog::AggFunc::kSum:
            it->second += v;
            break;
          case datalog::AggFunc::kCount:
            it->second += 1;
            break;
        }
        return Status::OK();
      }));

  Relation* rel = store_.GetRelation(agg.head_pred);

  if (!lattice) {
    // Full recompute: drop stale groups first.
    std::vector<Tuple> existing = rel->AllTuples();
    for (const Tuple& t : existing) {
      Tuple keys(t.begin(), t.end() - 1);
      if (!groups.count(keys)) {
        SB_RETURN_IF_ERROR(host_.EraseTuple(agg.head_pred, t));
      }
    }
  }

  Tuple lookup_scratch;
  for (const auto& [keys, v] : groups) {
    Tuple desired = keys;
    desired.push_back(Value::Int(v));
    const Tuple* current = rel->LookupByKeys(keys, &lookup_scratch);
    if (current != nullptr) {
      int64_t cur = current->back().AsInt();
      bool improve;
      if (lattice) {
        improve = agg.func == datalog::AggFunc::kMin ? v < cur : v > cur;
      } else {
        improve = v != cur;
      }
      if (!improve) continue;
      SB_RETURN_IF_ERROR(host_.EraseTuple(agg.head_pred, *current));
    }
    SB_ASSIGN_OR_RETURN(bool inserted,
                        host_.InsertDerivedTuple(agg.head_pred, desired));
    if (inserted) ++stats_.derivations;
  }
  return Status::OK();
}

}  // namespace secureblox::engine
