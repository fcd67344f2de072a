// Evaluation of algebra DAGs over columnar tables — the stand-in for the
// MonetDB back-end of the paper. Every reachable operator is evaluated
// exactly once (sub-plan sharing); % performs a blocking sort while #
// attaches a dense numbering at negligible cost, which is precisely the
// cost asymmetry the paper's rewrites exploit.
//
// Execution is morsel-driven and pipelined: a plan-time pass
// (opt/morsel_plan.h, audited independently like every other optimizer
// claim) fuses maximal chains of non-blocking operators — π, σ, Fun, ⊕,
// join probes, Step, # — into pipelines, and the scheduler dispatches
// whole pipelines as single units. A pipeline pulls its source in
// fixed-size morsels; each morsel flows through every stage without
// materializing interior tables, and the sink concatenates morsel
// results in morsel order (Step re-sorts, # numbers the merged output).
// Morsel boundaries depend only on the source size, never on the thread
// count, so results are byte-identical to serial evaluation at every
// thread count and morsel size. Blocking operators (%, Distinct, Aggr,
// node constructors, join builds) are pipeline breakers and keep the
// original operator-at-a-time kernels, which also chunk large inputs
// over the same pool.
//
// Intermediate tables are refcounted against their remaining consumers
// (opt/analyses.h ConsumerCounts) and released as soon as the last
// consumer has run; fused interior operators never materialize at all,
// shrinking peak memory below the live-frontier bound of the
// operator-at-a-time engine.
#ifndef EXRQUY_ENGINE_EVAL_H_
#define EXRQUY_ENGINE_EVAL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "common/governor.h"
#include "common/status.h"
#include "engine/faults.h"
#include "engine/profile.h"
#include "engine/table.h"
#include "engine/task_pool.h"
#include "engine/value.h"
#include "opt/morsel_plan.h"
#include "xml/node_store.h"

namespace exrquy {

struct EvalContext {
  NodeStore* store = nullptr;
  StrPool* strings = nullptr;
  // fn:doc() name -> document node.
  std::map<StrId, NodeIdx> documents;
  Profile* profile = nullptr;  // optional

  // Worker threads for DAG- and chunk-level parallelism. 1 = the exact
  // old serial behavior; 0 = EXRQUY_THREADS if set, otherwise
  // std::thread::hardware_concurrency().
  int num_threads = 0;
  // Row-count granularity of intra-operator chunking (standalone
  // kernels). Chunk boundaries are a pure function of the input size,
  // never of the thread count, so any setting yields byte-identical
  // results.
  size_t chunk_rows = 65536;
  // Release memoized intermediates once their last consumer has run.
  // Off = keep-all memoization (the pre-refcounting behavior), retained
  // for peak-memory comparisons.
  bool release_intermediates = true;

  // Morsel-driven pipelined execution (opt/morsel_plan.h): fuse chains
  // of non-blocking operators and pull them in morsels with an ordered
  // merge at each sink. Off = pure operator-at-a-time evaluation,
  // retained for peak-memory and attribution comparisons. Either
  // setting yields byte-identical results.
  bool pipelined_execution = true;
  // Row-count granularity of morsel pulls. 0 defers to the
  // EXRQUY_MORSEL_ROWS environment variable, then to chunk_rows. Morsel
  // boundaries are a pure function of the source size, so any setting
  // yields byte-identical results.
  size_t morsel_rows = 0;
  // A scheduled unit (pipeline or standalone operator) whose
  // materialized inputs total at most this many rows runs inline on the
  // thread that made it ready instead of being enqueued on the pool —
  // tiny queries never pay task-dispatch overhead (and, with the pool's
  // lazy worker spawn, never start worker threads at all). Inlining
  // changes scheduling only, never results. 0 disables it.
  size_t inline_rows = 4096;

  // Physical-plan order detection (Section 6's pointer to Moerkotte &
  // Neumann): when set, % first checks in O(n) whether its input already
  // arrives in the requested (partition, criteria) order and skips the
  // blocking sort if so — "this renders subsequent % as cheap as #".
  // Orthogonal to the paper's logical rewrites, hence off by default.
  bool detect_sorted_inputs = false;
  // Number of % evaluations whose sort was skipped (diagnostics).
  mutable std::atomic<size_t> sorts_skipped{0};

  // -- Resource governance (all optional; see common/governor.h) ----------
  // Cooperative cancellation: polled at every unit dispatch and chunk/
  // morsel boundary, so an abort lands within one morsel's work ->
  // kCancelled.
  const CancelToken* cancel = nullptr;
  // Wall-clock deadline, same poll points -> kDeadlineExceeded. A query
  // that completes its root is allowed to return even if the deadline
  // passed during its final chunk (completion beats a late trip).
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  // Byte accountant; charged by live intermediate columns here and by
  // NodeStore/StrPool growth (Session attaches it there). A charge that
  // crosses the limit latches the budget and the next poll converts it
  // into kResourceExhausted — exhaustion always fails the query, even
  // when detected only after the root completed (the memory was used).
  MemoryBudget* budget = nullptr;
  // Deterministic fault injection (engine/faults.h); counts unit
  // dispatches and chunk/morsel-stage polls and turns the planned points
  // into governor trips.
  FaultInjector* faults = nullptr;
};

class Evaluator {
 public:
  Evaluator(const Dag& dag, EvalContext* ctx);

  // Evaluates the sub-DAG rooted at `root` and returns its table.
  Result<TablePtr> Eval(OpId root);

 private:
  struct Sched;       // per-Eval scheduler state (eval.cc)
  struct ThetaBuild;  // a theta join's prepared build side (eval.cc)

  // -- Governor (cancel/deadline/budget/faults) ----------------------------
  // Latches the first trip status; later trips are ignored.
  void Trip(Status st);
  Status TripStatus();
  // Checks cancel token, deadline, and budget latch; returns the trip
  // status once any of them (or a previous trip) fired. PollOp/PollChunk
  // additionally advance the fault-injection counters.
  Status PollGovernor();
  Status PollOp();     // one scheduled-unit dispatch
  Status PollChunk();  // one chunk boundary / morsel-stage boundary

  Result<TablePtr> EvalOp(const Op& op, const std::vector<TablePtr>& in);

  Result<TablePtr> EvalSerial(const std::vector<OpId>& order, OpId root);
  Result<TablePtr> EvalParallel(const std::vector<OpId>& order, OpId root,
                                size_t threads);
  // Scheduler internals address operators by their dense slot in the
  // topological order rather than by OpId. A scheduled unit is a
  // standalone operator or a whole pipeline (dispatched at its sink
  // slot); interior pipeline slots finish instantly without running.
  // RunTask drains `slot` plus every unit its completion makes ready
  // inline-eligible, as a loop (bounded stack depth). `queued` marks a
  // unit that actually waited in the pool queue — only those charge
  // queue_ms (inline units never queued; counting the backlog once per
  // scheduled unit is what keeps the profile's queue-wait additive).
  void RunTask(Sched* s, size_t slot, bool queued);
  void RunOne(Sched* s, size_t slot, bool queued, std::vector<size_t>* q);
  void RunPipelineUnit(Sched* s, size_t slot, bool queued,
                       std::vector<size_t>* q);
  void FinishTask(Sched* s, size_t slot, std::vector<size_t>* q);
  void ReleaseChildren(Sched* s, const Op& op);
  void DecrementPending(Sched* s, size_t slot, std::vector<size_t>* q);
  // Rows-based serial-execution threshold: true when the ready unit's
  // materialized inputs are small enough to run on the current thread.
  bool ShouldInline(Sched* s, size_t slot);

  // -- Pipelined execution (opt/morsel_plan.h) -----------------------------
  // Runs pipeline `pidx` morsel by morsel (on the pool when present) and
  // merges the morsel results in morsel order. On success fills
  // `stage_metrics`/`pm` when non-null (profiling); on a stage error
  // returns the error the serial engine would have hit first (smallest
  // failing stage, then earliest morsel).
  Result<TablePtr> EvalPipeline(
      uint32_t pidx, const std::function<const TablePtr&(OpId)>& input,
      std::vector<Profile::OpMetrics>* stage_metrics,
      Profile::PipelineMetrics* pm);
  // Morsel-local stage kernels: evaluate rows [b, e) of `in` (the whole
  // morsel for interior stages, a source slice for the head) without
  // chunking or materialization outside the morsel.
  std::shared_ptr<Table> StageProjectM(const Op& op, const Table& in,
                                       size_t b, size_t e);
  Result<std::shared_ptr<Table>> StageSelectM(const Op& op, const Table& in,
                                              size_t b, size_t e);
  Result<std::shared_ptr<Table>> StageFunM(const Op& op, const Table& in,
                                           size_t b, size_t e);
  std::shared_ptr<Table> StageUnionM(const Table& l, const Table& r, size_t b,
                                     size_t e);
  Result<std::shared_ptr<Table>> StageThetaM(const Op& op, const Table& in,
                                             size_t b, size_t e,
                                             const ThetaBuild& build,
                                             const std::vector<ColId>* only,
                                             uint64_t* fallback_pairs);
  Status StageStepM(const Op& op, const Table& in, size_t b, size_t e,
                    std::vector<int64_t>* out_iters,
                    std::vector<NodeIdx>* out_nodes);
  size_t NumMorsels(size_t n) const;
  // Transient morsel-intermediate accounting (parts awaiting the merge);
  // folded into peak_live_bytes_ and the memory budget.
  void ChargeMorsel(size_t bytes);
  void ReleaseMorsel(size_t bytes);

  // Splits [0, n) into fixed chunk_rows-sized ranges and runs
  // fn(chunk, begin, end) for each — on the pool when one exists and the
  // input is large enough, inline otherwise. Returns the chunk count.
  size_t ForChunks(size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn);
  size_t NumChunks(size_t n) const;
  // Materializes the given rows of `in` (ascending), chunk-parallel per
  // column; when they are all of `in`'s rows, shares its columns.
  TablePtr GatherParallel(const Table& in, const std::vector<uint32_t>& rows);
  // Materializes join output: row k pairs l_rows[k] of `l` with r_rows[k]
  // of `r`, restricted to the columns in `only` when it is non-null.
  // `parallel` chunks each column over the pool (standalone kernels);
  // morsel stages gather serially inside their morsel task.
  std::shared_ptr<Table> GatherPairs(const Table& l,
                                     const std::vector<uint32_t>& l_rows,
                                     const Table& r,
                                     const std::vector<uint32_t>& r_rows,
                                     bool parallel,
                                     const std::vector<ColId>* only = nullptr);
  // The one ThetaJoin range body, shared by the standalone kernel's
  // chunks and the morsel stage: appends the matching pairs of probe
  // rows [b, e) (keys `lk`) against every build row, left-major with
  // matches in build-row order, and adds the pairs it had to decide by
  // per-pair ValueOps::Compare to *fallback_pairs.
  Status ThetaRange(const Op& op, const Column& lk, size_t b, size_t e,
                    const ThetaBuild& build, std::vector<uint32_t>* l_rows,
                    std::vector<uint32_t>* r_rows, uint64_t* fallback_pairs);
  // Every matching (left, right) row pair of a theta join with left keys
  // `lk`: ThetaRange over chunks of the left rows, concatenated in order,
  // with the first error a serial left-major scan would hit and the
  // fallback pairs noted on the operator's profile record.
  Status ThetaPairs(const Op& op, const Column& lk, const ThetaBuild& build,
                    std::vector<uint32_t>* l_rows,
                    std::vector<uint32_t>* r_rows);
  // Chunked stable sort: sorts each chunk, then stably merges chunk pairs
  // — byte-identical to std::stable_sort over the whole range.
  void ParallelStableSort(
      std::vector<uint32_t>* perm,
      const std::function<bool(uint32_t, uint32_t)>& less);

  Result<TablePtr> EvalLit(const Op& op);
  Result<TablePtr> EvalProject(const Op& op, const Table& in);
  Result<TablePtr> EvalSelect(const Op& op, const Table& in);
  Result<TablePtr> EvalEquiJoin(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalThetaJoin(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalThetaCount(const Op& op, const Table& l,
                                  const Table& r);
  Result<TablePtr> EvalCross(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalUnion(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalDiffSemi(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalDistinct(const Op& op, const Table& in);
  Result<TablePtr> EvalRowNum(const Op& op, const Table& in);
  Result<TablePtr> EvalRowId(const Op& op, const Table& in);
  Result<TablePtr> EvalFun(const Op& op, const Table& in);
  Result<TablePtr> EvalAggr(const Op& op, const Table& in);
  Result<TablePtr> EvalStep(const Op& op, const Table& in);
  Result<TablePtr> EvalDoc(const Op& op);
  Result<TablePtr> EvalElem(const Op& op, const Table& content,
                            const Table& loop);
  Result<TablePtr> EvalAttr(const Op& op, const Table& value,
                            const Table& loop);
  Result<TablePtr> EvalText(const Op& op, const Table& content,
                            const Table& loop);
  Result<TablePtr> EvalRange(const Op& op, const Table& in);
  Result<TablePtr> EvalCardCheck(const Op& op, const Table& in,
                                 const Table& loop);

  Result<Value> ApplyFun(const Op& op, const std::vector<const Column*>& args,
                         size_t row);

  const Dag& dag_;
  EvalContext* ctx_;
  ValueOps ops_;
  size_t chunk_rows_;
  size_t morsel_rows_;
  size_t inline_rows_;

  // Pipeline plan for the current Eval; empty (pipelined_ false) when
  // pipelining is off or the plan has no fusable chain.
  MorselPlan mplan_;
  bool pipelined_ = false;

  std::unique_ptr<TaskPool> pool_;  // null in serial execution

  // Node constructors append to the NodeStore; everything else only
  // reads it. A constructor operator holds this exclusively for its whole
  // kernel, every other operator holds it shared — chunk and morsel
  // tasks inherit the coordinating unit task's hold (ParallelFor blocks
  // the coordinator).
  std::shared_mutex store_mu_;

  // Guards ctx_->profile and the live-column tracker.
  std::mutex profile_mu_;

  // Governor trip state: set once by the first observed cancel/deadline/
  // budget/fault condition, then sticky for the whole evaluation. Chunk
  // and morsel tasks that observe the trip skip their work, so the
  // owning unit's table would be torn — the unit discards any ok()
  // result produced while tripped_ is set instead of memoizing it.
  std::atomic<bool> tripped_{false};
  std::mutex trip_mu_;
  Status trip_status_;

  // Distinct live memoized columns (tables share columns by pointer, so
  // bytes are counted once per column, not once per referencing table).
  std::map<const Column*, uint32_t> live_cols_;
  size_t live_bytes_ = 0;
  size_t peak_live_bytes_ = 0;
  size_t released_tables_ = 0;
  // Live per-morsel parts of in-flight pipelines (guarded by
  // profile_mu_); counted into peak_live_bytes_ alongside live_bytes_.
  size_t morsel_live_bytes_ = 0;
  void TrackTable(const Table& t);
  void UntrackTable(const Table& t);
};

// Serializes a query result table (schema iter|pos|item, single
// iteration) in sequence order: nodes as XML, atomics via their string
// value, adjacent atomics separated by a single space.
Result<std::string> SerializeResult(const Table& t, const EvalContext& ctx);

// The result items individually rendered (order preserved); useful for
// the multiset comparisons in tests ("any permutation is admissible").
Result<std::vector<std::string>> ResultItems(const Table& t,
                                             const EvalContext& ctx);

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_EVAL_H_
