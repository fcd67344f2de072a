// Per-operator execution profiling. Two granularities:
//
//  * aggregated by operator kind and by the compiler's provenance labels
//    — this regenerates Table 2 of the paper ("a breakdown of where time
//    goes during evaluation");
//  * one record per evaluated operator id — wall time, scheduler queue
//    wait, input/output cardinalities and chunk count — which makes the
//    parallel engine observable: ToJson() dumps the whole run, including
//    the peak live intermediate-table footprint under refcounted
//    release.
//
// The profile itself is a plain value type (copied into QueryResult);
// the evaluator serializes concurrent Record calls externally.
#ifndef EXRQUY_ENGINE_PROFILE_H_
#define EXRQUY_ENGINE_PROFILE_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"

namespace exrquy {

class Profile {
 public:
  struct Bucket {
    double ms = 0;
    size_t ops = 0;
    size_t out_rows = 0;
  };

  // One evaluated operator.
  struct OpMetrics {
    OpId op = kNoOp;
    std::string kind;        // OpKindName
    std::string prov;        // provenance label ("" when unlabeled)
    double ms = 0;           // kernel wall time
    // Wait for the node-store hold before the kernel ran: behind a
    // constructor's exclusive hold, or — for a constructor — behind the
    // readers it must exclude. Never part of `ms`.
    double blocked_ms = 0;
    // Scheduler-queue wait, ready -> start, charged once per *scheduled
    // unit*: 0 for fused pipeline stages (the wait is on the pipeline's
    // record) and for units run inline on the thread that readied them —
    // so summing queue_ms over ops never double-counts a backlog.
    double queue_ms = 0;
    size_t in_rows = 0;      // sum over inputs
    size_t out_rows = 0;
    size_t chunks = 1;       // chunk/morsel tasks (1 = unchunked)
    // Fused pipeline this op ran in (index into pipelines()); -1 when it
    // ran standalone. Fused stages report per-morsel-summed wall time
    // and exact row counts, but no queue wait of their own.
    int64_t pipeline = -1;
    // ThetaJoin/ThetaCount only: pairs decided by the per-pair
    // ValueOps::Compare fallback instead of typed keys (engine/eval.cc).
    uint64_t theta_fallback_pairs = 0;
  };

  // One fused pipeline (morsel-driven execution, opt/morsel_plan.h).
  struct PipelineMetrics {
    uint32_t id = 0;         // index in plan order
    OpId head = kNoOp;
    OpId sink = kNoOp;
    size_t stages = 0;
    size_t morsels = 0;
    // Unit wall time (morsel pulls + ordered merge). Stage wall times
    // already land in total_ms() via their OpMetrics, so this is NOT
    // added to total_ms() again.
    double ms = 0;
    double blocked_ms = 0;   // store-hold wait before the unit ran
    double queue_ms = 0;     // ready -> start, once for the whole unit
    size_t in_rows = 0;      // morsel-domain (head source) rows
    size_t out_rows = 0;     // sink output rows
  };

  void Record(const Op& op, OpMetrics m);
  void RecordPipeline(PipelineMetrics m);

  // Engine-level facts about the run.
  void SetExecution(size_t threads, bool release_intermediates);
  void SetMemory(size_t peak_live_bytes, size_t final_live_bytes,
                 size_t released_tables);
  // Memory-governor accounting (common/governor.h MemoryBudget): the
  // configured limit (0 = unlimited), bytes still charged when the query
  // ended, and the high-water mark across tables + nodes + strings.
  void SetBudget(size_t limit_bytes, size_t charged_bytes,
                 size_t peak_bytes);
  // Query-service cache interaction for this execution (api/service.h):
  // whether the plan / serialized result came from cache, and how many
  // result-cache evictions this query's insertion triggered. Zeroed for
  // plain Session executions.
  void SetCache(bool plan_cache_hit, bool result_cache_hit,
                uint64_t result_evictions);
  // Query-service admission facts (api/admission.h): time spent queued
  // for a worker slot, number of execution attempts (1 = no retry), and
  // whether the run was admitted in degraded mode (serial execution,
  // caches bypassed). Zeroed for plain Session executions.
  void SetAdmission(double queue_ms, uint32_t attempts, bool degraded);

  const std::map<std::string, Bucket>& by_prov() const { return by_prov_; }
  const std::map<std::string, Bucket>& by_kind() const { return by_kind_; }
  double total_ms() const { return total_ms_; }

  // Sorted by operator id (insertion order is scheduling-dependent).
  const std::vector<OpMetrics>& ops() const;
  // Sorted by pipeline id (same reason).
  const std::vector<PipelineMetrics>& pipelines() const;

  size_t threads() const { return threads_; }
  size_t peak_live_bytes() const { return peak_live_bytes_; }
  size_t final_live_bytes() const { return final_live_bytes_; }
  size_t released_tables() const { return released_tables_; }
  size_t budget_limit_bytes() const { return budget_limit_bytes_; }
  size_t budget_charged_bytes() const { return budget_charged_bytes_; }
  size_t budget_peak_bytes() const { return budget_peak_bytes_; }
  bool plan_cache_hit() const { return plan_cache_hit_; }
  bool result_cache_hit() const { return result_cache_hit_; }
  uint64_t result_cache_evictions() const { return result_cache_evictions_; }
  double queue_ms() const { return queue_ms_; }
  uint32_t attempts() const { return attempts_; }
  bool degraded() const { return degraded_; }

  // Table 2-style rendering: one line per provenance label, with
  // millisecond and percentage columns, sorted by time descending.
  std::string ToString() const;

  // The full run as a JSON object: execution facts, memory footprint,
  // per-operator records and the two aggregations.
  std::string ToJson() const;

 private:
  std::map<std::string, Bucket> by_prov_;
  std::map<std::string, Bucket> by_kind_;
  double total_ms_ = 0;
  mutable std::vector<OpMetrics> ops_;  // sorted lazily by ops()
  mutable bool ops_sorted_ = true;
  mutable std::vector<PipelineMetrics> pipelines_;  // sorted lazily
  mutable bool pipelines_sorted_ = true;
  size_t threads_ = 1;
  bool release_intermediates_ = true;
  size_t peak_live_bytes_ = 0;
  size_t final_live_bytes_ = 0;
  size_t released_tables_ = 0;
  size_t budget_limit_bytes_ = 0;
  size_t budget_charged_bytes_ = 0;
  size_t budget_peak_bytes_ = 0;
  bool plan_cache_hit_ = false;
  bool result_cache_hit_ = false;
  uint64_t result_cache_evictions_ = 0;
  double queue_ms_ = 0;
  uint32_t attempts_ = 0;  // 0 = not a service execution
  bool degraded_ = false;
};

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_PROFILE_H_
