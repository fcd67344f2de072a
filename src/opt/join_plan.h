// Value-join recognition: the paper's loop-lifted compilation scheme
// evaluates a comparison between two unordered sequences by building the
// *product space* of the enclosing for-loops — a per-iteration join on
// the iteration column whose input tables grow with |outer| x |inner|
// rows (Q8/Q9's quadratic/cubic "join" queries, Section 5: "execution
// times explode"). The comparison itself never looks at the iteration
// scaffolding, though: per iteration it compares the very same item
// values that a value-based join would pair directly.
//
// This module isolates that join graph from the iteration scaffolding
// (after "XQuery Join Graph Isolation"), whatever the return clause
// looks like. There is one anchor: the FLWOR back-mapping
//   π{iter:iter1X, ...}([num](⋈ iter=bindX(body, map_s) [⋈ order keys]))
// that CompileFlworRest emits for an inner `for $t in S where P return R`.
//
//  * RecognizeJoins proves three things from the plan's own structure:
//    the inner space S is the outer loop × a loop-invariant document-
//    level path (every iteration steps the same path from the same
//    document root); the where filter P is an EBV over product-space
//    comparisons, one JoinPred per `and` conjunct; and the return body
//    R and any order by keys read S only through the where filter's
//    restricted scope ⋈ iterR(·, π{iterR:iter}(σ(EBV…))), using each
//    iteration column as an iteration id and never as a value.
//
//  * EmitJoin rebuilds the inner sequence once at document level, keys
//    it with a fresh # (rid), re-roots both comparison chains onto their
//    small inputs, and joins them on the *compared item columns* — an
//    equality predicate over hash-safe kinds becomes a value-marked
//    EquiJoin (Op::value_join), anything else a ThetaJoin. The surviving
//    (outer iteration, rid) pairs are renumbered densely, and the whole
//    return region is re-emitted over them with its leaves substituted.
//    Iteration and order scaffolding columns (iter, pos, % results, the
//    fresh rid) never appear in a join predicate; the plan verifier
//    audits this independently ([join-isolation-claim] in
//    opt/verify.cc), and the certificate checker re-scans the re-rooted
//    region and confirms it no longer reaches the product space.
//
// The surviving (outer, rid) pairs reproduce the original per-iteration
// survivors exactly: the S-space iterations are in bijection with
// (outer iteration, document item) pairs, and each comparison side
// computes a per-row function of only its own half of that pair.
#ifndef EXRQUY_OPT_JOIN_PLAN_H_
#define EXRQUY_OPT_JOIN_PLAN_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "opt/analyses.h"
#include "opt/rewrites.h"

namespace exrquy {

// One recognized comparison `a_col cmp b_col` between a plan computed
// over the inner sequence (cur: leaves items_s / loop_s) and one over
// the outer loop's items lifted into the product space (leaf `lift`).
// A predicate EBV built from an `and`-conjunction yields one JoinPred
// per conjunct; the region's survivors are the iterations where every
// conjunct has a matching pair, i.e. the intersection of the per-
// predicate survivor sets.
struct JoinPred {
  FunKind cmp = FunKind::kEq;
  ColId a_col = kNoCol;
  ColId b_col = kNoCol;
  bool a_in_cur = false;  // a_col lives on the inner (cur) side
  OpId cur_root = kNoOp;
  OpId outer_root = kNoOp;
  ColId cur_iter = kNoCol;    // iteration column at each side's top
  ColId outer_iter = kNoCol;
};

// One recognized value-join region, keyed by its anchor: the Project
// over the FLWOR back-mapping that re-attaches the inner loop's results
// to the outer loop. All ids refer to the plan RecognizeJoins scanned.
struct JoinSpec {
  OpId anchor = kNoOp;

  // The recognized comparisons — one for a plain predicate, several for
  // an `and`-conjunction of product-space comparisons.
  std::vector<JoinPred> preds;

  // The product space S: numbering op N under map_s/loop_s/items_s.
  OpId space_num = kNoOp;  // N; a % orders S, a # leaves it arbitrary
  OpId items_s = kNoOp;    // π{iter:bind, item}(N)
  OpId loop_s = kNoOp;     // π{iter:bind}(N)
  OpId map_s = kNoOp;      // π{iter1X:iter, bindX:bind}(N)
  ColId iter1x = kNoCol;
  ColId bindx = kNoCol;
  // σ item over the where filter's EBV: exactly the surviving iterations.
  OpId sel = kNoOp;

  // Outer loop: `lift` = π{iter:bindX, item}(⋈(outer_items, map_s))
  // lifts outer_items into S; outer_items = π{iter:bind, item}(src_num)
  // enumerates the outer iterations themselves.
  OpId lift = kNoOp;
  OpId outer_items = kNoOp;
  OpId src_num = kNoOp;

  // Document-level rebuild of the per-iteration content: the original
  // Step ops (innermost first) applied over `base` (an existing
  // Cross(1-row Lit, Doc)) or over a fresh one around `doc_op`.
  OpId base = kNoOp;
  OpId doc_op = kNoOp;
  std::vector<OpId> steps;

  // Iteration-independent sub-plans the comparison sides join in by
  // value: fixed tables, left untouched by the re-rooting.
  std::vector<OpId> const_roots;

  // The return region between the anchor and S's leaves (items_s,
  // loop_s, map_s, sel): every operator that reaches N, bottom-up.
  // Operators outside it never read S and are reused as rewritten.
  std::vector<OpId> region;
  // ⋈ iter=iterR(X, π{iterR:iter}(sel)) — the where filter's restricted
  // scope. Over the survivors it only copies iter into iterR.
  std::vector<OpId> restrict_joins;
  // Anchor columns carrying ids a # minted: their values legitimately
  // differ after the rebuild.
  std::vector<ColId> inexact;
};

// The rewriting pass's view of the scanned plan.
struct PassView {
  // The pass's rewrite of an operator it has already visited.
  std::function<OpId(OpId)> rewritten;
  // The columns an operator's consumers read (ComputeICols).
  std::function<const ColSet&(OpId)> required;
};

// Scans the sub-plan rooted at `root` for value-join regions. Returns
// the recognized specs keyed by anchor id. Never mutates the plan;
// `sem` proves location steps the survivor rebuild stops evaluating for
// non-surviving iterations cannot raise.
std::map<OpId, JoinSpec> RecognizeJoins(const Dag& dag, OpId root,
                                        SemTypeTracker* sem);

// Builds the re-rooted join plan for `spec` and returns its root.
// `view.rewritten` supplies spec.outer_items and everything outside the
// region; the region is re-emitted with only the columns `view.required`
// says its consumers read, as the pass's column pruning would.
// Returns kNoOp when the join is refused: equality keys whose kinds are
// not provably hash-safe fall back to ThetaJoin, and ThetaJoin in turn
// requires options.theta_join plus statically non-node operand kinds
// (node operands make the comparison itself a type error — the original
// plan must keep raising it per iteration). `detail` receives the
// justification for the --explain-order trade log.
OpId EmitJoin(Dag* dag, const JoinSpec& spec, const PassView& view,
              const RewriteOptions& options, SemTypeTracker* sem,
              CardTracker* cards, std::string* detail);

}  // namespace exrquy

#endif  // EXRQUY_OPT_JOIN_PLAN_H_
