#include "opt/certify.h"

#include <algorithm>
#include <cstdlib>

namespace exrquy {
namespace {

std::string AtOp(OpId op) { return "@op" + std::to_string(op); }

std::string RowBound(uint64_t n) {
  return n == kUnboundedRows ? "inf" : std::to_string(n);
}

// The proof obligation each rewrite family must discharge. Unknown
// families fail closed ("unknown-family").
const char* ObligationFor(const std::string& rule) {
  if (rule == "column_pruning") return "dead-column";
  if (rule == "weaken_rownum") return "constant-criteria";
  if (rule == "arbitrary-order") return "arbitrary-order";
  if (rule == "distinct_elimination") return "disjoint-steps";
  if (rule == "step_merging") return "step-shape";
  if (rule == "distinct_by_keys") return "key-distinct";
  if (rule == "empty_short_circuit") return "empty-plan";
  if (rule == "union_empty_branch") return "empty-branch";
  if (rule == "keyed-partition") return "keyed-partition";
  if (rule == "semantic-type") return "unit-group";
  if (rule == "order-dependency") return "sorted-prefix";
  if (rule == "join_recognition") return "join-isolation";
  if (rule == "count_join") return "pair-count";
  return "unknown-family";
}

// Independent restatements of the distinct-elimination shape conditions
// (rewrites.cc keeps its own copy: the checker must not trust the code
// it validates).
bool StepLeaves(const Dag& dag, OpId id, std::vector<OpId>* leaves) {
  const Op& op = dag.op(id);
  if (op.kind == OpKind::kUnion) {
    return StepLeaves(dag, op.children[0], leaves) &&
           StepLeaves(dag, op.children[1], leaves);
  }
  if (op.kind == OpKind::kStep) {
    leaves->push_back(id);
    return true;
  }
  return false;
}

bool DisjointSteps(const Dag& dag, OpId a, OpId b) {
  const Op& sa = dag.op(a);
  const Op& sb = dag.op(b);
  return sa.children[0] == sb.children[0] && sa.axis == sb.axis &&
         sa.axis != Axis::kAttribute &&
         sa.test.kind == NodeTest::Kind::kName &&
         sb.test.kind == NodeTest::Kind::kName &&
         sa.test.name != sb.test.name;
}

// The chain a count_join certificate retires, re-matched from its Aggr:
//   Aggr count|g ( [π g | ⋈ g=k (·, M)]* Distinct ( π g,h ( ThetaJoin ) ) )
struct CountChain {
  OpId theta = kNoOp;
  ColId g_in = kNoCol;  // the group column at the ThetaJoin
  ColId h_in = kNoCol;  // the partner column at the ThetaJoin
  std::vector<std::pair<OpId, ColId>> filters;  // (M, k), top-down
};

// Re-matches the chain below `aggr`; an empty string on success, else
// what does not match.
std::string MatchCountChain(const Dag& dag, const Op& aggr, CountChain* out) {
  if (aggr.kind != OpKind::kAggr || aggr.aggr != AggrKind::kCount ||
      aggr.part == kNoCol) {
    return "the rewritten operator is not a grouped count";
  }
  ColId g = aggr.part;
  OpId cur = aggr.children[0];
  while (dag.op(cur).kind != OpKind::kDistinct) {
    const Op& c = dag.op(cur);
    if (c.kind == OpKind::kProject && c.schema == std::vector<ColId>{g}) {
      g = c.proj[0].second;
      cur = c.children[0];
    } else if (c.kind == OpKind::kEquiJoin &&
               dag.op(c.children[0]).schema == std::vector<ColId>{g} &&
               c.col == g) {
      out->filters.emplace_back(c.children[1], c.col2);
      cur = c.children[0];
    } else if (c.kind == OpKind::kEquiJoin &&
               dag.op(c.children[1]).schema == std::vector<ColId>{g} &&
               c.col2 == g) {
      out->filters.emplace_back(c.children[0], c.col);
      cur = c.children[1];
    } else {
      return "op " + std::to_string(cur) +
             " between the count and the pair Distinct is neither a "
             "projection of the group nor a filter join on it";
    }
  }
  const Op& pair = dag.op(dag.op(cur).children[0]);
  if (pair.kind != OpKind::kProject || pair.proj.size() != 2 ||
      (pair.proj[0].first != g && pair.proj[1].first != g)) {
    return "the Distinct is not over a (group, partner) projection";
  }
  const Op& theta = dag.op(pair.children[0]);
  if (theta.kind != OpKind::kThetaJoin) {
    return "the (group, partner) pairs do not come from a ThetaJoin";
  }
  bool g_first = pair.proj[0].first == g;
  out->theta = pair.children[0];
  out->g_in = pair.proj[g_first ? 0 : 1].second;
  out->h_in = pair.proj[g_first ? 1 : 0].second;
  const Op& l = dag.op(theta.children[0]);
  if (l.HasCol(out->g_in) == l.HasCol(out->h_in)) {
    return "group '" + ColName(out->g_in) + "' and partner '" +
           ColName(out->h_in) +
           "' come from the same join input: their pairs are not a "
           "per-group partner count";
  }
  return "";
}

}  // namespace

CertifySettings ResolveCertify(const CertifySettings& options) {
  CertifySettings r = options;
  if (r.mode != CertifyMode::kDefault) return r;
  r.mode = CertifyMode::kCheck;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
  const char* env = std::getenv("EXRQUY_CERTIFY");
  if (env == nullptr) return r;
  std::string v(env);
  if (v == "off" || v == "0") {
    r.mode = CertifyMode::kOff;
  } else if (v == "strict") {
    r.mode = CertifyMode::kStrict;
  } else if (v == "spot") {
    r.mode = CertifyMode::kStrict;
    r.spot_check = true;
  }  // "on", "check", anything else: the default checking mode
  return r;
}

const char* CitedFactKindName(CitedFact::Kind kind) {
  switch (kind) {
    case CitedFact::Kind::kKey:
      return "key";
    case CitedFact::Kind::kConstant:
      return "constant";
    case CitedFact::Kind::kArbitrary:
      return "arbitrary-order";
    case CitedFact::Kind::kInterval:
      return "interval";
    case CitedFact::Kind::kSorted:
      return "sorted-prefix";
    case CitedFact::Kind::kUnitGroup:
      return "unit-group";
    case CitedFact::Kind::kNoRaise:
      return "no-raise";
    case CitedFact::Kind::kKindClass:
      return "kind-class";
    case CitedFact::Kind::kScaffoldFree:
      return "scaffold-free";
    case CitedFact::Kind::kDeadColumn:
      return "dead-column";
    case CitedFact::Kind::kStructural:
      return "structural";
  }
  return "?";
}

CitedFact CiteKey(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kKey;
  f.op = op;
  f.col = col;
  f.text = "key(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteConstant(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kConstant;
  f.op = op;
  f.col = col;
  f.text = "constant(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteArbitrary(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kArbitrary;
  f.op = op;
  f.col = col;
  f.text = "arbitrary-order(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteInterval(OpId op, uint64_t min_rows, uint64_t max_rows) {
  CitedFact f;
  f.kind = CitedFact::Kind::kInterval;
  f.op = op;
  f.min_rows = min_rows;
  f.max_rows = max_rows;
  f.text = "rows[" + RowBound(min_rows) + "," + RowBound(max_rows) + "]" +
           AtOp(op);
  return f;
}

CitedFact CiteSorted(OpId op, std::vector<SortKey> order) {
  CitedFact f;
  f.kind = CitedFact::Kind::kSorted;
  f.op = op;
  f.text = "sorted " + OrderFact{order, false}.ToString() + AtOp(op);
  f.order = std::move(order);
  return f;
}

CitedFact CiteUnitGroup(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kUnitGroup;
  f.op = op;
  f.col = col;
  f.text = "unit-group(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteNoRaise(OpId op) {
  CitedFact f;
  f.kind = CitedFact::Kind::kNoRaise;
  f.op = op;
  f.text = "no-raise" + AtOp(op);
  return f;
}

CitedFact CiteKindClass(OpId op, ColId col, ItemKind kind_class) {
  CitedFact f;
  f.kind = CitedFact::Kind::kKindClass;
  f.op = op;
  f.col = col;
  f.kind_class = kind_class;
  f.text = "kind(" + ColName(col) + ")<=" + ItemKindName(kind_class) +
           AtOp(op);
  return f;
}

CitedFact CiteScaffoldFree(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kScaffoldFree;
  f.op = op;
  f.col = col;
  f.text = "scaffold-free(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteDeadColumn(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kDeadColumn;
  f.op = op;
  f.col = col;
  f.text = "dead(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteStructural(OpId op, std::string text) {
  CitedFact f;
  f.kind = CitedFact::Kind::kStructural;
  f.op = op;
  f.text = std::move(text) + AtOp(op);
  return f;
}

CertifyChecker::CertifyChecker(const Dag* dag, OpId pass_root,
                               std::string force_reject_rule)
    : dag_(dag),
      pass_root_(pass_root),
      force_reject_rule_(std::move(force_reject_rule)),
      audit_(dag) {}

void CertifyChecker::EnsureLive() {
  if (live_ready_) return;
  ColSet seed;
  for (ColId c : {col::iter(), col::pos(), col::item()}) {
    if (dag_->op(pass_root_).HasCol(c)) seed.insert(c);
  }
  live_ = DeriveLiveColumns(*dag_, pass_root_, seed);
  live_ready_ = true;
}

bool CertifyChecker::Fail(RewriteCertificate* cert, const char* obligation,
                          const std::string& detail) {
  cert->valid = false;
  cert->obligation = obligation;
  cert->diagnostic = "certify: [" + std::string(obligation) + "] " +
                     cert->rule + " op " + std::to_string(cert->from) +
                     " -> op " + std::to_string(cert->to) + ": " + detail;
  return false;
}

bool CertifyChecker::ValidateCited(RewriteCertificate* cert,
                                   const char* obligation) {
  for (const CitedFact& f : cert->cited) {
    auto bad = [&](const std::string& why) {
      return Fail(cert, obligation,
                  "cited " + std::string(CitedFactKindName(f.kind)) +
                      " fact '" + f.text + "' " + why);
    };
    switch (f.kind) {
      case CitedFact::Kind::kKey:
        if (audit_.Get(f.op).keys.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "duplicate-free");
        }
        break;
      case CitedFact::Kind::kConstant:
        if (audit_.Get(f.op).constant.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "constant");
        }
        break;
      case CitedFact::Kind::kArbitrary:
        if (audit_.Get(f.op).arbitrary.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "order-meaningless");
        }
        break;
      case CitedFact::Kind::kInterval: {
        const OpFacts& d = audit_.Get(f.op);
        if (f.min_rows > d.min_rows || f.max_rows < d.max_rows) {
          return bad("is not derivable: derived bounds [" +
                     RowBound(d.min_rows) + "," + RowBound(d.max_rows) +
                     "] are not contained in the cited interval");
        }
        break;
      }
      case CitedFact::Kind::kSorted:
        if (!SortedCovers(audit_.Get(f.op), f.order)) {
          return bad("is not derivable: no derived sorted-prefix fact "
                     "covers the cited order");
        }
        break;
      case CitedFact::Kind::kUnitGroup:
        if (audit_.Get(f.op).keys.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "duplicate-free");
        }
        break;
      case CitedFact::Kind::kNoRaise:
        if (audit_.MayRaise(f.op)) {
          return bad("is not derivable: evaluating the operator may "
                     "raise a dynamic error");
        }
        break;
      case CitedFact::Kind::kKindClass:
        if (!KindLe(KindAt(audit_.Get(f.op), f.col), f.kind_class)) {
          return bad("is not derivable: the derived kind '" +
                     std::string(ItemKindName(
                         KindAt(audit_.Get(f.op), f.col))) +
                     "' exceeds the cited class");
        }
        break;
      case CitedFact::Kind::kScaffoldFree:
        if (audit_.Scaffolding(f.op).count(f.col) != 0) {
          return bad("is not derivable: the column carries iteration/"
                     "order scaffolding");
        }
        break;
      case CitedFact::Kind::kDeadColumn: {
        EnsureLive();
        auto it = live_.find(f.op);
        if (it == live_.end()) {
          return bad("names an operator outside the pre-pass region");
        }
        if (it->second.count(f.col) != 0) {
          return bad("is not derivable: the reference liveness walk "
                     "demands the column");
        }
        break;
      }
      case CitedFact::Kind::kStructural:
        break;  // re-checked by the family template below
    }
  }
  return true;
}

bool CertifyChecker::CheckFamily(RewriteCertificate* cert) {
  const char* ob = ObligationFor(cert->rule);
  const Op& from = dag_->op(cert->from);
  const Op& to = dag_->op(cert->to);

  if (cert->rule == "column_pruning") {
    size_t dead = 0;
    for (const CitedFact& f : cert->cited) {
      if (f.kind != CitedFact::Kind::kDeadColumn) {
        return Fail(cert, ob, "unexpected cited fact '" + f.text + "'");
      }
      if (f.op != cert->from) {
        return Fail(cert, ob,
                    "cited fact '" + f.text +
                        "' does not name the rewritten operator");
      }
      ++dead;
    }
    if (dead == 0) {
      return Fail(cert, ob, "no dropped column is cited");
    }
    return true;
  }

  if (cert->rule == "union_empty_branch") {
    if (from.kind != OpKind::kUnion) {
      return Fail(cert, ob, "the rewritten operator is not a Union");
    }
    bool branch_ok = false;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kDeadColumn && f.op != cert->from) {
        return Fail(cert, ob,
                    "cited fact '" + f.text +
                        "' does not name the rewritten operator");
      }
      if (f.kind != CitedFact::Kind::kInterval) continue;
      const Op& branch = dag_->op(f.op);
      if (f.max_rows != 0) {
        return Fail(cert, ob,
                    "cited interval '" + f.text + "' does not pin the "
                    "branch to zero rows");
      }
      if (branch.kind != OpKind::kLit || !branch.lit.rows.empty()) {
        return Fail(cert, ob,
                    "dropped branch op " + std::to_string(f.op) +
                        " is not an empty literal");
      }
      branch_ok = true;
    }
    if (!branch_ok) {
      return Fail(cert, ob, "no empty branch is cited");
    }
    return true;
  }

  if (cert->rule == "distinct_elimination") {
    if (from.kind != OpKind::kDistinct) {
      return Fail(cert, ob, "the rewritten operator is not a Distinct");
    }
    std::vector<OpId> leaves;
    if (!StepLeaves(*dag_, cert->to, &leaves) || leaves.empty()) {
      return Fail(cert, ob,
                  "the replacement is not a (union of) location steps");
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      for (size_t j = i + 1; j < leaves.size(); ++j) {
        if (leaves[i] == leaves[j]) {
          return Fail(cert, ob,
                      "step op " + std::to_string(leaves[i]) +
                          " occurs twice: the union can duplicate rows");
        }
        if (!DisjointSteps(*dag_, leaves[i], leaves[j])) {
          return Fail(cert, ob,
                      "steps op " + std::to_string(leaves[i]) + " and op " +
                          std::to_string(leaves[j]) +
                          " are not provably disjoint");
        }
      }
    }
    return true;
  }

  if (cert->rule == "distinct_by_keys") {
    if (from.kind != OpKind::kDistinct) {
      return Fail(cert, ob, "the rewritten operator is not a Distinct");
    }
    for (const CitedFact& f : cert->cited) {
      bool licensing =
          (f.kind == CitedFact::Kind::kKey ||
           (f.kind == CitedFact::Kind::kInterval && f.max_rows <= 1));
      if (licensing && f.op == cert->to) return true;
    }
    return Fail(cert, ob,
                "no key or at-most-one-row fact is cited for the "
                "before input");
  }

  if (cert->rule == "empty_short_circuit") {
    bool interval = false;
    bool no_raise = false;
    for (const CitedFact& f : cert->cited) {
      if (f.op != cert->from) continue;
      if (f.kind == CitedFact::Kind::kInterval && f.max_rows == 0) {
        interval = true;
      }
      if (f.kind == CitedFact::Kind::kNoRaise) no_raise = true;
    }
    if (!interval) {
      return Fail(cert, ob, "no zero-row interval fact is cited");
    }
    if (!no_raise) {
      return Fail(cert, ob, "no error-capability fact is cited");
    }
    if (to.kind != OpKind::kLit || !to.lit.rows.empty()) {
      return Fail(cert, ob, "the replacement is not an empty literal");
    }
    if (to.schema != from.schema) {
      return Fail(cert, ob,
                  "the replacement's schema differs from the original");
    }
    return true;
  }

  if (cert->rule == "keyed-partition" || cert->rule == "semantic-type") {
    if (from.kind != OpKind::kRowNum) {
      return Fail(cert, ob, "the rewritten operator is not a %");
    }
    // AttachConst shape: Cross(input, one-row literal {rank: 1}).
    if (to.kind != OpKind::kCross) {
      return Fail(cert, ob, "the replacement is not an attached constant");
    }
    const Op& lit = dag_->op(to.children[1]);
    if (lit.kind != OpKind::kLit || lit.lit.rows.size() != 1 ||
        lit.lit.cols != std::vector<ColId>{from.col} ||
        !(lit.lit.rows[0][0] == Value::Int(1))) {
      return Fail(cert, ob,
                  "the replacement does not attach the constant rank 1");
    }
    OpId in = to.children[0];
    for (const CitedFact& f : cert->cited) {
      if (f.op != in) continue;
      if (cert->rule == "semantic-type") {
        if (f.kind == CitedFact::Kind::kUnitGroup && f.col == from.part) {
          return true;
        }
      } else if (f.kind == CitedFact::Kind::kKey && f.col == from.part) {
        return true;
      } else if (f.kind == CitedFact::Kind::kInterval && f.max_rows <= 1) {
        return true;
      }
    }
    return Fail(cert, ob,
                "no singleton-partition fact is cited for the input");
  }

  if (cert->rule == "weaken_rownum") {
    if (from.kind != OpKind::kRowNum || to.kind != OpKind::kRowNum ||
        to.col != from.col) {
      return Fail(cert, ob, "the replacement is not a weakened %");
    }
    OpId in = to.children[0];
    const OpFacts& fin = audit_.Get(in);
    // The surviving criteria must be a subsequence of the original ones;
    // every dropped criterion must be derivably constant.
    size_t ti = 0;
    for (const SortKey& k : from.order) {
      if (ti < to.order.size() && to.order[ti] == k) {
        ++ti;
        continue;
      }
      if (fin.constant.count(k.col) == 0) {
        return Fail(cert, ob,
                    "dropped criterion '" + ColName(k.col) +
                        "' is not derivably constant");
      }
    }
    if (ti != to.order.size()) {
      return Fail(cert, ob,
                  "the surviving criteria are not a subsequence of the "
                  "original ones");
    }
    if (to.part != from.part) {
      if (to.part != kNoCol || from.part == kNoCol ||
          fin.constant.count(from.part) == 0) {
        return Fail(cert, ob,
                    "dropped grouping column is not derivably constant");
      }
    }
    return true;
  }

  if (cert->rule == "arbitrary-order" || cert->rule == "order-dependency") {
    if (from.kind != OpKind::kRowNum) {
      return Fail(cert, ob, "the rewritten operator is not a %");
    }
    bool positional = cert->rule == "order-dependency";
    if (to.kind != OpKind::kRowId || to.col != from.col ||
        to.positional != positional) {
      return Fail(cert, ob,
                  positional
                      ? "the replacement is not a positional #"
                      : "the replacement is not an arbitrary #");
    }
    OpId in = to.children[0];
    const OpFacts& fin = audit_.Get(in);
    if (from.part != kNoCol && fin.constant.count(from.part) == 0) {
      return Fail(cert, ob,
                  "grouping column '" + ColName(from.part) +
                      "' is not derivably constant");
    }
    if (positional) {
      if (!SortedCovers(fin, from.order)) {
        return Fail(cert, ob,
                    "the requested order is not covered by any derivable "
                    "sorted-prefix fact");
      }
      return true;
    }
    // Arbitrary #: after removing the cited constant criteria (each
    // independently re-derived above), either nothing remains or the
    // leading criterion is order-meaningless.
    ColSet cited_const;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kConstant) cited_const.insert(f.col);
    }
    std::vector<SortKey> eff;
    for (const SortKey& k : from.order) {
      if (cited_const.count(k.col) == 0) eff.push_back(k);
    }
    if (!eff.empty() && fin.arbitrary.count(eff.front().col) == 0) {
      return Fail(cert, ob,
                  "leading criterion '" + ColName(eff.front().col) +
                      "' is not derivably order-meaningless");
    }
    return true;
  }

  if (cert->rule == "step_merging") {
    if (from.kind != OpKind::kStep ||
        (from.axis != Axis::kChild && from.axis != Axis::kDescendant &&
         from.axis != Axis::kDescendantOrSelf)) {
      return Fail(cert, ob, "the rewritten operator is not a mergeable "
                            "location step");
    }
    OpId mid = kNoOp;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kStructural) mid = f.op;
    }
    if (mid == kNoOp) {
      return Fail(cert, ob, "no merged-away step is cited");
    }
    const Op& m = dag_->op(mid);
    if (m.kind != OpKind::kStep || m.axis != Axis::kDescendantOrSelf ||
        m.test.kind != NodeTest::Kind::kAnyKind) {
      return Fail(cert, ob,
                  "cited op " + std::to_string(mid) +
                      " is not a descendant-or-self::node() step");
    }
    Axis want = from.axis == Axis::kDescendantOrSelf
                    ? Axis::kDescendantOrSelf
                    : Axis::kDescendant;
    if (to.kind != OpKind::kStep || to.children[0] != m.children[0] ||
        to.axis != want || !(to.test == from.test)) {
      return Fail(cert, ob,
                  "the replacement step does not merge the cited "
                  "descendant-or-self::node() exactly");
    }
    return true;
  }

  if (cert->rule == "join_recognition") {
    if (from.kind != OpKind::kProject) {
      return Fail(cert, ob, "the rewritten operator is not a join anchor");
    }
    bool cited_scaffold = false;
    for (const CitedFact& f : cert->cited) {
      cited_scaffold |= f.kind == CitedFact::Kind::kScaffoldFree;
    }
    if (!cited_scaffold) {
      return Fail(cert, ob, "no scaffold-free fact is cited");
    }
    // Re-scan the whole re-rooted region: it must no longer reach the
    // product space it retires, and every value join in it must pass the
    // isolation and kind gates, independently of what the certificate
    // cites.
    std::vector<OpId> region = dag_->ReachableFrom(cert->to);
    for (const CitedFact& f : cert->cited) {
      if (f.kind != CitedFact::Kind::kStructural) continue;
      if (std::binary_search(region.begin(), region.end(), f.op)) {
        return Fail(cert, ob,
                    "the replacement still reaches the retired product-"
                    "space numbering op " + std::to_string(f.op));
      }
    }
    size_t joins = 0;
    for (OpId id : region) {
      const Op& op = dag_->op(id);
      bool theta = op.kind == OpKind::kThetaJoin;
      bool value_equi = op.kind == OpKind::kEquiJoin && op.value_join;
      if (!theta && !value_equi) continue;
      ++joins;
      if (audit_.Scaffolding(op.children[0]).count(op.col) != 0 ||
          audit_.Scaffolding(op.children[1]).count(op.col2) != 0) {
        return Fail(cert, ob,
                    "join op " + std::to_string(id) +
                        " predicate touches a scaffolding column");
      }
      ItemKind lk = KindAt(audit_.Get(op.children[0]), op.col);
      ItemKind rk = KindAt(audit_.Get(op.children[1]), op.col2);
      if (value_equi) {
        bool safe = lk == rk && (lk == ItemKind::kInt ||
                                 lk == ItemKind::kString ||
                                 lk == ItemKind::kBool);
        if (!safe) {
          return Fail(cert, ob,
                      "join op " + std::to_string(id) +
                          " hash-equality over kinds '" +
                          ItemKindName(lk) + "'/'" + ItemKindName(rk) +
                          "' does not coincide with the eq comparison");
        }
      } else {
        bool comparable = lk != ItemKind::kNode && lk != ItemKind::kAny &&
                          rk != ItemKind::kNode && rk != ItemKind::kAny;
        if (!comparable) {
          return Fail(cert, ob,
                      "join op " + std::to_string(id) +
                          " theta comparison over kinds '" +
                          ItemKindName(lk) + "'/'" + ItemKindName(rk) +
                          "' is not statically comparable");
        }
      }
    }
    if (joins == 0) {
      return Fail(cert, ob, "the replacement contains no value join");
    }
    return true;
  }

  if (cert->rule == "count_join") {
    // The chain is matched below the count rebuilt over the pass's
    // rewritten inputs (the first cited structural fact), which must be
    // the rewritten count itself.
    const CitedFact* count = nullptr;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kStructural) {
        count = &f;
        break;
      }
    }
    if (count == nullptr) {
      return Fail(cert, ob, "no count over the pass's inputs is cited");
    }
    const Op& rebuilt = dag_->op(count->op);
    if (from.kind != OpKind::kAggr || rebuilt.kind != OpKind::kAggr ||
        rebuilt.aggr != from.aggr || rebuilt.col != from.col ||
        rebuilt.part != from.part) {
      return Fail(cert, ob,
                  "cited op " + std::to_string(count->op) +
                      " is not the rewritten count");
    }
    CountChain chain;
    std::string bad = MatchCountChain(*dag_, rebuilt, &chain);
    if (!bad.empty()) return Fail(cert, ob, bad);
    for (const auto& [m, k] : chain.filters) {
      if (audit_.Get(m).keys.count(k) == 0) {
        return Fail(cert, ob,
                    "filter join input op " + std::to_string(m) +
                        ": '" + ColName(k) +
                        "' is not a derivable key, so the join may "
                        "multiply count rows");
      }
    }
    // Walk the replacement down to its ThetaCount: renaming projections
    // and exactly the original keyed filters, on the group column.
    ColId g = from.part;
    ColId n = from.col;
    std::vector<std::pair<OpId, ColId>> unused = chain.filters;
    OpId cur = cert->to;
    while (dag_->op(cur).kind != OpKind::kThetaCount) {
      const Op& c = dag_->op(cur);
      if (c.kind == OpKind::kProject) {
        ColId g_src = kNoCol;
        ColId n_src = kNoCol;
        for (const auto& [nw, old] : c.proj) {
          if (nw == g) g_src = old;
          if (nw == n) n_src = old;
        }
        if (g_src == kNoCol || n_src != n) {
          return Fail(cert, ob,
                      "projection op " + std::to_string(cur) +
                          " does not carry the group and count columns");
        }
        g = g_src;
        cur = c.children[0];
        continue;
      }
      if (c.kind != OpKind::kEquiJoin) {
        return Fail(cert, ob,
                    "op " + std::to_string(cur) + " (" +
                        OpKindName(c.kind) +
                        ") above the counting join is neither a "
                        "projection nor a filter join");
      }
      bool count_left = c.col == g;
      std::pair<OpId, ColId> f =
          count_left ? std::make_pair(c.children[1], c.col2)
                     : std::make_pair(c.children[0], c.col);
      auto it = std::find(unused.begin(), unused.end(), f);
      if ((!count_left && c.col2 != g) || it == unused.end()) {
        return Fail(cert, ob,
                    "filter join op " + std::to_string(cur) +
                        " is not one of the original keyed filters on "
                        "the group column");
      }
      unused.erase(it);
      cur = count_left ? c.children[0] : c.children[1];
    }
    if (!unused.empty()) {
      return Fail(cert, ob,
                  "filter join on op " +
                      std::to_string(unused.front().first) +
                      " is not re-applied to the count table");
    }
    const Op& tc = dag_->op(cur);
    const Op& tj = dag_->op(chain.theta);
    if (tc.children != tj.children || tc.fun != tj.fun ||
        tc.keys != std::vector<ColId>{tj.col, tj.col2} ||
        tc.part != chain.g_in || tc.col2 != chain.h_in || tc.col != n ||
        g != chain.g_in) {
      return Fail(cert, ob,
                  "counting join op " + std::to_string(cur) +
                      " does not count the ThetaJoin op " +
                      std::to_string(chain.theta) +
                      "'s partners per group");
    }
    return true;
  }

  return Fail(cert, ob, "no proof-obligation template for this family");
}

bool CertifyChecker::Check(RewriteCertificate* cert) {
  cert->checked = true;
  cert->valid = false;
  cert->obligation.clear();
  cert->diagnostic.clear();
  if (!force_reject_rule_.empty() && cert->rule == force_reject_rule_) {
    return Fail(cert, "forced-reject",
                "rejected by force_reject_rule (test hook)");
  }
  const char* ob = ObligationFor(cert->rule);
  if (cert->from == kNoOp || cert->from >= dag_->size() ||
      cert->to == kNoOp || cert->to >= dag_->size()) {
    return Fail(cert, "certificate-roots",
                "before/after roots do not name operators in the DAG");
  }
  for (const ColWitness& w : cert->witness) {
    if (w.after == kNoCol || !dag_->op(cert->to).HasCol(w.after)) {
      return Fail(cert, "witness",
                  "witness column '" +
                      (w.after == kNoCol ? std::string("<none>")
                                         : ColName(w.after)) +
                      "' is not produced by the replacement");
    }
    if (w.before == kNoCol || !dag_->op(cert->from).HasCol(w.before)) {
      return Fail(cert, "witness",
                  "witness column '" +
                      (w.before == kNoCol ? std::string("<none>")
                                          : ColName(w.before)) +
                      "' is not produced by the original");
    }
  }
  for (const CitedFact& f : cert->cited) {
    if (f.op == kNoOp || f.op >= dag_->size()) {
      return Fail(cert, ob,
                  "cited fact '" + f.text +
                      "' names an operator outside the DAG");
    }
  }
  if (cert->cited.empty()) {
    return Fail(cert, ob, "the certificate cites no facts");
  }
  if (!ValidateCited(cert, ob)) return false;
  if (!CheckFamily(cert)) return false;
  cert->valid = true;
  return true;
}

}  // namespace exrquy
