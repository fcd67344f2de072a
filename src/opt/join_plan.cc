#include "opt/join_plan.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/check.h"
#include "common/symbols.h"

namespace exrquy {
namespace {

// The old column that Project `p` exposes as `n`, or kNoCol.
ColId ProjOld(const Op& p, ColId n) {
  for (const auto& [nn, oo] : p.proj) {
    if (nn == n) return oo;
  }
  return kNoCol;
}

// Project with exactly the given (new, old) entries, in any order.
bool ProjIs(const Op& p, std::vector<std::pair<ColId, ColId>> want) {
  if (p.kind != OpKind::kProject || p.proj.size() != want.size()) {
    return false;
  }
  for (const auto& e : p.proj) {
    auto it = std::find(want.begin(), want.end(), e);
    if (it == want.end()) return false;
    want.erase(it);
  }
  return true;
}

bool IsOneRowLit(const Op& op) {
  return op.kind == OpKind::kLit && op.lit.rows.size() == 1;
}

// One-row boolean literal [item = value] — the EBV true/false padding.
bool IsBoolLit(const Op& op, bool value) {
  return IsOneRowLit(op) && op.lit.cols.size() == 1 &&
         op.lit.cols[0] == col::item() && op.lit.rows[0][0] == Value::Bool(value);
}

bool IsNumbering(const Op& op) {
  return op.kind == OpKind::kRowNum || op.kind == OpKind::kRowId;
}

// One product-space comparison raised from the predicate EBV, before
// its sides are classified as cur/outer.
struct RawPred {
  OpId side_a;
  OpId side_b;
  ColId iter2x;  // the per-iteration join's right-side iteration column
  FunKind cmp;
  ColId a_col;
  ColId b_col;
};

// How a column carrying iteration ids inside a return region relates to
// its rebuild over the survivors. The rebuild renames S's iterations
// injectively, preserving their order within each outer iteration (and
// N's order there only when N is a %), so such a column may serve as a
// join key, a partition or a sort key, never as a value.
struct IdCol {
  OpId dom = kNoOp;        // the numbering that minted the ids (N for S)
  bool arbitrary = false;  // a # minted them, or a % ordered by such ids

  bool operator==(const IdCol& other) const = default;
};

// One region operator's shape: which columns carry ids, and whether
// every row already belongs to a surviving iteration.
struct RegionShape {
  bool fixed = false;       // never reaches S: identical in the rebuild
  bool restricted = false;  // rows only for where-survivors
  std::map<ColId, IdCol> ids;
  // Columns holding the outer iteration (map_s's iter1X): values, the
  // same in the rebuild, and the groups within which ids keep order.
  ColSet outer;
};

// Functions whose per-row evaluation cannot raise.
bool NeverRaises(FunKind f) {
  switch (f) {
    case FunKind::kAtomize:
    case FunKind::kToString:
    case FunKind::kAnd:
    case FunKind::kOr:
    case FunKind::kNot:
      return true;
    default:
      return false;
  }
}

class Recognizer {
 public:
  Recognizer(const Dag& dag, SemTypeTracker* sem) : dag_(dag), sem_(sem) {}

  std::map<OpId, JoinSpec> Run(OpId root) {
    std::vector<OpId> order = dag_.ReachableFrom(root);
    for (OpId id : order) {
      OpId n = PaddingSpace(id);
      if (n != kNoOp) wheres_[n].push_back(id);
    }
    std::map<OpId, JoinSpec> specs;
    for (OpId id : order) {
      JoinSpec spec;
      if (MatchFlwor(id, specs, &spec)) specs.emplace(id, std::move(spec));
    }
    return specs;
  }

 private:
  const Op& op(OpId id) const { return dag_.op(id); }

  // Whether `a` or `b` is reachable from `id` (inclusive). `memo` must
  // be scoped to one (a, b) pair.
  bool Reaches(OpId id, OpId a, OpId b, std::map<OpId, int>* memo) const {
    if (id == a || id == b) return true;
    if (auto it = memo->find(id); it != memo->end()) return it->second != 0;
    bool r = false;
    for (OpId c : op(id).children) {
      if (Reaches(c, a, b, memo)) {
        r = true;
        break;
      }
    }
    (*memo)[id] = r ? 1 : 0;
    return r;
  }

  // The FLWOR back-mapping anchor of an inner `for` with a `where`:
  //   A = π{iter:iter1X, ...}([num](⋈ iter=kb(…(⋈ iter=bindX(B,
  //       map_s))…, keys)))
  //   map_s = π{iter1X:iter, bindX:bind}(N)
  // with zero or more order by key joins above the back-mapping. B, the
  // keys and A must read S only through the where filter's restricted
  // scope (RegionWalk). Anchors nesting one recognized earlier in this
  // scan wait for the next pass, which sees the inner one re-rooted.
  bool MatchFlwor(OpId id, const std::map<OpId, JoinSpec>& found,
                  JoinSpec* s) {
    const Op& a = op(id);
    if (a.kind != OpKind::kProject) return false;
    ColId iter1x = ProjOld(a, col::iter());
    if (iter1x == kNoCol || iter1x == col::iter()) return false;
    OpId cur = a.children[0];
    if (IsNumbering(op(cur))) cur = op(cur).children[0];
    for (;;) {
      const Op& j = op(cur);
      if (j.kind != OpKind::kEquiJoin || j.value_join ||
          j.col != col::iter()) {
        return false;
      }
      const Op& m = op(j.children[1]);
      if (m.kind == OpKind::kProject && IsNumbering(op(m.children[0])) &&
          ProjIs(m, {{iter1x, col::iter()},
                     {j.col2, op(m.children[0]).col}})) {
        s->map_s = j.children[1];
        s->space_num = m.children[0];
        s->bindx = j.col2;
        break;
      }
      cur = j.children[0];  // an order by key join
    }
    OpId n_id = s->space_num;
    const Op& n = op(n_id);

    // The where filter: a Select over the EBV scaffolding padded by S's
    // own loop.
    std::vector<RawPred> raws;
    for (OpId c : wheres_[n_id]) {
      raws.clear();
      if (MatchEbv(c, n_id, s, &raws)) {
        s->sel = c;
        break;
      }
    }
    if (s->sel == kNoOp) return false;
    // items_s = π{iter:bind, item}(N) — hash-consing makes it unique, so
    // a scan of the predicate's region finds the one the sides use.
    for (OpId c : dag_.ReachableFrom(s->sel)) {
      const Op& o = op(c);
      if (o.kind == OpKind::kProject && o.children[0] == n_id &&
          ProjIs(o, {{col::iter(), n.col}, {col::item(), col::item()}})) {
        s->items_s = c;
        break;
      }
    }
    s->anchor = id;
    s->iter1x = iter1x;
    if (!MatchSpace(n_id, s) || !ClassifyAll(raws, s)) return false;

    region_memo_.clear();
    reach_memo_.clear();
    found_ = &found;
    spec_ = s;
    std::optional<RegionShape> top = RegionWalk(a.children[0]);
    if (!top || top->fixed || !top->restricted) return false;
    for (const auto& [nn, old] : a.proj) {
      auto it = top->ids.find(old);
      if (it == top->ids.end()) continue;
      if (!it->second.arbitrary) return false;
      s->inexact.push_back(nn);
    }
    s->region.push_back(id);
    return true;
  }

  // Proves that the rebuild over the survivors reproduces `id`: with φ
  // the renaming of surviving S-iterations to fresh ids, the rebuilt
  // operator equals φ(id restricted to survivors). Each admitted
  // operator is per-iteration (rows of one iteration depend only on
  // input rows of that iteration) and uses id columns only as ids.
  // Operators whose input is not yet restricted must also be unable to
  // raise, because the rebuild stops evaluating them for non-surviving
  // iterations. Returns nullopt when the region is refused.
  std::optional<RegionShape> RegionWalk(OpId id) {
    if (auto it = region_memo_.find(id); it != region_memo_.end()) {
      return it->second;
    }
    std::optional<RegionShape> r = RegionShapeOf(id);
    if (r && !r->fixed) {
      if (r->ids.empty() && !r->restricted) r.reset();
    }
    if (r && !r->fixed && !IsRegionLeaf(id)) spec_->region.push_back(id);
    region_memo_[id] = r;
    return r;
  }

  bool IsRegionLeaf(OpId id) const {
    return id == spec_->sel || id == spec_->items_s ||
           id == spec_->loop_s || id == spec_->map_s;
  }

  std::optional<RegionShape> RegionShapeOf(OpId id) {
    const JoinSpec& s = *spec_;
    IdCol space{s.space_num, op(s.space_num).kind == OpKind::kRowId};
    RegionShape out;
    if (id == s.sel) {
      out.restricted = true;
      out.ids[col::iter()] = space;
      return out;
    }
    if (id == s.items_s || id == s.loop_s) {
      out.ids[col::iter()] = space;
      return out;
    }
    if (id == s.map_s) {
      out.ids[s.bindx] = space;
      out.outer.insert(s.iter1x);
      return out;
    }
    if (id == s.space_num) return std::nullopt;  // e.g. a `for … at` rank
    if (!Reaches(id, s.space_num, kNoOp, &reach_memo_)) {
      out.fixed = true;
      return out;
    }
    if (found_->count(id) != 0) return std::nullopt;

    const Op o = op(id);
    std::vector<RegionShape> in;
    for (OpId c : o.children) {
      std::optional<RegionShape> sub = RegionWalk(c);
      if (!sub) return std::nullopt;
      in.push_back(std::move(*sub));
    }
    auto is_id = [](const RegionShape& r, ColId c) {
      return r.ids.count(c) != 0;
    };
    // Every non-fixed input already restricted to survivors.
    auto all_restricted = [&] {
      for (const RegionShape& r : in) {
        if (!r.fixed && !r.restricted) return false;
      }
      return true;
    };

    switch (o.kind) {
      case OpKind::kProject:
        out.restricted = in[0].restricted;
        for (const auto& [nn, old] : o.proj) {
          if (auto it = in[0].ids.find(old); it != in[0].ids.end()) {
            out.ids[nn] = it->second;
          }
          if (in[0].outer.count(old) != 0) out.outer.insert(nn);
        }
        return out;
      case OpKind::kSelect:
        if (is_id(in[0], o.col)) return std::nullopt;
        return in[0];
      case OpKind::kFun:
        for (ColId c : o.args) {
          if (is_id(in[0], c)) return std::nullopt;
        }
        if (!NeverRaises(o.fun) && !all_restricted()) return std::nullopt;
        return in[0];
      case OpKind::kStep: {
        auto it = in[0].ids.find(col::iter());
        if (it == in[0].ids.end()) return std::nullopt;
        if (!in[0].restricted &&
            sem_->Get(o.children[0]).KindOf(col::item()) != ItemKind::kNode) {
          return std::nullopt;  // a step over a non-node raises
        }
        out.restricted = in[0].restricted;
        out.ids[col::iter()] = it->second;
        return out;
      }
      case OpKind::kDistinct:
        // Rows keep their id columns, and ids are renamed injectively:
        // global dedup equals per-iteration dedup.
        return in[0];
      case OpKind::kCross:
        if (in[0].fixed == in[1].fixed) return std::nullopt;
        return in[0].fixed ? in[1] : in[0];
      case OpKind::kUnion:
        if (in[0].fixed || in[1].fixed) return std::nullopt;
        out.restricted = in[0].restricted && in[1].restricted;
        for (ColId c : in[0].outer) {
          if (in[1].outer.count(c) != 0) out.outer.insert(c);
        }
        for (ColId c : o.schema) {
          auto l = in[0].ids.find(c);
          auto r = in[1].ids.find(c);
          bool lk = l != in[0].ids.end();
          bool rk = r != in[1].ids.end();
          if (!lk && !rk) continue;
          if (lk && rk && l->second == r->second) {
            out.ids[c] = l->second;
            continue;
          }
          // One branch numbers by #: the merged column is as free as
          // that numbering. Anything else mixes renamed ids with values.
          if ((lk && !l->second.arbitrary) || (rk && !r->second.arbitrary)) {
            return std::nullopt;
          }
          out.ids[c] = IdCol{id, true};
        }
        return out;
      case OpKind::kDifference:
      case OpKind::kSemiJoin: {
        if (in[0].fixed) return std::nullopt;
        bool keyed = false;
        for (ColId k : o.keys) {
          auto l = in[0].ids.find(k);
          if (in[1].fixed) {
            if (l != in[0].ids.end()) return std::nullopt;
            continue;
          }
          auto r = in[1].ids.find(k);
          bool lk = l != in[0].ids.end();
          bool rk = r != in[1].ids.end();
          if (lk != rk || (lk && !(l->second == r->second))) {
            return std::nullopt;
          }
          keyed |= lk;
        }
        if (!in[1].fixed && !keyed) return std::nullopt;
        out = in[0];
        if (o.kind == OpKind::kSemiJoin && !in[1].fixed) {
          out.restricted = in[0].restricted || in[1].restricted;
        }
        return out;
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin: {
        if (!in[0].fixed && !in[1].fixed) {
          // Per-iteration pairing on ids of one numbering.
          if (o.kind != OpKind::kEquiJoin || o.value_join) {
            return std::nullopt;
          }
          auto l = in[0].ids.find(o.col);
          auto r = in[1].ids.find(o.col2);
          if (l == in[0].ids.end() || r == in[1].ids.end() ||
              l->second.dom != r->second.dom) {
            return std::nullopt;
          }
          const Op& rp = op(o.children[1]);
          if (rp.kind == OpKind::kProject && rp.children[0] == spec_->sel &&
              ProjIs(rp, {{o.col2, col::iter()}})) {
            spec_->restrict_joins.push_back(id);
          }
          out.ids = in[0].ids;
          out.ids.insert(in[1].ids.begin(), in[1].ids.end());
          out.outer = in[0].outer;
          out.outer.insert(in[1].outer.begin(), in[1].outer.end());
          out.restricted = in[0].restricted || in[1].restricted;
          return out;
        }
        // Against a fixed table: keyed on values, so each iteration's
        // rows meet the same table either way.
        const RegionShape& t = in[0].fixed ? in[1] : in[0];
        ColId tk = in[0].fixed ? o.col2 : o.col;
        if (is_id(t, tk)) return std::nullopt;
        if (o.kind == OpKind::kThetaJoin && !t.restricted) {
          return std::nullopt;  // the comparison raises per pair
        }
        return t;
      }
      case OpKind::kRowNum: {
        // Ranks stay values when every group's rows survive intact (the
        // groups are iterations, or every row already survived) and the
        // order criteria are values, or ids compared within one outer
        // iteration. Otherwise the column carries fresh ids of its own.
        bool grouped = o.part != kNoCol && is_id(in[0], o.part);
        bool within_outer = o.part != kNoCol && in[0].outer.count(o.part);
        bool arbitrary = false;
        bool by_ids = false;
        for (const SortKey& k : o.order) {
          auto it = in[0].ids.find(k.col);
          if (it == in[0].ids.end()) continue;
          by_ids = true;
          arbitrary |= it->second.arbitrary;
        }
        out = in[0];
        bool same_ranks =
            grouped ||
            (in[0].restricted && (!by_ids || within_outer));
        if (same_ranks && !arbitrary) return out;
        out.ids[o.col] = IdCol{id, arbitrary};
        return out;
      }
      case OpKind::kRowId:
        // A positional # asserts physical row order, which the rebuild
        // does not promise to keep.
        if (o.positional) return std::nullopt;
        out = in[0];
        out.ids[o.col] = IdCol{id, true};
        return out;
      case OpKind::kAggr: {
        if (is_id(in[0], o.col2)) return std::nullopt;
        if (!o.keys.empty()) {
          auto it = in[0].ids.find(o.keys[0]);
          if (it != in[0].ids.end() && it->second.arbitrary) {
            return std::nullopt;
          }
        }
        bool may_raise = o.aggr == AggrKind::kSum ||
                         o.aggr == AggrKind::kMax ||
                         o.aggr == AggrKind::kMin ||
                         o.aggr == AggrKind::kAvg;
        if (may_raise && !in[0].restricted) return std::nullopt;
        out.restricted = in[0].restricted;
        if (in[0].outer.count(o.part) != 0) out.outer.insert(o.part);
        if (o.part != kNoCol && is_id(in[0], o.part)) {
          out.ids[o.part] = in[0].ids.at(o.part);
        } else if (!in[0].restricted) {
          return std::nullopt;  // one group across iterations
        }
        return out;
      }
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode:
      case OpKind::kCardCheck: {
        // Children (content|value|checked, loop), matched by iter. All
        // four can raise, so both inputs must already be restricted.
        auto c = in[0].ids.find(col::iter());
        auto l = in[1].ids.find(col::iter());
        if (in[0].fixed || in[1].fixed || c == in[0].ids.end() ||
            l == in[1].ids.end() || !(c->second == l->second) ||
            !all_restricted()) {
          return std::nullopt;
        }
        if (o.kind == OpKind::kCardCheck) return in[0];
        out.restricted = true;
        out.ids[col::iter()] = l->second;
        return out;
      }
      default:
        return std::nullopt;
    }
  }

  // The numbering N whose loop π{iter:bind}(N) pads the EBV under the
  // Select `id` (a where filter candidate; MatchEbv checks the rest), or
  // kNoOp.
  OpId PaddingSpace(OpId id) const {
    const Op& sel = op(id);
    if (sel.kind != OpKind::kSelect) return kNoOp;
    const Op& u = op(sel.children[0]);
    if (u.kind != OpKind::kUnion) return kNoOp;
    const Op& c = op(u.children[1]);
    if (c.kind != OpKind::kCross) return kNoOp;
    const Op& d = op(c.children[0]);
    if (d.kind != OpKind::kDifference) return kNoOp;
    const Op& loop = op(d.children[0]);
    if (loop.kind != OpKind::kProject) return kNoOp;
    return loop.children[0];
  }

  // The EBV scaffolding over the per-iteration predicate:
  //   Select item(Union(π{iter, item:e}(Aggr e:ebv(item)|iter(T)),
  //     Cross(loop_s \iter π{iter}(Aggr), [false])))
  // where T is a boolean tree: the survivors-Union of one comparison, or
  // an `and` pairing two padded boolean subtrees per iteration.
  bool MatchEbv(OpId sel_id, OpId n_id, JoinSpec* s,
                std::vector<RawPred>* raws) {
    const Op& sel = op(sel_id);
    if (sel.kind != OpKind::kSelect || sel.col != col::item()) return false;
    const Op& u2 = op(sel.children[0]);
    if (u2.kind != OpKind::kUnion) return false;
    const Op& pa = op(u2.children[0]);
    if (pa.kind != OpKind::kProject) return false;
    OpId ag_id = pa.children[0];
    const Op& ag = op(ag_id);
    if (ag.kind != OpKind::kAggr || ag.aggr != AggrKind::kEbv ||
        ag.part != col::iter() || ag.col2 != col::item()) {
      return false;
    }
    if (!ProjIs(pa, {{col::iter(), col::iter()}, {col::item(), ag.col}})) {
      return false;
    }
    OpId loop_id = MatchFalseBranch(u2.children[1], ag_id);
    if (loop_id == kNoOp) return false;
    const Op& loop = op(loop_id);
    const Op& n = op(n_id);
    if (loop.kind != OpKind::kProject || loop.children[0] != n_id ||
        !ProjIs(loop, {{col::iter(), n.col}})) {
      return false;
    }
    s->loop_s = loop_id;
    return MatchBoolTree(ag.children[0], loop_id, raws);
  }

  // A per-iteration boolean tree under an EBV Aggr: either the
  // survivors-Union of one comparison, or an `and`-conjunction
  //   π{iter, item:c}(Fun c:and(item, y)(⋈ iter=iterK(L,
  //     π{iterK:iter, y:item}(R))))
  // pairing two padded boolean subtrees per iteration. Nested `and`s
  // recurse through the padding, so a chain of conjuncts flattens into
  // one RawPred per comparison.
  bool MatchBoolTree(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& o = op(id);
    if (o.kind == OpKind::kUnion) return MatchCmpUnion(id, loop, raws);
    if (o.kind != OpKind::kProject) return false;
    ColId c = ProjOld(o, col::item());
    if (c == kNoCol ||
        !ProjIs(o, {{col::iter(), col::iter()}, {col::item(), c}})) {
      return false;
    }
    const Op& f = op(o.children[0]);
    if (f.kind != OpKind::kFun || f.fun != FunKind::kAnd || f.col != c ||
        f.args.size() != 2 || f.args[0] != col::item()) {
      return false;
    }
    const Op& j = op(f.children[0]);
    if (j.kind != OpKind::kEquiJoin || j.value_join ||
        j.col != col::iter()) {
      return false;
    }
    const Op& rp = op(j.children[1]);
    if (rp.kind != OpKind::kProject ||
        !ProjIs(rp, {{j.col2, col::iter()}, {f.args[1], col::item()}})) {
      return false;
    }
    return MatchPaddedBool(j.children[0], loop, raws) &&
           MatchPaddedBool(rp.children[0], loop, raws);
  }

  // Union(π{iter, item:e}(Aggr e:ebv(item)|iter(T)),
  //       Cross(loop \iter π{iter}(Aggr), [false])) — one conjunct's
  // boolean value per iteration, padded to total over the loop.
  bool MatchPaddedBool(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& u = op(id);
    if (u.kind != OpKind::kUnion) return false;
    const Op& pa = op(u.children[0]);
    if (pa.kind != OpKind::kProject) return false;
    OpId ag_id = pa.children[0];
    const Op& ag = op(ag_id);
    if (ag.kind != OpKind::kAggr || ag.aggr != AggrKind::kEbv ||
        ag.part != col::iter() || ag.col2 != col::item()) {
      return false;
    }
    if (!ProjIs(pa, {{col::iter(), col::iter()}, {col::item(), ag.col}})) {
      return false;
    }
    if (MatchFalseBranch(u.children[1], ag_id) != loop) return false;
    return MatchBoolTree(ag.children[0], loop, raws);
  }

  // The survivors of one comparison, padded to a boolean per iteration:
  //   Union(Cross([Distinct](π{iter}(σ cmp(Fun cmp(⋈ iter)))), [true]),
  //         Cross(loop \iter π{iter}(·), [false]))
  bool MatchCmpUnion(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& u1 = op(id);
    OpId true_id = u1.children[0];
    const Op& t = op(true_id);
    if (t.kind != OpKind::kCross || !IsBoolLit(op(t.children[1]), true)) {
      return false;
    }
    // The Distinct over the survivors is optional: when a key fact
    // already proves at most one matching pair per iteration, the
    // distinct_by_keys rewrite has dropped it. Either way the EBV Aggr
    // collapses duplicates, and EmitJoin re-Distincts the survivors.
    const Op& d = op(t.children[0]);
    const Op& pi =
        d.kind == OpKind::kDistinct ? op(d.children[0]) : d;
    if (pi.kind != OpKind::kProject ||
        !ProjIs(pi, {{col::iter(), col::iter()}})) {
      return false;
    }
    const Op& selc = op(pi.children[0]);
    if (selc.kind != OpKind::kSelect) return false;
    const Op& fo = op(selc.children[0]);
    if (fo.kind != OpKind::kFun || fo.col != selc.col || !IsRelation(fo.fun) ||
        fo.args.size() != 2) {
      return false;
    }
    const Op& j = op(fo.children[0]);
    if (j.kind != OpKind::kEquiJoin || j.value_join) return false;
    if (j.col != col::iter()) return false;
    if (MatchFalseBranch(u1.children[1], true_id) != loop) return false;
    raws->push_back({j.children[0], j.children[1], j.col2, fo.fun,
                     fo.args[0], fo.args[1]});
    return true;
  }

  // Cross(Difference on iter(loop, π{iter}(src)), [item=false]) -> loop.
  OpId MatchFalseBranch(OpId id, OpId src) {
    const Op& c = op(id);
    if (c.kind != OpKind::kCross || !IsBoolLit(op(c.children[1]), false)) {
      return kNoOp;
    }
    const Op& diff = op(c.children[0]);
    if (diff.kind != OpKind::kDifference ||
        diff.keys != std::vector<ColId>{col::iter()}) {
      return kNoOp;
    }
    const Op& pr = op(diff.children[1]);
    if (pr.kind != OpKind::kProject || pr.children[0] != src ||
        !ProjIs(pr, {{col::iter(), col::iter()}})) {
      return kNoOp;
    }
    return diff.children[0];
  }

  // The composite lifting some outer value into a loop:
  //   π{iter:bX, item:item}(⋈ iter=iX(inner, π{iX:iter, bX:bind}(NX)))
  bool LiftShape(OpId id, OpId* nx, ColId* bindc, OpId* inner) {
    const Op& p = op(id);
    if (p.kind != OpKind::kProject || p.proj.size() != 2) return false;
    ColId bx = ProjOld(p, col::iter());
    if (bx == kNoCol || ProjOld(p, col::item()) != col::item()) return false;
    const Op& ej = op(p.children[0]);
    if (ej.kind != OpKind::kEquiJoin || ej.value_join ||
        ej.col != col::iter()) {
      return false;
    }
    const Op& mp = op(ej.children[1]);
    if (mp.kind != OpKind::kProject) return false;
    const Op& nxo = op(mp.children[0]);
    if (!IsNumbering(nxo)) return false;
    if (!ProjIs(mp, {{ej.col2, col::iter()}, {bx, nxo.col}})) return false;
    *nx = mp.children[0];
    *bindc = bx;
    *inner = ej.children[0];
    return true;
  }

  // Cross(1-row Lit{iter}, Doc) — the document-level loop of exactly one
  // iteration whose content is the document root.
  bool IsDocBase(OpId id) {
    const Op& c = op(id);
    if (c.kind != OpKind::kCross) return false;
    const Op& l = op(c.children[0]);
    return IsOneRowLit(l) && l.schema == std::vector<ColId>{col::iter()} &&
           op(c.children[1]).kind == OpKind::kDoc;
  }

  // Proves the S-space is the exact product of an outer loop with a
  // loop-invariant document-level node sequence, and records how to
  // rebuild that sequence. Two source forms below the numbering + Step
  // chain:
  //  (i)  Cross(π{iter:c}(NN), Doc) — the document root crossed into an
  //       outer loop directly;
  //  (ii) a chain of lift composites bottoming out at Cross(Lit, Doc) —
  //       a `let $d := doc(..)` lifted through nested for-loops. Every
  //       iteration's content is the single document root either way.
  bool MatchSpace(OpId n_id, JoinSpec* s) {
    OpId cur = n_id;
    while (IsNumbering(op(cur))) cur = op(cur).children[0];
    std::vector<OpId> steps;
    while (op(cur).kind == OpKind::kStep) {
      steps.push_back(cur);
      cur = op(cur).children[0];
    }
    std::reverse(steps.begin(), steps.end());  // innermost first
    s->steps = std::move(steps);

    const Op& src = op(cur);
    if (IsDocBase(cur)) return false;  // no outer loop to re-attach to
    if (src.kind == OpKind::kCross &&
        op(src.children[1]).kind == OpKind::kDoc) {
      const Op& l = op(src.children[0]);
      if (l.kind != OpKind::kProject || l.proj.size() != 1 ||
          l.proj[0].first != col::iter()) {
        return false;
      }
      OpId nn_id = l.children[0];
      const Op& nn = op(nn_id);
      // The outer iterations must be duplicate-free: a numbering result.
      if (!IsNumbering(nn) || nn.col != l.proj[0].second) return false;
      s->doc_op = src.children[1];
      s->base = kNoOp;
      s->src_num = nn_id;
      return true;
    }
    OpId nx = kNoOp, inner = kNoOp;
    ColId bindc = kNoCol;
    if (!LiftShape(cur, &nx, &bindc, &inner)) return false;
    OpId b = inner;
    while (!IsDocBase(b)) {
      OpId nx2 = kNoOp, in2 = kNoOp;
      ColId bc2 = kNoCol;
      if (!LiftShape(b, &nx2, &bc2, &in2)) return false;
      b = in2;
    }
    s->base = b;
    s->src_num = nx;
    return true;
  }

  // Walks a comparison side, tracking which columns carry the S-space
  // iteration id. Chains of per-row operators over the leaves preserve
  // the per-iteration semantics when the iteration ids are renamed to
  // the fresh document-level rids, provided no ⊕ consumes an iteration
  // column as a value. Sub-plans that never reach the S-space at all are
  // fixed tables — the side meets the same rows under either naming, so
  // they are admitted as-is and recorded in `consts` for EmitJoin to
  // keep untouched (sound even if they carry iteration ids as data).
  // Returns the iteration columns at the top, or nullopt if the side
  // reaches anything outside the allowed shape. `rmemo` caches the
  // reachability test and must be scoped to one (side, mode) walk.
  std::optional<ColSet> SideWalk(OpId id, OpId leaf_a, OpId leaf_b,
                                 const JoinSpec* s, bool outer,
                                 OpId* lift, OpId* outer_items,
                                 std::vector<OpId>* consts,
                                 std::map<OpId, int>* rmemo) {
    if (!outer && (id == leaf_a || id == leaf_b)) {
      return ColSet{col::iter()};
    }
    if (outer) {
      OpId nx = kNoOp, inner = kNoOp;
      ColId bindc = kNoCol;
      if (LiftShape(id, &nx, &bindc, &inner)) {
        // Must be THE lift through this anchor's map_s.
        const Op& ej = op(op(id).children[0]);
        if (ej.children[1] == s->map_s && ej.col2 == s->iter1x &&
            bindc == s->bindx) {
          if (*lift != kNoOp && *lift != id) return std::nullopt;
          *lift = id;
          *outer_items = inner;
          return ColSet{col::iter()};
        }
        return std::nullopt;
      }
    }
    if (!Reaches(id, outer ? s->map_s : leaf_a, outer ? kNoOp : leaf_b,
                 rmemo)) {
      consts->push_back(id);
      return ColSet{};
    }
    const Op& o = op(id);
    auto walk = [&](OpId c) {
      return SideWalk(c, leaf_a, leaf_b, s, outer, lift, outer_items,
                      consts, rmemo);
    };
    switch (o.kind) {
      case OpKind::kProject: {
        auto sub = walk(o.children[0]);
        if (!sub) return std::nullopt;
        ColSet out;
        for (const auto& [n, old] : o.proj) {
          if (sub->count(old) != 0) out.insert(n);
        }
        return std::optional<ColSet>(out);
      }
      case OpKind::kFun: {
        auto sub = walk(o.children[0]);
        if (!sub) return std::nullopt;
        for (ColId a : o.args) {
          if (sub->count(a) != 0) return std::nullopt;
        }
        return sub;
      }
      case OpKind::kStep: {
        auto sub = walk(o.children[0]);
        if (!sub || *sub != ColSet{col::iter()}) return std::nullopt;
        return sub;
      }
      case OpKind::kSelect: {
        auto sub = walk(o.children[0]);
        if (!sub || sub->count(o.col) != 0) return std::nullopt;
        return sub;
      }
      case OpKind::kDistinct: {
        // Global dedup equals per-iteration dedup: rows keep their
        // iteration column, and iterations are renamed injectively.
        return walk(o.children[0]);
      }
      case OpKind::kCardCheck: {
        // Groups by the literal `iter` column on both children; per-rid
        // groups equal the per-iteration groups, so the assertion maps.
        auto sub = walk(o.children[0]);
        auto lp = walk(o.children[1]);
        if (!sub || !lp || sub->count(col::iter()) == 0 ||
            lp->count(col::iter()) == 0) {
          return std::nullopt;
        }
        return sub;
      }
      case OpKind::kCross: {
        // × with a fixed table on (at least) one side.
        auto l = walk(o.children[0]);
        auto r = walk(o.children[1]);
        if (!l || !r || (!l->empty() && !r->empty())) return std::nullopt;
        ColSet out = *l;
        out.insert(r->begin(), r->end());
        return std::optional<ColSet>(out);
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin: {
        auto l = walk(o.children[0]);
        auto r = walk(o.children[1]);
        if (!l || !r) return std::nullopt;
        if (!l->empty() && !r->empty()) {
          // Per-iteration pairing: both sides join on their own
          // iteration column.
          if (o.kind != OpKind::kEquiJoin || o.value_join) {
            return std::nullopt;
          }
          if (l->count(o.col) == 0 || r->count(o.col2) == 0) {
            return std::nullopt;
          }
        } else if (l->count(o.col) != 0 || r->count(o.col2) != 0) {
          // Join against a fixed table: keyed on value columns only, so
          // each iteration's rows meet the same table either way.
          return std::nullopt;
        }
        ColSet out = *l;
        out.insert(r->begin(), r->end());
        return std::optional<ColSet>(out);
      }
      default:
        return std::nullopt;
    }
  }

  bool ClassifyAll(const std::vector<RawPred>& raws, JoinSpec* s) {
    if (raws.empty()) return false;
    for (const RawPred& raw : raws) {
      if (!ClassifySides(raw, s)) return false;
    }
    return true;
  }

  bool ClassifySides(const RawPred& raw, JoinSpec* s) {
    for (int swap = 0; swap < 2; ++swap) {
      OpId curc = swap != 0 ? raw.side_b : raw.side_a;
      OpId outc = swap != 0 ? raw.side_a : raw.side_b;
      std::vector<OpId> consts;
      std::map<OpId, int> rm_cur, rm_out;
      auto cur_iters = SideWalk(curc, s->items_s, s->loop_s, s, false,
                                nullptr, nullptr, &consts, &rm_cur);
      if (!cur_iters || cur_iters->size() != 1) continue;
      OpId lift = kNoOp, oi = kNoOp;
      auto out_iters = SideWalk(outc, kNoOp, kNoOp, s, true, &lift, &oi,
                                &consts, &rm_out);
      if (!out_iters || out_iters->size() != 1 || lift == kNoOp) continue;

      ColId cur_iter = *cur_iters->begin();
      ColId outer_iter = *out_iters->begin();
      // The per-iteration join must pair each side by its own iteration
      // column: left (side_a) joins on `iter`, right on iter2X.
      ColId a_side_iter = swap != 0 ? outer_iter : cur_iter;
      ColId b_side_iter = swap != 0 ? cur_iter : outer_iter;
      if (a_side_iter != col::iter() || b_side_iter != raw.iter2x) {
        continue;
      }

      // The compared columns are item values, one per side.
      bool a_in_cur = op(curc).HasCol(raw.a_col);
      bool b_in_cur = op(curc).HasCol(raw.b_col);
      if (a_in_cur == b_in_cur) continue;
      if (a_in_cur ? !op(outc).HasCol(raw.b_col)
                   : !op(outc).HasCol(raw.a_col)) {
        continue;
      }
      if (raw.a_col == cur_iter || raw.a_col == outer_iter ||
          raw.b_col == cur_iter || raw.b_col == outer_iter) {
        continue;
      }

      // The lifted outer items must enumerate exactly the outer loop the
      // S-space was built over: the same numbering op that seeded the
      // product source. A sequence-position literal may still be
      // attached when other consumers of the variable read it.
      const Op* oip = &op(oi);
      if (oip->kind == OpKind::kCross && IsOneRowLit(op(oip->children[1]))) {
        oip = &op(oip->children[0]);
      }
      const Op& oio = *oip;
      const Op& nn = op(s->src_num);
      if (oio.kind != OpKind::kProject || oio.children[0] != s->src_num ||
          !ProjIs(oio, {{col::iter(), nn.col},
                        {col::item(), col::item()}})) {
        continue;
      }
      // Every conjunct's outer side must lift through the one composite
      // this spec's map_s defines; hash-consing makes it unique, so
      // later conjuncts simply land on the same node.
      if (s->lift != kNoOp && s->lift != lift) continue;

      JoinPred p;
      p.cmp = raw.cmp;
      p.a_col = raw.a_col;
      p.b_col = raw.b_col;
      p.a_in_cur = a_in_cur;
      p.cur_root = curc;
      p.outer_root = outc;
      p.cur_iter = cur_iter;
      p.outer_iter = outer_iter;
      s->preds.push_back(p);
      s->lift = lift;
      s->outer_items = oi;
      s->const_roots.insert(s->const_roots.end(), consts.begin(),
                            consts.end());
      return true;
    }
    return false;
  }

  const Dag& dag_;
  SemTypeTracker* sem_;
  // Where filter candidates by the numbering of their padding loop.
  std::map<OpId, std::vector<OpId>> wheres_;
  // Scoped to one MatchFlwor's region walk.
  const std::map<OpId, JoinSpec>* found_ = nullptr;
  JoinSpec* spec_ = nullptr;
  std::map<OpId, std::optional<RegionShape>> region_memo_;
  std::map<OpId, int> reach_memo_;
};

// `id` re-emitted over new children: same operator, same parameters.
OpId Reemit(Dag* dag, OpId id, std::vector<OpId> children) {
  Op o = dag->op(id);
  o.children = std::move(children);
  o.schema.clear();
  return dag->Add(std::move(o));
}

// Re-emits the subtree under `id` with the leaf substitutions applied.
OpId Rebuild(Dag* dag, OpId id, const std::map<OpId, OpId>& leaves,
             std::map<OpId, OpId>* memo) {
  if (auto it = leaves.find(id); it != leaves.end()) return it->second;
  if (auto it = memo->find(id); it != memo->end()) return it->second;
  std::vector<OpId> kids = dag->op(id).children;
  for (OpId& c : kids) c = Rebuild(dag, c, leaves, memo);
  OpId out = Reemit(dag, id, std::move(kids));
  (*memo)[id] = out;
  return out;
}

// Re-emits a recognized return region over the survivors. `keepn` has
// one row per survivor (outer iteration, rid, fresh id s2); `with_item`
// adds the survivor's inner item. S's leaves become projections of these
// two tables, and operators outside the region are reused as rewritten.
// Region operators keep only the columns their consumers read, so dead
// numberings and literal columns vanish here rather than in a later pass
// that no longer sees the folds below. Two folds keep the result as
// small as the region allows: a restricted scope join only copies iter
// into iterR (its input already holds survivors only), and a join of
// two projections of the survivor tables on s2 is one projection, since
// s2 is a key of both.
class SurvivorRebuild {
 public:
  SurvivorRebuild(Dag* dag, const JoinSpec& spec, const PassView& view,
                  OpId keepn, OpId with_item, ColId s2)
      : dag_(dag),
        view_(view),
        region_(spec.region.begin(), spec.region.end()),
        restrict_(spec.restrict_joins.begin(), spec.restrict_joins.end()),
        keepn_(keepn),
        with_item_(with_item),
        s2_(s2) {
    ColId o_iter = spec.preds[0].outer_iter;
    memo_[spec.loop_s] = dag_->Project(keepn_, {{col::iter(), s2_}});
    memo_[spec.map_s] = dag_->Project(
        keepn_, {{spec.iter1x, o_iter}, {spec.bindx, s2_}});
    sel_ = dag_->AttachConst(memo_[spec.loop_s], col::item(),
                             Value::Bool(true));
    memo_[spec.sel] = sel_;
    if (spec.items_s != kNoOp) {
      memo_[spec.items_s] = dag_->Project(
          with_item_, {{col::iter(), s2_}, {col::item(), col::item()}});
    }
  }

  OpId Rebuild(OpId id) {
    if (auto it = memo_.find(id); it != memo_.end()) return it->second;
    if (region_.count(id) == 0) return view_.rewritten(id);
    Op o = dag_->op(id);  // a copy: Add below grows the op vector
    std::vector<OpId> kids = o.children;
    for (OpId& c : kids) c = Rebuild(c);
    const ColSet& need = view_.required(id);
    OpId out = kNoOp;
    if (o.kind == OpKind::kProject) {
      std::vector<std::pair<ColId, ColId>> proj;
      for (const auto& e : o.proj) {
        if (need.count(e.first) != 0) proj.push_back(e);
      }
      if (proj.empty()) {
        // Only the row count is read: keep any one column.
        const Op& c = dag_->op(kids[0]);
        for (const auto& e : o.proj) {
          if (c.HasCol(e.second)) {
            proj.push_back(e);
            break;
          }
        }
        if (proj.empty()) proj.emplace_back(c.schema[0], c.schema[0]);
      }
      out = ProjectOver(kids[0], std::move(proj));
    } else if ((o.kind == OpKind::kRowNum || o.kind == OpKind::kRowId ||
                o.kind == OpKind::kFun) &&
               need.count(o.col) == 0) {
      out = kids[0];
    } else if (o.kind == OpKind::kCross) {
      for (int side = 0; side < 2 && out == kNoOp; ++side) {
        const Op& l = dag_->op(kids[side]);
        bool dead = l.kind == OpKind::kLit && l.lit.rows.size() == 1 &&
                    std::none_of(l.schema.begin(), l.schema.end(),
                                 [&](ColId c) { return need.count(c); });
        if (dead) out = kids[1 - side];
      }
    } else if (o.kind == OpKind::kUnion) {
      // Keep both branches' schemas aligned after pruning below them.
      for (OpId& k : kids) {
        std::vector<std::pair<ColId, ColId>> proj;
        for (ColId c : o.schema) {
          if (need.empty() || need.count(c) != 0) proj.emplace_back(c, c);
        }
        k = ProjectOver(k, std::move(proj));
      }
    } else if (restrict_.count(id) != 0) {
      const std::vector<ColId>& cols = dag_->op(kids[0]).schema;
      std::vector<std::pair<ColId, ColId>> proj;
      proj.reserve(cols.size() + 1);
      for (ColId c : cols) proj.emplace_back(c, c);
      proj.emplace_back(o.col2, o.col);
      out = ProjectOver(kids[0], std::move(proj));
    } else if (o.kind == OpKind::kEquiJoin && !o.value_join) {
      out = FoldKeyJoin(kids[0], kids[1], o.col, o.col2);
    }
    if (out == kNoOp) out = Reemit(dag_, id, std::move(kids));
    memo_[id] = out;
    return out;
  }

 private:
  bool IsBase(OpId id) const { return id == keepn_ || id == with_item_; }

  // Project(child, proj), composed onto a survivor table when `child` is
  // a projection of one (or the all-true where filter over one), and
  // narrowed to `keepn` when the inner item is not read.
  OpId ProjectOver(OpId child, std::vector<std::pair<ColId, ColId>> proj) {
    const Op& c = dag_->op(child);
    OpId base = child;
    if (child == sel_) {
      for (const auto& e : proj) {
        if (e.second != col::iter()) {
          return dag_->Project(child, std::move(proj));
        }
      }
      base = keepn_;
      for (auto& e : proj) e.second = s2_;
    } else if (c.kind == OpKind::kProject && IsBase(c.children[0])) {
      base = c.children[0];
      for (auto& e : proj) e.second = ProjOld(c, e.second);
    }
    if (base == with_item_) {
      const Op& kn = dag_->op(keepn_);
      bool narrow = std::all_of(proj.begin(), proj.end(), [&](const auto& e) {
        return kn.HasCol(e.second);
      });
      if (narrow) base = keepn_;
    }
    return dag_->Project(base, std::move(proj));
  }

  OpId FoldKeyJoin(OpId l, OpId r, ColId lc, ColId rc) {
    const Op& lo = dag_->op(l);
    const Op& ro = dag_->op(r);
    if (lo.kind != OpKind::kProject || ro.kind != OpKind::kProject ||
        !IsBase(lo.children[0]) || !IsBase(ro.children[0]) ||
        ProjOld(lo, lc) != s2_ || ProjOld(ro, rc) != s2_) {
      return kNoOp;
    }
    std::vector<std::pair<ColId, ColId>> proj = lo.proj;
    proj.insert(proj.end(), ro.proj.begin(), ro.proj.end());
    bool item = lo.children[0] == with_item_ || ro.children[0] == with_item_;
    return ProjectOver(item ? with_item_ : keepn_, std::move(proj));
  }

  Dag* dag_;
  const PassView& view_;
  std::set<OpId> region_;
  std::set<OpId> restrict_;
  OpId keepn_;
  OpId with_item_;
  ColId s2_;
  OpId sel_ = kNoOp;
  std::map<OpId, OpId> memo_;
};

bool HashSafeKind(ItemKind k) {
  // Exactly the verifier's gate: within these classes the engine's
  // bit-exact (untyped-normalized) hash equality coincides with the
  // general-comparison eq. Mixed int/double (kNumeric) does not — 5 and
  // 5.0e0 compare equal but hash apart.
  return k == ItemKind::kInt || k == ItemKind::kString ||
         k == ItemKind::kBool;
}

bool NonNodeKind(ItemKind k) {
  return k != ItemKind::kNode && k != ItemKind::kAny;
}

}  // namespace

std::map<OpId, JoinSpec> RecognizeJoins(const Dag& dag, OpId root,
                                        SemTypeTracker* sem) {
  return Recognizer(dag, sem).Run(root);
}

OpId EmitJoin(Dag* dag, const JoinSpec& spec, const PassView& view,
              const RewriteOptions& options, SemTypeTracker* sem,
              CardTracker* cards, std::string* detail) {
  OpId outer_items_new = view.rewritten(spec.outer_items);
  const Op& oi = dag->op(outer_items_new);
  if (!oi.HasCol(col::iter()) || !oi.HasCol(col::item())) return kNoOp;
  if (oi.schema.size() != 2) {
    // The lift it replaces carries exactly (iter, item).
    outer_items_new = dag->Project(
        outer_items_new,
        {{col::iter(), col::iter()}, {col::item(), col::item()}});
  }

  // The inner sequence, rebuilt once at document level and keyed by a
  // fresh # — one rid per document item, standing in for the per-outer-
  // iteration copies the product space materialized.
  OpId base = spec.base;
  if (base == kNoOp) {
    LitTable one;
    one.cols = {col::iter()};
    one.rows = {{Value::Int(1)}};
    base = dag->Cross(dag->Lit(std::move(one)), spec.doc_op);
  }
  OpId chain = base;
  for (OpId sid : spec.steps) {
    const Op& st = dag->op(sid);
    chain = dag->Step(chain, st.axis, st.test);
  }
  // Ranked in document order, so the survivor numbering below can lead
  // with it: an order-bearing column, never an arbitrary one.
  ColId rid = FreshCol("rid");
  OpId k = dag->RowNum(chain, rid, {{col::item(), false}}, kNoCol);
  OpId k_items =
      dag->Project(k, {{col::iter(), rid}, {col::item(), col::item()}});
  OpId k_loop = dag->Project(k, {{col::iter(), rid}});

  std::map<OpId, OpId> memo_cur;
  std::map<OpId, OpId> leaves_cur{{spec.items_s, k_items},
                                  {spec.loop_s, k_loop}};
  std::map<OpId, OpId> memo_out;
  std::map<OpId, OpId> leaves_out{{spec.lift, outer_items_new}};
  for (OpId cr : spec.const_roots) {
    // Fixed tables pass through untouched.
    leaves_cur.emplace(cr, cr);
    leaves_out.emplace(cr, cr);
  }

  // One join per conjunct. Each conjunct's surviving (outer iteration,
  // rid) pairs are the original S-iterations where it has a matching
  // pair — the Distinct mirrors the EBV's "any match" — and the
  // conjunction holds exactly on the intersection of those sets, taken
  // here with scaffolding semijoins on the canonical pair columns.
  ColId o_iter = spec.preds[0].outer_iter;
  ColId c_iter = spec.preds[0].cur_iter;
  struct BuiltJoin {
    OpId keep;
    uint64_t est;  // cardinality-interval upper bound on survivors
  };
  std::vector<BuiltJoin> built;
  std::string hows;
  for (const JoinPred& p : spec.preds) {
    OpId cur2 = Rebuild(dag, p.cur_root, leaves_cur, &memo_cur);
    OpId outer2 = Rebuild(dag, p.outer_root, leaves_out, &memo_out);

    ColId o_key = p.a_in_cur ? p.b_col : p.a_col;
    ColId c_key = p.a_in_cur ? p.a_col : p.b_col;
    ItemKind ko = sem->Get(outer2).KindOf(o_key);
    ItemKind kc = sem->Get(cur2).KindOf(c_key);

    const char* how = nullptr;
    OpId vj = kNoOp;
    if (p.cmp == FunKind::kEq && ko == kc && HashSafeKind(ko)) {
      // Hash value join; the engine picks the build side by size.
      vj = dag->ValueJoin(outer2, cur2, o_key, c_key);
      how = "hash value join";
    } else if (options.theta_join && NonNodeKind(ko) && NonNodeKind(kc)) {
      // ThetaJoin evaluates the comparison over exactly the pairs the
      // product-space plan compared, so dynamic-error conditions are
      // preserved. Probe (left) side: the larger input, for chunk
      // parallelism across its rows.
      uint64_t co = cards->Get(outer2).max;
      uint64_t cc = cards->Get(cur2).max;
      bool cur_left = cc >= co;
      OpId l = cur_left ? cur2 : outer2;
      OpId r = cur_left ? outer2 : cur2;
      ColId lk = cur_left ? c_key : o_key;
      ColId rk = cur_left ? o_key : c_key;
      // p.cmp is stated as a_col cmp b_col; mirror if a sits right.
      bool a_left = cur_left == p.a_in_cur;
      vj = dag->ThetaJoin(l, r, lk, a_left ? p.cmp : MirrorRelation(p.cmp), rk);
      how = "theta join";
    } else {
      return kNoOp;
    }

    OpId ki = dag->Distinct(dag->Project(
        vj, {{o_iter, p.outer_iter}, {c_iter, p.cur_iter}}));
    built.push_back({ki, cards->Get(ki).max});
    if (!hows.empty()) hows += ", and ";
    hows += std::string(how) + " on " + ColName(p.a_col) + " " +
            FunKindName(p.cmp) + " " + ColName(p.b_col) + " (" +
            ItemKindName(ko) + "/" + ItemKindName(kc) + " keys)";
  }
  // Greedy intersection order from the cardinality intervals: the
  // tightest survivor set seeds the semijoin chain, so every probe that
  // follows scans the smallest left side available. Stable, so equal
  // estimates keep the conjuncts' source order — plans stay
  // deterministic.
  std::stable_sort(built.begin(), built.end(),
                   [](const BuiltJoin& a, const BuiltJoin& b) {
                     return a.est < b.est;
                   });
  OpId keep = kNoOp;
  for (const BuiltJoin& b : built) {
    keep = keep == kNoOp ? b.keep
                         : dag->SemiJoin(keep, b.keep, {o_iter, c_iter});
  }

  // Renumber the survivors into fresh dense iteration ids, ranked by
  // (rid, outer iteration). Within each outer iteration that is the
  // inner sequence's document order — exactly the order S enumerated —
  // and every consumer orders S's ids only within an outer iteration
  // (RegionWalk). Leading with the rid keeps the ranking independent of
  // the outer loop's numbering: an outer # would make a criterion led
  // by it arbitrary, leaving the order to the join's output.
  ColId s2 = FreshCol("s2");
  OpId keepn =
      dag->RowNum(keep, s2, {{c_iter, false}, {o_iter, false}}, kNoCol);
  ColId ridf = FreshCol("rid");
  OpId with_item = dag->EquiJoin(
      keepn, dag->Project(k, {{ridf, rid}, {col::item(), col::item()}}),
      c_iter, ridf);
  SurvivorRebuild rb(dag, spec, view, keepn, with_item, s2);
  OpId result = rb.Rebuild(spec.anchor);
  if (detail != nullptr) {
    *detail = hows + "; FLWOR return region of " +
              std::to_string(spec.region.size()) +
              " operators re-rooted over the survivors of " +
              std::to_string(spec.steps.size()) + "-step document items";
  }
  return result;
}

}  // namespace exrquy
