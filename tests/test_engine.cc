// Operator-level tests for the columnar engine: every algebra operator
// evaluated on small literal tables, including the % / # primitives, the
// grouped aggregates (with the EBV and order-sensitive string-join
// cases), joins, set operations, and node constructors. The ThetaJoin
// typed-key kernel is checked pair for pair (and first error for first
// error) against a per-pair ValueOps::Compare reference in every
// execution shape, the counting ThetaCount against the ThetaJoin →
// Distinct → Aggr count chain it replaces, and the hash kernels against
// their documented first-appearance and ascending-row orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "engine/eval.h"
#include "xml/xml_parser.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : store_(&strings_) {
    ctx_.store = &store_;
    ctx_.strings = &strings_;
  }

  // Builds a Lit with columns (iter, pos, item) from integer triples.
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  TablePtr Eval(OpId root) {
    Evaluator ev(dag_, &ctx_);
    Result<TablePtr> r = ev.Eval(root);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  Status EvalError(OpId root) {
    Evaluator ev(dag_, &ctx_);
    Result<TablePtr> r = ev.Eval(root);
    EXPECT_FALSE(r.ok());
    return r.ok() ? Status::Ok() : r.status();
  }

  // Column values as int64 (CHECKs kind).
  std::vector<int64_t> Ints(const Table& t, ColId c) {
    std::vector<int64_t> out;
    for (size_t i = 0; i < t.rows(); ++i) {
      EXPECT_EQ(t.at(c, i).kind, ValueKind::kInt);
      out.push_back(t.at(c, i).i);
    }
    return out;
  }

  StrPool strings_;
  NodeStore store_;
  Dag dag_;
  EvalContext ctx_;
};

TEST_F(EngineTest, LitAndProject) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}});
  ColId renamed = ColSym("val");
  TablePtr t = Eval(dag_.Project(l, {{renamed, item()}, {iter(), iter()}}));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, renamed), (std::vector<int64_t>{10, 20}));
}

TEST_F(EngineTest, SelectKeepsTrueRows) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 15}, {1, 3, 25}});
  ColId k = ColSym("k10");
  OpId withk = dag_.AttachConst(l, k, Value::Int(10));
  ColId b = ColSym("flag");
  OpId f = dag_.Fun(withk, FunKind::kGt, b, {item(), k});
  TablePtr t = Eval(dag_.Select(f, b));
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{15, 25}));
}

TEST_F(EngineTest, SelectOnNonBoolErrors) {
  OpId l = Triples({{1, 1, 5}});
  Status st = EvalError(dag_.Select(l, item()));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, EquiJoinMatchesKeys) {
  OpId l = Triples({{1, 1, 10}, {2, 1, 20}, {3, 1, 30}});
  ColId i2 = ColSym("iterX");
  ColId v2 = ColSym("itemX");
  LitTable rt;
  rt.cols = {i2, v2};
  rt.rows = {{Value::Int(1), Value::Int(100)},
             {Value::Int(3), Value::Int(300)},
             {Value::Int(3), Value::Int(301)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.EquiJoin(l, r, iter(), i2));
  ASSERT_EQ(t->rows(), 3u);  // iter 1 once, iter 3 twice
  std::vector<int64_t> iters = Ints(*t, iter());
  std::sort(iters.begin(), iters.end());
  EXPECT_EQ(iters, (std::vector<int64_t>{1, 3, 3}));
}

TEST_F(EngineTest, CrossMultiplies) {
  OpId l = Triples({{1, 1, 10}, {2, 1, 20}});
  ColId c = ColSym("cc");
  LitTable rt;
  rt.cols = {c};
  rt.rows = {{Value::Int(7)}, {Value::Int(8)}};
  TablePtr t = Eval(dag_.Cross(l, dag_.Lit(std::move(rt))));
  EXPECT_EQ(t->rows(), 4u);
}

TEST_F(EngineTest, UnionAlignsByName) {
  OpId a = Triples({{1, 1, 10}});
  // Same columns in a different declaration order.
  LitTable bt;
  bt.cols = {item(), iter(), pos()};
  bt.rows = {{Value::Int(99), Value::Int(2), Value::Int(1)}};
  OpId b = dag_.Lit(std::move(bt));
  TablePtr t = Eval(dag_.Union(a, b));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{10, 99}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 2}));
}

TEST_F(EngineTest, DifferenceAntiJoin) {
  OpId l = Triples({{1, 1, 0}, {2, 1, 0}, {3, 1, 0}});
  LitTable rt;
  rt.cols = {iter()};
  rt.rows = {{Value::Int(2)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.Difference(l, r, {iter()}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 3}));
}

TEST_F(EngineTest, SemiJoinKeepsMatches) {
  OpId l = Triples({{1, 1, 0}, {2, 1, 0}, {3, 1, 0}});
  LitTable rt;
  rt.cols = {iter()};
  rt.rows = {{Value::Int(2)}, {Value::Int(2)}, {Value::Int(3)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.SemiJoin(l, r, {iter()}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{2, 3}));
}

TEST_F(EngineTest, DistinctStable) {
  OpId l = Triples({{1, 1, 5}, {1, 1, 5}, {1, 2, 5}, {1, 1, 5}});
  TablePtr t = Eval(dag_.Distinct(l));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, pos()), (std::vector<int64_t>{1, 2}));
}

TEST_F(EngineTest, RowNumDensePerGroup) {
  OpId l = Triples({{2, 9, 0}, {1, 5, 0}, {2, 3, 0}, {1, 1, 0}});
  ColId rank = ColSym("rank1");
  TablePtr t = Eval(dag_.RowNum(l, rank, {{pos(), false}}, iter()));
  // Row order preserved; ranks dense within each iter group by pos.
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{2, 2, 1, 1}));
}

TEST_F(EngineTest, RowNumDescendingAndUngrouped) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 30}, {1, 3, 20}});
  ColId rank = ColSym("rank2");
  TablePtr t = Eval(dag_.RowNum(l, rank, {{item(), true}}, kNoCol));
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{3, 1, 2}));
}

TEST_F(EngineTest, RowNumMultiKeyTieBreak) {
  OpId l = Triples({{1, 2, 5}, {1, 1, 5}, {1, 1, 4}});
  ColId rank = ColSym("rank3");
  TablePtr t =
      Eval(dag_.RowNum(l, rank, {{item(), false}, {pos(), false}}, kNoCol));
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{3, 2, 1}));
}

TEST_F(EngineTest, RowIdSequential) {
  OpId l = Triples({{1, 1, 0}, {1, 2, 0}, {1, 3, 0}});
  ColId id = ColSym("rid");
  TablePtr t = Eval(dag_.RowId(l, id));
  EXPECT_EQ(Ints(*t, id), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(EngineTest, FunArithmeticAndComparisons) {
  OpId l = Triples({{1, 1, 6}});
  ColId k = ColSym("k4");
  OpId withk = dag_.AttachConst(l, k, Value::Int(4));
  ColId sum = ColSym("s");
  TablePtr t = Eval(dag_.Fun(withk, FunKind::kAdd, sum, {item(), k}));
  EXPECT_EQ(Ints(*t, sum), (std::vector<int64_t>{10}));

  ColId le = ColSym("le1");
  TablePtr t2 = Eval(dag_.Fun(withk, FunKind::kLe, le, {item(), k}));
  EXPECT_FALSE(t2->at(le, 0).b);
}

TEST_F(EngineTest, FunDivisionByZeroErrors) {
  OpId l = Triples({{1, 1, 6}});
  ColId z = ColSym("z0");
  OpId withz = dag_.AttachConst(l, z, Value::Int(0));
  Status st = EvalError(dag_.Fun(withz, FunKind::kIDiv, ColSym("q"),
                                 {item(), z}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, AggrCountSumPerGroup) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}, {2, 1, 5}});
  ColId cnt = ColSym("cnt1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kCount, cnt, kNoCol, iter()));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, cnt), (std::vector<int64_t>{2, 1}));

  ColId s = ColSym("sum1");
  TablePtr t2 = Eval(dag_.Aggr(l, AggrKind::kSum, s, item(), iter()));
  EXPECT_EQ(Ints(*t2, s), (std::vector<int64_t>{30, 5}));
}

TEST_F(EngineTest, AggrMaxMinNumericCast) {
  LitTable lt;
  lt.cols = {iter(), item()};
  lt.rows = {{Value::Int(1), Value::Untyped(strings_.Intern("5"))},
             {Value::Int(1), Value::Untyped(strings_.Intern("40"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId mx = ColSym("mx");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kMax, mx, item(), iter()));
  ASSERT_EQ(t->rows(), 1u);
  // Untyped numerics compare numerically: 40 > 5 (not "5" > "40").
  EXPECT_EQ(t->at(mx, 0).kind, ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(t->at(mx, 0).d, 40.0);
}

TEST_F(EngineTest, AggrAvg) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}});
  ColId avg = ColSym("avg1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kAvg, avg, item(), iter()));
  EXPECT_DOUBLE_EQ(t->at(avg, 0).d, 15.0);
}

TEST_F(EngineTest, AggrEbvSingleAndNodes) {
  LitTable lt;
  lt.cols = {iter(), item()};
  lt.rows = {{Value::Int(1), Value::Int(0)},
             {Value::Int(2), Value::Int(7)},
             {Value::Int(3), Value::Node(0)},
             {Value::Int(3), Value::Node(1)}};
  OpId l = dag_.Lit(std::move(lt));
  ColId b = ColSym("ebv1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kEbv, b, item(), iter()));
  ASSERT_EQ(t->rows(), 3u);
  EXPECT_FALSE(t->at(b, 0).b);
  EXPECT_TRUE(t->at(b, 1).b);
  EXPECT_TRUE(t->at(b, 2).b);
}

TEST_F(EngineTest, AggrEbvMultiAtomicErrors) {
  OpId l = Triples({{1, 1, 1}, {1, 2, 2}});
  Status st = EvalError(
      dag_.Aggr(l, AggrKind::kEbv, ColSym("ebv2"), item(), iter()));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, AggrStrJoinOrderedByPos) {
  LitTable lt;
  lt.cols = {iter(), pos(), item()};
  lt.rows = {{Value::Int(1), Value::Int(2), Value::Str(strings_.Intern("b"))},
             {Value::Int(1), Value::Int(1), Value::Str(strings_.Intern("a"))},
             {Value::Int(1), Value::Int(3), Value::Str(strings_.Intern("c"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId j = ColSym("join1");
  TablePtr t = Eval(dag_.AggrStrJoin(l, j, item(), iter(), pos(),
                                     strings_.Intern(" ")));
  EXPECT_EQ(strings_.Get(t->at(j, 0).str), "a b c");
}

TEST_F(EngineTest, AggrStrJoinCustomSeparator) {
  LitTable lt;
  lt.cols = {iter(), pos(), item()};
  lt.rows = {{Value::Int(1), Value::Int(1), Value::Str(strings_.Intern("x"))},
             {Value::Int(1), Value::Int(2), Value::Str(strings_.Intern("y"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId j = ColSym("join2");
  TablePtr t = Eval(dag_.AggrStrJoin(l, j, item(), iter(), pos(),
                                     strings_.Intern(", ")));
  EXPECT_EQ(strings_.Get(t->at(j, 0).str), "x, y");
}

TEST_F(EngineTest, RangeExpansion) {
  LitTable lt;
  ColId lo = ColSym("lo");
  ColId hi = ColSym("hi");
  lt.cols = {iter(), lo, hi};
  lt.rows = {{Value::Int(1), Value::Int(2), Value::Int(4)},
             {Value::Int(2), Value::Int(5), Value::Int(3)}};  // empty
  OpId r = dag_.Range(dag_.Lit(std::move(lt)), lo, hi);
  TablePtr t = Eval(r);
  ASSERT_EQ(t->rows(), 3u);
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 1, 1}));
}

TEST_F(EngineTest, StepOverDocument) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a><b/><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  LitTable ctx;
  ctx.cols = {iter(), item()};
  ctx.rows = {{Value::Int(1), Value::Node(*doc + 1)}};
  OpId l = dag_.Lit(std::move(ctx));
  OpId st = dag_.Step(l, Axis::kChild,
                      NodeTest::Name(strings_.Intern("b")));
  TablePtr t = Eval(st);
  EXPECT_EQ(t->rows(), 2u);
}

TEST_F(EngineTest, StepOnAtomicErrors) {
  LitTable ctx;
  ctx.cols = {iter(), item()};
  ctx.rows = {{Value::Int(1), Value::Int(42)}};
  OpId st = dag_.Step(dag_.Lit(std::move(ctx)), Axis::kChild,
                      NodeTest::AnyKind());
  EXPECT_EQ(EvalError(st).code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, DocResolvesRegisteredDocuments) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a/>");
  ASSERT_TRUE(doc.ok());
  StrId name = strings_.Intern("d.xml");
  ctx_.documents[name] = *doc;
  TablePtr t = Eval(dag_.Doc(name));
  ASSERT_EQ(t->rows(), 1u);
  EXPECT_EQ(t->at(item(), 0).node, *doc);
  EXPECT_EQ(EvalError(dag_.Doc(strings_.Intern("missing"))).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, ElemBuildsPerLoopIteration) {
  // Loop {1, 2}; content only for iter 1: element 2 must still exist.
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(1), Value::Int(2), Value::Int(20)},
             {Value::Int(1), Value::Int(1), Value::Int(10)}};
  OpId content = dag_.Lit(std::move(ct));
  OpId el = dag_.Elem(strings_.Intern("e"), content, lp);
  TablePtr t = Eval(el);
  ASSERT_EQ(t->rows(), 2u);
  // Content sorted by pos; adjacent atomics joined with a space.
  EXPECT_EQ(store_.StringValue(t->at(item(), 0).node), "10 20");
  EXPECT_EQ(store_.StringValue(t->at(item(), 1).node), "");
}

TEST_F(EngineTest, ElemAttributeItemsBecomeAttributes) {
  NodeIdx attr =
      store_.MakeAttribute(strings_.Intern("k"), strings_.Intern("v"));
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(1), Value::Int(1), Value::Node(attr)},
             {Value::Int(1), Value::Int(2), Value::Int(3)}};
  OpId el = dag_.Elem(strings_.Intern("e"), dag_.Lit(std::move(ct)), lp);
  TablePtr t = Eval(el);
  NodeIdx e = t->at(item(), 0).node;
  EXPECT_EQ(store_.kind(e + 1), NodeKind::kAttribute);
  EXPECT_EQ(store_.name_str(e + 1), "k");
  EXPECT_EQ(store_.StringValue(e), "3");
}

TEST_F(EngineTest, AttrJoinsValuesInPosOrder) {
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable vt;
  vt.cols = {iter(), pos(), item()};
  vt.rows = {{Value::Int(1), Value::Int(2), Value::Int(2)},
             {Value::Int(1), Value::Int(1), Value::Int(1)}};
  OpId a = dag_.Attr(strings_.Intern("n"), dag_.Lit(std::move(vt)), lp);
  TablePtr t = Eval(a);
  EXPECT_EQ(store_.value_str(t->at(item(), 0).node), "1 2");
}

TEST_F(EngineTest, TextSkipsEmptyIterations) {
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(2), Value::Int(1), Value::Int(9)}};
  OpId tx = dag_.Text(dag_.Lit(std::move(ct)), lp);
  TablePtr t = Eval(tx);
  ASSERT_EQ(t->rows(), 1u);
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{2}));
}

TEST_F(EngineTest, SharedSubplanEvaluatedOnce) {
  OpId l = Triples({{1, 1, 1}});
  ColId r1 = ColSym("sh1");
  OpId rid = dag_.RowId(l, r1);
  OpId u = dag_.Union(rid, rid);
  Profile profile;
  ctx_.profile = &profile;
  TablePtr t = Eval(u);
  EXPECT_EQ(t->rows(), 2u);
  EXPECT_EQ(profile.by_kind().at("RowId").ops, 1u);  // shared, not twice
  ctx_.profile = nullptr;
}

// -- ThetaJoin: the typed-key kernel against per-pair Compare -------------

// Execution shapes and granularities the one ThetaJoin range body must be
// indistinguishable under: the standalone chunked kernel, and the morsel
// stage both as a pipeline's head and fed by an upstream stage.
enum class ThetaShape { kStandalone, kPipelineHead, kPipelineInterior };

struct ThetaConfig {
  ThetaShape shape;
  size_t rows;  // chunk_rows (standalone) or morsel_rows (pipelines)
  int threads;
};

std::vector<ThetaConfig> ThetaConfigs() {
  std::vector<ThetaConfig> out;
  for (ThetaShape shape : {ThetaShape::kStandalone, ThetaShape::kPipelineHead,
                           ThetaShape::kPipelineInterior}) {
    for (size_t rows : {size_t{1}, size_t{64}, size_t{65536}}) {
      for (int threads : {1, 4}) out.push_back({shape, rows, threads});
    }
  }
  return out;
}

std::string ConfigName(const ThetaConfig& c) {
  const char* shape = c.shape == ThetaShape::kStandalone     ? "standalone"
                      : c.shape == ThetaShape::kPipelineHead ? "head"
                                                             : "interior";
  return std::string(shape) + "/rows=" + std::to_string(c.rows) +
         "/threads=" + std::to_string(c.threads);
}

constexpr FunKind kRelations[] = {FunKind::kEq, FunKind::kNe, FunKind::kLt,
                                  FunKind::kLe, FunKind::kGt, FunKind::kGe};

class ThetaJoinTest : public EngineTest {
 protected:
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;

  Value U(const char* s) { return Value::Untyped(strings_.Intern(s)); }
  Value S(const char* s) { return Value::Str(strings_.Intern(s)); }

  // The reference: a left-major nested loop of ValueOps::Compare, stopping
  // at the first failing pair.
  Result<Pairs> Reference(FunKind f, const std::vector<Value>& l,
                          const std::vector<Value>& r) {
    ValueOps ops(&strings_, &store_);
    Pairs out;
    for (size_t i = 0; i < l.size(); ++i) {
      for (size_t j = 0; j < r.size(); ++j) {
        Result<Value> v = ops.Compare(f, l[i], r[j]);
        if (!v.ok()) return v.status();
        if (v->b) out.emplace_back(i, j);
      }
    }
    return out;
  }

  // Joins (iter = row, item = key) tables under `c`; returns the (left
  // row, right row) pairs in output order, and the kernel's fallback
  // pair count.
  Result<Pairs> Run(FunKind f, const std::vector<Value>& l,
                    const std::vector<Value>& r, const ThetaConfig& c,
                    uint64_t* fallback) {
    const ColId riter = ColSym("theta_riter");
    const ColId ritem = ColSym("theta_ritem");
    Dag dag;
    auto lit = [&](const std::vector<Value>& keys, ColId id, ColId key) {
      LitTable t;
      t.cols = {id, key};
      for (size_t i = 0; i < keys.size(); ++i) {
        t.rows.push_back({Value::Int(static_cast<int64_t>(i)), keys[i]});
      }
      return dag.Lit(std::move(t));
    };
    OpId left = lit(l, iter(), item());
    OpId right = lit(r, riter, ritem);
    OpId root;
    if (c.shape == ThetaShape::kPipelineInterior) {
      OpId fed = dag.Project(left, {{iter(), iter()}, {item(), item()}});
      root = dag.ThetaJoin(fed, right, item(), f, ritem);
    } else {
      root = dag.ThetaJoin(left, right, item(), f, ritem);
      if (c.shape == ThetaShape::kPipelineHead) {
        // The stage then gathers only the columns the Project reads.
        root = dag.Project(root, {{iter(), iter()}, {riter, riter}});
      }
    }
    Profile profile;
    EvalContext ctx;
    ctx.store = &store_;
    ctx.strings = &strings_;
    ctx.profile = &profile;
    ctx.num_threads = c.threads;
    ctx.pipelined_execution = c.shape != ThetaShape::kStandalone;
    ctx.chunk_rows = c.rows;
    ctx.morsel_rows = c.rows;
    Evaluator ev(dag, &ctx);
    Result<TablePtr> t = ev.Eval(root);
    if (!t.ok()) return t.status();
    *fallback = 0;
    bool ran = false;
    for (const Profile::OpMetrics& m : profile.ops()) {
      if (m.kind != "ThetaJoin") continue;
      ran = true;
      *fallback += m.theta_fallback_pairs;
      EXPECT_EQ(m.pipeline >= 0, c.shape != ThetaShape::kStandalone)
          << ConfigName(c);
    }
    EXPECT_TRUE(ran) << ConfigName(c);
    Pairs out;
    out.reserve((*t)->rows());
    for (size_t k = 0; k < (*t)->rows(); ++k) {
      out.emplace_back((*t)->at(iter(), k).i, (*t)->at(riter, k).i);
    }
    return out;
  }

  // Every relation under every configuration matches the reference —
  // the same pairs in the same order, or the same first error. `typed`
  // says whether the keys have one comparison domain (no fallback);
  // otherwise a range spanning the whole left side must fall back.
  void ExpectMatchesReference(const std::vector<Value>& l,
                              const std::vector<Value>& r, bool typed) {
    for (FunKind f : kRelations) {
      Result<Pairs> want = Reference(f, l, r);
      for (const ThetaConfig& c : ThetaConfigs()) {
        uint64_t fallback = 0;
        Result<Pairs> got = Run(f, l, r, c, &fallback);
        std::string where = std::string(FunKindName(f)) + " " + ConfigName(c);
        ASSERT_EQ(got.ok(), want.ok()) << where << ": "
                                       << got.status().ToString() << " vs "
                                       << want.status().ToString();
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString())
              << where;
          continue;
        }
        EXPECT_EQ(*got, *want) << where;
        if (typed) {
          EXPECT_EQ(fallback, 0u) << where;
        } else if (!l.empty() && !r.empty() && c.rows >= l.size()) {
          // The domain is chosen per probe range: ranges narrower than
          // the left side may each find one.
          EXPECT_GT(fallback, 0u) << where;
        }
      }
    }
  }
};

TEST_F(ThetaJoinTest, IntIntIsExactBeyondTwoToThe53) {
  // 2^53 and 2^53 + 1 are distinct ints but the same double: an int
  // compare and a double compare disagree on them.
  const int64_t p53 = int64_t{1} << 53;
  ExpectMatchesReference(
      {Value::Int(p53 + 1), Value::Int(p53), Value::Int(-5), Value::Int(0),
       Value::Int(INT64_MAX), Value::Int(p53 + 1)},
      {Value::Int(p53), Value::Int(p53 + 1), Value::Int(3), Value::Int(0),
       Value::Int(INT64_MIN)},
      /*typed=*/true);
}

TEST_F(ThetaJoinTest, IntDoubleAndUntypedNumeric) {
  ExpectMatchesReference(
      {Value::Int(1), Value::Int(3), Value::Int(-2), Value::Int(3)},
      {Value::Double(2.5), Value::Double(3.0), Value::Double(-0.0),
       Value::Double(1.0)},
      /*typed=*/true);
  // Untyped values cast to xs:double against numbers, on either side.
  ExpectMatchesReference({U("1.5"), U(" 2 "), U("10"), U("1e3"), U("2")},
                         {Value::Double(2.0), Value::Double(1.5)},
                         /*typed=*/true);
  ExpectMatchesReference({U("3"), U("-1"), U("7.25")},
                         {Value::Int(3), Value::Int(7), Value::Int(-1)},
                         /*typed=*/true);
  ExpectMatchesReference({Value::Int(3), Value::Double(0.5)},
                         {U("3"), U("0.5"), U("12")}, /*typed=*/true);
}

TEST_F(ThetaJoinTest, MixedIntDoubleBeyondTwoToThe53FallsBack) {
  // Int-int pairs must compare exactly, int-double pairs as doubles: no
  // single key domain holds both once ints exceed 2^53.
  const int64_t p53 = int64_t{1} << 53;
  ExpectMatchesReference({Value::Int(p53 + 1), Value::Double(1.5)},
                         {Value::Int(p53), Value::Double(9e15)},
                         /*typed=*/false);
  // Small ints survive the double cast, so the same mix stays typed.
  ExpectMatchesReference({Value::Int(4), Value::Double(1.5)},
                         {Value::Int(4), Value::Double(4.0), Value::Int(1)},
                         /*typed=*/true);
}

TEST_F(ThetaJoinTest, StringClassKeysCompareAsStrings) {
  ExpectMatchesReference({U("b"), U("a"), U("10"), U("9"), U("a"), U("")},
                         {U("a"), U("10"), U("c"), U("")}, /*typed=*/true);
  ExpectMatchesReference({S("pear"), S("apple"), S("fig")},
                         {S("fig"), S("banana"), S("zebra"), S("apple")},
                         /*typed=*/true);
  ExpectMatchesReference({S("b"), U("b"), S("a")}, {U("b"), S("a"), U("c")},
                         /*typed=*/true);
}

TEST_F(ThetaJoinTest, BoolKeys) {
  ExpectMatchesReference(
      {Value::Bool(true), Value::Bool(false), Value::Bool(true)},
      {Value::Bool(false), Value::Bool(true)}, /*typed=*/true);
}

TEST_F(ThetaJoinTest, NanInfinitiesAndEmptySides) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectMatchesReference(
      {Value::Double(nan), Value::Double(inf), Value::Double(-inf),
       Value::Double(0), Value::Int(1)},
      {Value::Double(nan), Value::Double(inf), Value::Double(-inf),
       Value::Int(1)},
      /*typed=*/true);
  ExpectMatchesReference({U("NaN"), U("INF"), U("-INF")},
                         {Value::Double(inf), Value::Int(0)}, /*typed=*/true);
  ExpectMatchesReference({}, {Value::Int(1), U("x")}, /*typed=*/true);
  ExpectMatchesReference({Value::Int(1), S("x")}, {}, /*typed=*/true);
}

TEST_F(ThetaJoinTest, MixedDomainsFallBackPerPair) {
  // Untyped-untyped pairs compare as strings, int-untyped pairs as
  // numbers: the left side has no single domain against untyped keys.
  ExpectMatchesReference({U("10"), Value::Int(2), U("9")}, {U("9"), U("3")},
                         /*typed=*/false);
}

TEST_F(ThetaJoinTest, ErrorsMatchTheFirstFailingPair) {
  // An uncastable untyped value on either side, after good pairs.
  ExpectMatchesReference({U("5"), U("7"), U("abc"), U("9")},
                         {Value::Int(1), Value::Int(6)}, /*typed=*/true);
  ExpectMatchesReference({Value::Int(1), Value::Int(2)},
                         {Value::Int(1), U("zz"), Value::Int(3)},
                         /*typed=*/true);
  // A node value and a string-vs-number pair.
  ExpectMatchesReference({Value::Int(1), Value::Int(2)},
                         {Value::Int(0), Value::Node(0)}, /*typed=*/true);
  ExpectMatchesReference({Value::Int(4), S("a")}, {Value::Int(1)},
                         /*typed=*/true);
  ExpectMatchesReference({S("a"), S("b")}, {S("a"), Value::Double(1)},
                         /*typed=*/true);
}

// -- ThetaCount: the counting join against the chain it replaces ----------

class ThetaCountTest : public ThetaJoinTest {
 protected:
  // One join input: (iteration id, key) rows; an id may repeat (several
  // keys per iteration).
  using Side = std::vector<std::pair<int64_t, Value>>;
  // (group id, count) rows, sorted: the counting join lists groups in its
  // own order, which the rewrite declares as a row-order trade.
  using Counts = std::vector<std::pair<int64_t, int64_t>>;

  // Evaluates the plan of `build` at `threads`; returns its sorted
  // (group, count) rows or its error, and the fallback pairs the
  // ThetaCount records reported.
  Result<Counts> Run(Dag* dag, OpId root, ColId g, ColId n, int threads,
                     uint64_t* fallback) {
    Profile profile;
    EvalContext ctx;
    ctx.store = &store_;
    ctx.strings = &strings_;
    ctx.profile = &profile;
    ctx.num_threads = threads;
    Evaluator ev(*dag, &ctx);
    Result<TablePtr> t = ev.Eval(root);
    if (!t.ok()) return t.status();
    *fallback = 0;
    for (const Profile::OpMetrics& m : profile.ops()) {
      if (m.kind == "ThetaCount") *fallback += m.theta_fallback_pairs;
    }
    Counts out;
    for (size_t k = 0; k < (*t)->rows(); ++k) {
      out.emplace_back((*t)->at(g, k).i, (*t)->at(n, k).i);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Every relation, with the group on either side, at 1 and 4 threads:
  // ThetaCount equals Aggr count|g (π g (Distinct (π g,h (ThetaJoin)))),
  // or fails with the same first error. `typed` says whether the keys
  // have one comparison domain (no per-pair fallback).
  void ExpectMatchesChain(const Side& l, const Side& r, bool typed) {
    const ColId riter = ColSym("tc_riter");
    const ColId ritem = ColSym("tc_ritem");
    const ColId n = ColSym("tc_n");
    for (FunKind f : kRelations) {
      for (bool group_left : {true, false}) {
        Dag dag;
        auto lit = [&](const Side& side, ColId id, ColId key) {
          LitTable t;
          t.cols = {id, key};
          for (const auto& [i, k] : side) t.rows.push_back({Value::Int(i), k});
          return dag.Lit(std::move(t));
        };
        OpId left = lit(l, iter(), item());
        OpId right = lit(r, riter, ritem);
        ColId g = group_left ? iter() : riter;
        ColId h = group_left ? riter : iter();
        OpId pairs = dag.Distinct(dag.Project(
            dag.ThetaJoin(left, right, item(), f, ritem), {{g, g}, {h, h}}));
        OpId chain = dag.Aggr(dag.Project(pairs, {{g, g}}), AggrKind::kCount,
                              n, kNoCol, g);
        OpId counting = dag.ThetaCount(left, right, item(), f, ritem, g, h, n);
        for (int threads : {1, 4}) {
          std::string where = std::string(FunKindName(f)) +
                              (group_left ? " group-left" : " group-right") +
                              " threads=" + std::to_string(threads);
          uint64_t unused = 0;
          uint64_t fallback = 0;
          Result<Counts> want = Run(&dag, chain, g, n, threads, &unused);
          Result<Counts> got = Run(&dag, counting, g, n, threads, &fallback);
          ASSERT_EQ(got.ok(), want.ok())
              << where << ": " << got.status().ToString() << " vs "
              << want.status().ToString();
          if (!want.ok()) {
            EXPECT_EQ(got.status().ToString(), want.status().ToString())
                << where;
            continue;
          }
          EXPECT_EQ(*got, *want) << where;
          if (typed) {
            EXPECT_EQ(fallback, 0u) << where;
          } else if (!l.empty() && !r.empty()) {
            EXPECT_GT(fallback, 0u) << where;
          }
        }
      }
    }
  }

  Value I(int64_t i) { return Value::Int(i); }
  Value D(double d) { return Value::Double(d); }
};

TEST_F(ThetaCountTest, IntKeysWithSeveralKeysPerIteration) {
  ExpectMatchesChain({{1, I(5)}, {2, I(3)}, {1, I(9)}, {3, I(7)}, {2, I(1)},
                      {4, I(-2)}, {3, I(7)}},
                     {{10, I(4)}, {11, I(8)}, {10, I(6)}, {12, I(7)},
                      {13, I(0)}, {12, I(3)}, {11, I(8)}},
                     /*typed=*/true);
}

TEST_F(ThetaCountTest, IntKeysBeyondTwoToThe53) {
  // Exact on int64: 2^53 and 2^53 + 1 are one double.
  const int64_t p53 = int64_t{1} << 53;
  ExpectMatchesChain({{1, I(p53 + 1)}, {2, I(p53)}, {2, I(INT64_MIN)}},
                     {{7, I(p53)}, {8, I(p53 + 1)}, {8, I(INT64_MAX)}},
                     /*typed=*/true);
  // Mixed with doubles there is no single domain: per-pair fallback.
  ExpectMatchesChain({{1, I(p53 + 1)}, {2, D(1.5)}},
                     {{7, I(p53)}, {8, D(9e15)}}, /*typed=*/false);
}

TEST_F(ThetaCountTest, DoubleInfinityAndNanKeys) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN satisfies no order relation: an all-NaN iteration drops out, a
  // NaN beside other keys is ignored.
  ExpectMatchesChain({{1, D(nan)}, {2, D(inf)}, {2, D(nan)}, {3, D(-inf)},
                      {4, D(0.5)}, {4, I(2)}, {5, D(-0.0)}},
                     {{7, D(nan)}, {8, D(inf)}, {9, D(-inf)}, {9, D(nan)},
                      {10, I(1)}, {11, D(0.0)}, {10, D(0.5)}},
                     /*typed=*/true);
  ExpectMatchesChain(
      {{1, U("NaN")}, {2, U("INF")}, {3, U("-INF")}, {3, U("4")}},
      {{7, D(inf)}, {8, I(0)}, {8, D(nan)}}, /*typed=*/true);
}

TEST_F(ThetaCountTest, StringUntypedAndBoolKeys) {
  ExpectMatchesChain({{1, U("b")}, {1, U("a")}, {2, U("10")}, {3, U("9")},
                      {4, U("")}},
                     {{7, U("a")}, {8, U("10")}, {7, U("c")}, {9, U("")}},
                     /*typed=*/true);
  ExpectMatchesChain({{1, S("pear")}, {2, S("apple")}, {2, U("fig")}},
                     {{7, S("fig")}, {8, U("banana")}, {8, S("zebra")}},
                     /*typed=*/true);
  ExpectMatchesChain({{1, Value::Bool(true)}, {2, Value::Bool(false)},
                      {2, Value::Bool(true)}},
                     {{7, Value::Bool(false)}, {8, Value::Bool(true)}},
                     /*typed=*/true);
  // Untyped against untyped and numbers at once: per-pair fallback.
  ExpectMatchesChain({{1, U("10")}, {2, I(2)}, {1, U("9")}},
                     {{7, U("9")}, {8, U("3")}}, /*typed=*/false);
}

TEST_F(ThetaCountTest, EmptySides) {
  ExpectMatchesChain({}, {{7, I(1)}, {8, U("x")}}, /*typed=*/true);
  ExpectMatchesChain({{1, I(1)}, {2, S("x")}}, {}, /*typed=*/true);
  ExpectMatchesChain({}, {}, /*typed=*/true);
}

TEST_F(ThetaCountTest, ErrorsMatchTheChainsFirstError) {
  // An uncastable untyped value, after good pairs, on either side.
  ExpectMatchesChain({{1, U("5")}, {2, U("7")}, {1, U("abc")}, {3, U("9")}},
                     {{7, I(1)}, {8, I(6)}}, /*typed=*/false);
  ExpectMatchesChain({{1, I(1)}, {2, I(2)}},
                     {{7, I(1)}, {8, U("zz")}, {7, I(3)}}, /*typed=*/false);
  // An unatomized node, and a string against a number — with the
  // failing rows interleaved across iterations, so the first error in
  // left-major order is not the first one of the first group.
  ExpectMatchesChain({{1, I(1)}, {2, I(2)}, {1, I(3)}},
                     {{7, I(0)}, {8, Value::Node(0)}}, /*typed=*/false);
  ExpectMatchesChain({{1, I(4)}, {2, S("a")}, {1, S("b")}}, {{7, I(1)}},
                     /*typed=*/false);
  ExpectMatchesChain({{1, S("a")}, {2, S("b")}, {1, I(1)}},
                     {{7, S("a")}, {8, D(1)}}, /*typed=*/false);
}

// -- Hash kernels: first-appearance and ascending-row orders ---------------

class HashKernelOrderTest : public EngineTest {
 protected:
  Value U(const char* s) { return Value::Untyped(strings_.Intern(s)); }
  Value S(const char* s) { return Value::Str(strings_.Intern(s)); }

  OpId Lit(std::vector<ColId> cols, std::vector<std::vector<Value>> rows) {
    LitTable t;
    t.cols = std::move(cols);
    t.rows = std::move(rows);
    return dag_.Lit(std::move(t));
  }

  // Evaluates `root` standalone and fused, at several chunk/morsel sizes
  // and thread counts; every run must produce exactly `want` (columns in
  // the given order, rows in order).
  void ExpectTable(OpId root, const std::vector<ColId>& cols,
                   const std::vector<std::vector<Value>>& want) {
    for (bool pipelined : {false, true}) {
      for (size_t rows : {size_t{1}, size_t{3}, size_t{65536}}) {
        for (int threads : {1, 4}) {
          ctx_.pipelined_execution = pipelined;
          ctx_.chunk_rows = rows;
          ctx_.morsel_rows = rows;
          ctx_.num_threads = threads;
          TablePtr t = Eval(root);
          ASSERT_NE(t, nullptr);
          ASSERT_EQ(t->rows(), want.size());
          for (size_t r = 0; r < want.size(); ++r) {
            for (size_t c = 0; c < cols.size(); ++c) {
              EXPECT_TRUE(t->at(cols[c], r) == want[r][c])
                  << "row " << r << " col " << c << " pipelined "
                  << pipelined << " rows " << rows << " threads " << threads;
            }
          }
        }
      }
    }
  }

  // 60 rows of (iter, item) with heavy duplication in both columns.
  std::vector<std::vector<Value>> DupRows() {
    std::vector<std::vector<Value>> rows;
    rows.reserve(60);
    for (int64_t i = 0; i < 60; ++i) {
      rows.push_back({Value::Int((i * 7) % 5), Value::Int((i * 3) % 4)});
    }
    return rows;
  }
};

TEST_F(HashKernelOrderTest, DistinctKeepsFirstAppearance) {
  std::vector<std::vector<Value>> rows = DupRows();
  std::vector<std::vector<Value>> want;
  for (const auto& row : rows) {
    bool seen = false;
    for (const auto& w : want) {
      seen = seen || (w[0] == row[0] && w[1] == row[1]);
    }
    if (!seen) want.push_back(row);
  }
  ASSERT_LT(want.size(), rows.size());
  ExpectTable(dag_.Distinct(Lit({iter(), item()}, rows)), {iter(), item()},
              want);
}

TEST_F(HashKernelOrderTest, AggrGroupsInFirstAppearanceOrder) {
  const char* word[] = {"w", "x", "y"};
  std::vector<std::vector<Value>> rows;
  rows.reserve(60);
  for (int64_t i = 0; i < 60; ++i) {
    rows.push_back({Value::Int((i * 7) % 5), Value::Int(60 - i),
                    Value::Int(i), S(word[i % 3])});
  }
  const ColId sval = ColSym("hk_sval");
  OpId in = Lit({iter(), pos(), item(), sval}, rows);
  // Groups by iter in first-appearance order; members ascending by row.
  std::vector<int64_t> order;
  std::map<int64_t, std::vector<size_t>> members;
  for (size_t r = 0; r < rows.size(); ++r) {
    int64_t g = rows[r][0].i;
    if (members[g].empty()) order.push_back(g);
    members[g].push_back(r);
  }
  std::vector<std::vector<Value>> counts;
  std::vector<std::vector<Value>> sums;
  std::vector<std::vector<Value>> joins;
  for (int64_t g : order) {
    int64_t sum = 0;
    std::vector<size_t> by_pos = members[g];
    std::stable_sort(by_pos.begin(), by_pos.end(), [&](size_t a, size_t b) {
      return rows[a][1].i < rows[b][1].i;
    });
    std::string joined;
    for (size_t k = 0; k < by_pos.size(); ++k) {
      if (k > 0) joined += "-";
      joined += strings_.Get(rows[by_pos[k]][3].str);
    }
    for (size_t r : members[g]) sum += rows[r][2].i;
    counts.push_back(
        {Value::Int(g), Value::Int(static_cast<int64_t>(members[g].size()))});
    sums.push_back({Value::Int(g), Value::Int(sum)});
    joins.push_back({Value::Int(g), S(joined.c_str())});
  }
  const ColId res = ColSym("hk_res");
  ExpectTable(dag_.Aggr(in, AggrKind::kCount, res, kNoCol, iter()),
              {iter(), res}, counts);
  ExpectTable(dag_.Aggr(in, AggrKind::kSum, res, item(), iter()),
              {iter(), res}, sums);
  ExpectTable(dag_.AggrStrJoin(in, res, sval, iter(), pos(),
                               strings_.Intern("-")),
              {iter(), res}, joins);
}

TEST_F(HashKernelOrderTest, EquiJoinMatchesInAscendingBuildRows) {
  const ColId rit = ColSym("hk_rit");
  const ColId rkey = ColSym("hk_rkey");
  std::vector<std::vector<Value>> big = DupRows();
  std::vector<std::vector<Value>> small;
  small.reserve(12);
  for (int64_t j = 0; j < 12; ++j) {
    small.push_back({Value::Int(100 + j), Value::Int(j % 3)});
  }
  // The smaller side builds; output follows the probe side's rows, each
  // probe row's matches in ascending build-row order.
  auto expect = [&](const std::vector<std::vector<Value>>& l,
                    const std::vector<std::vector<Value>>& r) {
    bool build_right = r.size() <= l.size();
    const auto& probe = build_right ? l : r;
    const auto& build = build_right ? r : l;
    std::vector<std::vector<Value>> want;
    for (const auto& p : probe) {
      for (const auto& b : build) {
        if (!(p[1] == b[1])) continue;
        const auto& lr = build_right ? p : b;
        const auto& rr = build_right ? b : p;
        want.push_back({lr[0], lr[1], rr[0], rr[1]});
      }
    }
    OpId j = dag_.EquiJoin(Lit({iter(), item()}, l), Lit({rit, rkey}, r),
                           item(), rkey);
    ExpectTable(j, {iter(), item(), rit, rkey}, want);
    // And as a pipeline head feeding a projection.
    ExpectTable(dag_.Project(j, {{iter(), iter()}, {rit, rit}}), {iter(), rit},
                [&] {
                  std::vector<std::vector<Value>> w;
                  w.reserve(want.size());
                  for (const auto& row : want) w.push_back({row[0], row[2]});
                  return w;
                }());
  };
  expect(big, small);
  expect(small, big);
}

TEST_F(HashKernelOrderTest, ValueJoinNormalizesUntypedAndString) {
  const ColId rit = ColSym("hk_vrit");
  const ColId rkey = ColSym("hk_vrkey");
  OpId l = Lit({iter(), item()}, {{Value::Int(1), U("a")},
                                  {Value::Int(2), S("b")},
                                  {Value::Int(3), U("b")},
                                  {Value::Int(4), S("a")},
                                  {Value::Int(5), U("c")}});
  OpId r = Lit({rit, rkey}, {{Value::Int(10), S("a")},
                             {Value::Int(11), U("b")},
                             {Value::Int(12), U("a")}});
  // Build right (3 <= 5): left-major, right matches ascending.
  ExpectTable(dag_.ValueJoin(l, r, item(), rkey), {iter(), rit},
              {{Value::Int(1), Value::Int(10)},
               {Value::Int(1), Value::Int(12)},
               {Value::Int(2), Value::Int(11)},
               {Value::Int(3), Value::Int(11)},
               {Value::Int(4), Value::Int(10)},
               {Value::Int(4), Value::Int(12)}});
}

TEST_F(HashKernelOrderTest, SemiJoinAndDifferenceKeepLeftOrder) {
  std::vector<std::vector<Value>> rows = DupRows();
  OpId l = Lit({iter(), item()}, rows);
  OpId r = Lit({item()}, {{Value::Int(3)}, {Value::Int(1)}, {Value::Int(3)},
                          {Value::Int(1)}});
  std::vector<std::vector<Value>> semi;
  std::vector<std::vector<Value>> diff;
  for (const auto& row : rows) {
    bool hit = row[1].i == 1 || row[1].i == 3;
    (hit ? semi : diff).push_back(row);
  }
  ExpectTable(dag_.SemiJoin(l, r, {item()}), {iter(), item()}, semi);
  ExpectTable(dag_.Difference(l, r, {item()}), {iter(), item()}, diff);
}

}  // namespace
}  // namespace exrquy
