// The plan verifier (opt/verify.h): every class of malformed plan must
// be rejected with a diagnostic naming the violated invariant and the
// offending operator id, and every plan the compiler and optimizer
// actually produce — all 20 XMark queries, before and after each
// optimizer pass — must verify clean.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

class VerifyTest : public ::testing::Test {
 protected:
  // (iter, pos, item) literal rows.
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  // Asserts that verification fails citing `invariant` and the given op.
  void ExpectRejected(OpId root, const std::string& invariant, OpId bad) {
    Status st = VerifyPlan(dag_, root);
    ASSERT_FALSE(st.ok()) << "expected a [" << invariant << "] rejection";
    EXPECT_NE(st.message().find("[" + invariant + "]"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("op " + std::to_string(bad)),
              std::string::npos)
        << st.message();
  }

  Dag dag_;
};

TEST_F(VerifyTest, AcceptsWellFormedPlans) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  ColId rank = ColSym("vrank");
  OpId rn = dag_.RowNum(l, rank, {{pos(), false}}, iter());
  OpId proj =
      dag_.Project(rn, {{iter(), iter()}, {pos(), rank}, {item(), item()}});
  EXPECT_TRUE(VerifyPlan(dag_, proj).ok());
}

TEST_F(VerifyTest, RejectsDanglingColumnReference) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kSelect;
  op.children = {l};
  op.col = ColSym("vnot_there");
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "dangling-column", bad);
}

TEST_F(VerifyTest, RejectsDuplicateOutputColumn) {
  OpId l = Triples({{1, 1, 5}});
  ColId x = ColSym("vx");
  Op op;
  op.kind = OpKind::kProject;
  op.children = {l};
  op.proj = {{x, iter()}, {x, item()}};
  OpId bad = dag_.AddUnchecked(std::move(op), {x, x});
  ExpectRejected(bad, "duplicate-column", bad);
}

TEST_F(VerifyTest, RejectsWrongFunArity) {
  OpId l = Triples({{1, 1, 5}});
  ColId res = ColSym("vsum");
  Op op;
  op.kind = OpKind::kFun;
  op.children = {l};
  op.fun = FunKind::kAdd;
  op.col = res;
  op.args = {item()};  // add is binary
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item(), res});
  ExpectRejected(bad, "fun-arity", bad);
}

TEST_F(VerifyTest, RejectsCyclicEdge) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {static_cast<OpId>(dag_.size())};  // points at itself
  (void)l;
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "acyclicity", bad);
}

TEST_F(VerifyTest, RejectsNoOpChild) {
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {kNoOp};
  OpId bad = dag_.AddUnchecked(std::move(op), {item()});
  ExpectRejected(bad, "op-out-of-range", bad);
}

TEST_F(VerifyTest, RejectsWrongChildArity) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kUnion;
  op.children = {l};  // needs two inputs
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "child-arity", bad);
}

TEST_F(VerifyTest, RejectsForgedSchema) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {l};
  // Claims a column the input cannot deliver.
  OpId bad = dag_.AddUnchecked(std::move(op),
                               {iter(), pos(), item(), ColSym("vghost")});
  ExpectRejected(bad, "schema-mismatch", bad);
}

TEST_F(VerifyTest, RejectsMisalignedUnion) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = dag_.Empty({iter(), pos()});
  Op op;
  op.kind = OpKind::kUnion;
  op.children = {l, r};
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "union-schema", bad);
}

TEST_F(VerifyTest, RejectsSharedConstructorIds) {
  OpId content = Triples({{1, 1, 5}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  OpId e1 = dag_.Elem(StrPool::kEmpty, content, loop);
  // A second constructor stamped with the first one's id: hash-consing
  // would have been allowed to merge them, destroying node identity.
  Op op = dag_.op(e1);
  Op forged;
  forged.kind = OpKind::kTextNode;
  forged.children = {content, loop};
  forged.constructor_id = op.constructor_id;
  OpId e2 = dag_.AddUnchecked(std::move(forged), {iter(), item()});
  OpId u = dag_.AddUnchecked(
      [&] {
        Op un;
        un.kind = OpKind::kUnion;
        un.children = {e1, e2};
        return un;
      }(),
      {iter(), item()});
  ExpectRejected(u, "constructor-sharing", e2);
}

TEST_F(VerifyTest, RejectsInvalidCardinalityBounds) {
  OpId l = Triples({{1, 1, 5}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  Op op;
  op.kind = OpKind::kCardCheck;
  op.children = {l, loop};
  op.min_card = 2;
  op.max_card = 1;  // empty interval
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "card-bounds", bad);
}

TEST_F(VerifyTest, RejectsFalseKeyClaim) {
  // item repeats across rows, so it cannot be a key.
  OpId l = Triples({{1, 1, 5}, {2, 1, 5}});
  auto facts = DeriveFacts(dag_, l);
  OpFacts claim;
  claim.keys.insert(item());
  Status st = CheckClaims(dag_, l, claim, facts.at(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[property-claim]"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("key claim"), std::string::npos)
      << st.message();
  // iter genuinely is a key here, so that claim passes.
  OpFacts good;
  good.keys.insert(iter());
  EXPECT_TRUE(CheckClaims(dag_, l, good, facts.at(l)).ok());
}

TEST_F(VerifyTest, RejectsFalseConstantClaim) {
  OpId l = Triples({{1, 1, 5}, {2, 1, 7}});
  auto facts = DeriveFacts(dag_, l);
  OpFacts claim;
  claim.constant.insert(item());  // 5 vs 7
  Status st = CheckClaims(dag_, l, claim, facts.at(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("constant claim"), std::string::npos)
      << st.message();
  OpFacts good;
  good.constant.insert(pos());  // 1 in every row
  EXPECT_TRUE(CheckClaims(dag_, l, good, facts.at(l)).ok());
}

TEST_F(VerifyTest, DerivedFactsTrackRowIdAndAggregates) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  ColId rid = ColSym("vrid");
  OpId numbered = dag_.RowId(l, rid);
  ColId cnt = ColSym("vcnt");
  OpId counts = dag_.Aggr(numbered, AggrKind::kCount, cnt, kNoCol, iter());
  auto facts = DeriveFacts(dag_, counts);
  // # produces a fresh key in arbitrary order.
  EXPECT_TRUE(facts.at(numbered).keys.count(rid) != 0);
  EXPECT_TRUE(facts.at(numbered).arbitrary.count(rid) != 0);
  // Grouped aggregation keys its partition column.
  EXPECT_TRUE(facts.at(counts).keys.count(iter()) != 0);
  // A global aggregate has exactly one row.
  ColId total = ColSym("vtotal");
  OpId global = dag_.Aggr(l, AggrKind::kCount, total, kNoCol, kNoCol);
  auto global_facts = DeriveFacts(dag_, global);
  EXPECT_TRUE(global_facts.at(global).at_most_one_row);
  EXPECT_TRUE(global_facts.at(global).constant.count(total) != 0);
  // The interval bounds underlying those booleans: a literal is [n, n],
  // # and grouped aggregation preserve/bound it, a global aggregate is
  // exactly one row.
  EXPECT_EQ(facts.at(l).min_rows, 3u);
  EXPECT_EQ(facts.at(l).max_rows, 3u);
  EXPECT_EQ(facts.at(numbered).min_rows, 3u);
  EXPECT_EQ(facts.at(numbered).max_rows, 3u);
  EXPECT_EQ(facts.at(counts).min_rows, 1u);
  EXPECT_EQ(facts.at(counts).max_rows, 3u);
  EXPECT_EQ(global_facts.at(global).min_rows, 1u);
  EXPECT_EQ(global_facts.at(global).max_rows, 1u);
}

// -- ThetaCount ------------------------------------------------------------

class VerifyThetaCountTest : public VerifyTest {
 protected:
  VerifyThetaCountTest() {
    LitTable l;
    l.cols = {iter(), item()};
    l.rows = {{Value::Int(1), Value::Int(5)}, {Value::Int(1), Value::Int(9)},
              {Value::Int(2), Value::Int(3)}};
    left_ = dag_.Lit(std::move(l));
    LitTable r;
    r.cols = {riter_, ritem_};
    r.rows = {{Value::Int(7), Value::Int(4)}, {Value::Int(8), Value::Int(6)}};
    right_ = dag_.Lit(std::move(r));
  }

  // A ThetaCount over left_/right_ with the given fields, inserted
  // unchecked with the schema `schema`.
  OpId Malformed(FunKind f, std::vector<ColId> keys, ColId group,
                 ColId partner, std::vector<ColId> schema) {
    Op op;
    op.kind = OpKind::kThetaCount;
    op.children = {left_, right_};
    op.fun = f;
    op.keys = std::move(keys);
    op.part = group;
    op.col2 = partner;
    op.col = n_;
    return dag_.AddUnchecked(std::move(op), std::move(schema));
  }

  const ColId riter_ = ColSym("vtc_riter");
  const ColId ritem_ = ColSym("vtc_ritem");
  const ColId n_ = ColSym("vtc_n");
  OpId left_ = kNoOp;
  OpId right_ = kNoOp;
};

TEST_F(VerifyThetaCountTest, AcceptsWellFormedCountingJoin) {
  OpId tc = dag_.ThetaCount(left_, right_, item(), FunKind::kLt, ritem_,
                            iter(), riter_, n_);
  EXPECT_TRUE(VerifyPlan(dag_, tc).ok()) << VerifyPlan(dag_, tc).message();
  // One row per group, at most one per row of the group side.
  auto facts = DeriveFacts(dag_, tc);
  EXPECT_TRUE(facts.at(tc).keys.count(iter()) != 0);
  EXPECT_EQ(facts.at(tc).min_rows, 0u);
  EXPECT_EQ(facts.at(tc).max_rows, 3u);
}

TEST_F(VerifyThetaCountTest, RejectsNonRelationComparison) {
  OpId bad = Malformed(FunKind::kAdd, {item(), ritem_}, iter(), riter_,
                       {iter(), n_});
  ExpectRejected(bad, "theta-comparison", bad);
}

TEST_F(VerifyThetaCountTest, RejectsMissingJoinKey) {
  OpId bad =
      Malformed(FunKind::kLt, {item()}, iter(), riter_, {iter(), n_});
  ExpectRejected(bad, "theta-count-shape", bad);
}

TEST_F(VerifyThetaCountTest, RejectsKeyFromTheWrongInput) {
  // The right key must come from the right input.
  OpId bad = Malformed(FunKind::kLt, {item(), iter()}, iter(), riter_,
                       {iter(), n_});
  ExpectRejected(bad, "dangling-column", bad);
}

TEST_F(VerifyThetaCountTest, RejectsGroupAndPartnerOnOneSide) {
  OpId bad = Malformed(FunKind::kLt, {item(), ritem_}, iter(), item(),
                       {iter(), n_});
  ExpectRejected(bad, "theta-count-shape", bad);
}

TEST_F(VerifyThetaCountTest, RejectsForgedSchema) {
  // The output is (group, count) — never the join's pair schema.
  OpId bad = Malformed(FunKind::kLt, {item(), ritem_}, iter(), riter_,
                       {iter(), item(), riter_, ritem_});
  ExpectRejected(bad, "schema-mismatch", bad);
}

TEST_F(VerifyThetaCountTest, RejectsScaffoldingJoinKey) {
  // A join key carrying iteration ids is not a value join.
  OpId bad = Malformed(FunKind::kLt, {iter(), ritem_}, iter(), riter_,
                       {iter(), n_});
  ExpectRejected(bad, "join-isolation-claim", bad);
}

TEST_F(VerifyTest, CheckCardClaimRequiresContainment) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  auto facts = DeriveFacts(dag_, l);  // derived interval is [3, 3]
  CardRange sound;
  sound.min = 0;
  sound.max = 10;
  EXPECT_TRUE(CheckCardClaim(dag_, l, sound, facts.at(l)).ok());
  CardRange lying;  // claims at most 2 rows — excludes the derived [3,3]
  lying.min = 0;
  lying.max = 2;
  Status st = CheckCardClaim(dag_, l, lying, facts.at(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[cardinality-claim]"), std::string::npos)
      << st.message();
  CardRange lying_min;  // claims at least 4 rows
  lying_min.min = 4;
  lying_min.max = kUnboundedRows;
  EXPECT_FALSE(CheckCardClaim(dag_, l, lying_min, facts.at(l)).ok());
}

TEST_F(VerifyTest, PipelineRejectsMalformedInputWithDotDump) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kSelect;
  op.children = {l};
  op.col = ColSym("vbroken");
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});

  StrPool strings;
  OptimizeOptions options;
  options.verify_each_pass = true;
  options.strings = &strings;
  Result<OpId> opt = Optimize(&dag_, bad, options);
  ASSERT_FALSE(opt.ok());
  const std::string& msg = opt.status().message();
  EXPECT_NE(msg.find("initial plan (compiler output)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("[dangling-column]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("digraph plan"), std::string::npos) << msg;
}

// Every XMark query must verify clean as compiled, as optimized, and
// after every individual optimizer pass (verify_each_pass replays a
// failing pass rewrite-by-rewrite, so a clean run here certifies each
// intermediate plan).
TEST(VerifyXMarkTest, AllQueriesVerifyBeforeAndAfterEveryPass) {
  Session session;
  for (bool unordered : {false, true}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      QueryOptions options;
      options.verify_each_pass = true;
      options.default_ordering =
          unordered ? OrderingMode::kUnordered : OrderingMode::kOrdered;
      Result<QueryPlans> plans = session.Plan(q.text, options);
      ASSERT_TRUE(plans.ok())
          << q.name << (unordered ? " (unordered)" : " (ordered)") << ": "
          << plans.status().ToString();
      EXPECT_TRUE(VerifyPlan(*plans->dag, plans->initial).ok()) << q.name;
      EXPECT_TRUE(VerifyPlan(*plans->dag, plans->optimized).ok()) << q.name;
    }
  }
}

TEST(VerifyXMarkTest, BaselineConfigurationAlsoVerifies) {
  Session session;
  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  for (const XMarkQuery& q : XMarkQueries()) {
    Result<QueryPlans> plans = session.Plan(q.text, baseline);
    ASSERT_TRUE(plans.ok()) << q.name << ": " << plans.status().ToString();
    EXPECT_TRUE(VerifyPlan(*plans->dag, plans->optimized).ok()) << q.name;
  }
}

}  // namespace
}  // namespace exrquy
