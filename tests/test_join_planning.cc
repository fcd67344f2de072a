// Join recognition & planning (opt/join_plan.*): the product-space
// predicate idiom must be lifted into value/theta joins exactly when the
// proof obligations hold, and never otherwise. Coverage:
//
//   * unit recognition over handcrafted documents — equality and theta
//     predicates, an `and`-conjunction (one join per conjunct), return
//     clauses of every shape (the inner variable, a path, nested
//     constructors, the outer variable, an order by), and near-miss
//     shapes that must not fire: an inner sequence depending on the
//     outer variable, a body reading the product space before the where
//     filter, a positional variable;
//   * the plan verifier's independent [join-isolation-claim] audit on
//     hand-built plans whose join predicates touch scaffolding columns
//     or mix hash-unsafe kinds;
//   * off-vs-on equivalence across the entire XMark corpus in both
//     ordering modes at 1 and 4 threads — byte-identical ordered
//     results, equal multisets unordered;
//   * governor faults injected through theta-join and counting-join
//     plans, a guard that the XMark theta joins run entirely on typed
//     keys (no per-pair Compare fallback), row-count guards keeping Q10
//     off its product space and Q11/Q12 off their theta pairs, and a CI
//     wall-clock guard pinning Q9 under a deadline the retired
//     product-space plan could not meet.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "engine/faults.h"
#include "opt/verify.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// ---------------------------------------------------------------------
// Recognition hits and misses.

const char kDoc[] =
    R"(<root><as><a k="1" j="1"/><a k="2" j="9"/><a k="3" j="3"/></as>)"
    R"(<bs><b k="2"/><b k="3"/><b k="5"/></bs></root>)";

// Categories and people with repeated interests: the Q10 shape in
// miniature. Di has no interest and matches nothing.
const char kPeople[] =
    R"(<site><cats><c>x</c><c>y</c><c>z</c></cats><people>)"
    R"(<p><i>x</i><i>y</i><n>Ann</n><s>10</s></p>)"
    R"(<p><i>y</i><n>Bob</n><s>20</s></p>)"
    R"(<p><i>z</i><i>x</i><n>Cy</n><s>30</s></p>)"
    R"(<p><n>Di</n><s>5</s></p></people></site>)";

class JoinRecognitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    ASSERT_TRUE(session_->LoadDocument("d.xml", kDoc).ok());
    ASSERT_TRUE(session_->LoadDocument("e.xml", kPeople).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static Result<QueryResult> Run(const std::string& q,
                                 const QueryOptions& o) {
    return session_->Execute(q, o);
  }

  // Runs `q` with recognition on and off in both ordering modes and
  // asserts equal results either way (byte-identical ordered, equal
  // multisets unordered). Returns the default-options result.
  static QueryResult CheckEquivalent(const std::string& q) {
    QueryResult out;
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      QueryOptions on;
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;
      Result<QueryResult> a = Run(q, on);
      Result<QueryResult> b = Run(q, off);
      EXPECT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_TRUE(b.ok()) << b.status().ToString();
      if (!a.ok() || !b.ok()) return out;
      EXPECT_EQ(b->plan_optimized.value_join_ops, 0u);
      EXPECT_EQ(b->plan_optimized.theta_join_ops, 0u);
      EXPECT_EQ(b->plan_optimized.theta_count_ops, 0u);
      if (mode == OrderingMode::kOrdered) {
        EXPECT_EQ(a->serialized, b->serialized);
        EXPECT_EQ(a->items, b->items);
        out = *a;
      } else {
        std::vector<std::string> ia = a->items;
        std::vector<std::string> ib = b->items;
        std::sort(ia.begin(), ia.end());
        std::sort(ib.begin(), ib.end());
        EXPECT_EQ(ia, ib);
      }
    }
    return out;
  }

  // Runs `q` with recognition on and off in both ordering modes at 1
  // and 4 threads and asserts byte-identical results every time.
  // Returns the recognized ordered result at 1 thread.
  static QueryResult CheckIdentical(const std::string& q) {
    QueryResult out;
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      for (int threads : {1, 4}) {
        QueryOptions on;
        on.default_ordering = mode;
        on.num_threads = threads;
        QueryOptions off = on;
        off.join_recognition = false;
        Result<QueryResult> a = Run(q, on);
        Result<QueryResult> b = Run(q, off);
        EXPECT_TRUE(a.ok()) << a.status().ToString();
        EXPECT_TRUE(b.ok()) << b.status().ToString();
        if (!a.ok() || !b.ok()) return out;
        std::string context =
            std::string(mode == OrderingMode::kOrdered ? "ordered"
                                                       : "unordered") +
            " threads=" + std::to_string(threads);
        EXPECT_EQ(b->plan_optimized.value_join_ops, 0u) << context;
        EXPECT_EQ(a->serialized, b->serialized) << context;
        if (mode == OrderingMode::kOrdered && threads == 1) {
          out = *a;
        } else {
          EXPECT_EQ(a->plan_optimized.value_join_ops,
                    out.plan_optimized.value_join_ops)
              << "recognition differs across configurations: " << context;
        }
      }
    }
    return out;
  }

  static Session* session_;
};

Session* JoinRecognitionTest::session_ = nullptr;

TEST_F(JoinRecognitionTest, EqualityPredicateBecomesValueJoin) {
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k return $b))");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "1", "1"}));
}

TEST_F(JoinRecognitionTest, OrderPredicateBecomesThetaJoin) {
  // The joined items themselves are returned: the pairs are needed.
  const std::string q =
      R"(for $a in doc("d.xml")/root/as/a
         return <r>{for $b in doc("d.xml")/root/bs/b
                    where $b/@k < $a/@k return $b}</r>)";
  QueryResult r = CheckEquivalent(q);
  EXPECT_GE(r.plan_optimized.theta_join_ops, 1u);
  EXPECT_EQ(r.plan_optimized.theta_count_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"<r/>", "<r/>",
                                               "<r><b k=\"2\"/></r>"}));

  // theta_join=false refuses the non-equality predicate while leaving
  // the result untouched.
  QueryOptions no_theta;
  no_theta.theta_join = false;
  Result<QueryResult> nt = Run(q, no_theta);
  ASSERT_TRUE(nt.ok()) << nt.status().ToString();
  EXPECT_EQ(nt->plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(nt->plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(nt->items, r.items);
}

TEST_F(JoinRecognitionTest, OrderPredicateUnderCountBecomesThetaCount) {
  // Only count() consumes the joined sequence: the counting join answers
  // it without forming a pair.
  const std::string q =
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k < $a/@k return $b))";
  QueryResult r = CheckEquivalent(q);
  EXPECT_GE(r.plan_optimized.theta_count_ops, 1u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "0", "1"}));

  // theta_join=false leaves no ThetaJoin to count.
  QueryOptions no_theta;
  no_theta.theta_join = false;
  Result<QueryResult> nt = Run(q, no_theta);
  ASSERT_TRUE(nt.ok()) << nt.status().ToString();
  EXPECT_EQ(nt->plan_optimized.theta_count_ops, 0u);
  EXPECT_EQ(nt->items, r.items);
}

TEST_F(JoinRecognitionTest, ConjunctionYieldsOneJoinPerConjunct) {
  // `and` of two equality comparisons: each conjunct becomes its own
  // hash join, and the survivor sets intersect.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k and $b/@k = $a/@j
                      return $b))");
  EXPECT_GE(r.plan_optimized.value_join_ops, 2u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "0", "1"}));
}

TEST_F(JoinRecognitionTest, SemijoinReturnCompositeFires) {
  // The inner for-loop returns a constructed element: the whole return
  // composite is recognized and the product space itself retired.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return <hit>{for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k
                      return <v>{$b/@k}</v>}</hit>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.serialized,
            "<hit/><hit><v k=\"2\"/></hit><hit><v k=\"3\"/></hit>");
}

// The FLWOR back-mapping anchor joins whatever the return clause
// builds from the inner variable: each of these return shapes keeps the
// inner loop's where filter as its only way into the product space.

TEST_F(JoinRecognitionTest, ReturnedSequenceAsElementContent) {
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         let $m := for $p in doc("e.xml")/site/people/p
                   where $p/i = $c return $p
         return <cat>{ $m }</cat>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.items.size(), 3u);
  EXPECT_NE(r.serialized.find("<cat><p><i>x</i><i>y</i><n>Ann</n>"),
            std::string::npos)
      << r.serialized;
}

TEST_F(JoinRecognitionTest, ReturnedPath) {
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         return <cat>{ for $p in doc("e.xml")/site/people/p
                       where $p/i = $c return $p/n }</cat>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.serialized,
            "<cat><n>Ann</n><n>Cy</n></cat>"
            "<cat><n>Ann</n><n>Bob</n></cat>"
            "<cat><n>Cy</n></cat>");
}

TEST_F(JoinRecognitionTest, NestedTwoPathConstructor) {
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         return <cat>{ for $p in doc("e.xml")/site/people/p
                       where $p/i = $c
                       return <e><nm>{ $p/n/text() }</nm>
                                 <sc>{ $p/s/text() }</sc></e> }</cat>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.items[2], "<cat><e><nm>Cy</nm><sc>30</sc></e></cat>");
}

TEST_F(JoinRecognitionTest, OnePathElementBesideOuterSibling) {
  // XMark Q10's shape: the outer return reads the outer variable next
  // to the joined inner loop.
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         let $m := for $p in doc("e.xml")/site/people/p
                   where $p/i = $c return <nm>{ $p/n/text() }</nm>
         return <cat>{ <id>{ $c/text() }</id>, $m }</cat>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.items[1], "<cat><id>y</id><nm>Ann</nm><nm>Bob</nm></cat>");
}

TEST_F(JoinRecognitionTest, ReturnReadingTheOuterVariable) {
  // The return body reads the outer variable through the where filter's
  // scope, and the inner loop carries an order by.
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         return <cat>{ for $p in doc("e.xml")/site/people/p
                       where $p/i = $c
                       order by number($p/s) descending
                       return <m c="{ $c }">{ $p/n/text() }</m> }</cat>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.items[0],
            "<cat><m c=\"x\">Cy</m><m c=\"x\">Ann</m></cat>");
}

TEST_F(JoinRecognitionTest, UnfilteredReadOfTheInnerLoopDoesNotFire) {
  // `let` before `where` builds an element for every product-space
  // iteration, survivor or not: constructors can raise, so the region
  // reaches the product space outside the where filter and is refused.
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         return <cat>{ for $p in doc("e.xml")/site/people/p
                       let $e := <e>{ $p/n/text() }</e>
                       where $p/i = $c return $e }</cat>)");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items[2], "<cat><e>Cy</e></cat>");
}

TEST_F(JoinRecognitionTest, PositionalVariableInReturnIsRefused) {
  // $n ranks the product space's own numbering, which the survivor
  // rebuild does not reproduce: refused, and the result is unchanged.
  QueryResult r = CheckIdentical(
      R"(for $c in doc("e.xml")/site/cats/c
         return <cat>{ for $p at $n in doc("e.xml")/site/people/p
                       where $p/i = $c return <m n="{ $n }"/> }</cat>)");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.items[0], "<cat><m n=\"1\"/><m n=\"3\"/></cat>");
}

TEST_F(JoinRecognitionTest, InnerSequenceDependingOnOuterRefusedAnyReturn) {
  // The inner sequence steps from the outer item: not loop-invariant,
  // whatever the return clause builds.
  QueryResult r = CheckIdentical(
      R"(for $p in doc("e.xml")/site/people/p
         return <r>{ for $i in $p/i where $i = $p/n
                     return <x>{ $i/text() }</x> }</r>)");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items.size(), 4u);
}

TEST_F(JoinRecognitionTest, InnerSequenceDependingOnOuterDoesNotFire) {
  // $b ranges over $a's own attributes — the inner sequence is not
  // loop-invariant, so no document-level rebuild is sound.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in $a/@k where $b = $a/@j return $b))");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"1", "0", "1"}));
}

TEST_F(JoinRecognitionTest, PredicateWithoutOuterReferenceDoesNotFire) {
  // Both comparison sides live on the inner sequence: there is no
  // lifted outer side to re-root, so the shape must be refused.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $b/@k return $b))");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"3", "3", "3"}));
}

// ---------------------------------------------------------------------
// The verifier's independent join-isolation audit.

class JoinIsolationVerifyTest : public ::testing::Test {
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

  // The right side of a join, columns renamed apart from the left's.
  OpId Renamed(OpId src) {
    return dag_.Project(src, {{iter2_, iter()}, {pos2_, pos()},
                              {item2_, item()}});
  }

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
  ColId iter2_ = ColSym("viter2");
  ColId pos2_ = ColSym("vpos2");
  ColId item2_ = ColSym("vitem2");
};

TEST_F(JoinIsolationVerifyTest, AcceptsValueJoinOnItemValues) {
  OpId l = Triples({{1, 1, 5}, {2, 1, 7}});
  OpId r = Renamed(Triples({{1, 1, 5}, {1, 2, 9}}));
  OpId vj = dag_.ValueJoin(l, r, item(), item2_);
  EXPECT_TRUE(VerifyPlan(dag_, vj).ok());
}

TEST_F(JoinIsolationVerifyTest, RejectsValueJoinKeyedOnIteration) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = Renamed(Triples({{1, 1, 5}}));
  OpId vj = dag_.ValueJoin(l, r, iter(), iter2_);
  ExpectRejected(vj, "join-isolation-claim", vj);
}

TEST_F(JoinIsolationVerifyTest, RejectsThetaJoinOnScaffolding) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = Renamed(Triples({{1, 1, 5}}));
  OpId tj = dag_.ThetaJoin(l, r, pos(), FunKind::kLt, pos2_);
  ExpectRejected(tj, "join-isolation-claim", tj);
}

TEST_F(JoinIsolationVerifyTest, RejectsHashEqualityOverMixedKinds) {
  OpId l = Triples({{1, 1, 5}});
  LitTable t;
  t.cols = {iter(), pos(), item()};
  t.rows.push_back({Value::Int(1), Value::Int(1), Value::Bool(true)});
  OpId r = Renamed(dag_.Lit(std::move(t)));
  OpId vj = dag_.ValueJoin(l, r, item(), item2_);
  ExpectRejected(vj, "join-isolation-claim", vj);
}

// ---------------------------------------------------------------------
// Off-vs-on equivalence across the XMark corpus.

QueryOptions Threads(int n) {
  QueryOptions o;
  o.num_threads = n;
  o.chunk_rows = 7;
  return o;
}

class JoinCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.004;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static Session* session_;
};

Session* JoinCorpusTest::session_ = nullptr;

class JoinCorpusQueryTest : public JoinCorpusTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(JoinCorpusQueryTest, OffVsOnEquivalentAtEveryThreadCount) {
  const XMarkQuery& q = XMarkQueries()[GetParam()];
  for (OrderingMode mode :
       {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    std::string on_serialized_at_one;
    for (int threads : {1, 4}) {
      QueryOptions on = Threads(threads);
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;
      Result<QueryResult> a = session_->Execute(q.text, on);
      Result<QueryResult> b = session_->Execute(q.text, off);
      std::string context = std::string(q.name) + " threads=" +
                            std::to_string(threads) +
                            (mode == OrderingMode::kUnordered ? " unordered"
                                                              : " ordered");
      ASSERT_TRUE(a.ok()) << context << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << context << ": " << b.status().ToString();
      EXPECT_EQ(b->plan_optimized.value_join_ops, 0u) << context;
      EXPECT_EQ(b->plan_optimized.theta_join_ops, 0u) << context;
      if (mode == OrderingMode::kOrdered) {
        // Only the join flags differ, so even Q10's free distinct-values
        // order is pinned identically on both sides.
        EXPECT_EQ(a->serialized, b->serialized) << context;
        EXPECT_EQ(a->items, b->items) << context;
      } else {
        std::vector<std::string> ia = a->items;
        std::vector<std::string> ib = b->items;
        std::sort(ia.begin(), ia.end());
        std::sort(ib.begin(), ib.end());
        EXPECT_EQ(ia, ib) << context;
      }
      // The recognized plans themselves are deterministic across thread
      // counts, byte for byte.
      if (threads == 1) {
        on_serialized_at_one = a->serialized;
      } else {
        EXPECT_EQ(a->serialized, on_serialized_at_one) << context;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, JoinCorpusQueryTest,
                         ::testing::Range(0, 20),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return XMarkQueries()[info.param].name;
                         });

TEST_F(JoinCorpusTest, Q10InnerLoopIsJoined) {
  // Q10's inner loop returns a nested constructor beside the outer
  // `<id>{$i}</id>`; the FLWOR anchor joins it whatever the return
  // builds, byte-identically in every configuration.
  const std::string& text = XMarkQueryText("Q10");
  for (OrderingMode mode :
       {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    for (int threads : {1, 4}) {
      QueryOptions on = Threads(threads);
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;
      Result<QueryResult> a = session_->Execute(text, on);
      Result<QueryResult> b = session_->Execute(text, off);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_GE(a->plan_optimized.value_join_ops, 1u) << threads;
      EXPECT_EQ(a->serialized, b->serialized) << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Governor faults through theta-join and counting-join plans.

// XMark Q11/Q12 with the joined items returned instead of counted: the
// pairs themselves are consumed, so the band predicate stays a ThetaJoin.
const char kQ11Items[] =
    R"(let $auction := doc("auction.xml")
for $p in $auction/site/people/person
let $l := for $i in $auction/site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * $i
          return $i
return <items name="{ $p/name }">{ $l }</items>)";
const char kQ12Items[] =
    R"(for $p in doc("auction.xml")/site/people/person
let $l := for $i in doc("auction.xml")/site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
where $p/profile/@income > 50000
return <items person="{ $p/profile/@income }">{ $l }</items>)";

// Cancel-at-dispatch, deadline-at-chunk and failed-allocation faults,
// at 1 and 4 threads: each surfaces as its own code (or the query
// finishes first) with the same outcome at both thread counts, and the
// Session re-runs the query, unfaulted, to a byte-identical result.
void ExpectFaultsSurfaceCleanly(Session* session, const std::string& name,
                                const std::string& text,
                                const QueryResult& reference) {
  struct Fault {
    const char* name;
    FaultPlan plan;
    StatusCode expected;
  };
  std::vector<Fault> faults;
  {
    FaultPlan p;
    p.cancel_at_op = 2;
    faults.push_back({"cancel@op2", p, StatusCode::kCancelled});
  }
  {
    FaultPlan p;
    p.deadline_at_chunk = 2;
    faults.push_back({"deadline@chunk2", p, StatusCode::kDeadlineExceeded});
  }
  {
    FaultPlan p;
    p.fail_alloc = 5;
    faults.push_back({"alloc@5", p, StatusCode::kResourceExhausted});
  }
  for (const Fault& fault : faults) {
    std::string context = name + " " + fault.name;
    StatusCode outcome_at_one = StatusCode::kOk;
    for (int threads : {1, 4}) {
      QueryOptions o = Threads(threads);
      o.faults = fault.plan;
      Result<QueryResult> r = session->Execute(text, o);
      StatusCode outcome = r.ok() ? StatusCode::kOk : r.status().code();
      if (!r.ok()) {
        EXPECT_EQ(outcome, fault.expected)
            << context << " threads=" << threads << ": "
            << r.status().ToString();
      }
      if (threads == 1) {
        outcome_at_one = outcome;
      } else {
        EXPECT_EQ(outcome, outcome_at_one) << context;
      }
      Result<QueryResult> again = session->Execute(text, Threads(threads));
      ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
      EXPECT_EQ(again->serialized, reference.serialized) << context;
    }
  }
}

TEST_F(JoinCorpusTest, GovernorFaultsThroughThetaJoin) {
  for (const auto& [name, text] :
       {std::pair<std::string, std::string>{"Q11 items", kQ11Items},
        {"Q12 items", kQ12Items}}) {
    // Never-faulted reference; its plan must actually run a ThetaJoin so
    // the fault counters tick through its kernel.
    Result<QueryResult> reference = session_->Execute(text, Threads(1));
    ASSERT_TRUE(reference.ok())
        << name << ": " << reference.status().ToString();
    ASSERT_GE(reference->plan_optimized.theta_join_ops, 1u) << name;
    ASSERT_EQ(reference->plan_optimized.theta_count_ops, 0u) << name;
    ExpectFaultsSurfaceCleanly(session_, name, text, *reference);
  }
}

TEST_F(JoinCorpusTest, GovernorFaultsThroughThetaCount) {
  for (const char* name : {"Q11", "Q12"}) {
    const std::string& text = XMarkQueryText(name);
    // The same, through the counting theta join XMark's count($l) plans.
    Result<QueryResult> reference = session_->Execute(text, Threads(1));
    ASSERT_TRUE(reference.ok())
        << name << ": " << reference.status().ToString();
    ASSERT_GE(reference->plan_optimized.theta_count_ops, 1u) << name;
    ExpectFaultsSurfaceCleanly(session_, name, text, *reference);
  }
}

// ---------------------------------------------------------------------
// Typed-key guard: the XMark theta joins (counting joins under count(),
// theta joins when the joined items are returned) compare untyped
// @income against numbers, which the kernels cast once per row. A plan
// or kernel change that hands them keys without one comparison domain
// would silently bring back the per-pair Compare path; the profile's
// fallback count catches that deterministically.

TEST(ThetaKernelGuard, XMarkThetaJoinsNeverFallBack) {
  Session session;
  XMarkOptions options;
  options.scale = 0.016;
  ASSERT_TRUE(
      session.LoadDocument("auction.xml", GenerateXMark(options)).ok());
  struct Case {
    std::string name;
    std::string text;
    const char* kernel;
  };
  const Case cases[] = {{"Q11", XMarkQueryText("Q11"), "ThetaCount"},
                        {"Q12", XMarkQueryText("Q12"), "ThetaCount"},
                        {"Q11 items", kQ11Items, "ThetaJoin"},
                        {"Q12 items", kQ12Items, "ThetaJoin"}};
  for (const Case& c : cases) {
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      QueryOptions o;
      o.default_ordering = mode;
      o.profile = true;
      Result<QueryResult> r = session.Execute(c.text, o);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      size_t kernels = 0;
      for (const Profile::OpMetrics& m : r->profile.ops()) {
        if (m.kind != c.kernel) continue;
        ++kernels;
        EXPECT_GT(m.in_rows, 0u) << c.name;
        EXPECT_GT(m.out_rows, 0u) << c.name;
        EXPECT_EQ(m.theta_fallback_pairs, 0u) << c.name << " op " << m.op;
      }
      EXPECT_GE(kernels, 1u) << c.name;
      EXPECT_NE(r->profile.ToJson().find("\"theta_fallback_pairs\": 0"),
                std::string::npos)
          << c.name;
    }
  }
}

// ---------------------------------------------------------------------
// Product-space guard: a deterministic row-count bound, not a wall-clock
// one, so it holds under sanitizers. At scale 0.1 Q10's product space
// is 100 categories x 2550 persons = 255,000 rows per operator; the
// joined plan's largest operator input is the ~20 K rows of constructor
// content over the ~3,100 surviving (category, person) pairs.

TEST(JoinScalingGuard, Q10NeverMaterializesProductSpace) {
  Session session;
  XMarkOptions options;
  options.scale = 0.1;
  ASSERT_TRUE(
      session.LoadDocument("auction.xml", GenerateXMark(options)).ok());
  constexpr size_t kMaxInputRows = 50000;
  for (OrderingMode mode :
       {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    QueryOptions o;
    o.default_ordering = mode;
    o.profile = true;
    Result<QueryResult> r = session.Execute(XMarkQueryText("Q10"), o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->plan_optimized.value_join_ops, 1u);
    for (const Profile::OpMetrics& m : r->profile.ops()) {
      EXPECT_LE(m.in_rows, kMaxInputRows)
          << "op " << m.op << " (" << m.kind << ", " << m.prov << ")";
    }
  }
}

// Q11/Q12 count the (person, auction) pairs of a band predicate: at
// scale 0.1 the retired ThetaJoin → Distinct → Aggr chain materialized
// ~360,000 pairs (Q12's outer-where Join read 360,648 rows). The
// counting join reads only the two sides and the count table.

TEST(JoinScalingGuard, Q11Q12NeverMaterializePairs) {
  Session session;
  XMarkOptions options;
  options.scale = 0.1;
  ASSERT_TRUE(
      session.LoadDocument("auction.xml", GenerateXMark(options)).ok());
  constexpr size_t kMaxInputRows = 50000;
  for (const char* name : {"Q11", "Q12"}) {
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      QueryOptions o;
      o.default_ordering = mode;
      o.profile = true;
      Result<QueryResult> r = session.Execute(XMarkQueryText(name), o);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      EXPECT_GE(r->plan_optimized.theta_count_ops, 1u) << name;
      size_t counted = 0;
      for (const Profile::OpMetrics& m : r->profile.ops()) {
        counted += m.kind == "ThetaCount" ? 1 : 0;
        EXPECT_LE(m.in_rows, kMaxInputRows)
            << name << " op " << m.op << " (" << m.kind << ", " << m.prov
            << ")";
      }
      EXPECT_GE(counted, 1u) << name;
    }
  }
}

// ---------------------------------------------------------------------
// CI wall-clock regression guard.

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(JoinDeadlineGuard, Q9CompletesUnderCiDeadline) {
  // At scale 0.1 the retired product-space plan for Q9 needs seconds of
  // cubic-blowup evaluation; the recognized join plan needs tens of
  // milliseconds. Running under the environment deadline asserts the
  // regression guard end to end: if recognition stops firing, the
  // governor trips kDeadlineExceeded here long before a CI timeout.
  Session session;
  XMarkOptions options;
  options.scale = 0.1;
  ASSERT_TRUE(
      session.LoadDocument("auction.xml", GenerateXMark(options)).ok());
  ScopedEnv env("EXRQUY_DEADLINE_MS", "2000");
  Result<QueryResult> r = session.Execute(XMarkQueryText("Q9"), {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->plan_optimized.value_join_ops, 1u);
  EXPECT_FALSE(r->items.empty());
}

}  // namespace
}  // namespace exrquy
