// End-to-end benchmark of eXrQuy over the seeded XMark query mix.
//
// One process drives the public API (Session, QueryService) with all
// 40 (query in Q1..Q20, mode in {ordered, unordered}) pairs, each issued
// equally often in seeded shuffled rounds, checks every answer against a
// stored oracle, and prints its metrics. Three workloads:
//
//   oneshot-small  Session::Execute at XMark scale 0.016, 1 thread.
//   oneshot-large  Session::Execute at XMark scale 0.1, nproc threads.
//   service-warm   one QueryService (nproc workers, plan cache on, result
//                  cache off) at scale 0.016, nproc closed-loop clients,
//                  1 thread per request, plans warmed during setup.
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it reports per-layer metrics: the one-shot
// workloads replace every other round of Session::Execute calls with the
// same sequence of public layer calls, each timed from outside as a
// span; service-warm times each Execute and reads the request profile
// and the service counters. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a JSON line of run
// metadata precedes it.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1
//            --oracle e2ebench/oracle.tsv [--spans FILE] [--git-sha SHA]
//   e2ebench --regen-oracle e2ebench/oracle.tsv
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algebra/stats.h"
#include "api/service.h"
#include "api/session.h"
#include "compiler/compile.h"
#include "engine/eval.h"
#include "opt/certify.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "ref/interp.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/xml_parser.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

extern char** environ;

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads and the query mix.

struct Workload {
  const char* name;
  double scale;
  const char* scale_text;  // as written in the oracle
  bool service;
  bool all_threads;  // one-shot requests use nproc threads
};

constexpr Workload kWorkloads[] = {
    {"oneshot-small", 0.016, "0.016", false, false},
    {"oneshot-large", 0.1, "0.1", false, true},
    {"service-warm", 0.016, "0.016", true, false},
};

// The oracle holds answers for this many XMark document seeds; a run's
// document seed is its --seed modulo this count.
constexpr uint64_t kDocSeeds = 4;
constexpr const char* kDocName = "auction.xml";

struct Pair {
  size_t query;  // index into XMarkQueries()
  OrderingMode mode;
};

const char* ModeName(OrderingMode m) {
  return m == OrderingMode::kOrdered ? "ordered" : "unordered";
}

std::vector<Pair> AllPairs() {
  std::vector<Pair> pairs;
  for (size_t q = 0; q < XMarkQueries().size(); ++q) {
    pairs.push_back({q, OrderingMode::kOrdered});
    pairs.push_back({q, OrderingMode::kUnordered});
  }
  return pairs;
}

// Rounds of the mix: each round is a seeded Fisher-Yates shuffle of all
// pair indices, so every pair is issued equally often.
class Schedule {
 public:
  Schedule(uint64_t seed, size_t pairs) : rng_(seed), pairs_(pairs) {}

  std::vector<size_t> NextRound() {
    std::vector<size_t> order(pairs_);
    for (size_t i = 0; i < pairs_; ++i) order[i] = i;
    for (size_t i = pairs_; i > 1; --i) {
      size_t j = static_cast<size_t>(rng_() % i);
      std::swap(order[i - 1], order[j]);
    }
    return order;
  }

 private:
  std::mt19937_64 rng_;
  size_t pairs_;
};

// ---------------------------------------------------------------------
// Answer digests.

uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Order-independent digest of an item multiset: the sum of mixed
// per-item hashes. Any permutation of the same items digests the same.
uint64_t MultisetDigest(const std::vector<std::string>& items) {
  uint64_t d = 0;
  for (const std::string& s : items) d += Mix64(Fnv1a(s));
  return d;
}

// Order-sensitive digest of an item sequence (for byte-identity checks).
uint64_t SequenceDigest(const std::vector<std::string>& items) {
  uint64_t h = Fnv1a("");
  for (const std::string& s : items) {
    h = Fnv1a(s, h);
    h = Fnv1a(std::string_view("\x1f", 1), h);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string OracleKey(const std::string& scale, uint64_t doc_seed,
                      const std::string& query, const std::string& mode) {
  return scale + "|" + std::to_string(doc_seed) + "|" + query + "|" + mode;
}

struct OracleEntry {
  uint64_t digest = 0;
  size_t items = 0;
};

// Tab-separated: scale, doc_seed, query, mode, items, digest, source.
// Lines starting with '#' are comments.
Result<std::map<std::string, OracleEntry>> LoadOracle(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open oracle file: " + path);
  std::map<std::string, OracleEntry> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scale, seed, query, mode, items, digest, source;
    if (!std::getline(fields, scale, '\t') ||
        !std::getline(fields, seed, '\t') ||
        !std::getline(fields, query, '\t') ||
        !std::getline(fields, mode, '\t') ||
        !std::getline(fields, items, '\t') ||
        !std::getline(fields, digest, '\t')) {
      return InvalidArgument("malformed oracle line: " + line);
    }
    OracleEntry e;
    e.items = std::stoull(items);
    e.digest = std::stoull(digest, nullptr, 16);
    out[OracleKey(scale, std::stoull(seed), query, mode)] = e;
  }
  return out;
}

// ---------------------------------------------------------------------
// Statistics over raw samples.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------------
// JSON output.

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

// ---------------------------------------------------------------------
// Answer checking. The first request of every pair (during the unmeasured
// warm-up round) fixes the pair's reference output; every later repeat
// must reproduce it byte for byte, and every answer's item multiset must
// match the oracle.

struct Reference {
  uint64_t serialized = 0;
  size_t serialized_len = 0;
  uint64_t items = 0;
};

class Checker {
 public:
  Checker(const std::map<std::string, OracleEntry>& oracle,
          const Workload& w, uint64_t doc_seed, const std::vector<Pair>& pairs)
      : expected_(pairs.size()), refs_(pairs.size()) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto it = oracle.find(OracleKey(w.scale_text, doc_seed,
                                      XMarkQueries()[pairs[i].query].name,
                                      ModeName(pairs[i].mode)));
      if (it == oracle.end()) {
        missing_ = XMarkQueries()[pairs[i].query].name + "/" +
                   ModeName(pairs[i].mode);
        continue;
      }
      expected_[i] = it->second;
    }
  }

  // Empty when the oracle covers every pair.
  const std::string& missing() const { return missing_; }

  // Called single-threaded before measuring.
  bool SetReference(size_t pair, const QueryResult& r) {
    refs_[pair] = {Fnv1a(r.serialized), r.serialized.size(),
                   SequenceDigest(r.items)};
    return MatchesOracle(pair, r.items);
  }

  // Thread-safe (reads only).
  bool Check(size_t pair, const QueryResult& r) const {
    return MatchesReference(pair, r.serialized, r.items) &&
           MatchesOracle(pair, r.items);
  }

  bool MatchesReference(size_t pair, const std::string& serialized,
                        const std::vector<std::string>& items) const {
    const Reference& ref = refs_[pair];
    return serialized.size() == ref.serialized_len &&
           Fnv1a(serialized) == ref.serialized &&
           SequenceDigest(items) == ref.items;
  }

 private:
  bool MatchesOracle(size_t pair, const std::vector<std::string>& items) const {
    return items.size() == expected_[pair].items &&
           MultisetDigest(items) == expected_[pair].digest;
  }

  std::vector<OracleEntry> expected_;
  std::vector<Reference> refs_;
  std::string missing_;
};

// ---------------------------------------------------------------------
// Spans: recorded in memory by the traced run, written out at the end.

struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  int32_t parent = -1;  // index of the parent span within the request
  const char* name = "";
  double start_us = 0;  // from the run epoch
  double end_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void Add(uint64_t request, uint32_t id, int32_t parent, const char* name,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back({request, id, parent, name, Us(start), Us(end)});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  // Total duration in ms per span name.
  std::map<std::string, double> TotalsMs() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += (s.end_us - s.start_us) / 1e3;
    return out;
  }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"request\":" << s.request << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":" << Quote(s.name)
          << ",\"start_us\":" << Num(s.start_us)
          << ",\"end_us\":" << Num(s.end_us) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Opens child spans of one request; the request span itself is id 0.
class RequestTrace {
 public:
  RequestTrace(SpanLog* log, uint64_t request)
      : log_(log), request_(request), start_(Clock::now()) {}

  template <typename F>
  auto Time(const char* name, F&& f) {
    Clock::time_point t0 = Clock::now();
    auto out = f();
    log_->Add(request_, ++next_id_, 0, name, t0, Clock::now());
    return out;
  }

  void Finish() { log_->Add(request_, 0, -1, "request", start_, Clock::now()); }

 private:
  SpanLog* log_;
  uint64_t request_;
  Clock::time_point start_;
  uint32_t next_id_ = 0;
};

// Rolls a Session's store and pool back to their pre-request state, as
// Session::Execute does on every exit path.
class StoreRollback {
 public:
  StoreRollback(NodeStore* store, StrPool* strings)
      : store_(store),
        strings_(strings),
        nodes_(store->node_count()),
        fragments_(store->fragment_count()),
        strs_(strings->size()) {}
  StoreRollback(const StoreRollback&) = delete;
  StoreRollback& operator=(const StoreRollback&) = delete;
  ~StoreRollback() {
    store_->set_budget(nullptr);
    strings_->set_budget(nullptr);
    store_->TruncateTo(nodes_, fragments_);
    strings_->TruncateTo(strs_);
  }

 private:
  NodeStore* store_;
  StrPool* strings_;
  size_t nodes_;
  size_t fragments_;
  size_t strs_;
};

struct ReplicaOut {
  std::string serialized;
  std::vector<std::string> items;
  PlanStats initial;
  PlanStats optimized;
  size_t rewrites = 0;
  Profile profile;
};

// Session::Execute with profiling on, spelled out as the public calls of
// each layer, each timed as a span. PlanQuery's option mapping is
// repeated here on purpose: the replica must make the same calls.
Result<ReplicaOut> ExecuteReplica(Session& session, std::string_view query,
                                  const QueryOptions& options,
                                  RequestTrace* trace) {
  ReplicaOut out;
  StoreRollback rollback(&session.store(), &session.strings());
  MemoryBudget budget(0);
  session.store().set_budget(&budget);
  session.strings().set_budget(&budget);

  Result<Query> parsed =
      trace->Time("xquery.parse", [&] { return ParseQuery(query); });
  if (!parsed.ok()) return parsed.status();

  NormalizeOptions norm;
  norm.insert_unordered =
      options.enable_order_indifference && options.insert_unordered;
  Status normalized = trace->Time(
      "xquery.normalize", [&] { return Normalize(&parsed.value(), norm); });
  if (!normalized.ok()) return normalized;

  CompileOptions copts;
  copts.default_mode = options.default_ordering;
  copts.exploit_unordered =
      options.enable_order_indifference && options.mode_rules;
  Result<CompiledQuery> compiled = trace->Time("compiler.compile", [&] {
    return CompileQuery(parsed.value(), &session.strings(), copts);
  });
  if (!compiled.ok()) return compiled.status();
  Dag& dag = *compiled.value().dag;
  OpId initial = compiled.value().root;

  Status verified =
      trace->Time("opt.verify", [&] { return VerifyPlan(dag, initial); });
  if (!verified.ok()) return verified;

  std::vector<RewriteTrade> trades;
  OptimizeOptions oopts;
  oopts.enable = options.enable_order_indifference;
  oopts.rewrites.column_pruning = options.column_pruning;
  oopts.rewrites.weaken_rownum = options.weaken_rownum;
  oopts.rewrites.distinct_elimination = options.distinct_elimination;
  oopts.rewrites.step_merging = options.step_merging;
  oopts.rewrites.distinct_by_keys = options.distinct_by_keys;
  oopts.rewrites.empty_short_circuit = options.empty_short_circuit;
  oopts.rewrites.rownum_by_keys = options.rownum_by_keys;
  oopts.rewrites.rownum_by_od = options.rownum_by_od;
  oopts.rewrites.join_recognition = options.join_recognition;
  oopts.rewrites.theta_join = options.theta_join;
  oopts.rewrites.certify = options.certify;
  oopts.verify_each_pass = options.verify_each_pass;
  oopts.strings = &session.strings();
  oopts.trade_log = &trades;
  Result<OpId> optimized = trace->Time(
      "opt.optimize", [&] { return Optimize(&dag, initial, oopts); });
  if (!optimized.ok()) return optimized.status();
  verified = trace->Time(
      "opt.verify", [&] { return VerifyPlan(dag, optimized.value()); });
  if (!verified.ok()) return verified;

  out.initial = CollectPlanStats(dag, initial);
  out.optimized = CollectPlanStats(dag, optimized.value());
  out.rewrites = trades.size();

  EvalContext ctx;
  ctx.store = &session.store();
  ctx.strings = &session.strings();
  ctx.documents = session.documents();
  ctx.detect_sorted_inputs = options.physical_sort_detection;
  ctx.num_threads = options.num_threads;
  ctx.chunk_rows = options.chunk_rows;
  ctx.release_intermediates = options.release_intermediates;
  ctx.pipelined_execution = options.pipelined_execution;
  ctx.morsel_rows = options.morsel_rows;
  ctx.inline_rows = options.inline_rows;
  ctx.profile = &out.profile;
  ctx.budget = &budget;
  Result<TablePtr> table = trace->Time("engine.eval", [&] {
    Evaluator evaluator(dag, &ctx);
    return evaluator.Eval(optimized.value());
  });
  out.profile.SetBudget(budget.limit(), budget.charged(), budget.peak());
  if (!table.ok()) return table.status();

  Result<std::string> serialized = trace->Time(
      "engine.serialize", [&] { return SerializeResult(**table, ctx); });
  if (!serialized.ok()) return serialized.status();
  Result<std::vector<std::string>> items =
      trace->Time("engine.items", [&] { return ResultItems(**table, ctx); });
  if (!items.ok()) return items.status();
  out.serialized = std::move(serialized).value();
  out.items = std::move(items).value();
  return out;
}

// ---------------------------------------------------------------------
// Per-layer accumulation from traced requests.

// Kernel kinds reported individually; all constructor kinds are pooled.
constexpr const char* kKernelKinds[] = {"Step",     "EquiJoin",  "ThetaJoin",
                                        "SemiJoin", "Distinct",  "RowNum",
                                        "Aggr",     "Difference"};
bool IsConstructor(const std::string& kind) {
  return kind == "Elem" || kind == "Attr" || kind == "TextNode";
}

struct LayerTotals {
  size_t traced = 0;  // traced requests
  double request_ms = 0;
  double eval_ms = 0;  // service-warm: QueryResult::execute_ms
  double plan_ops_initial = 0;
  double plan_ops_optimized = 0;
  double rownum_ops = 0;
  double value_join_ops = 0;
  double rewrites = 0;
  std::map<std::string, double> kernel_ms;
  double queue_ms = 0;
  double rows_out = 0;
  double morsels = 0;
  double peak_live_bytes = 0;
  std::vector<double> outside_eval_ms;  // Execute wall - execute_ms

  void AddPlan(const PlanStats& initial, const PlanStats& optimized) {
    plan_ops_initial += static_cast<double>(initial.total_ops);
    plan_ops_optimized += static_cast<double>(optimized.total_ops);
    rownum_ops += static_cast<double>(optimized.rownum_ops);
    value_join_ops += static_cast<double>(optimized.value_join_ops);
  }

  void AddProfile(const Profile& p) {
    for (const auto& [kind, bucket] : p.by_kind()) {
      std::string key = IsConstructor(kind) ? "constructors" : kind;
      kernel_ms[key] += bucket.ms;
      rows_out += static_cast<double>(bucket.out_rows);
    }
    for (const Profile::OpMetrics& m : p.ops()) queue_ms += m.queue_ms;
    for (const Profile::PipelineMetrics& m : p.pipelines()) {
      queue_ms += m.queue_ms;
      morsels += static_cast<double>(m.morsels);
    }
    peak_live_bytes =
        std::max(peak_live_bytes, static_cast<double>(p.peak_live_bytes()));
  }

  void Merge(const LayerTotals& o) {
    traced += o.traced;
    request_ms += o.request_ms;
    eval_ms += o.eval_ms;
    plan_ops_initial += o.plan_ops_initial;
    plan_ops_optimized += o.plan_ops_optimized;
    rownum_ops += o.rownum_ops;
    value_join_ops += o.value_join_ops;
    rewrites += o.rewrites;
    for (const auto& [k, v] : o.kernel_ms) kernel_ms[k] += v;
    queue_ms += o.queue_ms;
    rows_out += o.rows_out;
    morsels += o.morsels;
    peak_live_bytes = std::max(peak_live_bytes, o.peak_live_bytes);
    outside_eval_ms.insert(outside_eval_ms.end(), o.outside_eval_ms.begin(),
                           o.outside_eval_ms.end());
  }
};

// ---------------------------------------------------------------------
// One client's closed loop.

struct ClientStats {
  size_t attempted = 0;
  size_t failed = 0;          // error status or wrong answer
  size_t replica_mismatch = 0;  // traced replica differs from Execute
  std::vector<std::vector<double>> pair_ms;  // untraced latencies per pair
  std::vector<double> untraced_ms;
  LayerTotals layers;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

struct Env {
  std::vector<Pair> pairs;
  std::vector<QueryOptions> options;  // per pair
  const Checker* checker = nullptr;
};

std::string PairLabel(const Env& env, size_t p) {
  return XMarkQueries()[env.pairs[p].query].name + "/" +
         ModeName(env.pairs[p].mode);
}

// One closed-loop client: its own seeded schedule, statistics and spans,
// kept across measuring segments.
struct Client {
  Client(uint64_t seed, size_t pairs, uint64_t request_base,
         Clock::time_point epoch)
      : schedule(seed, pairs), request(request_base), spans(epoch) {
    stats.pair_ms.resize(pairs);
  }
  Schedule schedule;
  size_t round = 0;
  uint64_t request;
  ClientStats stats;
  SpanLog spans;
};

// Runs whole rounds until `deadline`: at least one, and with tracing at
// least one traced and one untraced round overall. Odd rounds are
// traced.
template <typename Request>
void RunRounds(Client* c, Clock::time_point deadline, bool trace,
               Request&& request) {
  for (;;) {
    bool traced = trace && c->round % 2 == 1;
    for (size_t p : c->schedule.NextRound()) {
      ++c->stats.attempted;
      ++c->request;
      request(p, traced);
    }
    ++c->round;
    if (Clock::now() >= deadline && (!trace || c->round >= 2)) break;
  }
}

void SessionRequest(const Env& env, Session& session, Client* c, size_t p,
                    bool traced) {
  ClientStats* st = &c->stats;
  const std::string& text = XMarkQueries()[env.pairs[p].query].text;
  if (!traced) {
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> r = session.Execute(text, env.options[p]);
    double ms = MsBetween(t0, Clock::now());
    if (!r.ok()) {
      st->Fail(PairLabel(env, p) + ": " + r.status().ToString());
    } else if (!env.checker->Check(p, *r)) {
      st->Fail(PairLabel(env, p) + ": wrong answer");
    } else {
      st->pair_ms[p].push_back(ms);
      st->untraced_ms.push_back(ms);
      st->layers.outside_eval_ms.push_back(ms - r->execute_ms);
    }
    return;
  }
  RequestTrace rt(&c->spans, c->request);
  Clock::time_point t0 = Clock::now();
  Result<ReplicaOut> r = ExecuteReplica(session, text, env.options[p], &rt);
  double ms = MsBetween(t0, Clock::now());
  rt.Finish();
  if (!r.ok()) {
    st->Fail(PairLabel(env, p) + " (traced): " + r.status().ToString());
    return;
  }
  if (!env.checker->MatchesReference(p, r->serialized, r->items)) {
    ++st->replica_mismatch;
    st->Fail(PairLabel(env, p) + ": traced replica output differs");
    return;
  }
  LayerTotals& l = st->layers;
  ++l.traced;
  l.request_ms += ms;
  l.AddPlan(r->initial, r->optimized);
  l.rewrites += static_cast<double>(r->rewrites);
  l.AddProfile(r->profile);
}

void ServiceRequest(const Env& env, QueryService& service, Client* c,
                    size_t p, bool traced) {
  ClientStats* st = &c->stats;
  QueryOptions options = env.options[p];
  options.profile = traced;
  Clock::time_point t0 = Clock::now();
  Result<ServiceResult> r =
      service.Execute(XMarkQueries()[env.pairs[p].query].text, options);
  Clock::time_point t1 = Clock::now();
  double ms = MsBetween(t0, t1);
  if (!r.ok()) {
    st->Fail(PairLabel(env, p) + ": " + r.status().ToString());
    return;
  }
  if (!env.checker->Check(p, r->result)) {
    st->Fail(PairLabel(env, p) + ": wrong answer");
    return;
  }
  if (!traced) {
    st->pair_ms[p].push_back(ms);
    st->untraced_ms.push_back(ms);
    return;
  }
  c->spans.Add(c->request, 0, -1, "request", t0, t1);
  LayerTotals& l = st->layers;
  ++l.traced;
  l.request_ms += ms;
  l.eval_ms += r->result.execute_ms;
  l.outside_eval_ms.push_back(ms - r->result.execute_ms);
  l.AddPlan(r->result.plan_initial, r->result.plan_optimized);
  l.AddProfile(r->result.profile);
}

// ---------------------------------------------------------------------
// The benchmark run.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string oracle;
  std::string spans;
  std::string git_sha = "unknown";
  std::string regen;
};

const char* CertifyModeName(CertifyMode m) {
  switch (m) {
    case CertifyMode::kDefault:
      return "default";
    case CertifyMode::kOff:
      return "off";
    case CertifyMode::kCheck:
      return "check";
    case CertifyMode::kStrict:
      return "strict";
  }
  return "?";
}

// Any EXRQUY_* variable silently changes what is measured (threads,
// morsel size, deadlines, certification, fault injection, caches).
std::vector<std::string> ExrquyEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EXRQUY_", 7) == 0) found.emplace_back(*e);
  }
  return found;
}

int RunBenchmark(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Result<std::map<std::string, OracleEntry>> oracle = LoadOracle(args.oracle);
  if (!oracle.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", oracle.status().ToString().c_str());
    return 2;
  }

  const int nproc = Nproc();
  const uint64_t doc_seed = args.seed % kDocSeeds;
  Env env;
  env.pairs = AllPairs();
  for (const Pair& p : env.pairs) {
    QueryOptions o;
    o.default_ordering = p.mode;
    o.num_threads = w->all_threads ? nproc : 1;
    env.options.push_back(o);
  }
  Checker checker(*oracle, *w, doc_seed, env.pairs);
  if (!checker.missing().empty()) {
    std::fprintf(stderr, "e2ebench: oracle has no answer for %s at scale %s"
                 ", document seed %llu\n", checker.missing().c_str(),
                 w->scale_text, static_cast<unsigned long long>(doc_seed));
    return 2;
  }
  env.checker = &checker;

  XMarkOptions xo;
  xo.scale = w->scale;
  xo.seed = doc_seed;
  const std::string doc = GenerateXMark(xo);

  Clock::time_point epoch = Clock::now();
  std::vector<double> setup_s;
  std::vector<double> xml_load_ms;
  std::vector<double> api_load_ms;  // the public API's LoadDocument alone
  size_t doc_nodes = 0;
  ClientStats setup_stats;  // warm-up requests made outside the clients
  double wall_s = 0;
  // Service counter deltas over the measured segments.
  uint64_t plan_hits = 0, plan_misses = 0, retries = 0, degraded = 0,
           shed = 0;
  // Session-replica render timings for service-warm's trace (ms/request).
  std::vector<double> render_serialize_ms, render_items_ms;

  auto record = [&](size_t p, const Result<QueryResult>& r, bool reference) {
    ++setup_stats.attempted;
    if (!r.ok()) {
      setup_stats.Fail(PairLabel(env, p) + ": " + r.status().ToString());
    } else if (reference ? !checker.SetReference(p, *r)
                         : !checker.Check(p, *r)) {
      setup_stats.Fail(PairLabel(env, p) + ": wrong answer");
    }
  };
  auto fail_setup = [](const Status& st) {
    std::fprintf(stderr, "e2ebench: LoadDocument: %s\n",
                 st.ToString().c_str());
    std::exit(2);
  };

  const size_t n_clients = w->service ? static_cast<size_t>(nproc) : 1;
  std::vector<Client> clients;
  clients.reserve(n_clients);
  for (size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back(args.seed * 1000003ULL + c, env.pairs.size(),
                         static_cast<uint64_t>(c) << 40, epoch);
  }
  ServiceConfig config;
  config.workers = static_cast<size_t>(nproc);
  config.plan_cache = 1;
  config.result_cache_bytes = 0;
  std::unique_ptr<Session> session;
  std::unique_ptr<QueryService> service;

  // The measured time is cut into segments, and setup is repeated before
  // each one; the segment then runs on the last setup's Session or
  // service. Setup and load samples are spread over the run like the
  // requests are, so a slow spell of the machine moves both alike.
  constexpr int kSegments = 6;
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds / kSegments));
  for (int seg = 0; seg < kSegments; ++seg) {
    if (args.trace) {
      // The xml layer alone: parse + name index into a fresh store.
      for (int rep = 0; rep < 3; ++rep) {
        StrPool strings;
        NodeStore store(&strings);
        Clock::time_point t0 = Clock::now();
        Result<NodeIdx> root = ParseXml(&store, doc);
        if (root.ok()) store.IndexFragment(store.fragment_count() - 1);
        xml_load_ms.push_back(MsBetween(t0, Clock::now()));
        doc_nodes = store.node_count();
      }
    }
    if (!w->service) {
      // Setup is LoadDocument; one document is resident at a time.
      for (int rep = 0; rep < 3; ++rep) {
        session = nullptr;
        auto s = std::make_unique<Session>();
        Clock::time_point t0 = Clock::now();
        Status st = s->LoadDocument(kDocName, doc);
        double ms = MsBetween(t0, Clock::now());
        if (!st.ok()) fail_setup(st);
        setup_s.push_back(ms / 1e3);
        api_load_ms.push_back(ms);
        session = std::move(s);
      }
      if (seg == 0) {
        // One unmeasured pass fixes each pair's reference output.
        for (size_t p = 0; p < env.pairs.size(); ++p) {
          record(p,
                 session->Execute(XMarkQueries()[env.pairs[p].query].text,
                                  env.options[p]),
                 true);
        }
      }
    } else {
      // Setup is construction, LoadDocument (which clones the document
      // per worker) and the plan-cache warm-up pass; its answers are
      // checked once the clock has stopped.
      service = nullptr;
      Clock::time_point t0 = Clock::now();
      auto s = std::make_unique<QueryService>(config);
      Clock::time_point t1 = Clock::now();
      Status st = s->LoadDocument(kDocName, doc);
      api_load_ms.push_back(MsBetween(t1, Clock::now()));
      if (!st.ok()) fail_setup(st);
      std::vector<Result<ServiceResult>> warm;
      for (size_t p = 0; p < env.pairs.size(); ++p) {
        warm.push_back(s->Execute(XMarkQueries()[env.pairs[p].query].text,
                                  env.options[p]));
      }
      setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      service = std::move(s);
      for (size_t p = 0; p < warm.size(); ++p) {
        Result<QueryResult> r = warm[p].ok()
                                    ? Result<QueryResult>(warm[p]->result)
                                    : Result<QueryResult>(warm[p].status());
        record(p, r, seg == 0);
      }
    }

    Clock::time_point start = Clock::now();
    Clock::time_point deadline = start + segment;
    if (!w->service) {
      RunRounds(&clients[0], deadline, args.trace, [&](size_t p, bool traced) {
        SessionRequest(env, *session, &clients[0], p, traced);
      });
    } else {
      ServiceCounters before = service->counters();
      std::vector<std::thread> threads;
      for (Client& c : clients) {
        threads.emplace_back([&, cp = &c] {
          RunRounds(cp, deadline, args.trace, [&](size_t p, bool traced) {
            ServiceRequest(env, *service, cp, p, traced);
          });
        });
      }
      for (std::thread& t : threads) t.join();
      ServiceCounters after = service->counters();
      auto shed_of = [](const ServiceCounters& c) {
        return c.admission.shed_queue_full + c.admission.shed_queue_timeout +
               c.admission.shed_deadline;
      };
      plan_hits += after.plan_cache.hits - before.plan_cache.hits;
      plan_misses += after.plan_cache.misses - before.plan_cache.misses;
      retries += after.retries - before.retries;
      degraded += after.degraded_runs - before.degraded_runs;
      shed += shed_of(after) - shed_of(before);
    }
    wall_s += MsBetween(start, Clock::now()) / 1e3;
  }
  const double peak_rss_mb = PeakRssMb();

  if (args.trace && w->service) {
    // The service renders inside Execute, out of reach of outside spans;
    // time the same two render calls on a Session replica instead.
    Session session;
    if (session.LoadDocument(kDocName, doc).ok()) {
      SpanLog log(epoch);
      for (int rep = 0; rep < 3; ++rep) {
        for (size_t p = 0; p < env.pairs.size(); ++p) {
          RequestTrace rt(&log, 0);
          Result<ReplicaOut> r = ExecuteReplica(
              session, XMarkQueries()[env.pairs[p].query].text,
              env.options[p], &rt);
          if (!r.ok() ||
              !checker.MatchesReference(p, r->serialized, r->items)) {
            ++setup_stats.replica_mismatch;
            setup_stats.Fail(PairLabel(env, p) + ": render replica differs");
          }
        }
      }
      std::map<std::string, double> t = log.TotalsMs();
      double n = 3.0 * static_cast<double>(env.pairs.size());
      render_serialize_ms.push_back(t["engine.serialize"] / n);
      render_items_ms.push_back(t["engine.items"] / n);
    }
  }

  // ---- Aggregate.
  ClientStats total;
  total.pair_ms.resize(env.pairs.size());
  SpanLog spans(epoch);
  auto merge = [&](const ClientStats& s) {
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.replica_mismatch += s.replica_mismatch;
    if (total.first_error.empty()) total.first_error = s.first_error;
    for (size_t p = 0; p < s.pair_ms.size(); ++p) {
      total.pair_ms[p].insert(total.pair_ms[p].end(), s.pair_ms[p].begin(),
                              s.pair_ms[p].end());
    }
    total.untraced_ms.insert(total.untraced_ms.end(), s.untraced_ms.begin(),
                             s.untraced_ms.end());
    total.layers.Merge(s.layers);
  };
  merge(setup_stats);
  for (const Client& c : clients) {
    merge(c.stats);
    spans.Append(c.spans);
  }
  const size_t completed = total.untraced_ms.size() + total.layers.traced;

  std::vector<Metric> metrics;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit, size_t samples) {
    metrics.push_back({name, value, unit, samples});
  };

  const double pass = static_cast<double>(env.pairs.size());
  if (!args.trace) {
    std::vector<double> pair_medians;
    for (const std::vector<double>& v : total.pair_ms) {
      if (!v.empty()) pair_medians.push_back(Median(v));
    }
    double log_sum = 0;
    for (double m : pair_medians) log_sum += std::log(std::max(m, 1e-6));
    double geomean = pair_medians.empty()
                         ? 0
                         : std::exp(log_sum / static_cast<double>(
                                                  pair_medians.size()));
    size_t n = total.untraced_ms.size();
    emit("throughput_qps", static_cast<double>(completed) / wall_s, "1/s",
         completed);
    emit("latency_p50_ms", Quantile(total.untraced_ms, 0.5), "ms", n);
    emit("latency_p90_ms", Quantile(total.untraced_ms, 0.9), "ms", n);
    emit("latency_geomean_ms", geomean, "ms", pair_medians.size());
    emit("setup_s", Median(setup_s), "s", setup_s.size());
    emit("peak_rss_mb", peak_rss_mb, "MB", 1);
  } else {
    const LayerTotals& l = total.layers;
    const double traced = static_cast<double>(std::max<size_t>(l.traced, 1));
    auto per_pass = [&](double sum) { return sum / traced * pass; };
    std::map<std::string, double> t = spans.TotalsMs();
    emit("xml.load_ms", Median(xml_load_ms), "ms", xml_load_ms.size());
    emit("xml.doc_bytes", static_cast<double>(doc.size()), "bytes", 1);
    emit("xml.nodes", static_cast<double>(doc_nodes), "count", 1);
    emit("xquery.parse_ms", per_pass(t["xquery.parse"]), "ms", l.traced);
    emit("xquery.normalize_ms", per_pass(t["xquery.normalize"]), "ms",
         l.traced);
    emit("compiler.compile_ms", per_pass(t["compiler.compile"]), "ms",
         l.traced);
    emit("compiler.plan_ops", per_pass(l.plan_ops_initial), "count",
         l.traced);
    emit("opt.verify_ms", per_pass(t["opt.verify"]), "ms", l.traced);
    emit("opt.optimize_ms", per_pass(t["opt.optimize"]), "ms", l.traced);
    emit("opt.plan_ops", per_pass(l.plan_ops_optimized), "count", l.traced);
    emit("opt.rownum_ops", per_pass(l.rownum_ops), "count", l.traced);
    emit("opt.value_join_ops", per_pass(l.value_join_ops), "count",
         l.traced);
    double rewrites = per_pass(l.rewrites);
    if (w->service) {
      // Warm requests never plan; count the rewrites of the cached plans
      // with one planning pass over the mix.
      StrPool pool;
      rewrites = 0;
      for (size_t p = 0; p < env.pairs.size(); ++p) {
        Result<QueryPlans> plans = PlanQuery(
            XMarkQueries()[env.pairs[p].query].text, env.options[p], &pool);
        if (plans.ok()) rewrites += static_cast<double>(plans->trades.size());
      }
    }
    emit("opt.rewrites", rewrites, "count", env.pairs.size());
    double eval_ms = w->service ? l.eval_ms : t["engine.eval"];
    emit("engine.eval_ms", per_pass(eval_ms), "ms", l.traced);
    double kernel_sum = 0;
    for (const auto& [k, v] : l.kernel_ms) kernel_sum += v;
    double listed = 0;
    for (const char* kind : kKernelKinds) {
      auto it = l.kernel_ms.find(kind);
      double v = it == l.kernel_ms.end() ? 0 : it->second;
      listed += v;
      emit(std::string("engine.kernel_ms.") + kind, per_pass(v), "ms",
           l.traced);
    }
    auto ctor = l.kernel_ms.find("constructors");
    double ctor_ms = ctor == l.kernel_ms.end() ? 0 : ctor->second;
    emit("engine.kernel_ms.constructors", per_pass(ctor_ms), "ms", l.traced);
    emit("engine.kernel_ms.other", per_pass(kernel_sum - listed - ctor_ms),
         "ms", l.traced);
    emit("engine.queue_ms", per_pass(l.queue_ms), "ms", l.traced);
    emit("engine.rows_out", per_pass(l.rows_out), "count", l.traced);
    emit("engine.morsels", per_pass(l.morsels), "count", l.traced);
    emit("engine.peak_live_bytes", l.peak_live_bytes, "bytes", l.traced);
    if (w->service) {
      emit("engine.serialize_ms", Median(render_serialize_ms) * pass, "ms",
           3 * env.pairs.size());
      emit("engine.items_ms", Median(render_items_ms) * pass, "ms",
           3 * env.pairs.size());
    } else {
      emit("engine.serialize_ms", per_pass(t["engine.serialize"]), "ms",
           l.traced);
      emit("engine.items_ms", per_pass(t["engine.items"]), "ms", l.traced);
    }
    emit("api.load_ms", Median(api_load_ms), "ms", api_load_ms.size());
    emit("api.outside_eval_p50_ms", Quantile(l.outside_eval_ms, 0.5), "ms",
         l.outside_eval_ms.size());
    emit("api.outside_eval_p90_ms", Quantile(l.outside_eval_ms, 0.9), "ms",
         l.outside_eval_ms.size());
    double lookups = static_cast<double>(plan_hits + plan_misses);
    emit("api.plan_cache_hit_ratio",
         lookups > 0 ? static_cast<double>(plan_hits) / lookups : 0, "ratio",
         plan_hits + plan_misses);
    emit("api.retries", static_cast<double>(retries), "count", 1);
    emit("api.degraded_runs", static_cast<double>(degraded), "count", 1);
    emit("api.shed", static_cast<double>(shed), "count", 1);
    // Request wall the layer spans leave uncovered. For service-warm the
    // only child span is evaluation, so this is the api layer's own time.
    double covered = 0;
    if (w->service) {
      covered = l.eval_ms;
    } else {
      for (const auto& [name, ms] : t) {
        if (name != "request") covered += ms;
      }
    }
    emit("trace.unattributed_share",
         l.request_ms > 0 ? (l.request_ms - covered) / l.request_ms : 0,
         "ratio", l.traced);
    double traced_mean = l.traced == 0 ? 0 : l.request_ms / traced;
    double untraced_sum = 0;
    for (double v : total.untraced_ms) untraced_sum += v;
    double untraced_mean =
        total.untraced_ms.empty()
            ? 0
            : untraced_sum / static_cast<double>(total.untraced_ms.size());
    emit("trace.overhead",
         untraced_mean > 0 ? traced_mean / untraced_mean - 1 : 0, "ratio",
         completed);
    emit("trace.replica_mismatches",
         static_cast<double>(total.replica_mismatch), "count", l.traced);
    emit("error_rate",
         static_cast<double>(total.failed) /
             static_cast<double>(total.attempted),
         "ratio", total.attempted);
    if (!args.spans.empty() && !spans.Write(args.spans)) {
      std::fprintf(stderr, "e2ebench: cannot write spans to %s\n",
                   args.spans.c_str());
    }
  }

  // ---- Report: a human-readable table on stderr, run metadata and the
  // result object on stdout.
  std::fprintf(stderr, "%-34s %18s  %-6s %s\n", "metric", "value", "unit",
               "samples");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-34s %18.6f  %-6s %zu\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
  }
  if (!total.first_error.empty()) {
    std::fprintf(stderr, "e2ebench: %zu failed; first: %s\n", total.failed,
                 total.first_error.c_str());
  }

  std::string meta = "{\"run\":{";
  meta += "\"workload\":" + Quote(w->name);
  meta += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  meta += ",\"seed\":" + std::to_string(args.seed);
  meta += ",\"doc_seed\":" + std::to_string(doc_seed);
  meta += ",\"scale\":" + Num(w->scale);
  meta += ",\"doc_bytes\":" + std::to_string(doc.size());
  meta += ",\"nproc\":" + std::to_string(nproc);
  meta += ",\"hardware_concurrency\":" +
          std::to_string(std::thread::hardware_concurrency());
  meta += ",\"request_threads\":" +
          std::to_string(w->all_threads ? nproc : 1);
  meta += ",\"clients\":" + std::to_string(clients.size());
  meta += ",\"segments\":" + std::to_string(kSegments);
  meta += ",\"build_type\":" + Quote(E2EBENCH_BUILD_TYPE);
  meta += ",\"compiler\":" + Quote(E2EBENCH_COMPILER);
  meta += ",\"git_sha\":" + Quote(args.git_sha);
  meta += ",\"certify\":" +
          Quote(CertifyModeName(ResolveCertify(CertifySettings{}).mode));
  meta += ",\"seconds\":" + Num(args.seconds);
  meta += ",\"wall_s\":" + Num(wall_s);
  if (args.trace && w->all_threads) {
    // At nproc threads Profile books time blocked on the constructor
    // chain as kernel time; the numbers are reported uncorrected.
    meta += ",\"kernel_ms_includes_blocked_time\":true";
  }
  if (args.trace) meta += ",\"spans\":" + std::to_string(spans.size());
  meta += ",\"samples\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) meta += ",";
    meta += Quote(metrics[i].name) + ":" + std::to_string(metrics[i].samples);
  }
  meta += "}}}";
  std::printf("%s\n", meta.c_str());

  std::string out = "{\"correct\":";
  out += total.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(total.attempted);
  out += ",\"failed\":" + std::to_string(total.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(metrics[i].name) + ":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------
// Oracle regeneration.

// The default (optimized) configuration with order-indifference rewrites
// off except column pruning and join recognition: a plan different
// enough to cross-check Q9 at scale 0.1, where the reference interpreter
// and the fully unoptimized baseline are out of reach.
QueryOptions JoinOnlyOptions() {
  QueryOptions o;
  o.insert_unordered = false;
  o.mode_rules = false;
  o.weaken_rownum = false;
  o.distinct_elimination = false;
  o.step_merging = false;
  o.distinct_by_keys = false;
  o.empty_short_circuit = false;
  o.rownum_by_keys = false;
  o.rownum_by_od = false;
  return o;
}

int RegenOracle(const std::string& path) {
  const int nproc = Nproc();
  std::ostringstream out;
  out << "# Answer oracle for e2ebench: one line per (scale, document seed,\n"
         "# query, mode) with the item count and the order-independent\n"
         "# multiset digest of the answer's rendered items.\n"
         "# source=ref: computed by the reference interpreter (src/ref),\n"
         "#   which evaluates ordered-mode semantics; unordered mode may\n"
         "#   only permute the items, so both modes share the digest.\n"
         "# source=engine-agree: Q9 at scale 0.1, where the reference\n"
         "#   interpreter is too slow and the unoptimized baseline exhausts\n"
         "#   memory. Taken from the engine, and written only when the\n"
         "#   default configuration (ordered and unordered, 1 and nproc\n"
         "#   threads) and the join-only configuration (rewrites off except\n"
         "#   column pruning and join recognition) all agree.\n"
         "# Regenerate with: python3 e2ebench/run.py --regen-oracle\n"
         "# scale\tdoc_seed\tquery\tmode\titems\tdigest\tsource\n";
  int disagreements = 0;
  for (const char* scale_text : {"0.016", "0.1"}) {
    for (uint64_t doc_seed = 0; doc_seed < kDocSeeds; ++doc_seed) {
      XMarkOptions xo;
      xo.scale = std::stod(scale_text);
      xo.seed = doc_seed;
      Session session;
      Status loaded = session.LoadDocument(kDocName, GenerateXMark(xo));
      if (!loaded.ok()) {
        std::fprintf(stderr, "regen: %s\n", loaded.ToString().c_str());
        return 1;
      }
      for (const XMarkQuery& q : XMarkQueries()) {
        // Engine answers under the default configuration; a guard budget
        // turns a runaway plan into an error instead of an OOM kill.
        std::vector<std::vector<std::string>> engine;
        for (OrderingMode mode :
             {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
          for (int threads : {1, nproc}) {
            QueryOptions o;
            o.default_ordering = mode;
            o.num_threads = threads;
            o.memory_budget = size_t{2} << 30;
            Result<QueryResult> r = session.Execute(q.text, o);
            if (!r.ok()) {
              std::fprintf(stderr, "regen: %s at %s/%llu: %s\n",
                           q.name.c_str(), scale_text,
                           static_cast<unsigned long long>(doc_seed),
                           r.status().ToString().c_str());
              return 1;
            }
            engine.push_back(r->items);
          }
        }
        std::vector<std::string> answer;
        std::string source;
        bool use_ref = !(q.name == "Q9" && std::string(scale_text) == "0.1");
        if (use_ref) {
          Result<Query> parsed = ParseQuery(q.text);
          if (!parsed.ok()) return 1;
          NormalizeOptions norm;
          norm.insert_unordered = false;
          if (!Normalize(&parsed.value(), norm).ok()) return 1;
          std::map<StrId, NodeIdx> docs = session.documents();
          RefInterpreter interp(&session.store(), &session.strings(), docs);
          Result<std::vector<Value>> items = interp.Eval(*parsed->body);
          if (!items.ok()) {
            std::fprintf(stderr, "regen: reference failed on %s: %s\n",
                         q.name.c_str(), items.status().ToString().c_str());
            return 1;
          }
          answer = interp.Render(*items);
          source = "ref";
        } else {
          QueryOptions o = JoinOnlyOptions();
          o.num_threads = 1;
          o.memory_budget = size_t{2} << 30;
          Result<QueryResult> r = session.Execute(q.text, o);
          if (!r.ok()) {
            std::fprintf(stderr, "regen: join-only %s failed: %s\n",
                         q.name.c_str(), r.status().ToString().c_str());
            return 1;
          }
          answer = r->items;
          source = "engine-agree";
        }
        uint64_t digest = MultisetDigest(answer);
        for (const std::vector<std::string>& e : engine) {
          if (e.size() != answer.size() || MultisetDigest(e) != digest) {
            ++disagreements;
            std::fprintf(stderr,
                         "regen: engine disagrees with %s on %s at scale %s, "
                         "document seed %llu\n",
                         source.c_str(), q.name.c_str(), scale_text,
                         static_cast<unsigned long long>(doc_seed));
            break;
          }
        }
        for (OrderingMode mode :
             {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
          out << scale_text << '\t' << doc_seed << '\t' << q.name << '\t'
              << ModeName(mode) << '\t' << answer.size() << '\t'
              << Hex(digest) << '\t' << source << '\n';
        }
        std::fprintf(stderr, "regen: %s doc %llu %s %s items=%zu\n",
                     scale_text, static_cast<unsigned long long>(doc_seed),
                     q.name.c_str(), source.c_str(), answer.size());
      }
    }
  }
  if (disagreements > 0) {
    // An engine-derived digest is only trustworthy when all
    // configurations agree; a reference digest is kept, and the
    // benchmark will report the engine's wrong answers.
    std::fprintf(stderr, "regen: %d disagreement(s)\n", disagreements);
  }
  std::ofstream file(path);
  file << out.str();
  if (!file) {
    std::fprintf(stderr, "regen: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "e2ebench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else if (a == "--trace") {
      args.trace = value() != "0";
    } else if (a == "--oracle") {
      args.oracle = value();
    } else if (a == "--spans") {
      args.spans = value();
    } else if (a == "--git-sha") {
      args.git_sha = value();
    } else if (a == "--regen-oracle") {
      args.regen = value();
    } else {
      std::fprintf(stderr, "e2ebench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  std::vector<std::string> pinned = ExrquyEnvironment();
  if (!pinned.empty()) {
    for (const std::string& e : pinned) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n",
                   e.c_str());
    }
    return 2;
  }
  if (!args.regen.empty()) return RegenOracle(args.regen);
  if (args.workload.empty() || args.oracle.empty()) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 --oracle FILE [--spans FILE] [--git-sha SHA]\n"
                 "       e2ebench --regen-oracle FILE\n");
    return 2;
  }
  return RunBenchmark(args);
}

}  // namespace
}  // namespace exrquy

int main(int argc, char** argv) { return exrquy::Main(argc, argv); }
