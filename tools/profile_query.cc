// Per-operator profile of one XMark query over a generated document:
//
//   ./profile_query Q9 [scale] [threads] [ordered|unordered]
//
// Defaults: scale 0.016, the environment's thread count (EXRQUY_THREADS,
// else the hardware's), ordered mode. Executes the query once (compile
// time is reported separately) and prints the operator metrics sorted
// by kernel wall time (next to the time each waited for the node-store
// hold, which is not kernel time), plus the by-kind rollup. The quickest
// way to see which operator a slow query actually spends its time in.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: profile_query <Qname> [scale] [threads] "
                 "[ordered|unordered]\n");
    return 2;
  }
  double scale = argc > 2 ? std::atof(argv[2]) : 0.016;
  int threads = argc > 3 ? std::atoi(argv[3]) : 0;
  std::string mode = argc > 4 ? argv[4] : "ordered";
  if (mode != "ordered" && mode != "unordered") {
    std::fprintf(stderr, "profile_query: mode must be ordered|unordered\n");
    return 2;
  }
  exrquy::Session session;
  exrquy::XMarkOptions xmark;
  xmark.scale = scale;
  if (!session.LoadDocument("auction.xml", exrquy::GenerateXMark(xmark))
           .ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  exrquy::QueryOptions options;
  options.profile = true;
  if (threads > 0) options.num_threads = threads;
  if (mode == "unordered") {
    options.default_ordering = exrquy::OrderingMode::kUnordered;
  }
  exrquy::Result<exrquy::QueryResult> r =
      session.Execute(exrquy::XMarkQueryText(argv[1]), options);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("%s at scale %.3f, %s, threads %s: compile %.2f ms, "
              "execute %.2f ms\n\n",
              argv[1], scale, mode.c_str(),
              threads > 0 ? std::to_string(threads).c_str() : "default",
              r->compile_ms, r->execute_ms);
  std::vector<exrquy::Profile::OpMetrics> ops = r->profile.ops();
  std::sort(ops.begin(), ops.end(),
            [](const auto& a, const auto& b) { return a.ms > b.ms; });
  std::printf("%5s  %-12s %8s %10s %10s %10s  %s\n", "op", "kind", "ms",
              "blocked_ms", "in_rows", "out_rows", "prov");
  for (size_t i = 0; i < ops.size() && i < 25; ++i) {
    const auto& m = ops[i];
    std::printf("%5d  %-12s %8.3f %10.3f %10zu %10zu  %.50s\n",
                static_cast<int>(m.op), m.kind.c_str(), m.ms, m.blocked_ms,
                m.in_rows, m.out_rows, m.prov.c_str());
  }
  std::printf("\nby kind:\n");
  for (const auto& [kind, b] : r->profile.by_kind()) {
    std::printf("  %-12s %8.3f ms  %6zu ops  %10zu rows\n", kind.c_str(),
                b.ms, b.ops, b.out_rows);
  }
  return 0;
}
