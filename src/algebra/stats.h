// Plan statistics: operator counts by kind, the % / # tally that the
// paper uses to characterize plans (Figures 6, 9, 10; "the initial plan
// DAG of 235 operators is cut down to 141 nodes").
#ifndef EXRQUY_ALGEBRA_STATS_H_
#define EXRQUY_ALGEBRA_STATS_H_

#include <map>
#include <string>

#include "algebra/algebra.h"

namespace exrquy {

struct PlanStats {
  size_t total_ops = 0;
  size_t rownum_ops = 0;        // % operators (blocking sorts)
  size_t rowid_ops = 0;         // # operators (free numbering)
  size_t positional_rowid_ops = 0;  // #^ subset: ids proven row positions
  size_t step_ops = 0;          // ⊙ operators
  size_t distinct_ops = 0;
  size_t theta_join_ops = 0;    // ThetaJoin operators
  size_t theta_count_ops = 0;   // ThetaCount operators (counting joins)
  size_t value_join_ops = 0;    // joins carrying the value-join mark
                                // (ThetaJoin + marked EquiJoin)
  std::map<std::string, size_t> by_kind;

  std::string ToString() const;
};

PlanStats CollectPlanStats(const Dag& dag, OpId root);

}  // namespace exrquy

#endif  // EXRQUY_ALGEBRA_STATS_H_
