#include "algebra/stats.h"

namespace exrquy {

PlanStats CollectPlanStats(const Dag& dag, OpId root) {
  PlanStats stats;
  for (OpId id : dag.ReachableFrom(root)) {
    const Op& op = dag.op(id);
    ++stats.total_ops;
    ++stats.by_kind[OpKindName(op.kind)];
    switch (op.kind) {
      case OpKind::kRowNum:
        ++stats.rownum_ops;
        break;
      case OpKind::kRowId:
        ++stats.rowid_ops;
        if (op.positional) ++stats.positional_rowid_ops;
        break;
      case OpKind::kStep:
        ++stats.step_ops;
        break;
      case OpKind::kThetaJoin:
        ++stats.theta_join_ops;
        break;
      case OpKind::kThetaCount:
        ++stats.theta_count_ops;
        break;
      case OpKind::kEquiJoin:
        if (op.value_join) ++stats.value_join_ops;
        break;
      case OpKind::kDistinct:
        ++stats.distinct_ops;
        break;
      default:
        break;
    }
  }
  return stats;
}

std::string PlanStats::ToString() const {
  std::string out = std::to_string(total_ops) + " ops (";
  out += std::to_string(rownum_ops) + " %, ";
  out += std::to_string(rowid_ops) + " #, ";
  out += std::to_string(step_ops) + " steps, ";
  out += std::to_string(distinct_ops) + " distinct)";
  return out;
}

}  // namespace exrquy
