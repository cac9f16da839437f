#include "dist/wire_messages.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "cost/partitioning_io.h"

namespace vpart {
namespace {

StatusOr<double> NumberField(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    return InvalidArgumentError(std::string("dist message: \"") + key +
                                "\" must be a number");
  }
  return value->as_number();
}

double NumberOr(const JsonValue& object, const char* key, double fallback) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_number()) ? value->as_number()
                                                  : fallback;
}

bool BoolOr(const JsonValue& object, const char* key, bool fallback) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_bool()) ? value->as_bool() : fallback;
}

/// LpSolveStats' counters in wire order; lp_seconds follows them.
constexpr std::pair<const char*, long LpSolveStats::*> kLpCounters[] = {
    {"lp_solves", &LpSolveStats::lp_solves},
    {"warm_starts", &LpSolveStats::warm_starts},
    {"cold_starts", &LpSolveStats::cold_starts},
    {"warm_start_failures", &LpSolveStats::warm_start_failures},
    {"primal_iterations", &LpSolveStats::primal_iterations},
    {"phase1_iterations", &LpSolveStats::phase1_iterations},
    {"dual_iterations", &LpSolveStats::dual_iterations},
    {"factorizations", &LpSolveStats::factorizations},
    {"ft_updates", &LpSolveStats::ft_updates},
    {"bound_flips", &LpSolveStats::bound_flips},
    {"se_resets", &LpSolveStats::se_resets},
    {"refactor_updates", &LpSolveStats::refactor_updates},
    {"refactor_fill", &LpSolveStats::refactor_fill},
    {"refactor_stability", &LpSolveStats::refactor_stability},
    {"audits_run", &LpSolveStats::audits_run},
    {"audit_failures", &LpSolveStats::audit_failures},
};

/// A column or row index: an integer in [0, INT_MAX].
std::optional<long> IndexValue(const JsonValue& value) {
  return JsonInteger(value, 0, std::numeric_limits<int>::max());
}

}  // namespace

StatusOr<long> LongField(const JsonValue& message, const char* key,
                         long fallback) {
  const JsonValue* value = message.Find(key);
  if (value == nullptr) return fallback;
  const std::optional<long> n =
      JsonInteger(*value, -kJsonMaxExactInteger, kJsonMaxExactInteger);
  if (!n.has_value()) {
    return InvalidArgumentError(std::string("dist message: \"") + key +
                                "\" must be an integer");
  }
  return *n;
}

std::string DistMessageType(const JsonValue& message) {
  if (!message.is_object()) return "";
  const JsonValue* type = message.Find("type");
  if (type == nullptr || !type->is_string()) return "";
  return type->as_string();
}

JsonValue MakeDistMessage(const std::string& type) {
  JsonValue message = JsonValue::MakeObject();
  message.Set("type", type);
  return message;
}

JsonValue EncodeBasis(const std::shared_ptr<const Basis>& basis) {
  if (basis == nullptr || !basis->valid()) return JsonValue();  // null
  JsonValue out = JsonValue::MakeObject();
  JsonValue rows = JsonValue::MakeArray();
  for (int column : basis->basic_of_row()) rows.Append(column);
  out.Set("rows", std::move(rows));
  // Column states are small enums; a digit string is ~8x denser on the
  // wire than a JSON int array over thousands of columns.
  std::string states;
  states.reserve(basis->states().size());
  for (uint8_t state : basis->states()) {
    if (state > 9) return JsonValue();  // unencodable future state: drop
    states.push_back(static_cast<char>('0' + state));
  }
  out.Set("states", states);
  return out;
}

StatusOr<std::shared_ptr<const Basis>> DecodeBasis(const JsonValue& value) {
  if (value.is_null()) return std::shared_ptr<const Basis>();
  if (!value.is_object()) {
    return InvalidArgumentError("dist message: basis must be an object");
  }
  const JsonValue* rows = value.Find("rows");
  const JsonValue* states = value.Find("states");
  if (rows == nullptr || !rows->is_array() || states == nullptr ||
      !states->is_string()) {
    return InvalidArgumentError("dist message: basis needs rows + states");
  }
  std::vector<int> basic_of_row;
  basic_of_row.reserve(rows->as_array().size());
  for (const JsonValue& row : rows->as_array()) {
    const std::optional<long> column = IndexValue(row);
    if (!column.has_value()) {
      return InvalidArgumentError(
          "dist message: basis rows must be column indices");
    }
    basic_of_row.push_back(static_cast<int>(*column));
  }
  std::vector<uint8_t> state;
  state.reserve(states->as_string().size());
  for (char c : states->as_string()) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("dist message: bad basis state digit");
    }
    state.push_back(static_cast<uint8_t>(c - '0'));
  }
  if (basic_of_row.empty()) return std::shared_ptr<const Basis>();
  return std::make_shared<const Basis>(
      Basis::FromParts(std::move(basic_of_row), std::move(state)));
}

JsonValue EncodeFixings(const std::vector<BoundFix>& fixings) {
  JsonValue out = JsonValue::MakeArray();
  for (const BoundFix& fix : fixings) {
    JsonValue triple = JsonValue::MakeArray();
    triple.Append(fix.column);
    triple.Append(fix.lower);
    triple.Append(fix.upper);
    out.Append(std::move(triple));
  }
  return out;
}

StatusOr<std::vector<BoundFix>> DecodeFixings(const JsonValue& value) {
  if (!value.is_array()) {
    return InvalidArgumentError("dist message: fixings must be an array");
  }
  std::vector<BoundFix> fixings;
  fixings.reserve(value.as_array().size());
  for (const JsonValue& entry : value.as_array()) {
    if (!entry.is_array() || entry.as_array().size() != 3 ||
        !entry.as_array()[1].is_number() ||
        !entry.as_array()[2].is_number()) {
      return InvalidArgumentError(
          "dist message: each fixing must be [column, lower, upper]");
    }
    const std::optional<long> column = IndexValue(entry.as_array()[0]);
    if (!column.has_value()) {
      return InvalidArgumentError(
          "dist message: fixing column must be a column index");
    }
    BoundFix fix;
    fix.column = static_cast<int>(*column);
    fix.lower = entry.as_array()[1].as_number();
    fix.upper = entry.as_array()[2].as_number();
    if (fix.lower > fix.upper) {
      return InvalidArgumentError("dist message: fixing out of range");
    }
    fixings.push_back(fix);
  }
  return fixings;
}

JsonValue EncodeLpStats(const LpSolveStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [key, counter] : kLpCounters) out.Set(key, stats.*counter);
  out.Set("lp_seconds", stats.lp_seconds);
  return out;
}

StatusOr<LpSolveStats> DecodeLpStats(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError("dist message: lp stats must be an object");
  }
  LpSolveStats stats;
  for (const auto& [key, counter] : kLpCounters) {
    StatusOr<long> count = LongField(value, key, 0);
    VPART_RETURN_IF_ERROR(count.status());
    stats.*counter = *count;
  }
  stats.lp_seconds = NumberOr(value, "lp_seconds", 0.0);
  return stats;
}

JsonValue EncodeMipResult(const MipResult& result) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("status", MipStatusName(result.status));
  if (result.has_incumbent()) {
    out.Set("objective", result.objective);
    JsonValue values = JsonValue::MakeArray();
    for (double v : result.values) values.Append(v);
    out.Set("values", std::move(values));
  }
  const SearchProof& proof = result.proof;
  if (std::isfinite(proof.best_bound)) out.Set("best_bound", proof.best_bound);
  out.Set("nodes", proof.nodes);
  out.Set("search_exhausted", proof.search_exhausted);
  out.Set("pruned_by_external_bound", proof.pruned_by_external_bound);
  out.Set("seconds", result.seconds);
  out.Set("lp", EncodeLpStats(proof.lp_stats));
  return out;
}

StatusOr<MipResult> DecodeMipResult(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError("dist message: mip result must be an object");
  }
  const JsonValue* status = value.Find("status");
  if (status == nullptr || !status->is_string()) {
    return InvalidArgumentError("dist message: mip result needs a status");
  }
  MipResult result;
  const std::string& name = status->as_string();
  if (name == "OPTIMAL") {
    result.status = MipStatus::kOptimal;
  } else if (name == "FEASIBLE") {
    result.status = MipStatus::kFeasible;
  } else if (name == "INFEASIBLE") {
    result.status = MipStatus::kInfeasible;
  } else if (name == "NO_SOLUTION") {
    result.status = MipStatus::kNoSolution;
  } else {
    return InvalidArgumentError("dist message: unknown mip status \"" + name +
                                "\"");
  }
  if (result.has_incumbent()) {
    StatusOr<double> objective = NumberField(value, "objective");
    VPART_RETURN_IF_ERROR(objective.status());
    result.objective = *objective;
    const JsonValue* values = value.Find("values");
    if (values == nullptr || !values->is_array()) {
      return InvalidArgumentError(
          "dist message: mip incumbent needs its values");
    }
    result.values.reserve(values->as_array().size());
    for (const JsonValue& v : values->as_array()) {
      if (!v.is_number()) {
        return InvalidArgumentError("dist message: values must be numbers");
      }
      result.values.push_back(v.as_number());
    }
  }
  SearchProof& proof = result.proof;
  proof.best_bound = NumberOr(value, "best_bound", -kLpInfinity);
  StatusOr<long> nodes = LongField(value, "nodes", 0);
  VPART_RETURN_IF_ERROR(nodes.status());
  proof.nodes = *nodes;
  proof.search_exhausted = BoolOr(value, "search_exhausted", false);
  proof.pruned_by_external_bound =
      BoolOr(value, "pruned_by_external_bound", false);
  result.seconds = NumberOr(value, "seconds", 0.0);
  if (const JsonValue* lp = value.Find("lp")) {
    StatusOr<LpSolveStats> stats = DecodeLpStats(*lp);
    VPART_RETURN_IF_ERROR(stats.status());
    proof.lp_stats = *stats;
  }
  return result;
}

JsonValue EncodeAdvisorResult(const Instance& instance,
                              const AdvisorResult& result) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("cost", result.cost);
  out.Set("single_site_cost", result.single_site_cost);
  out.Set("reduction_percent", result.reduction_percent);
  out.Set("latency_cost", result.latency_cost);
  out.Set("algorithm", result.algorithm_used);
  out.Set("seconds", result.seconds);
  out.Set("proven_optimal", result.proven_optimal);
  JsonValue breakdown = JsonValue::MakeObject();
  breakdown.Set("read_access", result.breakdown.read_access);
  breakdown.Set("write_access", result.breakdown.write_access);
  breakdown.Set("transfer", result.breakdown.transfer);
  breakdown.Set("latency", result.breakdown.latency);
  breakdown.Set("total", result.breakdown.total);
  out.Set("breakdown", std::move(breakdown));
  out.Set("partitioning",
          WritePartitioningText(instance, result.partitioning));
  return out;
}

StatusOr<AdvisorResult> DecodeAdvisorResult(const Instance& instance,
                                            const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError(
        "dist message: advisor result must be an object");
  }
  AdvisorResult result;
  StatusOr<double> cost = NumberField(value, "cost");
  VPART_RETURN_IF_ERROR(cost.status());
  result.cost = *cost;
  result.single_site_cost = NumberOr(value, "single_site_cost", 0.0);
  result.reduction_percent = NumberOr(value, "reduction_percent", 0.0);
  result.latency_cost = NumberOr(value, "latency_cost", 0.0);
  result.seconds = NumberOr(value, "seconds", 0.0);
  result.proven_optimal = BoolOr(value, "proven_optimal", false);
  if (const JsonValue* algorithm = value.Find("algorithm")) {
    if (algorithm->is_string()) result.algorithm_used = algorithm->as_string();
  }
  if (const JsonValue* breakdown = value.Find("breakdown")) {
    if (!breakdown->is_object()) {
      return InvalidArgumentError("dist message: breakdown must be an object");
    }
    result.breakdown.read_access = NumberOr(*breakdown, "read_access", 0.0);
    result.breakdown.write_access = NumberOr(*breakdown, "write_access", 0.0);
    result.breakdown.transfer = NumberOr(*breakdown, "transfer", 0.0);
    result.breakdown.latency = NumberOr(*breakdown, "latency", 0.0);
    result.breakdown.total = NumberOr(*breakdown, "total", 0.0);
  }
  const JsonValue* partitioning = value.Find("partitioning");
  if (partitioning == nullptr || !partitioning->is_string()) {
    return InvalidArgumentError(
        "dist message: advisor result needs its partitioning text");
  }
  StatusOr<Partitioning> parsed =
      ParsePartitioningText(instance, partitioning->as_string());
  VPART_RETURN_IF_ERROR(parsed.status());
  result.partitioning = std::move(*parsed);
  return result;
}

}  // namespace vpart
