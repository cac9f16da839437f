#include "dist/wire_messages.h"

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
