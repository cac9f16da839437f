#include "api/request_json.h"

#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "api/solver_registry.h"
#include "cost/cost_model_registry.h"
#include "engine/batch_advisor.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "util/string_util.h"
#include "workload/instance_io.h"

namespace vpart {
namespace {

/// Tracks which keys of `object` were consumed so leftovers can be
/// reported as errors (a mistyped knob must not silently default). Every
/// Find/Read call also registers its key as *valid* for this block, so the
/// unknown-key and missing-key errors can tell the caller what would have
/// been accepted instead of just rejecting the request.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& object, std::string path)
      : object_(object), path_(std::move(path)) {}

  const JsonValue* Find(const std::string& key) {
    if (seen_.insert(key).second) known_.push_back(key);
    return object_.Find(key);
  }

  Status ReadDouble(const std::string& key, double* out) {
    const JsonValue* value = Find(key);
    if (value == nullptr) return Status::Ok();
    if (!value->is_number()) return TypeError(key, "a number");
    *out = value->as_number();
    return Status::Ok();
  }

  Status ReadInt(const std::string& key, int* out) {
    const JsonValue* value = Find(key);
    if (value == nullptr) return Status::Ok();
    // Range-check before the cast: a wrapped value could sneak past later
    // semantic validation.
    const std::optional<long> n =
        JsonInteger(*value, std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max());
    if (!n.has_value()) return TypeError(key, "a 32-bit integer");
    *out = static_cast<int>(*n);
    return Status::Ok();
  }

  Status ReadLong(const std::string& key, long* out) {
    const JsonValue* value = Find(key);
    if (value == nullptr) return Status::Ok();
    const std::optional<long> n =
        JsonInteger(*value, -kJsonMaxExactInteger, kJsonMaxExactInteger);
    if (!n.has_value()) return TypeError(key, "an integer");
    *out = *n;
    return Status::Ok();
  }

  Status ReadBool(const std::string& key, bool* out) {
    const JsonValue* value = Find(key);
    if (value == nullptr) return Status::Ok();
    if (!value->is_bool()) return TypeError(key, "a boolean");
    *out = value->as_bool();
    return Status::Ok();
  }

  Status ReadString(const std::string& key, std::string* out) {
    const JsonValue* value = Find(key);
    if (value == nullptr) return Status::Ok();
    if (!value->is_string()) return TypeError(key, "a string");
    *out = value->as_string();
    return Status::Ok();
  }

  /// All keys consumed? Otherwise an error naming the first stranger and
  /// listing every key this block accepts. Call only after all Find/Read
  /// calls for the block, so the valid-key list is complete.
  Status CheckNoUnknownKeys() const {
    for (const JsonValue::Member& member : object_.as_object()) {
      if (seen_.count(member.first) == 0) {
        return InvalidArgumentError("unknown key \"" + member.first +
                                    "\" in " + path_ +
                                    " (valid keys: " + KnownKeys() + ")");
      }
    }
    return Status::Ok();
  }

  /// Error for a required key that is absent, naming the key and the
  /// block's valid keys. Like CheckNoUnknownKeys, call after all reads.
  Status MissingKeyError(const std::string& key) const {
    return InvalidArgumentError(path_ + " is missing required key \"" + key +
                                "\" (valid keys: " + KnownKeys() + ")");
  }

 private:
  Status TypeError(const std::string& key, const char* expected) const {
    return InvalidArgumentError("\"" + key + "\" in " + path_ +
                                " must be " + expected);
  }

  /// The keys read so far, in declaration order.
  std::string KnownKeys() const { return JoinStrings(known_, ", "); }

  const JsonValue& object_;
  std::string path_;
  std::set<std::string> seen_;
  std::vector<std::string> known_;  // insertion-ordered mirror of seen_
};

Status ParseInstanceSpec(const JsonValue& spec, CliRequest& out) {
  if (!spec.is_object()) {
    return InvalidArgumentError("\"instance\" must be an object");
  }
  ObjectReader reader(spec, "\"instance\"");
  VPART_RETURN_IF_ERROR(reader.ReadString("file", &out.instance_file));
  VPART_RETURN_IF_ERROR(reader.ReadString("text", &out.instance_text));
  VPART_RETURN_IF_ERROR(reader.ReadString("builtin", &out.builtin));
  VPART_RETURN_IF_ERROR(reader.ReadString("random", &out.random));
  VPART_RETURN_IF_ERROR(reader.CheckNoUnknownKeys());
  const int sources = (out.instance_file.empty() ? 0 : 1) +
                      (out.instance_text.empty() ? 0 : 1) +
                      (out.builtin.empty() ? 0 : 1) +
                      (out.random.empty() ? 0 : 1);
  if (sources != 1) {
    return InvalidArgumentError(
        "\"instance\" needs exactly one of \"file\", \"text\", "
        "\"builtin\", \"random\"");
  }
  if (!out.builtin.empty() && out.builtin != "tpcc") {
    return InvalidArgumentError("unknown builtin instance \"" + out.builtin +
                                "\" (available: tpcc)");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<CliRequest> ParseCliRequest(const std::string& json_text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(json_text);
  VPART_RETURN_IF_ERROR(parsed.status());
  if (!parsed->is_object()) {
    return InvalidArgumentError("request must be a JSON object");
  }

  CliRequest cli;
  AdviseRequest& request = cli.request;
  ObjectReader reader(*parsed, "request");

  // Registered first so "instance" leads the valid-key listing; the
  // missing-key error itself is raised after every key is registered, so
  // it can enumerate the full schema.
  const JsonValue* instance_spec = reader.Find("instance");
  if (instance_spec != nullptr) {
    VPART_RETURN_IF_ERROR(ParseInstanceSpec(*instance_spec, cli));
  }

  VPART_RETURN_IF_ERROR(reader.ReadString("solver", &request.solver));
  VPART_RETURN_IF_ERROR(reader.ReadInt("num_sites", &request.num_sites));
  VPART_RETURN_IF_ERROR(reader.ReadInt("num_threads", &request.num_threads));
  VPART_RETURN_IF_ERROR(
      reader.ReadBool("allow_replication", &request.allow_replication));
  VPART_RETURN_IF_ERROR(reader.ReadBool("use_attribute_grouping",
                                        &request.use_attribute_grouping));
  VPART_RETURN_IF_ERROR(
      reader.ReadDouble("latency_penalty", &request.latency_penalty));
  VPART_RETURN_IF_ERROR(
      reader.ReadDouble("time_limit_seconds", &request.time_limit_seconds));
  long seed = static_cast<long>(request.seed);
  VPART_RETURN_IF_ERROR(reader.ReadLong("seed", &seed));
  request.seed = static_cast<uint64_t>(seed);
  std::string obs_text;
  VPART_RETURN_IF_ERROR(reader.ReadString("obs", &obs_text));
  if (!obs_text.empty() && !ParseObsLevel(obs_text, &request.obs)) {
    return InvalidArgumentError("\"obs\" must be \"off\", \"basic\", or "
                                "\"full\" (got \"" + obs_text + "\")");
  }
  VPART_RETURN_IF_ERROR(reader.ReadBool("certify", &request.certify));

  if (const JsonValue* cost = reader.Find("cost")) {
    if (!cost->is_object()) {
      return InvalidArgumentError("\"cost\" must be an object");
    }
    ObjectReader cost_reader(*cost, "\"cost\"");
    VPART_RETURN_IF_ERROR(cost_reader.ReadDouble("p", &request.cost.p));
    VPART_RETURN_IF_ERROR(
        cost_reader.ReadDouble("lambda", &request.cost.lambda));
    VPART_RETURN_IF_ERROR(cost_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* cost_model = reader.Find("cost_model")) {
    if (!cost_model->is_object()) {
      return InvalidArgumentError("\"cost_model\" must be an object");
    }
    ObjectReader model_reader(*cost_model, "\"cost_model\"");
    VPART_RETURN_IF_ERROR(
        model_reader.ReadString("backend", &request.cost_model.backend));
    if (const JsonValue* cacheline = model_reader.Find("cacheline")) {
      if (!cacheline->is_object()) {
        return InvalidArgumentError("\"cacheline\" must be an object");
      }
      CachelineCostOptions& o = request.cost_model.cacheline;
      ObjectReader cl_reader(*cacheline, "\"cost_model.cacheline\"");
      VPART_RETURN_IF_ERROR(cl_reader.ReadDouble("line_bytes", &o.line_bytes));
      VPART_RETURN_IF_ERROR(
          cl_reader.ReadDouble("row_header_bytes", &o.row_header_bytes));
      VPART_RETURN_IF_ERROR(
          cl_reader.ReadDouble("read_factor", &o.read_factor));
      VPART_RETURN_IF_ERROR(
          cl_reader.ReadDouble("write_factor", &o.write_factor));
      VPART_RETURN_IF_ERROR(cl_reader.ReadDouble("transfer_header_bytes",
                                                 &o.transfer_header_bytes));
      VPART_RETURN_IF_ERROR(cl_reader.CheckNoUnknownKeys());
    }
    if (const JsonValue* disk_page = model_reader.Find("disk_page")) {
      if (!disk_page->is_object()) {
        return InvalidArgumentError("\"disk_page\" must be an object");
      }
      DiskPageCostOptions& o = request.cost_model.disk_page;
      ObjectReader dp_reader(*disk_page, "\"cost_model.disk_page\"");
      VPART_RETURN_IF_ERROR(dp_reader.ReadDouble("page_bytes", &o.page_bytes));
      VPART_RETURN_IF_ERROR(dp_reader.ReadDouble("seek_pages", &o.seek_pages));
      VPART_RETURN_IF_ERROR(
          dp_reader.ReadDouble("write_factor", &o.write_factor));
      VPART_RETURN_IF_ERROR(dp_reader.CheckNoUnknownKeys());
    }
    VPART_RETURN_IF_ERROR(model_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* ilp = reader.Find("ilp")) {
    if (!ilp->is_object()) {
      return InvalidArgumentError("\"ilp\" must be an object");
    }
    ObjectReader ilp_reader(*ilp, "\"ilp\"");
    VPART_RETURN_IF_ERROR(
        ilp_reader.ReadDouble("mip_gap", &request.ilp.mip_gap));
    VPART_RETURN_IF_ERROR(
        ilp_reader.ReadInt("bnb_threads", &request.ilp.bnb_threads));
    VPART_RETURN_IF_ERROR(
        ilp_reader.ReadBool("enable_dive", &request.ilp.enable_dive));
    VPART_RETURN_IF_ERROR(ilp_reader.ReadDouble(
        "warm_start_seconds", &request.ilp.warm_start_seconds));
    std::string audit_text;
    VPART_RETURN_IF_ERROR(ilp_reader.ReadString("audit", &audit_text));
    if (!audit_text.empty() &&
        !ParseAuditLevel(audit_text, &request.ilp.lp_audit)) {
      return InvalidArgumentError(
          "\"ilp.audit\" must be \"off\", \"cheap\", or \"full\" (got \"" +
          audit_text + "\")");
    }
    VPART_RETURN_IF_ERROR(ilp_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* sa = reader.Find("sa")) {
    if (!sa->is_object()) {
      return InvalidArgumentError("\"sa\" must be an object");
    }
    ObjectReader sa_reader(*sa, "\"sa\"");
    VPART_RETURN_IF_ERROR(
        sa_reader.ReadInt("max_restarts", &request.sa.max_restarts));
    VPART_RETURN_IF_ERROR(
        sa_reader.ReadDouble("slice_seconds", &request.sa.slice_seconds));
    VPART_RETURN_IF_ERROR(sa_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* exhaustive = reader.Find("exhaustive")) {
    if (!exhaustive->is_object()) {
      return InvalidArgumentError("\"exhaustive\" must be an object");
    }
    ObjectReader ex_reader(*exhaustive, "\"exhaustive\"");
    VPART_RETURN_IF_ERROR(ex_reader.ReadLong(
        "max_candidates", &request.exhaustive.max_candidates));
    VPART_RETURN_IF_ERROR(ex_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* incremental = reader.Find("incremental")) {
    if (!incremental->is_object()) {
      return InvalidArgumentError("\"incremental\" must be an object");
    }
    ObjectReader inc_reader(*incremental, "\"incremental\"");
    VPART_RETURN_IF_ERROR(inc_reader.ReadDouble(
        "initial_fraction", &request.incremental.initial_fraction));
    VPART_RETURN_IF_ERROR(
        inc_reader.ReadInt("batches", &request.incremental.batches));
    VPART_RETURN_IF_ERROR(inc_reader.CheckNoUnknownKeys());
  }
  if (const JsonValue* portfolio = reader.Find("portfolio")) {
    if (!portfolio->is_object()) {
      return InvalidArgumentError("\"portfolio\" must be an object");
    }
    ObjectReader pf_reader(*portfolio, "\"portfolio\"");
    VPART_RETURN_IF_ERROR(
        pf_reader.ReadBool("run_ilp", &request.portfolio.run_ilp));
    VPART_RETURN_IF_ERROR(
        pf_reader.ReadBool("run_sa", &request.portfolio.run_sa));
    VPART_RETURN_IF_ERROR(pf_reader.ReadBool(
        "run_incremental", &request.portfolio.run_incremental));
    VPART_RETURN_IF_ERROR(pf_reader.CheckNoUnknownKeys());
  }
  VPART_RETURN_IF_ERROR(reader.ReadBool("batch", &cli.batch));
  VPART_RETURN_IF_ERROR(
      reader.ReadBool("emit_partitioning", &cli.emit_partitioning));
  VPART_RETURN_IF_ERROR(reader.ReadBool("emit_events", &cli.emit_events));
  if (const JsonValue* serve = reader.Find("serve")) {
    if (!serve->is_object()) {
      return InvalidArgumentError("\"serve\" must be an object");
    }
    ObjectReader serve_reader(*serve, "\"serve\"");
    VPART_RETURN_IF_ERROR(serve_reader.ReadString("id", &cli.serve.id));
    VPART_RETURN_IF_ERROR(serve_reader.ReadDouble(
        "deadline_seconds", &cli.serve.deadline_seconds));
    std::string qos_text;
    VPART_RETURN_IF_ERROR(serve_reader.ReadString("qos", &qos_text));
    if (!qos_text.empty()) {
      if (qos_text == "interactive") {
        cli.serve.qos = ServeQos::kInteractive;
      } else if (qos_text == "batch") {
        cli.serve.qos = ServeQos::kBatch;
      } else {
        return InvalidArgumentError(
            "\"serve.qos\" must be \"interactive\" or \"batch\" (got \"" +
            qos_text + "\")");
      }
    }
    VPART_RETURN_IF_ERROR(serve_reader.CheckNoUnknownKeys());
  }
  VPART_RETURN_IF_ERROR(reader.CheckNoUnknownKeys());
  if (instance_spec == nullptr) {
    return reader.MissingKeyError("instance");
  }

  if (request.num_sites < 1) {
    return InvalidArgumentError("\"num_sites\" must be >= 1");
  }
  VPART_RETURN_IF_ERROR(
      CheckThreadCount("\"num_threads\"", request.num_threads));
  VPART_RETURN_IF_ERROR(
      CheckThreadCount("\"ilp.bnb_threads\"", request.ilp.bnb_threads));
  if (request.solver != kSolverAuto && FindSolver(request.solver) == nullptr) {
    return InvalidArgumentError(
        "unknown solver \"" + request.solver + "\" (available: auto, " +
        JoinStrings(SolverNames(), ", ") + ")");
  }
  if (!CostModelRegistry::Global().Contains(request.cost_model.backend)) {
    return InvalidArgumentError(
        "unknown cost model \"" + request.cost_model.backend +
        "\" (available: " +
        JoinStrings(CostModelRegistry::Global().Names(), ", ") + ")");
  }
  VPART_RETURN_IF_ERROR(ValidateCostModelSpec(request.cost_model));
  return cli;
}

StatusOr<Instance> LoadCliInstance(const CliRequest& request) {
  if (!request.instance_file.empty()) {
    return ReadInstanceFile(request.instance_file);
  }
  if (!request.instance_text.empty()) {
    return ParseInstanceText(request.instance_text);
  }
  if (request.builtin == "tpcc") {
    return MakeTpccInstance();
  }
  if (!request.random.empty()) {
    return MakeNamedRandomInstance(request.random);
  }
  return InvalidArgumentError("request names no instance");
}

JsonValue CliRequestToJson(const CliRequest& cli) {
  const AdviseRequest& request = cli.request;
  JsonValue out = JsonValue::MakeObject();
  JsonValue instance = JsonValue::MakeObject();
  if (!cli.instance_file.empty()) instance.Set("file", cli.instance_file);
  if (!cli.instance_text.empty()) instance.Set("text", cli.instance_text);
  if (!cli.builtin.empty()) instance.Set("builtin", cli.builtin);
  if (!cli.random.empty()) instance.Set("random", cli.random);
  out.Set("instance", std::move(instance));
  out.Set("solver", request.solver);
  out.Set("num_sites", request.num_sites);
  out.Set("num_threads", request.num_threads);
  JsonValue cost = JsonValue::MakeObject();
  cost.Set("p", request.cost.p);
  cost.Set("lambda", request.cost.lambda);
  out.Set("cost", std::move(cost));
  JsonValue cost_model = JsonValue::MakeObject();
  cost_model.Set("backend", request.cost_model.backend);
  JsonValue cacheline = JsonValue::MakeObject();
  cacheline.Set("line_bytes", request.cost_model.cacheline.line_bytes);
  cacheline.Set("row_header_bytes",
                request.cost_model.cacheline.row_header_bytes);
  cacheline.Set("read_factor", request.cost_model.cacheline.read_factor);
  cacheline.Set("write_factor", request.cost_model.cacheline.write_factor);
  cacheline.Set("transfer_header_bytes",
                request.cost_model.cacheline.transfer_header_bytes);
  cost_model.Set("cacheline", std::move(cacheline));
  JsonValue disk_page = JsonValue::MakeObject();
  disk_page.Set("page_bytes", request.cost_model.disk_page.page_bytes);
  disk_page.Set("seek_pages", request.cost_model.disk_page.seek_pages);
  disk_page.Set("write_factor", request.cost_model.disk_page.write_factor);
  cost_model.Set("disk_page", std::move(disk_page));
  out.Set("cost_model", std::move(cost_model));
  out.Set("allow_replication", request.allow_replication);
  out.Set("use_attribute_grouping", request.use_attribute_grouping);
  out.Set("latency_penalty", request.latency_penalty);
  out.Set("time_limit_seconds", request.time_limit_seconds);
  out.Set("seed", static_cast<long>(request.seed));
  out.Set("obs", ObsLevelName(request.obs));
  out.Set("certify", request.certify);
  JsonValue ilp = JsonValue::MakeObject();
  ilp.Set("mip_gap", request.ilp.mip_gap);
  ilp.Set("bnb_threads", request.ilp.bnb_threads);
  ilp.Set("enable_dive", request.ilp.enable_dive);
  ilp.Set("warm_start_seconds", request.ilp.warm_start_seconds);
  ilp.Set("audit", AuditLevelName(request.ilp.lp_audit));
  out.Set("ilp", std::move(ilp));
  JsonValue sa = JsonValue::MakeObject();
  sa.Set("max_restarts", request.sa.max_restarts);
  sa.Set("slice_seconds", request.sa.slice_seconds);
  out.Set("sa", std::move(sa));
  JsonValue exhaustive = JsonValue::MakeObject();
  exhaustive.Set("max_candidates", request.exhaustive.max_candidates);
  out.Set("exhaustive", std::move(exhaustive));
  JsonValue incremental = JsonValue::MakeObject();
  incremental.Set("initial_fraction", request.incremental.initial_fraction);
  incremental.Set("batches", request.incremental.batches);
  out.Set("incremental", std::move(incremental));
  JsonValue portfolio = JsonValue::MakeObject();
  portfolio.Set("run_ilp", request.portfolio.run_ilp);
  portfolio.Set("run_sa", request.portfolio.run_sa);
  portfolio.Set("run_incremental", request.portfolio.run_incremental);
  out.Set("portfolio", std::move(portfolio));
  out.Set("batch", cli.batch);
  out.Set("emit_partitioning", cli.emit_partitioning);
  out.Set("emit_events", cli.emit_events);
  return out;
}

JsonValue PartitioningToJson(const Instance& instance,
                             const Partitioning& partitioning) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_sites", partitioning.num_sites());
  JsonValue transactions = JsonValue::MakeObject();
  for (int t = 0; t < instance.num_transactions(); ++t) {
    transactions.Set(instance.workload().transaction(t).name,
                     partitioning.SiteOfTransaction(t));
  }
  out.Set("transactions", std::move(transactions));
  JsonValue attributes = JsonValue::MakeObject();
  const Schema& schema = instance.schema();
  for (int a = 0; a < instance.num_attributes(); ++a) {
    const Attribute& attribute = schema.attribute(a);
    JsonValue sites = JsonValue::MakeArray();
    for (int s : partitioning.SitesOfAttribute(a)) sites.Append(s);
    attributes.Set(schema.table(attribute.table_id).name + "." +
                       attribute.name,
                   std::move(sites));
  }
  out.Set("attributes", std::move(attributes));
  return out;
}

namespace {

/// Serializes LpSolveStats as the "mip" / "lp" telemetry object shared by
/// the response document and the per-event stream.
JsonValue LpSolveStatsToJson(const LpSolveStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("lp_solves", stats.lp_solves);
  out.Set("warm_starts", stats.warm_starts);
  out.Set("cold_starts", stats.cold_starts);
  out.Set("warm_start_failures", stats.warm_start_failures);
  out.Set("primal_iterations", stats.primal_iterations);
  out.Set("phase1_iterations", stats.phase1_iterations);
  out.Set("dual_iterations", stats.dual_iterations);
  out.Set("total_iterations", stats.total_iterations());
  out.Set("factorizations", stats.factorizations);
  out.Set("ft_updates", stats.ft_updates);
  out.Set("bound_flips", stats.bound_flips);
  out.Set("se_resets", stats.se_resets);
  out.Set("refactor_updates", stats.refactor_updates);
  out.Set("refactor_fill", stats.refactor_fill);
  out.Set("refactor_stability", stats.refactor_stability);
  // Audit counters appear only when auditing ran (LpOptions audit_level
  // above "off"), keeping the documented schema byte-identical for the
  // default path — tests/obs_golden_test.cc pins that byte-for-byte.
  if (stats.audits_run > 0) {
    out.Set("audits_run", stats.audits_run);
    out.Set("audit_failures", stats.audit_failures);
  }
  out.Set("lp_seconds", stats.lp_seconds);
  return out;
}

}  // namespace

JsonValue ProgressEventToJson(const ProgressEvent& event) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("phase", event.phase);
  out.Set("seq", event.seq);
  out.Set("elapsed", event.elapsed);
  out.Set("best_cost", event.best_cost);  // non-finite -> null
  out.Set("bound", event.bound);
  out.Set("gap", event.gap);
  out.Set("detail", event.detail);
  if (event.lp.lp_solves > 0) {
    out.Set("lp", LpSolveStatsToJson(event.lp));
  }
  return out;
}

JsonValue BatchAdvisorResultToJson(const Instance& instance,
                                   const BatchAdvisorResult& result,
                                   bool emit_partitioning) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("status", "complete");
  out.Set("instance", instance.name());
  out.Set("mode", "batch");
  JsonValue tables = JsonValue::MakeArray();
  for (const TableAdvice& advice : result.tables) {
    JsonValue table = JsonValue::MakeObject();
    table.Set("table", advice.table_name);
    table.Set("algorithm", advice.result.algorithm_used);
    table.Set("cost", advice.result.cost);
    table.Set("single_site_cost", advice.result.single_site_cost);
    table.Set("reduction_percent", advice.result.reduction_percent);
    table.Set("proven_optimal", advice.result.proven_optimal);
    tables.Append(std::move(table));
  }
  out.Set("tables", std::move(tables));
  JsonValue combined = JsonValue::MakeObject();
  combined.Set("algorithm", result.combined.algorithm_used);
  combined.Set("cost", result.combined.cost);
  combined.Set("single_site_cost", result.combined.single_site_cost);
  combined.Set("reduction_percent", result.combined.reduction_percent);
  combined.Set("proven_optimal", result.combined.proven_optimal);
  if (emit_partitioning) {
    combined.Set("partitioning",
                 PartitioningToJson(instance, result.combined.partitioning));
  }
  out.Set("combined", std::move(combined));
  out.Set("threads_used", result.threads_used);
  out.Set("seconds", result.seconds);
  return out;
}

JsonValue AdviseResponseToJson(const Instance& instance,
                               const AdviseResponse& response,
                               bool emit_partitioning,
                               const std::vector<ProgressEvent>& events) {
  const AdvisorResult& result = response.result;
  JsonValue out = JsonValue::MakeObject();
  out.Set("status", AdviseOutcomeName(response.outcome));
  out.Set("instance", instance.name());
  out.Set("solver_used", response.solver_used);
  out.Set("cost_model", response.cost_model_used);
  out.Set("algorithm", result.algorithm_used);
  out.Set("cost", result.cost);
  out.Set("single_site_cost", result.single_site_cost);
  out.Set("reduction_percent", result.reduction_percent);
  JsonValue breakdown = JsonValue::MakeObject();
  breakdown.Set("read_access", result.breakdown.read_access);
  breakdown.Set("write_access", result.breakdown.write_access);
  breakdown.Set("transfer", result.breakdown.transfer);
  breakdown.Set("total", result.breakdown.total);
  out.Set("breakdown", std::move(breakdown));
  out.Set("latency_cost", result.latency_cost);
  out.Set("proven_optimal", result.proven_optimal);
  // Present only when the SolutionCertifier re-verified the response (the
  // request's certify flag, or any debug build); absent otherwise so the
  // pre-certifier response shape is unchanged.
  if (response.certified) {
    out.Set("certified", true);
  }
  out.Set("seconds", result.seconds);
  if (!response.warnings.empty()) {
    JsonValue warnings = JsonValue::MakeArray();
    for (const std::string& warning : response.warnings) {
      warnings.Append(warning);
    }
    out.Set("warnings", std::move(warnings));
  }
  JsonValue telemetry = JsonValue::MakeObject();
  telemetry.Set("progress_events", response.progress_events);
  telemetry.Set("incumbents", response.incumbents);
  // Branch & bound / warm-start counters; all-zero (but present, so
  // consumers can rely on the shape) when no B&B ran.
  JsonValue mip = LpSolveStatsToJson(response.lp_stats);
  mip.Set("bnb_nodes", response.bnb_nodes);
  telemetry.Set("mip", std::move(mip));
  // Observability snapshots ride as siblings of "mip" so its documented
  // schema stays byte-identical; both are absent for obs=off requests.
  if (response.metrics.is_object()) {
    telemetry.Set("metrics", response.metrics);
  }
  if (response.trace_summary.is_object()) {
    telemetry.Set("trace_summary", response.trace_summary);
  }
  out.Set("telemetry", std::move(telemetry));
  if (emit_partitioning) {
    out.Set("partitioning", PartitioningToJson(instance, result.partitioning));
  }
  if (!events.empty()) {
    JsonValue stream = JsonValue::MakeArray();
    for (const ProgressEvent& event : events) {
      stream.Append(ProgressEventToJson(event));
    }
    out.Set("events", std::move(stream));
  }
  return out;
}

}  // namespace vpart
