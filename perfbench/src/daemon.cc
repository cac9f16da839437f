// `daemon`: an in-process AdviseServer with its defaults (2 workers,
// 64-entry cache, obs basic) driven over its Unix socket by 2 closed-loop
// client connections. Each client owns one site count and a pre-generated
// request sequence: 90% repeat a primed hot set of 16 TPC-C problems (exact
// cache hits), 10% are never-seen variants (shape-seeded solves that
// overflow the cache). Every hot problem recurs within each block of 20
// requests, so LRU eviction only ever drops fresh entries and the cache
// outcomes do not depend on how the two clients interleave.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/json.h"
#include "instances/tpcc.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload.h"
#include "workload/instance_io.h"

namespace perfbench {
namespace {

using vpart::AdviseRequest;
using vpart::Instance;
using vpart::Status;
using vpart::StatusOr;

constexpr int kClients = 2;
/// Hot problems stay near TPC-C so the advice quality of a run hardly
/// depends on the seed; fresh variants stray further, so every seeded
/// solve still has real pivoting to do.
constexpr double kHotSpread = 0.1;
constexpr double kFreshSpread = 0.5;

/// TPC-C with every query frequency scaled by a seeded factor in
/// [1 - spread, 1 + spread): same structure (so the same cache shape), new
/// numerics.
Instance JitterFrequencies(const Instance& base, uint64_t seed, double spread,
                           const std::string& name) {
  vpart::Rng rng(seed);
  vpart::InstanceBuilder builder(name);
  for (const vpart::Table& table : base.schema().tables()) {
    builder.AddTable(table.name);
  }
  for (const vpart::Attribute& attribute : base.schema().attributes()) {
    builder.AddAttribute(attribute.table_id, attribute.name, attribute.width);
  }
  for (const vpart::Transaction& txn : base.workload().transactions()) {
    builder.AddTransaction(txn.name);
  }
  for (const vpart::Query& query : base.workload().queries()) {
    builder.AddQuery(query.transaction_id, query.name, query.kind,
                     query.frequency *
                         (1.0 - spread + 2.0 * spread * rng.NextDouble()),
                     query.attributes, query.table_rows);
  }
  StatusOr<Instance> built = builder.Build();
  return built.ok() ? std::move(*built) : base;
}

std::string RequestJson(const std::string& instance_text, int sites,
                        const std::string& id) {
  JsonValue instance = JsonValue::MakeObject();
  instance.Set("text", instance_text);
  JsonValue serve = JsonValue::MakeObject();
  serve.Set("id", id);
  JsonValue request = JsonValue::MakeObject();
  request.Set("instance", std::move(instance));
  request.Set("solver", "ilp");
  request.Set("num_sites", sites);
  request.Set("certify", true);
  request.Set("serve", std::move(serve));
  return request.Serialize();
}

/// One planned request: hot problem `hot` (expects an exact hit) or the
/// client's `fresh`-th never-seen variant (expects a shape-seeded solve).
struct Planned {
  int hot = -1;
  int fresh = -1;
};

/// What one reply told the client.
struct Reply {
  double latency_s = 0.0;
  bool hot = false;
  double seconds = 0.0;  // solve time reported by the server
  double pivots = 0.0;
  double factorizations = 0.0;
  double nodes = 0.0;
  double lp_seconds = 0.0;
  double cost = 0.0;
  double single_site_cost = 0.0;
};

/// Starts every client loop at the same instant.
class StartGate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class DaemonWorkload : public Workload {
 public:
  explicit DaemonWorkload(const Options& options) : options_(options) {}
  ~DaemonWorkload() override {
    for (vpart::ServeClient& client : clients_) client.Close();
    if (server_ != nullptr) server_->Shutdown();
  }

  Status Prepare() override {
    const int hot_count = options_.tiny ? 4 : 16;
    const int extra_hot = hot_count / 8;
    const int fresh_per_block = std::max(1, (hot_count + extra_hot) / 9);
    // About 125 requests per client per second of --seconds on the
    // reference machine: 63 blocks of 20 at --seconds 10.
    const int blocks =
        options_.tiny ? 2 : std::max(1, (options_.seconds * 25 + 2) / 4);
    for (int h = 0; h < hot_count; ++h) {
      hot_.push_back(std::make_shared<const Instance>(
          JitterFrequencies(tpcc_, MixSeed(options_.seed, 0xB, h), kHotSpread,
                            "tpcc-hot" + std::to_string(h))));
      const std::string text = vpart::WriteInstanceText(*hot_.back());
      for (int c = 0; c < kClients; ++c) {
        hot_request_[c].push_back(RequestJson(
            text, 2 + c, "c" + std::to_string(c) + "-hot" + std::to_string(h)));
      }
    }
    for (int c = 0; c < kClients; ++c) {
      vpart::Rng rng(MixSeed(options_.seed, 0xD, c));
      std::vector<Planned>& plan = plans_[c];
      int fresh = 0;
      for (int b = 0; b < blocks; ++b) {
        std::vector<int> slots;
        for (int h = 0; h < hot_count; ++h) slots.push_back(h);
        for (int e = 0; e < extra_hot; ++e) {
          slots.push_back(static_cast<int>(rng.NextBounded(hot_count)));
        }
        for (int f = 0; f < fresh_per_block; ++f) slots.push_back(-1);
        rng.Shuffle(slots);
        for (int slot : slots) {
          Planned planned;
          planned.hot = slot;
          if (slot < 0) planned.fresh = fresh++;
          plan.push_back(planned);
        }
      }
    }
    return Status::Ok();
  }

  Status StartUp() override {
    vpart::AdviseServerOptions server_options;  // daemon defaults
    server_options.socket_path =
        options_.run_dir + "/d" + std::to_string(::getpid()) + ".sock";
    capacity_ = server_options.cache_capacity;
    server_ = std::make_unique<vpart::AdviseServer>(server_options);
    Status started = server_->Start();
    if (!started.ok()) return started;
    for (int c = 0; c < kClients; ++c) {
      StatusOr<vpart::ServeClient> client =
          vpart::ServeClient::Connect(server_options.socket_path);
      if (!client.ok()) return client.status();
      clients_[c] = std::move(*client);
    }
    // Prime the hot set (the first solve per client is a cold miss, later
    // ones are seeded by the previous), then one untimed exact hit each.
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &errors] {
        for (size_t h = 0; h < hot_.size() && errors[c].empty(); ++h) {
          JsonValue doc;
          errors[c] = Roundtrip(c, hot_request_[c][h],
                                h == 0 ? "miss" : "shape", &doc);
          prime_cost_[c].push_back(NumberAt(doc, "cost", -1));
        }
        JsonValue doc;
        if (errors[c].empty()) {
          errors[c] = Roundtrip(c, hot_request_[c][0], "exact", &doc);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::string& error : errors) {
      if (!error.empty()) return vpart::InternalError("priming: " + error);
    }
    return Status::Ok();
  }

  void RunTimed(SpanLog* spans, Outcome* out) override {
    const vpart::CacheStats before = server_->cache_stats();
    std::vector<std::vector<Reply>> replies(kClients);
    std::vector<std::vector<std::string>> errors(kClients);
    std::atomic<long> next_request{0};
    StartGate gate;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        gate.Wait();
        for (size_t i = 0; i < plans_[c].size(); ++i) {
          const Planned& planned = plans_[c][i];
          Reply reply;
          reply.hot = planned.hot >= 0;
          // Fresh requests are built as they are sent: the plan holds no
          // texts but the hot ones, so peak RSS stays the server's.
          const std::string fresh_json =
              reply.hot ? ""
                        : RequestJson(vpart::WriteInstanceText(
                                          FreshVariant(c, planned.fresh)),
                                      2 + c,
                                      "c" + std::to_string(c) + "-" +
                                          std::to_string(i));
          const std::string& json =
              reply.hot ? hot_request_[c][planned.hot] : fresh_json;
          const long request_id = next_request.fetch_add(1);
          ScopedSpan request(spans, "bench", "client request", -1, request_id);
          JsonValue doc;
          const double sent = Now();
          std::string error =
              Roundtrip(c, json, reply.hot ? "exact" : "shape", &doc, spans,
                        request.id(), request_id);
          reply.latency_s = Now() - sent;
          if (error.empty()) {
            error = CheckReply(c, planned, doc, &reply);
          }
          replies[c].push_back(reply);
          errors[c].push_back(error);
        }
      });
    }
    const double cpu_start = SelfCpuSeconds();
    const double start = Now();
    gate.Open();
    for (std::thread& thread : threads) thread.join();
    out->wall_s = Now() - start;
    out->cpu_s = SelfCpuSeconds() - cpu_start;
    out->peak_rss_mb = SelfPeakRssMb();

    std::vector<double> exact_s, seeded_s, seeded_pivots, solve_s;
    double seeded_self_s = 0.0;
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < replies[c].size(); ++i) {
        const Reply& reply = replies[c][i];
        out->Record(reply.latency_s, errors[c][i]);
        out->AddAdvice(reply.cost, reply.single_site_cost);
        if (reply.hot) {
          exact_s.push_back(reply.latency_s);
          continue;
        }
        seeded_s.push_back(reply.latency_s);
        seeded_pivots.push_back(reply.pivots);
        solve_s.push_back(reply.seconds);
        seeded_self_s += reply.seconds - reply.lp_seconds;
        out->layer["lp.pivots"] += reply.pivots;
        out->layer["lp.factorizations"] += reply.factorizations;
        out->layer["lp.busy_s"] += reply.lp_seconds;
        out->layer["mip.nodes"] += reply.nodes;
      }
    }
    out->layer["lp.seeded_pivots"] = Mean(seeded_pivots);
    out->layer["serve.exact_p50_ms"] = Median(exact_s) * 1e3;
    out->layer["serve.seeded_p50_ms"] = Median(seeded_s) * 1e3;
    out->layer["serve.seeded_p99_ms"] = Percentile(seeded_s, 99) * 1e3;
    out->layer["solver.table_ms"] = Median(solve_s) * 1e3;
    seeded_solves_ = static_cast<long>(seeded_s.size());
    seeded_self_s_ = seeded_self_s;

    // Fixed-work guard: cache outcomes follow the schedule exactly, and
    // evictions are what the fresh insertions force out of the cache.
    const vpart::CacheStats after = server_->cache_stats();
    const long exact = after.exact_hits - before.exact_hits;
    const long shape = after.shape_hits - before.shape_hits;
    const long evictions = after.evictions - before.evictions;
    const long resident = before.insertions - before.evictions;
    const long expected_evictions = std::max<long>(
        0, resident + static_cast<long>(seeded_s.size()) -
               static_cast<long>(capacity_));
    if (exact != static_cast<long>(exact_s.size()) ||
        shape != static_cast<long>(seeded_s.size()) ||
        evictions != expected_evictions) {
      out->Fail("fixed-work guard: cache saw " + std::to_string(exact) +
                " exact / " + std::to_string(shape) + " shape / " +
                std::to_string(evictions) + " evictions, schedule implies " +
                std::to_string(exact_s.size()) + " / " +
                std::to_string(seeded_s.size()) + " / " +
                std::to_string(expected_evictions));
    }
    const long lookups = after.lookups - before.lookups;
    out->layer["serve.exact_hit_ratio"] =
        lookups > 0 ? static_cast<double>(exact) / lookups : 0.0;
    out->layer["serve.evictions"] = static_cast<double>(evictions);
    double total_pivots = 0.0;
    for (double pivots : seeded_pivots) total_pivots += pivots;
    out->work.Set("serve.exact_hits", exact);
    out->work.Set("serve.shape_hits", shape);
    out->work.Set("serve.evictions", evictions);
    out->work.Set("lp.seeded_pivots_total", total_pivots);
  }

  void ProbeLayers(SpanLog& spans, Outcome* out) override {
    ScopedSpan probe(&spans, "bench", "standalone layer calls");
    ProbeObsEndState(spans, probe.id(), &out->layer);
    std::vector<ProbeInput> inputs;
    for (int c = 0; c < kClients; ++c) {
      for (const auto& instance :
           {hot_[0], std::make_shared<const Instance>(FreshVariant(c, 0))}) {
        AdviseRequest request;
        request.solver = "ilp";
        request.num_sites = 2 + c;
        request.certify = true;
        StatusOr<vpart::AdviseResponse> answer =
            vpart::Advise(*instance, request);
        if (!answer.ok()) {
          out->Fail("probe advise: " + answer.status().ToString());
          continue;
        }
        inputs.push_back({instance, request, *answer});
      }
    }
    ProbeRequestLayers(inputs, spans, probe.id(), out);
    std::map<std::string, double>& layer = out->layer;
    // What an exact hit crosses besides queue hand-offs and wake-ups.
    const double components_us =
        layer["api.parse_request_us"] + layer["workload.parse_instance_us"] +
        layer["serve.fingerprint_us"] + layer["serve.lookup_us"] +
        layer["serve.remap_us"] + layer["check.certify_ms"] * 1e3 +
        layer["api.encode_response_us"] + layer["api.decode_response_us"] +
        2 * layer["util.wire_frame_us"];
    layer["serve.wait_ms"] = layer["serve.exact_p50_ms"] - components_us / 1e3;
    // Seeded solves skip the warm-start anneal; every probe input is TPC-C
    // shaped, so the medians price the other request stages.
    const double others_s = (layer["solver.grouping_ms"] +
                             layer["cost.build_ms"] +
                             layer["check.certify_ms"]) / 1e3;
    layer["mip.self_s"] = seeded_self_s_ - seeded_solves_ * others_s;

    ProbeEngineLayers(*hot_[0], SaTableAnswers(*hot_[0], out), 3, spans,
                      probe.id(), out);
    MarkIdle(&layer, {"engine.pool_busy_ratio", "solver.sa_restarts",
                      "dist.units", "dist.requeued", "dist.worker_busy_ratio",
                      "dist.unit_overhead_ms"});
  }

 private:
  /// Client `c`'s `index`-th never-seen variant of TPC-C.
  Instance FreshVariant(int c, int index) const {
    return JitterFrequencies(tpcc_, MixSeed(options_.seed, 0xF + c, index),
                             kFreshSpread,
                             "tpcc-fresh" + std::to_string(index));
  }

  /// Sends `json` on client `c`'s connection and parses the reply into
  /// `doc`; returns "" or what went wrong (transport, error envelope, or a
  /// cache outcome other than `expect_cache`).
  std::string Roundtrip(int c, const std::string& json,
                        const std::string& expect_cache, JsonValue* doc,
                        SpanLog* spans = nullptr, long parent = -1,
                        long request_id = -1) {
    StatusOr<std::string> text = vpart::InternalError("not sent");
    {
      ScopedSpan span(spans, "serve", "ServeClient::Roundtrip", parent,
                      request_id);
      text = clients_[c].Roundtrip(json);
    }
    if (!text.ok()) return "transport: " + text.status().ToString();
    StatusOr<JsonValue> parsed = vpart::InternalError("not parsed");
    {
      ScopedSpan span(spans, "api", "JsonValue::Parse", parent, request_id);
      parsed = JsonValue::Parse(*text);
    }
    if (!parsed.ok()) return "unparsable reply: " + parsed.status().ToString();
    *doc = std::move(*parsed);
    if (doc->Find("error") != nullptr) return "error reply: " + *text;
    const JsonValue* serve = doc->Find("serve");
    const JsonValue* cache = serve != nullptr ? serve->Find("cache") : nullptr;
    const std::string got =
        cache != nullptr && cache->is_string() ? cache->as_string() : "";
    if (got != expect_cache) {
      return "cache outcome \"" + got + "\", scheduled \"" + expect_cache +
             "\"";
    }
    const JsonValue* certified = doc->Find("certified");
    if (certified == nullptr || !certified->is_bool() ||
        !certified->as_bool()) {
      return "reply not certified";
    }
    return "";
  }

  /// Answer checks past the envelope: exact hits cost what the priming
  /// solve cost; seeded solves are proofs. Fills the reply's counters.
  std::string CheckReply(int c, const Planned& planned, const JsonValue& doc,
                         Reply* reply) const {
    reply->seconds = NumberAt(doc, "seconds");
    reply->single_site_cost = NumberAt(doc, "single_site_cost");
    const double cost = NumberAt(doc, "cost", -1);
    reply->cost = cost;
    if (planned.hot >= 0) {
      const double expected = prime_cost_[c][planned.hot] +
                              (options_.inject_fault ? 1.0 : 0.0);
      if (cost != expected) {
        return "exact hit cost " + std::to_string(cost) + ", primed " +
               std::to_string(expected);
      }
      return "";
    }
    const JsonValue* proven = doc.Find("proven_optimal");
    if (proven == nullptr || !proven->is_bool() || !proven->as_bool()) {
      return "seeded solve not proven optimal";
    }
    const JsonValue* telemetry = doc.Find("telemetry");
    const JsonValue* mip =
        telemetry != nullptr ? telemetry->Find("mip") : nullptr;
    if (mip == nullptr) return "seeded solve without telemetry.mip";
    reply->pivots = NumberAt(*mip, "total_iterations");
    reply->factorizations = NumberAt(*mip, "factorizations");
    reply->nodes = NumberAt(*mip, "bnb_nodes");
    reply->lp_seconds = NumberAt(*mip, "lp_seconds");
    return "";
  }

  Options options_;
  const Instance tpcc_ = vpart::MakeTpccInstance();
  std::vector<std::shared_ptr<const Instance>> hot_;
  /// Per client, the request text of every hot problem at its site count.
  std::vector<std::string> hot_request_[kClients];
  std::vector<Planned> plans_[kClients];
  std::vector<double> prime_cost_[kClients];
  size_t capacity_ = 0;
  std::unique_ptr<vpart::AdviseServer> server_;
  vpart::ServeClient clients_[kClients];
  long seeded_solves_ = 0;
  double seeded_self_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeDaemonWorkload(const Options& options) {
  return std::make_unique<DaemonWorkload>(options);
}

}  // namespace perfbench
