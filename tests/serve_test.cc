#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "util/wire.h"

namespace vpart {
namespace {

std::string SocketPath(const char* tag) {
  return "/tmp/vpart_serve_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A small two-table instance in .vpi text form; `freq` scales one query
/// frequency so different values share shape but not exact fingerprints.
std::string InstanceText(double freq) {
  return "instance serve-test\n"
         "table T0\nattr T0 a0 4\nattr T0 a1 8\n"
         "table T1\nattr T1 b0 2\nattr T1 b1 6\n"
         "txn X0\nquery X0 q0 read " +
         std::to_string(freq) +
         "\nrows q0 T0 1\nrows q0 T1 1\nref q0 T0.a0 T1.b0\n"
         "txn X1\nquery X1 q1 write 5\n"
         "rows q1 T0 1\nrows q1 T1 1\nref q1 T0.a1 T1.b1\n";
}

JsonValue MakeRequest(const std::string& instance_text,
                      const std::string& solver, double time_limit,
                      const std::string& id) {
  JsonValue instance = JsonValue::MakeObject();
  instance.Set("text", instance_text);
  JsonValue request = JsonValue::MakeObject();
  request.Set("instance", std::move(instance));
  request.Set("solver", solver);
  request.Set("num_sites", 2);
  request.Set("time_limit_seconds", time_limit);
  JsonValue serve = JsonValue::MakeObject();
  serve.Set("id", id);
  request.Set("serve", std::move(serve));
  return request;
}

/// A request whose solve reliably occupies a worker for ~`seconds`: SA
/// with an effectively unlimited restart cap re-anneals until the budget
/// (or its cancellation token) stops it.
JsonValue MakeSlowRequest(double seconds, const std::string& id) {
  JsonValue request = MakeRequest(InstanceText(10), "sa", seconds, id);
  JsonValue sa = JsonValue::MakeObject();
  sa.Set("max_restarts", 1000000);
  request.Set("sa", std::move(sa));
  return request;
}

JsonValue MustParse(const std::string& payload) {
  StatusOr<JsonValue> doc = JsonValue::Parse(payload);
  EXPECT_TRUE(doc.ok()) << payload;
  return doc.ok() ? *std::move(doc) : JsonValue::MakeObject();
}

std::string CacheKindOf(const JsonValue& doc) {
  const JsonValue* serve = doc.Find("serve");
  if (serve == nullptr || serve->Find("cache") == nullptr) return "";
  return serve->Find("cache")->as_string();
}

std::string ErrorCodeOf(const JsonValue& doc) {
  const JsonValue* error = doc.Find("error");
  if (error == nullptr || error->Find("code") == nullptr) return "";
  return error->Find("code")->as_string();
}

/// A reply's telemetry.mip.total_iterations: the simplex pivots of the
/// solve behind it (-1 when the reply carries none).
long MipPivotsOf(const JsonValue& doc) {
  const JsonValue* telemetry = doc.Find("telemetry");
  const JsonValue* mip =
      telemetry == nullptr ? nullptr : telemetry->Find("mip");
  const JsonValue* pivots =
      mip == nullptr ? nullptr : mip->Find("total_iterations");
  return pivots == nullptr ? -1 : static_cast<long>(pivots->as_number());
}

/// The process-lifetime `vpart_lp_iterations_total` counter that every
/// solve folds its pivots into (0 before the first solve registers it).
long LpPivotsTotal() {
  for (const auto& counter : MetricsRegistry::Global().Snapshot().counters) {
    if (counter.name == "vpart_lp_iterations_total") return counter.value;
  }
  return 0;
}

TEST(ServeTest, ExactRepeatIsServedFromCacheCertified) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("exact");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string request =
      MakeRequest(InstanceText(10), "ilp", 5, "r1").Serialize();

  const long pivots_before = LpPivotsTotal();
  StatusOr<std::string> first = client->Roundtrip(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  JsonValue first_doc = MustParse(*first);
  ASSERT_EQ(first_doc.Find("error"), nullptr) << *first;
  EXPECT_EQ(CacheKindOf(first_doc), "miss");
  // The miss solved: the pivot counter moved by exactly its reported work.
  const long pivots_after_miss = LpPivotsTotal();
  EXPECT_GT(MipPivotsOf(first_doc), 0);
  EXPECT_EQ(pivots_after_miss - pivots_before, MipPivotsOf(first_doc));

  StatusOr<std::string> second = client->Roundtrip(request);
  ASSERT_TRUE(second.ok());
  JsonValue second_doc = MustParse(*second);
  ASSERT_EQ(second_doc.Find("error"), nullptr) << *second;
  EXPECT_EQ(CacheKindOf(second_doc), "exact");
  // The hit ran no pivots. Its telemetry.mip replays the cached proof's
  // record. What the hit costs in time is perfbench's serve.exact_p50_ms.
  EXPECT_EQ(LpPivotsTotal(), pivots_after_miss);
  EXPECT_EQ(MipPivotsOf(second_doc), MipPivotsOf(first_doc));
  // The cached answer was re-verified by the SolutionCertifier.
  ASSERT_NE(second_doc.Find("certified"), nullptr);
  EXPECT_TRUE(second_doc.Find("certified")->as_bool());
  EXPECT_DOUBLE_EQ(second_doc.Find("cost")->as_number(),
                   first_doc.Find("cost")->as_number());
  // The serve envelope echoes the client-chosen id.
  EXPECT_EQ(second_doc.Find("serve")->Find("id")->as_string(), "r1");

  const CacheStats stats = server.cache_stats();
  EXPECT_GE(stats.exact_hits, 1);
  EXPECT_GE(stats.misses, 1);
  server.Shutdown();
}

// A portfolio race that proves cancels its own request token to stop the
// heuristic lanes. That answer is complete, so it is cached like any other.
TEST(ServeTest, ProvenPortfolioRepeatIsAnExactHit) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("portfolio");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  JsonValue request = MakeRequest(InstanceText(10), "portfolio", 10, "p");
  request.Set("num_threads", 2);

  StatusOr<std::string> first = client->Roundtrip(request.Serialize());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  JsonValue first_doc = MustParse(*first);
  ASSERT_EQ(first_doc.Find("error"), nullptr) << *first;
  EXPECT_EQ(CacheKindOf(first_doc), "miss");
  ASSERT_TRUE(first_doc.Find("proven_optimal")->as_bool());
  EXPECT_EQ(first_doc.Find("status")->as_string(), "complete");

  StatusOr<std::string> second = client->Roundtrip(request.Serialize());
  ASSERT_TRUE(second.ok());
  JsonValue second_doc = MustParse(*second);
  ASSERT_EQ(second_doc.Find("error"), nullptr) << *second;
  EXPECT_EQ(CacheKindOf(second_doc), "exact");
  server.Shutdown();
}

// emit_events goes through the same capped recorder as vpart_cli: a reply
// keeps at most 4,096 events and always ends with "done", while
// telemetry.progress_events counts every event the solve emitted.
TEST(ServeTest, EventStreamIsCappedAndEndsWithDone) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("events");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // 6,000 restarts on the two-transaction instance emit 6,003 events.
  JsonValue request = MakeRequest(InstanceText(10), "sa", 60, "ev");
  JsonValue sa = JsonValue::MakeObject();
  sa.Set("max_restarts", 6000);
  request.Set("sa", std::move(sa));
  request.Set("emit_events", true);

  StatusOr<std::string> reply = client->Roundtrip(request.Serialize());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  JsonValue doc = MustParse(*reply);
  ASSERT_EQ(doc.Find("error"), nullptr) << doc.Serialize();
  const JsonValue* telemetry = doc.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_GT(telemetry->Find("progress_events")->as_number(), 4096);
  EXPECT_EQ(telemetry->Find("incumbents")->as_number(), 0);
  const JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->as_array().empty());
  EXPECT_LE(events->as_array().size(), 4096u);
  EXPECT_EQ(events->as_array().back().Find("phase")->as_string(), "done");
  server.Shutdown();
}

TEST(ServeTest, RenamedInstanceStillHitsExactly) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("renamed");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  StatusOr<std::string> first = client->Roundtrip(
      MakeRequest(InstanceText(10), "ilp", 5, "a").Serialize());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(MustParse(*first).Find("error"), nullptr) << *first;

  // Same problem, every entity renamed and tables declared in the other
  // order: the canonical fingerprint must still match exactly.
  const std::string renamed =
      "instance serve-test-renamed\n"
      "table U1\nattr U1 c0 2\nattr U1 c1 6\n"
      "table U0\nattr U0 d0 4\nattr U0 d1 8\n"
      "txn Y1\nquery Y1 p1 write 5\n"
      "rows p1 U0 1\nrows p1 U1 1\nref p1 U0.d1 U1.c1\n"
      "txn Y0\nquery Y0 p0 read 10\n"
      "rows p0 U0 1\nrows p0 U1 1\nref p0 U0.d0 U1.c0\n";
  StatusOr<std::string> second =
      client->Roundtrip(MakeRequest(renamed, "ilp", 5, "b").Serialize());
  ASSERT_TRUE(second.ok());
  JsonValue doc = MustParse(*second);
  ASSERT_EQ(doc.Find("error"), nullptr) << *second;
  EXPECT_EQ(CacheKindOf(doc), "exact");
  server.Shutdown();
}

TEST(ServeTest, NumericallyShiftedInstanceSeedsAsShapeHit) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("shape");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  StatusOr<std::string> first = client->Roundtrip(
      MakeRequest(InstanceText(10), "ilp", 5, "cold").Serialize());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(MustParse(*first).Find("error"), nullptr) << *first;

  const std::string shifted =
      MakeRequest(InstanceText(20), "ilp", 5, "warm").Serialize();
  StatusOr<std::string> second = client->Roundtrip(shifted);
  ASSERT_TRUE(second.ok());
  JsonValue doc = MustParse(*second);
  ASSERT_EQ(doc.Find("error"), nullptr) << *second;
  EXPECT_EQ(CacheKindOf(doc), "shape");
  const CacheStats stats = server.cache_stats();
  EXPECT_GE(stats.shape_hits, 1);
  server.Shutdown();

  // The same shifted instance on a fresh server solves cold. The cached
  // incumbent and root basis must save pivots over that; the time saved is
  // perfbench's serve.seeded_p50_ms and lp.seeded_pivots.
  options.socket_path = SocketPath("shape_cold");
  AdviseServer fresh(options);
  ASSERT_TRUE(fresh.Start().ok());
  StatusOr<ServeClient> fresh_client =
      ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(fresh_client.ok());
  StatusOr<std::string> cold = fresh_client->Roundtrip(shifted);
  ASSERT_TRUE(cold.ok());
  JsonValue cold_doc = MustParse(*cold);
  ASSERT_EQ(cold_doc.Find("error"), nullptr) << *cold;
  EXPECT_EQ(CacheKindOf(cold_doc), "miss");
  EXPECT_EQ(cold_doc.Find("cost")->as_number(),
            doc.Find("cost")->as_number());
  EXPECT_LT(MipPivotsOf(doc), MipPivotsOf(cold_doc));
  fresh.Shutdown();
}

TEST(ServeTest, ConcurrentClientsAllGetAnswers) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("concurrent");
  options.num_workers = 4;
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      StatusOr<ServeClient> client =
          ServeClient::Connect(options.socket_path);
      if (!client.ok()) return;
      for (int r = 0; r < 3; ++r) {
        // Mix of distinct problems and repeats across clients.
        const double freq = 10 + (c + r) % 3;
        StatusOr<std::string> response = client->Roundtrip(
            MakeRequest(InstanceText(freq), "sa", 2,
                        "c" + std::to_string(c) + "r" + std::to_string(r))
                .Serialize());
        if (response.ok() &&
            MustParse(*response).Find("error") == nullptr) {
          ++ok_counts[c];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[c], 3) << "client " << c;
  }
  server.Shutdown();
}

TEST(ServeTest, MalformedFrameGetsProtocolErrorAndDrop) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("malformed");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Raw socket: claim a frame far beyond the protocol's 16 MiB cap.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::send(fd, huge, sizeof(huge), 0), 4);

  StatusOr<std::string> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ErrorCodeOf(MustParse(*reply)), "protocol_error");
  // The stream is desynchronized, so the server drops the connection.
  StatusOr<std::string> after = ReadFrame(fd);
  EXPECT_FALSE(after.ok());
  ::close(fd);

  // The daemon itself survives and keeps serving fresh connections.
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  StatusOr<std::string> response = client->Roundtrip(
      MakeRequest(InstanceText(10), "sa", 2, "after").Serialize());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(MustParse(*response).Find("error"), nullptr) << *response;
  server.Shutdown();
}

TEST(ServeTest, InvalidRequestNamesOffendingKeyAndKeepsConnection) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("invalid");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  StatusOr<std::string> bad = client->Roundtrip("{\"bogus\": 1}");
  ASSERT_TRUE(bad.ok());
  JsonValue doc = MustParse(*bad);
  EXPECT_EQ(ErrorCodeOf(doc), "invalid_request");
  const std::string message =
      doc.Find("error")->Find("message")->as_string();
  EXPECT_NE(message.find("bogus"), std::string::npos) << message;

  // A bad request does not poison the connection.
  StatusOr<std::string> good = client->Roundtrip(
      MakeRequest(InstanceText(10), "sa", 2, "ok").Serialize());
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(MustParse(*good).Find("error"), nullptr) << *good;
  server.Shutdown();
}

// An over-threaded request is refused at admission with the typed
// invalid_request error naming the key, and the daemon keeps serving. The
// parser refuses it before it is queued, so no thread starts for it.
TEST(ServeTest, OverThreadedRequestGetsTypedErrorAndKeepsServing) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("threads");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  for (int count : {1000000, -1}) {
    JsonValue threads = MakeRequest(InstanceText(10), "sa", 2, "threads");
    threads.Set("num_threads", count);
    StatusOr<std::string> reply = client->Roundtrip(threads.Serialize());
    ASSERT_TRUE(reply.ok());
    JsonValue doc = MustParse(*reply);
    EXPECT_EQ(ErrorCodeOf(doc), "invalid_request") << *reply;
    EXPECT_NE(doc.Find("error")->Find("message")->as_string().find(
                  "num_threads"),
              std::string::npos)
        << *reply;

    JsonValue bnb = MakeRequest(InstanceText(10), "sa", 2, "bnb");
    JsonValue ilp = JsonValue::MakeObject();
    ilp.Set("bnb_threads", count);
    bnb.Set("ilp", std::move(ilp));
    reply = client->Roundtrip(bnb.Serialize());
    ASSERT_TRUE(reply.ok());
    doc = MustParse(*reply);
    EXPECT_EQ(ErrorCodeOf(doc), "invalid_request") << *reply;
    EXPECT_NE(doc.Find("error")->Find("message")->as_string().find(
                  "ilp.bnb_threads"),
              std::string::npos)
        << *reply;
  }

  StatusOr<std::string> good = client->Roundtrip(
      MakeRequest(InstanceText(10), "sa", 2, "ok").Serialize());
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(MustParse(*good).Find("error"), nullptr) << *good;
  server.Shutdown();
}

TEST(ServeTest, DisconnectMidSolveLeavesServerServing) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("disconnect");
  options.num_workers = 1;  // the abandoned solve occupies the only worker
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());

  {
    StatusOr<ServeClient> doomed = ServeClient::Connect(options.socket_path);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed->Send(MakeSlowRequest(30, "doomed").Serialize()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // Client vanishes mid-solve; DropConnection cancels the solve token.
  }

  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  // This only completes promptly if the abandoned 30-second solve was
  // cancelled instead of holding the worker.
  StatusOr<std::string> response = client->Roundtrip(
      MakeRequest(InstanceText(10), "sa", 2, "next").Serialize());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(MustParse(*response).Find("error"), nullptr) << *response;
  server.Shutdown();
}

TEST(ServeTest, SaturationShedsWithTypedOverloadedError) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("overload");
  options.num_workers = 1;
  options.max_queue_depth = 1;
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  // Pipeline more slow requests than worker + queue can hold; the excess
  // must shed with the typed `overloaded` error (which arrives first —
  // the reader answers it inline while the solves are still running).
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        client->Send(MakeSlowRequest(1.5, "s" + std::to_string(i)).Serialize())
            .ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kRequests; ++i) {
    StatusOr<std::string> response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    JsonValue doc = MustParse(*response);
    const std::string code = ErrorCodeOf(doc);
    if (code.empty()) {
      ++ok;
    } else {
      EXPECT_EQ(code, "overloaded") << *response;
      // Typed errors echo the request id for pipelined correlation.
      EXPECT_NE(doc.Find("error")->Find("id"), nullptr);
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, kRequests);
  server.Shutdown();
}

TEST(ServeTest, QueueWaitBeyondDeadlineGetsTypedDeadlineError) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("deadline");
  options.num_workers = 1;
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  // Occupy the only worker, then queue a request whose end-to-end
  // deadline expires while it waits.
  ASSERT_TRUE(client->Send(MakeSlowRequest(1.5, "blocker").Serialize()).ok());
  JsonValue hurried = MakeRequest(InstanceText(11), "sa", 5, "hurried");
  JsonValue serve = JsonValue::MakeObject();
  serve.Set("id", "hurried");
  serve.Set("deadline_seconds", 0.2);
  hurried.Set("serve", std::move(serve));
  ASSERT_TRUE(client->Send(hurried.Serialize()).ok());

  bool saw_deadline = false;
  for (int i = 0; i < 2; ++i) {
    StatusOr<std::string> response = client->Receive();
    ASSERT_TRUE(response.ok());
    JsonValue doc = MustParse(*response);
    if (ErrorCodeOf(doc) == "deadline_exceeded") {
      EXPECT_EQ(doc.Find("error")->Find("id")->as_string(), "hurried");
      saw_deadline = true;
    }
  }
  EXPECT_TRUE(saw_deadline);
  server.Shutdown();
}

// A client that pipelines requests and never reads its replies fills its
// socket buffer. The daemon must drop it once a reply write passes the send
// deadline, instead of blocking workers (and then Shutdown()) on it.
TEST(ServeTest, ClientThatNeverReadsIsDroppedWithoutWedging) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("noread");
  options.num_workers = 2;
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string request =
      MakeRequest(InstanceText(10), "ilp", 5, "hot").Serialize();
  {
    // Prime the cache so the flood below is answered at exact-hit speed.
    StatusOr<ServeClient> primer = ServeClient::Connect(options.socket_path);
    ASSERT_TRUE(primer.ok());
    ASSERT_TRUE(primer->Roundtrip(request).ok());
  }

  const int flooder = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(flooder, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size());
  ASSERT_EQ(::connect(flooder, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Pipeline until the daemon stops reading (its replies back up) or
  // drops the connection; never read a reply.
  const timeval send_timeout = {0, 100 * 1000};
  ASSERT_EQ(::setsockopt(flooder, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                         sizeof(send_timeout)),
            0);
  int sent = 0;
  while (sent < 20000 && WriteFrame(flooder, request).ok()) ++sent;
  EXPECT_GT(sent, 100);

  // A well-behaved client is still answered (retrying while the flood's
  // queued requests shed it as overloaded).
  std::future<std::string> answer = std::async(std::launch::async, [&] {
    StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
    if (!client.ok()) return client.status().ToString();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      StatusOr<std::string> response = client->Roundtrip(request);
      if (!response.ok()) return response.status().ToString();
      if (ErrorCodeOf(MustParse(*response)) != "overloaded" ||
          std::chrono::steady_clock::now() > give_up) {
        return *response;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const bool answered = answer.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  EXPECT_TRUE(answered) << "second client starved";

  // The flooder was hung up on.
  pollfd hangup{flooder, POLLRDHUP, 0};
  EXPECT_EQ(::poll(&hangup, 1, 5000), 1);
  EXPECT_NE(hangup.revents & (POLLHUP | POLLRDHUP), 0);

  std::future<void> shutdown =
      std::async(std::launch::async, [&] { server.Shutdown(); });
  EXPECT_EQ(shutdown.wait_for(std::chrono::seconds(1)),
            std::future_status::ready)
      << "Shutdown() blocked on the flooding client";
  // Unwedge a failing daemon so the test ends either way.
  ::close(flooder);
  shutdown.wait();
  if (answered) {
    const std::string response = answer.get();
    JsonValue doc = MustParse(response);
    EXPECT_EQ(doc.Find("error"), nullptr) << response;
    EXPECT_EQ(CacheKindOf(doc), "exact") << response;
  }
}

TEST(ServeTest, ShutdownIsCleanAndIdempotent) {
  AdviseServerOptions options;
  options.socket_path = SocketPath("shutdown");
  AdviseServer server(options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  StatusOr<std::string> response = client->Roundtrip(
      MakeRequest(InstanceText(10), "sa", 2, "last").Serialize());
  ASSERT_TRUE(response.ok());

  server.Shutdown();
  EXPECT_FALSE(server.running());
  // The socket file is gone; new connections fail cleanly.
  EXPECT_FALSE(ServeClient::Connect(options.socket_path).ok());
  // The old connection sees a clean close, not a hang.
  StatusOr<std::string> after = client->Receive();
  EXPECT_FALSE(after.ok());
  server.Shutdown();  // idempotent
}

}  // namespace
}  // namespace vpart
