// bench_serve_latency — load generator for the kgacc_serve daemon.
//
// Drives a kgacc-serve-v1 endpoint with concurrent client connections and
// reports client-observed request latency percentiles per request type,
// plus aggregate throughput. Two modes:
//
//   closed loop (default): each client fires its next request the moment
//     the previous response arrives — measures the server's native latency
//     under full load.
//   open loop (--target-qps Q): requests are launched on a fixed schedule
//     spread across clients — measures latency at a controlled arrival
//     rate, including any queueing delay behind a slow server.
//
// With --port it targets a running daemon; without it the bench self-hosts
// an in-process ServeServer on an ephemeral loopback port, so CI needs no
// process choreography.
//
// The workload is a steady campaign-driving mix per client: one session
// each, then repeated {step 1 round, query-estimate, every 8th iteration a
// stream-trace}; a campaign that converges is replaced by a fresh
// start-campaign, so the mix also exercises session creation under load.
//
// Writes BENCH_serve_latency.json (a kgacc-bench-v2 artifact) whose
// serve_latency.max_p99_ms and serve_latency.qps metrics CI gates with
// kgacc_trace_check --gate. Exits non-zero when the run recorded no
// requests or any protocol error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/telemetry.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/serve_client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "util/flags.h"
#include "util/json.h"

namespace kgacc::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kUsage = R"(bench_serve_latency — kgacc_serve load generator

  --port P            target a running daemon (default: self-host in-process)
  --clients N         concurrent client connections            [4]
  --duration-seconds S  wall-clock measurement window          [3]
  --target-qps Q      open-loop arrival rate, total across clients
                      (0 = closed loop)                        [0]
  --graph NAME        graph to evaluate                        [nell]
  --design NAME       registered design                        [twcs]
  --seed S            dataset seed for self-hosted graphs      [42]
  --out FILE          artifact path (default: BENCH_serve_latency.json
                      under $KGACC_BENCH_JSON_DIR)
)";

struct OpStats {
  std::string op;
  std::vector<double> latencies_ms;

  void Merge(const OpStats& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
  }
};

/// Per-client latency log: one vector per request type, merged after the run.
struct ClientLog {
  OpStats start_campaign{"start-campaign", {}};
  OpStats step{"step", {}};
  OpStats query_estimate{"query-estimate", {}};
  OpStats stream_trace{"stream-trace", {}};
  uint64_t errors = 0;
};

double PercentileMs(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Issues one request, records its latency, returns the response line (empty
/// on transport error).
std::string TimedCall(ServeClient* client, const std::string& request,
                      OpStats* stats, uint64_t* errors) {
  const Clock::time_point start = Clock::now();
  Result<std::string> response = client->Call(request);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (!response.ok()) {
    ++*errors;
    return "";
  }
  stats->latencies_ms.push_back(ms);
  if (response.value().find("\"ok\": true") == std::string::npos) ++*errors;
  return std::move(response).value();
}

void ClientMain(int port, const std::string& graph, const std::string& design,
                double per_client_qps, Clock::time_point deadline,
                ClientLog* log) {
  ServeClient client;
  if (!client.Connect(port).ok()) {
    ++log->errors;
    return;
  }
  const std::string start_request = BuildStartCampaign(
      graph, design, R"({"moe_target": 0.01, "batch_units": 5})");

  std::string session;
  auto start_campaign = [&]() {
    const std::string response = TimedCall(&client, start_request,
                                           &log->start_campaign, &log->errors);
    session.clear();
    Result<JsonValue> parsed = JsonValue::Parse(response);
    if (parsed.ok() && parsed.value().is_object()) {
      const JsonValue* id = parsed.value().Find("session");
      if (id != nullptr && id->is_string()) session = id->AsString();
    }
  };
  start_campaign();
  if (session.empty()) {
    ++log->errors;
    return;
  }

  const bool open_loop = per_client_qps > 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(open_loop ? 1.0 / per_client_qps : 0.0));
  Clock::time_point next_send = Clock::now();
  for (uint64_t i = 0; Clock::now() < deadline; ++i) {
    if (open_loop) {
      std::this_thread::sleep_until(next_send);
      next_send += interval;
    }
    std::string response;
    if (i % 8 == 7) {
      const Clock::time_point start = Clock::now();
      Result<std::vector<std::string>> lines =
          client.CallMulti(BuildStreamTrace(session), StreamTraceExtraLines);
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                                  start)
                            .count();
      if (lines.ok()) {
        log->stream_trace.latencies_ms.push_back(ms);
      } else {
        ++log->errors;
      }
    } else if (i % 2 == 0) {
      response =
          TimedCall(&client, BuildStep(session, 1), &log->step, &log->errors);
    } else {
      response = TimedCall(&client, BuildQueryEstimate(session),
                           &log->query_estimate, &log->errors);
    }
    if (response.find("\"state\": \"completed\"") != std::string::npos) {
      start_campaign();
      if (session.empty()) return;
    }
  }
}

int Main(int argc, char** argv) {
  Result<FlagParser> flags_or = FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_or.status().message().c_str());
    return 2;
  }
  const FlagParser& flags = std::move(flags_or).value();
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const Status valid = flags.Validate({"port", "clients", "duration-seconds",
                                       "target-qps", "graph", "design", "seed",
                                       "out", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n%s", valid.message().c_str(), kUsage);
    return 2;
  }
  const uint64_t port_flag = flags.GetUint64("port", 0).value();
  const uint64_t clients = std::max<uint64_t>(flags.GetUint64("clients", 4).value(), 1);
  const double duration = flags.GetDouble("duration-seconds", 3.0).value();
  const double target_qps = flags.GetDouble("target-qps", 0.0).value();
  const std::string graph = flags.GetString("graph", "nell");
  const std::string design = flags.GetString("design", "twcs");
  const uint64_t seed = flags.GetUint64("seed", 42).value();
  const std::string out_path = flags.GetString(
      "out", kgacc::bench::ArtifactPath("BENCH_serve_latency.json"));

  // Self-host unless pointed at a daemon.
  GraphStore graphs;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<ServeServer> server;
  int port = static_cast<int>(port_flag);
  if (port == 0) {
    Result<std::shared_ptr<const Dataset>> loaded = graphs.Load(graph, seed);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
      return 1;
    }
    manager = std::make_unique<SessionManager>(&graphs);
    server = std::make_unique<ServeServer>(manager.get(), 0);
    const Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.message().c_str());
      return 1;
    }
    port = server->port();
    std::printf("self-hosted server on port %d\n", port);
  } else {
    // Make sure the daemon has the graph (cheap no-op when preloaded).
    ServeClient setup;
    if (!setup.Connect(port).ok()) {
      std::fprintf(stderr, "error: cannot connect to port %d\n", port);
      return 1;
    }
    Result<std::string> response = setup.Call(BuildLoadGraph(graph, seed));
    if (!response.ok() ||
        response.value().find("\"ok\": true") == std::string::npos) {
      std::fprintf(stderr, "error: load-graph %s failed\n", graph.c_str());
      return 1;
    }
  }

  const double per_client_qps =
      target_qps > 0 ? target_qps / static_cast<double>(clients) : 0.0;
  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration));
  threads.reserve(clients);
  for (uint64_t i = 0; i < clients; ++i) {
    threads.emplace_back(ClientMain, port, graph, design, per_client_qps,
                         deadline, &logs[i]);
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  if (server != nullptr) server->Shutdown();

  // Merge per-client logs.
  OpStats merged[] = {{"start-campaign", {}},
                      {"step", {}},
                      {"query-estimate", {}},
                      {"stream-trace", {}}};
  uint64_t errors = 0;
  for (const ClientLog& log : logs) {
    merged[0].Merge(log.start_campaign);
    merged[1].Merge(log.step);
    merged[2].Merge(log.query_estimate);
    merged[3].Merge(log.stream_trace);
    errors += log.errors;
  }
  uint64_t total = 0;
  for (const OpStats& stats : merged) total += stats.latencies_ms.size();
  const double qps = elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0;

  BenchArtifact artifact("serve_latency");
  artifact.config()
      .Key("mode").String(target_qps > 0 ? "open" : "closed")
      .Key("clients").Uint(clients)
      .Key("graph").String(graph)
      .Key("design").String(design)
      .Key("target_qps").Number(target_qps);
  std::printf("%-16s %8s %9s %9s %9s %9s\n", "op", "count", "p50_ms",
              "p95_ms", "p99_ms", "max_ms");
  double max_p99 = 0.0;
  for (OpStats& stats : merged) {
    std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
    const double p50 = PercentileMs(stats.latencies_ms, 0.50);
    const double p95 = PercentileMs(stats.latencies_ms, 0.95);
    const double p99 = PercentileMs(stats.latencies_ms, 0.99);
    const double max =
        stats.latencies_ms.empty() ? 0.0 : stats.latencies_ms.back();
    double sum = 0;
    for (const double ms : stats.latencies_ms) sum += ms;
    const double mean = stats.latencies_ms.empty()
                            ? 0.0
                            : sum / static_cast<double>(
                                        stats.latencies_ms.size());
    // An op that never fired (stream-trace in a tiny run) has no p99.
    if (!stats.latencies_ms.empty()) max_p99 = std::max(max_p99, p99);
    artifact.rows()
        .BeginObject()
        .Key("op").String(stats.op)
        .Key("count").Uint(stats.latencies_ms.size())
        .Key("mean_ms").Number(mean)
        .Key("p50_ms").Number(p50)
        .Key("p95_ms").Number(p95)
        .Key("p99_ms").Number(p99)
        .Key("max_ms").Number(max)
        .EndObject();
    std::printf("%-16s %8zu %9.3f %9.3f %9.3f %9.3f\n", stats.op.c_str(),
                stats.latencies_ms.size(), p50, p95, p99, max);
  }
  artifact.SetMetric("duration_seconds", elapsed);
  artifact.SetMetric("requests", static_cast<double>(total));
  artifact.SetMetric("errors", static_cast<double>(errors));
  artifact.SetMetric("qps", qps);
  artifact.SetMetric("max_p99_ms", max_p99);
  const Status written = artifact.Write(out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s: %llu requests in %.2fs (%.0f qps, %llu errors) -> %s\n",
              target_qps > 0 ? "open-loop" : "closed-loop",
              static_cast<unsigned long long>(total), elapsed, qps,
              static_cast<unsigned long long>(errors), out_path.c_str());
  if (total == 0 || errors > 0) {
    std::fprintf(stderr, "error: the run needs requests and no protocol "
                         "errors\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kgacc::serve

int main(int argc, char** argv) { return kgacc::serve::Main(argc, argv); }
