// kgacc_serve — long-running KG accuracy evaluation daemon.
//
// Loads knowledge graphs once and multiplexes concurrent evaluation
// campaigns over a line-delimited JSON-over-TCP protocol (kgacc-serve-v1):
//
//   kgacc_serve --port 7607 --preload nell,movie
//
// then, from any client (one JSON object per line):
//
//   {"op": "load-graph", "graph": "nell"}
//   {"op": "start-campaign", "graph": "nell", "design": "twcs",
//    "options": {"moe_target": 0.05}}
//   {"op": "step", "session": "s1", "rounds": 5}
//   {"op": "query-estimate", "session": "s1"}
//   {"op": "suspend", "session": "s1"}     -> returns a campaign_state object
//   {"op": "resume", "campaign_state": {...}}  (that object, after a restart)
//   {"op": "stream-trace", "session": "s1"}
//   {"op": "metrics"}
//   {"op": "shutdown"}
//
// See the README "Serving" section for the full protocol reference.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace kgacc::serve {
namespace {

constexpr const char* kUsage = R"(kgacc_serve — KG accuracy evaluation daemon

Speaks the line-delimited JSON kgacc-serve-v1 protocol over TCP (loopback).
Ops: load-graph, start-campaign, step, query-estimate, stream-trace,
suspend, resume, stop, set-budget, tenant-status, metrics, shutdown.

Flags:
  --port P          TCP port to listen on; 0 picks an ephemeral port [7607]
  --preload A,B,..  graphs to load before accepting connections (built-in
                    dataset names or paths ending in .tsv)
  --seed S          dataset seed for built-in synthetic graphs       [42]
  --help            this message

Fleet scheduling (multi-tenant campaigns over a shared annotation budget;
start-campaign with "tenant": true admits a campaign to the scheduler):
  --scheduler POLICY        enable the fleet scheduler: greedy-ci,
                            round-robin, or weighted-fair              [off]
  --annotation-budget N     global annotation-seconds budget the fleet
                            may spend (set-budget changes it live;
                            0 = no grants until set-budget)      [unlimited]
  --max-resident-sessions K evict least-recently-granted tenants beyond
                            K running sessions (an evicted tenant is
                            replayed on its next grant) (0 = unlimited) [0]

Annotation latency defaults (a campaign's "annotator" object overrides
them field by field):
  --async-annotator        route campaigns through the async bridge  [off]
  --annotator-latency-ms L simulated mean per-triple latency (ms); without
                           --async-annotator it is waited out
                           synchronously                             [0]
  --max-concurrent N       bounded in-flight annotation window       [8]

Every flag may also be spelled with underscores (--max_concurrent).

The bound port is announced on stdout as: kgacc_serve listening on port N
)";

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
  const Status valid = flags.Validate(
      {"port", "preload", "seed", "async-annotator", "annotator-latency-ms",
       "max-concurrent", "scheduler", "annotation-budget",
       "max-resident-sessions", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n%s", valid.message().c_str(), kUsage);
    return 2;
  }
  Result<uint64_t> port = flags.GetUint64("port", 7607);
  Result<uint64_t> seed = flags.GetUint64("seed", 42);
  if (!port.ok() || !seed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!port.ok() ? port.status() : seed.status()).message().c_str());
    return 2;
  }
  AnnotatorSpec default_annotator;
  default_annotator.async = flags.GetBool("async-annotator", false);
  Result<double> latency_ms =
      flags.GetDouble("annotator-latency-ms", default_annotator.latency_ms);
  Result<uint64_t> max_concurrent =
      flags.GetUint64("max-concurrent", default_annotator.max_concurrent);
  if (!latency_ms.ok() || !max_concurrent.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!latency_ms.ok() ? latency_ms.status()
                                   : max_concurrent.status())
                     .message()
                     .c_str());
    return 2;
  }
  default_annotator.latency_ms = *latency_ms;
  default_annotator.max_concurrent = *max_concurrent;
  if (const Status valid = CheckAnnotatorSpec(default_annotator);
      !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 2;
  }

  // The `metrics` op reports what the daemon collects: its request and
  // round histograms record only while collection is on.
  obs::EnableMetrics(true);

  GraphStore graphs;
  const std::string preload = flags.GetString("preload", "");
  for (const std::string_view name : SplitString(preload, ',')) {
    const std::string graph(StripWhitespace(name));
    if (graph.empty()) continue;
    Result<std::shared_ptr<const Dataset>> loaded =
        graphs.Load(graph, seed.value());
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: preload %s: %s\n", graph.c_str(),
                   loaded.status().message().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded graph %s (%llu triples)\n", graph.c_str(),
                 static_cast<unsigned long long>(
                     loaded.value()->View().TotalTriples()));
  }

  SessionManager manager(&graphs);
  manager.SetDefaultAnnotator(default_annotator);

  // Fleet scheduler: constructed before the server so its drive loop is
  // live once connections arrive; destroyed after (declaration order).
  std::unique_ptr<CampaignScheduler> scheduler;
  if (flags.Has("scheduler")) {
    Result<CampaignScheduler::Policy> policy =
        CampaignScheduler::ParsePolicy(flags.GetString("scheduler", ""));
    if (!policy.ok()) {
      std::fprintf(stderr, "error: %s\n", policy.status().message().c_str());
      return 2;
    }
    CampaignScheduler::Options scheduler_options;
    scheduler_options.policy = *policy;
    if (flags.Has("annotation-budget")) {
      Result<double> budget = flags.GetDouble("annotation-budget", 0.0);
      if (!budget.ok() || *budget < 0.0) {
        std::fprintf(stderr, "error: --annotation-budget must be >= 0\n");
        return 2;
      }
      scheduler_options.budget_seconds = *budget;
    }
    Result<uint64_t> residents = flags.GetUint64("max-resident-sessions", 0);
    if (!residents.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   residents.status().message().c_str());
      return 2;
    }
    scheduler_options.max_resident_sessions = residents.value();
    scheduler = std::make_unique<CampaignScheduler>(&graphs,
                                                    scheduler_options);
    manager.AttachScheduler(scheduler.get());
    scheduler->StartLoop();
    std::fprintf(stderr, "fleet scheduler on: policy=%s\n",
                 CampaignScheduler::PolicyName(*policy));
  } else if (flags.Has("annotation-budget") ||
             flags.Has("max-resident-sessions")) {
    std::fprintf(stderr,
                 "error: --annotation-budget/--max-resident-sessions "
                 "require --scheduler\n");
    return 2;
  }

  ServeServer server(&manager, static_cast<int>(port.value()));

  // SIGINT/SIGTERM shut the daemon down cleanly. Signal handlers cannot
  // touch the server's mutexes, so the signals are blocked on every thread
  // and a dedicated thread sigwait()s and calls Shutdown() from normal
  // context.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("kgacc_serve listening on port %d\n", server.port());
  std::fflush(stdout);

  // Set before main wakes the signal thread itself, so that only a signal
  // from outside is logged as one.
  std::atomic<bool> self_wake{false};
  std::thread signal_thread([&signals, &server, &self_wake] {
    int received = 0;
    if (sigwait(&signals, &received) == 0 && !self_wake.load()) {
      std::fprintf(stderr, "received signal %d, shutting down\n", received);
      server.Shutdown();
    }
  });

  server.Wait();
  // Unblock the signal thread if shutdown came from the protocol instead.
  self_wake.store(true);
  pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();
  std::fprintf(stderr, "kgacc_serve exiting\n");
  return 0;
}

}  // namespace
}  // namespace kgacc::serve

int main(int argc, char** argv) { return kgacc::serve::Main(argc, argv); }
