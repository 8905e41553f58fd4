#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/session_manager.h"
#include "util/status.h"

namespace kgacc::serve {

/// The TCP face of the daemon: line-delimited `kgacc-serve-v1` over a
/// loopback-friendly socket. One acceptor thread, one handler thread per
/// connection; each request line goes through SessionManager::HandleLine
/// and the response lines are written back, '\n'-terminated. A request
/// line longer than kMaxRequestLineBytes gets one error response and the
/// connection is closed.
///
/// A connection's fd is closed when its client disconnects and its handler
/// thread is joined by the acceptor soon after, so fds and threads stay
/// bounded by the live connections over any uptime. When accept() runs out
/// of fds (EMFILE/ENFILE) the acceptor backs off briefly and keeps trying.
///
/// Port 0 binds an ephemeral port (tests/bench); port() reports the actual
/// one after Start(). A `shutdown` op — or Shutdown() from any thread —
/// stops accepting, unblocks every connection, and lets Wait() return.
class ServeServer {
 public:
  static constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

  /// `manager` is borrowed and must outlive the server.
  ServeServer(SessionManager* manager, int port);
  ~ServeServer();

  /// Binds, listens and spawns the acceptor. Errors on bind/listen failure.
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Blocks until the server shuts down. Only after a successful Start().
  void Wait();

  /// Initiates shutdown: stops the acceptor, closes every connection, stops
  /// all sessions. Idempotent, callable from any thread.
  void Shutdown();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Joins the handler threads that have finished.
  void ReapFinished();

  SessionManager* manager_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> shutdown_{false};
  std::thread acceptor_;

  std::mutex connections_mutex_;
  std::condition_variable connections_cv_;  ///< signalled as handlers end.
  /// Each open connection's fd and handler thread. A handler erases its own
  /// entry and closes its fd under the mutex, so Shutdown never
  /// shutdown()s an fd number that has since been reused.
  std::map<int, std::thread> connection_fds_;
  std::vector<std::thread> finished_threads_;  ///< awaiting join.

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  bool done_ = false;
};

}  // namespace kgacc::serve
