#pragma once

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/session_manager.h"
#include "util/status.h"

namespace kgacc::serve {

/// The TCP face of the daemon: line-delimited `kgacc-serve-v1` over a
/// loopback-friendly socket. One acceptor thread, one handler thread per
/// connection; each request line goes through SessionManager::HandleLine
/// and the response lines are written back, '\n'-terminated.
///
/// Port 0 binds an ephemeral port (tests/bench); port() reports the actual
/// one after Start(). A `shutdown` op — or Shutdown() from any thread —
/// stops accepting, unblocks every connection, and lets Wait() return.
class ServeServer {
 public:
  /// `manager` is borrowed and must outlive the server.
  ServeServer(SessionManager* manager, int port);
  ~ServeServer();

  /// Binds, listens and spawns the acceptor. Errors on bind/listen failure.
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Blocks until the server shuts down.
  void Wait();

  /// Initiates shutdown: stops the acceptor, closes every connection, stops
  /// all sessions. Idempotent, callable from any thread.
  void Shutdown();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  SessionManager* manager_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> shutdown_{false};
  std::thread acceptor_;

  std::mutex connections_mutex_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  bool done_ = false;
};

}  // namespace kgacc::serve
