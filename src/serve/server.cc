#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

namespace kgacc::serve {

namespace {

/// Writes the whole buffer, riding out short writes and EINTR.
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t written = ::send(fd, data, size, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<size_t>(written);
  }
  return true;
}

}  // namespace

ServeServer::ServeServer(SessionManager* manager, int port)
    : manager_(manager), requested_port_(port) {}

ServeServer::~ServeServer() {
  Shutdown();
  if (acceptor_.joinable()) {  // Start() succeeded.
    Wait();
    acceptor_.join();
  }
}

Status ServeServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::Internal(
        StrFormat("bind(port %d): %s", requested_port_, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status =
        Status::Internal(StrFormat("listen(): %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = requested_port_;
  }
  acceptor_ = std::thread(&ServeServer::AcceptLoop, this);
  return Status::OK();
}

void ServeServer::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    ReapFinished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED ||
          errno == ENOBUFS || errno == ENOMEM) {
        // Out of fds (or the peer gave up): the pending connection waits in
        // the backlog until a handler closes its fd.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down, or fatal.
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (shutdown_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connection_fds_.emplace(
        fd, std::thread(&ServeServer::HandleConnection, this, fd));
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ::close(std::exchange(listen_fd_, -1));
  }
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    done_ = true;
  }
  wait_cv_.notify_all();
}

void ServeServer::ReapFinished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    finished.swap(finished_threads_);
  }
  for (std::thread& thread : finished) thread.join();
}

void ServeServer::HandleConnection(int fd) {
  std::string buffer;
  size_t scanned = 0;  // prefix of `buffer` known to hold no '\n'.
  char chunk[4096];
  bool open = true;
  while (open && !shutdown_.load(std::memory_order_acquire)) {
    const ssize_t received = ::recv(fd, chunk, sizeof(chunk), 0);
    if (received < 0 && errno == EINTR) continue;
    if (received <= 0) break;  // peer closed or shutdown unblocked us.
    buffer.append(chunk, static_cast<size_t>(received));
    size_t newline;
    while (open &&
           (newline = buffer.find('\n', scanned)) <= kMaxRequestLineBytes) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (StripWhitespace(line).empty()) continue;
      const SessionManager::Response response = manager_->HandleLine(line);
      std::string out;
      for (const std::string& response_line : response.lines) {
        out += response_line;
        out += '\n';
      }
      open = WriteAll(fd, out.data(), out.size());
      if (response.shutdown) {
        Shutdown();
        open = false;
      }
    }
    if (!open) break;
    // `newline` is npos here, or the end of a line over the cap.
    scanned = std::min(newline, buffer.size());
    if (scanned > kMaxRequestLineBytes) {
      const std::string error =
          StrFormat("{\"ok\": false, \"error\": \"%s\"}\n",
                    JsonEscape(Status::InvalidArgument(StrFormat(
                                   "request line exceeds %zu bytes; closing "
                                   "the connection",
                                   kMaxRequestLineBytes))
                                   .ToString())
                        .c_str());
      WriteAll(fd, error.data(), error.size());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  const auto self = connection_fds_.find(fd);
  finished_threads_.push_back(std::move(self->second));
  connection_fds_.erase(self);
  ::close(fd);
  connections_cv_.notify_all();
}

void ServeServer::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  manager_->StopAll();
  // shutdown() unblocks accept() and each connection's recv(); the acceptor
  // and the handlers close their own fds, under the mutex.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const auto& [fd, thread] : connection_fds_) ::shutdown(fd, SHUT_RDWR);
}

void ServeServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    wait_cv_.wait(lock, [this] { return done_; });
  }
  // Acceptor is done: no new connections can appear; drain the handlers.
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    connections_cv_.wait(lock, [this] { return connection_fds_.empty(); });
  }
  ReapFinished();
}

}  // namespace kgacc::serve
