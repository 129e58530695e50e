#include "ulpdream/util/conn_server.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "ulpdream/util/log.hpp"

namespace ulpdream::util {

ConnectionServer::ConnectionServer(Listener listener, Handler handler,
                                   const std::string& gauge_name)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      gauge_(gauge_name) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw SocketError(listener_.endpoint(),
                      std::string("pipe: ") + std::strerror(errno));
  }
  stop_rd_ = fds[0];
  stop_wr_ = fds[1];
}

ConnectionServer::~ConnectionServer() {
  drain();
  (void)::close(stop_rd_);
  (void)::close(stop_wr_);
}

void ConnectionServer::adopt(Socket socket) {
  std::lock_guard lock(mutex_);
  if (draining_.load()) return;
  const auto connection = live_.emplace(live_.end());
  connection->socket = std::move(socket);
  try {
    connection->thread = std::thread([this, connection] { run(connection); });
  } catch (...) {
    live_.erase(connection);
    throw;
  }
  gauge_.set(static_cast<double>(live_.size()));
}

void ConnectionServer::run(std::list<Connection>::iterator connection) {
  handler_(connection->socket);
  std::thread previous;
  {
    std::lock_guard lock(mutex_);
    connection->socket.close();
    previous = std::exchange(finished_, std::move(connection->thread));
    live_.erase(connection);
    gauge_.set(static_cast<double>(live_.size()));
  }
  idle_.notify_all();
  if (previous.joinable()) previous.join();
}

void ConnectionServer::serve() {
  for (;;) {
    pollfd fds[2] = {{listener_.fd(), POLLIN, 0}, {stop_rd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      throw SocketError(listener_.endpoint(),
                        std::string("poll: ") + std::strerror(errno));
    }
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      adopt(listener_.accept());
    }
  }
}

void ConnectionServer::start() {
  if (!listener_.valid()) return;
  acceptor_ = std::thread([this] {
    try {
      serve();
    } catch (const std::exception& e) {
      log_warn(listener_.endpoint(), ": stopped accepting: ", e.what());
    }
  });
}

void ConnectionServer::request_stop() noexcept {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_wr_, &byte, 1);
}

void ConnectionServer::drain(std::chrono::milliseconds grace) {
  const auto idle = [this] { return live_.empty(); };
  std::unique_lock lock(mutex_);
  idle_.wait_for(lock, grace, idle);
  lock.unlock();
  if (acceptor_.joinable()) {
    request_stop();
    acceptor_.join();
  }
  listener_.close();
  lock.lock();
  draining_.store(true);
  for (Connection& connection : live_) connection.socket.shutdown();
  idle_.wait(lock, idle);
  // Every finished handler joined its predecessor; joining the last one
  // joins them all.
  std::thread last = std::move(finished_);
  lock.unlock();
  if (last.joinable()) last.join();
}

}  // namespace ulpdream::util
