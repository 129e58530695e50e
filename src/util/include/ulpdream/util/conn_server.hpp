#pragma once
// The connection server under both socket services (the query daemon and
// the campaign coordinator): one accept loop, one thread per connection,
// a registry that joins handlers as they finish, and one drain.
//
// serve() polls the listener and a self-pipe; request_stop() is one write
// to the pipe, so it is async-signal-safe. Without a listener the server
// is adopt-only (socketpairs, in-process workers). A finished handler's
// thread closes its socket under the lock the drain shuts sockets down
// under, then joins the handler thread that finished before it: at most
// one finished thread waits to be joined, so memory stays flat in the
// number of connections ever served. The drain stops accepting and
// shutdown(SHUT_RD)s every live socket — a blocked read sees EOF, writes
// still go out, so an answer in flight is delivered — then joins every
// handler. Handlers that loop over requests check draining() after each
// answer. The destructor drains too.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::util {

class ConnectionServer {
 public:
  /// Serves one connection on its own thread; must not throw. The
  /// server owns the socket and closes it when the handler returns.
  using Handler = std::function<void(Socket&)>;

  /// `listener` may be default-constructed (adopt-only). The live
  /// connection count is published as the gauge `gauge_name`.
  ConnectionServer(Listener listener, Handler handler,
                   const std::string& gauge_name);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// The listener's resolved endpoint; empty when adopt-only.
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return listener_.endpoint();
  }

  /// Runs the handler on `socket` on a new thread; once the drain has
  /// begun, closes it unserved.
  void adopt(Socket socket);

  /// Accepts until request_stop(), adopting every connection. Throws
  /// SocketError when poll or accept fails.
  void serve();
  /// serve() on a thread the server owns (none when adopt-only).
  void start();
  /// Async-signal-safe: makes serve() return. Idempotent.
  void request_stop() noexcept;

  /// True once drain() has begun.
  [[nodiscard]] bool draining() const noexcept { return draining_.load(); }
  /// Gives live connections up to `grace` to end on their own, then
  /// stops accepting, shuts the read side of every live socket and joins
  /// every handler. Idempotent.
  void drain(std::chrono::milliseconds grace = {});

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
  };

  void run(std::list<Connection>::iterator connection);

  Listener listener_;
  Handler handler_;
  telemetry::Gauge gauge_;
  int stop_rd_ = -1;
  int stop_wr_ = -1;
  std::thread acceptor_;

  std::mutex mutex_;  ///< guards live_, finished_
  std::condition_variable idle_;
  std::list<Connection> live_;
  std::thread finished_;  ///< joined by the next to finish, or the drain
  std::atomic<bool> draining_{false};
};

}  // namespace ulpdream::util
