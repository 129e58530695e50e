#include "ulpdream/util/socket.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ulpdream::util {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// MSG_NOSIGNAL everywhere a write could hit a dead peer: peer death
/// must surface as EPIPE -> SocketError, never as a process-killing
/// SIGPIPE from inside a worker thread.
#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Platforms without MSG_NOSIGNAL (macOS) get the same guarantee
/// per-socket via SO_NOSIGPIPE; elsewhere this is a no-op.
void suppress_sigpipe(int fd) {
#if defined(SO_NOSIGPIPE)
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// Completes a connect() that a signal interrupted. POSIX leaves the
/// attempt in progress after EINTR — calling connect() again yields
/// EALREADY (or a spurious EADDRINUSE), NOT a clean retry — so the
/// correct resumption is to wait for writability and read the final
/// status out of SO_ERROR.
int finish_connect(int fd) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return -1;
    if (err != 0) {
      errno = err;
      return -1;
    }
    return 0;
  }
}

struct ParsedEndpoint {
  bool is_unix = false;
  std::string unix_path;   ///< when is_unix
  std::string host;        ///< otherwise
  std::uint16_t port = 0;
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  ParsedEndpoint out;
  if (endpoint.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.unix_path = endpoint.substr(5);
    if (out.unix_path.empty()) {
      throw SocketError(endpoint, "unix endpoint needs a path (unix:/path)");
    }
    if (out.unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw SocketError(endpoint, "unix socket path too long");
    }
    return out;
  }
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    throw SocketError(endpoint,
                      "endpoint must be host:port or unix:/path");
  }
  out.host = endpoint.substr(0, colon);
  const std::string port_text = endpoint.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    throw SocketError(endpoint, "invalid port '" + port_text + "'");
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

sockaddr_in tcp_address(const ParsedEndpoint& ep,
                        const std::string& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  // Numeric IPv4 only (the distributed mode targets localhost/LAN rigs;
  // DNS would drag a resolver into error paths that must stay typed).
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError(endpoint,
                      "host must be a numeric IPv4 address (got '" +
                          ep.host + "')");
  }
  return addr;
}

sockaddr_un unix_address(const ParsedEndpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, ep.unix_path.c_str(), ep.unix_path.size() + 1);
  return addr;
}

std::string describe_sockaddr(const sockaddr_in& addr) {
  char text[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text));
  return std::string(text) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Socket Socket::connect(const std::string& endpoint) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  const int fd = ::socket(ep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SocketError(endpoint, "socket: " + errno_text());
  Socket out(fd, endpoint);
  suppress_sigpipe(fd);
  int rc;
  if (ep.is_unix) {
    const sockaddr_un addr = unix_address(ep);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
    if (rc < 0 && errno == EINTR) rc = finish_connect(fd);
  } else {
    const sockaddr_in addr = tcp_address(ep, endpoint);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
    if (rc < 0 && errno == EINTR) rc = finish_connect(fd);
    if (rc == 0) {
      const int one = 1;
      // Frames are small request/response turns; never batch them.
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  if (rc < 0) throw SocketError(endpoint, "connect: " + errno_text());
  return out;
}

std::pair<Socket, Socket> Socket::socketpair(const std::string& label) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw SocketError(label, "socketpair: " + errno_text());
  }
  suppress_sigpipe(fds[0]);
  suppress_sigpipe(fds[1]);
  return {Socket(fds[0], label + "[a]"), Socket(fds[1], label + "[b]")};
}

void Socket::write_all(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd_, p, len, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(peer_, "send: " + errno_text());
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

bool Socket::read_all_or_eof(void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw FrameError(FrameError::Kind::kIo, peer_,
                         "receive timed out mid-read");
      }
      throw FrameError(FrameError::Kind::kIo, peer_,
                       "recv: " + errno_text());
    }
    if (n == 0) {
      if (got == 0) return false;
      throw FrameError(FrameError::Kind::kTruncated, peer_,
                       "peer closed the connection mid-frame (" +
                           std::to_string(got) + " of " +
                           std::to_string(len) + " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::set_recv_timeout(std::size_t milliseconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(milliseconds / 1000);
  tv.tv_usec = static_cast<suseconds_t>((milliseconds % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw SocketError(peer_, "setsockopt(SO_RCVTIMEO): " + errno_text());
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RD);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    unlink_path_ = std::move(other.unlink_path_);
    other.fd_ = -1;
    other.unlink_path_.clear();
  }
  return *this;
}

Listener Listener::open(const std::string& endpoint) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  Listener out;
  out.fd_ = ::socket(ep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (out.fd_ < 0) throw SocketError(endpoint, "socket: " + errno_text());
  if (ep.is_unix) {
    // A stale socket file from a crashed coordinator would fail bind
    // with EADDRINUSE forever; unlink it first (connect() to a live one
    // would have succeeded, so this only removes corpses or collides
    // with a concurrent coordinator the deployment misconfigured).
    (void)::unlink(ep.unix_path.c_str());
    const sockaddr_un addr = unix_address(ep);
    if (::bind(out.fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw SocketError(endpoint, "bind: " + errno_text());
    }
    out.unlink_path_ = ep.unix_path;
    out.endpoint_ = endpoint;
  } else {
    const int one = 1;
    (void)::setsockopt(out.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcp_address(ep, endpoint);
    if (::bind(out.fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw SocketError(endpoint, "bind: " + errno_text());
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(out.fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      throw SocketError(endpoint, "getsockname: " + errno_text());
    }
    out.endpoint_ = describe_sockaddr(addr);  // resolves port 0
  }
  if (::listen(out.fd_, 64) != 0) {
    throw SocketError(endpoint, "listen: " + errno_text());
  }
  return out;
}

Socket Listener::accept() {
  for (;;) {
    sockaddr_storage addr{};
    socklen_t addr_len = sizeof(addr);
    const int fd =
        ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw SocketError(endpoint_, "accept: " + errno_text());
    }
    suppress_sigpipe(fd);
    std::string peer;
    if (addr.ss_family == AF_INET) {
      peer = describe_sockaddr(*reinterpret_cast<const sockaddr_in*>(&addr));
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    } else {
      peer = endpoint_ + "#client";
    }
    return Socket(fd, peer);
  }
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    (void)::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

// ---------------------------------------------------------------------------
// Framing over the Socket primitives.

void write_frame(Socket& socket, std::uint32_t type,
                 const std::uint8_t* payload, std::size_t len) {
  std::uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, kFrameMagic, 8);
  std::memcpy(header + 8, &type, 4);
  const std::uint32_t reserved = 0;
  std::memcpy(header + 12, &reserved, 4);
  const std::uint64_t len64 = len;
  std::memcpy(header + 16, &len64, 8);
  socket.write_all(header, sizeof(header));
  if (len != 0) socket.write_all(payload, len);
}

bool read_frame(Socket& socket, Frame& out, std::size_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!socket.read_all_or_eof(header, sizeof(header))) return false;
  if (std::memcmp(header, kFrameMagic, 8) != 0) {
    throw FrameError(FrameError::Kind::kBadMagic, socket.peer(),
                     "bad frame magic — peer is not speaking the ulpdream "
                     "frame protocol");
  }
  std::memcpy(&out.type, header + 8, 4);
  std::uint64_t len = 0;
  std::memcpy(&len, header + 16, 8);
  if (len > max_payload) {
    throw FrameError(FrameError::Kind::kOversized, socket.peer(),
                     "frame payload of " + std::to_string(len) +
                         " bytes exceeds the " +
                         std::to_string(max_payload) + "-byte cap");
  }
  out.payload.resize(static_cast<std::size_t>(len));
  if (len != 0 &&
      !socket.read_all_or_eof(out.payload.data(), out.payload.size())) {
    throw FrameError(FrameError::Kind::kTruncated, socket.peer(),
                     "peer closed the connection between a frame header "
                     "and its payload");
  }
  return true;
}

}  // namespace ulpdream::util
