// POSIX implementation of the loopback socket wrappers and the epoll/
// eventfd reactor primitives.
#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace pg::serve {
namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool Socket::read_exact(void* out, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(out);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r == 0) {
      if (got == 0) return false;  // clean end-of-stream between messages
      throw SocketError("connection closed mid-message");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Receive timeout: idle between messages reads as a clean
        // disconnect, a stall mid-message is an error.
        if (got == 0) return false;
        throw SocketError("receive timeout mid-message");
      }
      throw SocketError(errno_text("recv failed"));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Socket::discard_exact(std::uint64_t n) {
  std::array<std::uint8_t, 4096> scratch;
  while (n > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, scratch.size()));
    if (!read_exact(scratch.data(), chunk))
      throw SocketError("connection closed mid-message");
    n -= chunk;
  }
}

void Socket::write_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_text("send failed"));
    }
    sent += static_cast<std::size_t>(w);
  }
}

void Socket::set_recv_timeout_ms(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    throw SocketError(errno_text("setsockopt(SO_RCVTIMEO) failed"));
}

void Socket::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw SocketError(errno_text("fcntl(F_GETFL) failed"));
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0)
    throw SocketError(errno_text("fcntl(F_SETFL) failed"));
}

void Socket::set_nodelay(bool on) {
  const int v = on ? 1 : 0;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof v);
}

Socket::ReadResult Socket::read_some(void* out, std::size_t n) {
  while (true) {
    const ssize_t r = ::recv(fd_, out, n, 0);
    if (r > 0) return {ReadStatus::kData, static_cast<std::size_t>(r)};
    if (r == 0) return {ReadStatus::kEof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {ReadStatus::kWouldBlock, 0};
    throw SocketError(errno_text("recv failed"));
  }
}

std::size_t Socket::write_some(const void* data, std::size_t n) {
  while (true) {
    const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (w >= 0) return static_cast<std::size_t>(w);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw SocketError(errno_text("send failed"));
  }
}

// --- EpollSet -------------------------------------------------------------

EpollSet::EpollSet() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (fd_ < 0) throw SocketError(errno_text("epoll_create1 failed"));
}

EpollSet::~EpollSet() {
  if (fd_ >= 0) ::close(fd_);
}

EpollSet& EpollSet::operator=(EpollSet&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void EpollSet::add(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    throw SocketError(errno_text("epoll_ctl(ADD) failed"));
}

void EpollSet::mod(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) != 0 && errno != ENOENT &&
      errno != EBADF)
    throw SocketError(errno_text("epoll_ctl(MOD) failed"));
}

void EpollSet::del(int fd) {
  // ENOENT/EBADF: the fd was closed, which already removed it.
  ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EpollSet::wait(struct epoll_event* out, int max_events, int timeout_ms) {
  while (true) {
    const int n = ::epoll_wait(fd_, out, max_events, timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    throw SocketError(errno_text("epoll_wait failed"));
  }
}

// --- WakeFd ---------------------------------------------------------------

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (fd_ < 0) throw SocketError(errno_text("eventfd failed"));
}

WakeFd::~WakeFd() {
  if (fd_ >= 0) ::close(fd_);
}

WakeFd& WakeFd::operator=(WakeFd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void WakeFd::signal() {
  const std::uint64_t one = 1;
  // EAGAIN = counter saturated = a wake is already pending: success.
  [[maybe_unused]] const ssize_t w = ::write(fd_, &one, sizeof one);
}

void WakeFd::drain() {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t r = ::read(fd_, &count, sizeof count);
}

// --- Listener -------------------------------------------------------------

void Listener::listen(std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw SocketError(errno_text("socket failed"));

  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    throw SocketError(errno_text("bind failed"));
  if (::listen(sock.fd(), backlog) != 0)
    throw SocketError(errno_text("listen failed"));

  socklen_t len = sizeof addr;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw SocketError(errno_text("getsockname failed"));
  port_ = ntohs(addr.sin_port);
  socket_ = std::move(sock);
}

void Listener::close() {
  // shutdown(2) before close: on Linux, close() alone does NOT wake a
  // thread blocked in accept(2) on the same descriptor — the accept loop
  // would sleep forever and stop() would deadlock joining it. shutdown
  // forces every blocked accept to return with an error first.
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
  socket_.close();
}

Socket Listener::accept() {
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  return Socket(fd);  // invalid on failure; the caller checks
}

Socket Listener::try_accept(int& err_out) {
  const int fd = ::accept4(socket_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
  err_out = fd >= 0 ? 0 : errno;
  return Socket(fd);
}

void Listener::set_nonblocking(bool on) { socket_.set_nonblocking(on); }

Socket connect_loopback(std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw SocketError(errno_text("socket failed"));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0)
    throw SocketError(errno_text("connect failed"));

  // Request/reply traffic is latency-bound; coalescing tiny frames behind
  // Nagle's algorithm would serialise the batching window on 40ms ACK delays.
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

}  // namespace pg::serve
