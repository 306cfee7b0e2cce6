// Minimal RAII wrappers over POSIX loopback TCP sockets, shared by the
// server, the client library, the load generator, and the serve tests.
// Failures surface as SocketError (an environmental condition, like
// io::FormatError for files) — never errno-checking boilerplate at every
// call site, never a crash.
//
// Two usage styles share the Socket class: the blocking reference client
// keeps using read_exact/write_all, while the server's epoll reactor puts
// sockets in nonblocking mode and drives them with read_some/write_some
// behind EpollSet readiness events (see serve/server.hpp). Each server
// connection keeps its unsent replies in one contiguous buffer, so a single
// span per write_some is all the reactor needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

struct epoll_event;  // <sys/epoll.h>

namespace pg::serve {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// Owning file descriptor; closes on destruction, move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  void close();
  /// shutdown(2) the read side: a thread blocked reading this socket wakes
  /// with end-of-stream. Replies in flight may still be written.
  void shutdown_read();
  /// shutdown(2) the write side: signals end-of-requests to the peer while
  /// keeping the read side open for remaining replies.
  void shutdown_write();

  /// Reads exactly `n` bytes. Returns false on clean end-of-stream before
  /// the first byte; throws SocketError on mid-message EOF, timeout, or a
  /// socket error. (A timeout while idle between messages also reads as
  /// end-of-stream=false, so idle-timeout handling stays one code path.)
  bool read_exact(void* out, std::size_t n);

  /// Discards exactly `n` bytes (unwanted payloads of known length).
  void discard_exact(std::uint64_t n);

  /// Writes all `n` bytes (MSG_NOSIGNAL: a vanished peer raises
  /// SocketError, never SIGPIPE).
  void write_all(const void* data, std::size_t n);

  /// Receive timeout for read_exact/discard_exact; 0 disables.
  void set_recv_timeout_ms(int ms);

  // --- nonblocking reactor API --------------------------------------------

  /// O_NONBLOCK on/off. The reactor sets it on every accepted socket.
  void set_nonblocking(bool on);

  /// TCP_NODELAY: reply frames are coalesced by the server itself, so
  /// Nagle's algorithm only adds latency.
  void set_nodelay(bool on);

  enum class ReadStatus : std::uint8_t {
    kData,        // `bytes` were read (>= 1)
    kWouldBlock,  // nonblocking socket has nothing buffered right now
    kEof,         // peer closed its write side
  };
  struct ReadResult {
    ReadStatus status = ReadStatus::kWouldBlock;
    std::size_t bytes = 0;
  };

  /// One recv(2) of up to `n` bytes on a nonblocking socket. Never blocks;
  /// throws SocketError on a hard error (reset, EBADF, ...).
  ReadResult read_some(void* out, std::size_t n);

  /// One send(2) of up to `n` bytes on a nonblocking socket (MSG_NOSIGNAL).
  /// Returns the bytes accepted by the kernel — 0 when the send buffer is
  /// full (would-block) — and throws SocketError on a hard error.
  std::size_t write_some(const void* data, std::size_t n);

 private:
  int fd_ = -1;
};

/// RAII epoll(7) instance. All epoll_ctl operations take a caller-chosen
/// 64-bit tag returned verbatim in the matching events (the reactor uses
/// the fd itself plus sentinel values for the listener and the wake fd).
class EpollSet {
 public:
  EpollSet();  // epoll_create1(EPOLL_CLOEXEC); throws SocketError on failure
  ~EpollSet();
  EpollSet(EpollSet&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  EpollSet& operator=(EpollSet&& other) noexcept;
  EpollSet(const EpollSet&) = delete;
  EpollSet& operator=(const EpollSet&) = delete;

  void add(int fd, std::uint32_t events, std::uint64_t tag);
  void mod(int fd, std::uint32_t events, std::uint64_t tag);
  /// Removes `fd`; quietly ignores fds the kernel no longer knows (a
  /// concurrently closed descriptor is already auto-removed).
  void del(int fd);

  /// Waits up to timeout_ms (-1 = indefinitely) and fills `out` with at
  /// most `max_events` ready events. Retries EINTR; throws SocketError on
  /// any other failure. Returns the number of events.
  int wait(struct epoll_event* out, int max_events, int timeout_ms);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// RAII eventfd(2) used to wake an io thread out of epoll_wait: workers
/// signal it after queueing reply bytes, stop() signals it to begin the
/// drain. Nonblocking on both ends; signalling an already-signalled fd is
/// a cheap no-op.
class WakeFd {
 public:
  WakeFd();  // eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK); throws on failure
  ~WakeFd();
  WakeFd(WakeFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  WakeFd& operator=(WakeFd&& other) noexcept;
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  void signal();
  void drain();
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1:`port` (0 = kernel-chosen ephemeral
/// port; bound_port() reports the actual one).
class Listener {
 public:
  Listener() = default;
  void listen(std::uint16_t port, int backlog);
  /// Blocks for the next connection. Returns an invalid Socket once the
  /// listener has been closed (the shutdown path) or on transient failure.
  [[nodiscard]] Socket accept();
  /// Nonblocking accept4(2): on success returns a valid, already-nonblocking
  /// Socket and err_out = 0; on failure returns an invalid Socket with
  /// err_out = errno (EAGAIN = nothing pending — not an error).
  [[nodiscard]] Socket try_accept(int& err_out);
  /// O_NONBLOCK on the listening descriptor (for reactor-driven accepts).
  void set_nonblocking(bool on);
  /// Wakes any thread blocked in accept() (shutdown(2) first — plain close
  /// would leave it sleeping forever on Linux), then closes.
  void close();
  [[nodiscard]] bool valid() const { return socket_.valid(); }
  [[nodiscard]] std::uint16_t bound_port() const { return port_; }
  [[nodiscard]] int fd() const { return socket_.fd(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`.
[[nodiscard]] Socket connect_loopback(std::uint16_t port);

}  // namespace pg::serve
