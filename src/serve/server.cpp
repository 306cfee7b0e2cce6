// Server implementation: an epoll reactor (fixed pool of io threads driving
// nonblocking sockets) feeding a bounded admission queue, worker threads
// coalescing requests through the dynamic batching window into fused
// InferenceEngine batches, replies going back through one contiguous
// reply buffer and one send path per connection.
#include "serve/server.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "io/pgraph_io.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"

namespace pg::serve {
namespace {

// Upper bound on the batching window's graph count: one fused batch of this
// many graphs is already far past the fusion sweet spot.
constexpr std::int64_t kMaxBatch = 4096;

// Epoll tags: connections are tagged with their own fd (always a small
// non-negative number), so the top of the u64 range is free for sentinels.
constexpr std::uint64_t kTagWake = ~std::uint64_t{0};
constexpr std::uint64_t kTagListener = ~std::uint64_t{0} - 1;

// Each io thread's read scratch. A drained reply buffer whose capacity
// grew past this (a peer that stopped reading) gives its memory back.
constexpr std::size_t kReadBufBytes = 64 * 1024;

// Backoff after a persistent accept failure (EMFILE/ENFILE/ENOMEM): the
// listener stays ready under level-triggered epoll, so without a cooldown
// the reactor would hot-spin on accept4 until an fd freed up.
constexpr auto kAcceptCooldown = std::chrono::milliseconds(10);

/// A ServeKnob row over the integer field `Field`.
template <auto Field>
constexpr ServeKnob knob(const char* env, const char* flag, const char* arg,
                         std::int64_t lo, std::int64_t hi, const char* help) {
  using T = std::remove_reference_t<decltype(ServeConfig{}.*Field)>;
  return {env, flag, arg, lo, hi, help,
          [](const ServeConfig& c) { return std::int64_t(c.*Field); },
          [](ServeConfig& c, std::int64_t v) { c.*Field = T(v); }, nullptr};
}

// Rows are read in this order, so their stderr reports come out in it too.
constexpr ServeKnob kKnobs[] = {
    {nullptr, "--checkpoint", "<file>", 0, 0, "trained model checkpoint "
     "(required)", nullptr, nullptr, &ServeConfig::checkpoint},
    {nullptr, "--port-file", "<file>", 0, 0, "write the bound port as one "
     "line", nullptr, nullptr, &ServeConfig::port_file},
    {nullptr, "--simd", "LEVEL", 0, 0, "kernel dispatch: scalar|sse2|avx2 "
     "(PARAGRAPH_SIMD)", nullptr, nullptr, &ServeConfig::simd},
    knob<&ServeConfig::hidden_dim>(nullptr, "--hidden", "N", 1, 4096,
        "model hidden dim; must match the checkpoint"),
    knob<&ServeConfig::port>("PARAGRAPH_SERVE_PORT", "--port", "P", 0, 65535,
        "listen port on 127.0.0.1; 0 = ephemeral"),
    knob<&ServeConfig::workers>("PARAGRAPH_SERVE_WORKERS", "--workers", "N",
        1, 256, "InferenceEngine shards"),
    knob<&ServeConfig::io_threads>("PARAGRAPH_SERVE_IO_THREADS",
        "--io-threads", "N", 0, 64, "epoll reactor threads; 0 = min(4, cores)"),
    knob<&ServeConfig::engine_threads>("PARAGRAPH_THREADS", "--threads", "N",
        1, kMaxThreads, "OpenMP threads per worker's engine shard"),
    knob<&ServeConfig::queue_depth>("PARAGRAPH_SERVE_QUEUE", "--queue-depth",
        "N", 1, 1 << 20, "admission queue bound"),
    knob<&ServeConfig::batch_max>("PARAGRAPH_SERVE_BATCH", "--batch-max", "N",
        1, kMaxBatch, "batching window flushes at N graphs..."),
    knob<&ServeConfig::batch_window_us>("PARAGRAPH_SERVE_WINDOW_US",
        "--window-us", "T", 0, 10'000'000, "...or after T microseconds"),
    knob<&ServeConfig::conn_inflight_cap>("PARAGRAPH_SERVE_CONN_INFLIGHT",
        nullptr, nullptr, 1, 1 << 16,
        "unanswered requests per connection before its reads pause"),
    knob<&ServeConfig::write_queue_cap>("PARAGRAPH_SERVE_WRITEQ_CAP", nullptr,
        nullptr, 4096, 1 << 30,
        "queued reply bytes per connection before its reads pause"),
    knob<&ServeConfig::idle_timeout_ms>("PARAGRAPH_SERVE_IDLE_TIMEOUT_MS",
        "--idle-timeout-ms", "T", 0, 3'600'000,
        "close connections idle for T ms; 0 = never"),
    knob<&ServeConfig::cache>("PARAGRAPH_SERVE_CACHE", "--cache", nullptr, 0,
        1, "reply cache for byte-identical requests"),
    knob<&ServeConfig::cache_capacity>("PARAGRAPH_SERVE_CACHE_CAP",
        "--cache-cap", "N", 1, 1 << 20, "cache entries before LRU eviction"),
    knob<&ServeConfig::duration_s>(nullptr, "--duration-s", "S", 0,
        31'536'000, "exit after S seconds; 0 = at a signal"),
};

}  // namespace

std::span<const ServeKnob> serve_knobs() { return kKnobs; }

ServeConfig read_serve_config(std::span<char* const> args, ServeConfig base) {
  for (const ServeKnob& k : kKnobs)
    if (k.env != nullptr)
      k.set(base, env_int_in_range(k.env, k.get(base), k.lo, k.hi));
  for (std::size_t a = 0; a < args.size(); ++a) {
    const std::string_view arg = args[a];
    const ServeKnob* k = std::ranges::find_if(kKnobs, [&](const ServeKnob& row) {
      return row.flag != nullptr && arg == row.flag;
    });
    if (k == std::end(kKnobs))
      throw std::invalid_argument("unknown option '" + std::string(arg) + "'");
    if (k->arg != nullptr && ++a == args.size())
      throw std::invalid_argument("option " + std::string(arg) +
                                  " needs a value");
    if (k->text != nullptr)
      base.*k->text = args[a];
    else
      k->set(base, int_in_range(k->flag, k->arg != nullptr ? args[a] : "1",
                                k->get(base), k->lo, k->hi));
  }
  return base;
}

Server::Server(const model::ParaGraphModel& model,
               const model::CheckpointScalers& scalers, ServeConfig config)
    : model_(&model), config_(config) {
  scalers.apply_to(scaler_set_);
  if (config_.cache)
    cache_ = std::make_unique<ReplyCache>(config_.cache_capacity);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) return;
  listener_.listen(config_.port, config_.backlog);
  listener_.set_nonblocking(true);

  std::size_t nio = config_.io_threads;
  if (nio == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    nio = std::min<std::size_t>(4, hc == 0 ? 1 : hc);
  }
  io_threads_.reserve(nio);
  for (std::size_t i = 0; i < nio; ++i) {
    auto io = std::make_unique<IoThread>();
    io->read_buf.resize(kReadBufBytes);
    io->epoll.add(io->wake.fd(), EPOLLIN, kTagWake);
    io_threads_.push_back(std::move(io));
  }
  // io thread 0 owns the (nonblocking) listener; accepted connections are
  // dealt round-robin across the pool.
  io_threads_[0]->epoll.add(listener_.fd(), EPOLLIN, kTagListener);
  for (std::size_t i = 0; i < nio; ++i)
    io_threads_[i]->thread = std::thread([this, i] { io_loop(i); });

  worker_threads_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    worker_threads_.emplace_back([this, w] { worker_loop(w); });
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stopping_.store(true);

  // 1. No new connections: handle_accept is gated on stopping_, and io
  //    thread 0 — the listener's only reader — closes it once it sees the
  //    flag. Closing it here instead would write the fd while that thread
  //    may still be reading it.
  if (!io_threads_.empty()) io_threads_[0]->wake.signal();

  // 2. Drain: workers finish everything admitted, then exit on the empty
  //    queue (pop_batch returns empty once stopping_ && queue empty). The
  //    io threads keep running meanwhile — late predict frames answer
  //    kShuttingDown (try_enqueue refuses under stopping_).
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_)
    if (t.joinable()) t.join();

  // 3. Any request admitted in the shutdown race after its worker exited
  //    still gets an answer — the drain contract is "every admitted request
  //    is replied to", even if the reply is shutting-down. stopping_ is
  //    visible to every try_enqueue that wins queue_mutex_ from here on,
  //    so the queue stays empty for good.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    while (!queue_.empty()) {
      Pending pending = std::move(queue_.front());
      queue_.pop_front();
      send_error(pending.conn, pending.request_id, ErrorCode::kShuttingDown,
                 "server shutting down", /*completes=*/true);
    }
  }

  // 4. Final flush: io threads push every queued reply byte out (bounded by
  //    a deadline so a peer that stopped reading cannot wedge shutdown),
  //    close all sockets, and exit.
  drain_deadline_ = Clock::now() + std::chrono::seconds(2);
  draining_.store(true);
  for (auto& io : io_threads_) io->wake.signal();
  for (auto& io : io_threads_)
    if (io->thread.joinable()) io->thread.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = stat_connections_.load(std::memory_order_relaxed);
  s.requests_ok = stat_requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = stat_requests_error_.load(std::memory_order_relaxed);
  s.busy_rejected = stat_busy_.load(std::memory_order_relaxed);
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.pings = stat_pings_.load(std::memory_order_relaxed);
  s.accepts_dropped = stat_accepts_dropped_.load(std::memory_order_relaxed);
  s.idle_closed = stat_idle_closed_.load(std::memory_order_relaxed);
  s.read_gated = stat_read_gated_.load(std::memory_order_relaxed);
  s.writev_calls = stat_writev_calls_.load(std::memory_order_relaxed);
  s.reply_frames = stat_reply_frames_.load(std::memory_order_relaxed);
  s.sched_chunks = stat_sched_chunks_.load(std::memory_order_relaxed);
  s.sched_rows = stat_sched_rows_.load(std::memory_order_relaxed);
  s.sched_intra_chunks = stat_sched_intra_.load(std::memory_order_relaxed);
  if (cache_) {
    const CacheStats cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
  }
  return s;
}

// --- reactor --------------------------------------------------------------

void Server::io_loop(std::size_t index) {
  IoThread& io = *io_threads_[index];
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    // Sleep indefinitely unless some timer needs servicing: the idle reaper,
    // an accept cooldown, or the shutdown drain.
    int timeout_ms = -1;
    if (config_.idle_timeout_ms > 0) timeout_ms = 50;
    if (index == 0 && accept_cooldown_until_ != Clock::time_point{})
      timeout_ms = 10;
    if (draining_.load()) timeout_ms = 10;

    const int n = io.epoll.wait(events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagWake) {
        io.wake.drain();
        continue;
      }
      if (tag == kTagListener) {
        handle_accept(io);
        continue;
      }
      // fd-keyed lookup, not a stashed pointer: an earlier event in this
      // same batch may have closed the connection already.
      const auto it = io.conns.find(static_cast<int>(tag));
      if (it == io.conns.end()) continue;
      const ConnectionPtr conn = it->second;  // handlers may erase the entry
      const std::uint32_t ev = events[i].events;
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
        handle_readable(io, conn);
      else if (ev & EPOLLOUT)
        flush_and_update(io, conn);
    }

    adopt_incoming(io);
    process_dirty(io);

    if (index == 0 && stopping_.load() && listener_.valid()) listener_.close();
    if (index == 0 && !stopping_.load() &&
        accept_cooldown_until_ != Clock::time_point{} &&
        Clock::now() >= accept_cooldown_until_) {
      accept_cooldown_until_ = {};
      io.epoll.mod(listener_.fd(), EPOLLIN, kTagListener);
      handle_accept(io);  // drain anything that queued during the cooldown
    }

    reap_idle(io);

    if (draining_.load()) {
      bool pending = false;
      for (const auto& [fd, conn] : io.conns) {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (!conn->write_buf.empty()) {
          pending = true;
          break;
        }
      }
      if (!pending || Clock::now() >= drain_deadline_) break;
    }
  }

  // Drained (or deadline hit): close everything this thread still owns.
  std::vector<ConnectionPtr> victims;
  victims.reserve(io.conns.size());
  for (const auto& [fd, conn] : io.conns) victims.push_back(conn);
  for (const ConnectionPtr& conn : victims) close_connection(io, conn);
  adopt_incoming(io);  // late handoffs: closed immediately under draining_
  if (index == 0) listener_.close();  // if the loop exited before it could
}

void Server::adopt_incoming(IoThread& io) {
  std::vector<ConnectionPtr> batch;
  {
    std::lock_guard<std::mutex> lock(io.mutex);
    if (io.incoming.empty()) return;
    batch.swap(io.incoming);
  }
  const auto now = Clock::now();
  for (ConnectionPtr& conn : batch) {
    if (draining_.load()) {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      conn->closed = true;
      conn->socket.close();
      continue;
    }
    const int fd = conn->socket.fd();
    conn->last_activity = now;
    conn->armed_events = EPOLLIN;
    io.conns.emplace(fd, conn);
    io.epoll.add(fd, EPOLLIN, static_cast<std::uint64_t>(fd));
  }
}

void Server::process_dirty(IoThread& io) {
  std::vector<ConnectionPtr> batch;
  {
    std::lock_guard<std::mutex> lock(io.mutex);
    if (io.dirty.empty()) return;
    batch.swap(io.dirty);
  }
  for (const ConnectionPtr& conn : batch) {
    {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      conn->dirty = false;
    }
    flush_and_update(io, conn);
  }
}

void Server::handle_accept(IoThread& io) {
  if (stopping_.load()) return;
  while (true) {
    int err = 0;
    Socket accepted = listener_.try_accept(err);
    if (!accepted.valid()) {
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) continue;
      // Persistent failure — EMFILE/ENFILE (fd exhaustion), ENOMEM, ... —
      // back off instead of hot-spinning on the still-ready listener: count
      // the drop, disarm listener interest, retry after the cooldown.
      stat_accepts_dropped_.fetch_add(1, std::memory_order_relaxed);
      accept_cooldown_until_ = Clock::now() + kAcceptCooldown;
      io.epoll.mod(listener_.fd(), 0, kTagListener);
      break;
    }
    accepted.set_nodelay(true);
    stat_connections_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(accepted);
    conn->last_activity = Clock::now();
    const std::size_t target = next_io_;
    next_io_ = (next_io_ + 1) % io_threads_.size();
    conn->io_index = target;
    if (target == 0) {
      const int fd = conn->socket.fd();
      conn->armed_events = EPOLLIN;
      io.conns.emplace(fd, conn);
      io.epoll.add(fd, EPOLLIN, static_cast<std::uint64_t>(fd));
    } else {
      IoThread& dst = *io_threads_[target];
      {
        std::lock_guard<std::mutex> lock(dst.mutex);
        dst.incoming.push_back(std::move(conn));
      }
      dst.wake.signal();
    }
  }
}

bool Server::read_gate_engaged(const Connection& conn) const {
  return conn.inflight.load(std::memory_order_relaxed) >=
             config_.conn_inflight_cap ||
         conn.write_queue_bytes.load(std::memory_order_relaxed) >=
             config_.write_queue_cap;
}

void Server::handle_readable(IoThread& io, const ConnectionPtr& conn) {
  conn->last_activity = Clock::now();
  // Stored under write_mutex: enqueue_reply reads the flag on workers.
  const auto mark_read_closed = [&conn] {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->read_closed = true;
  };
  std::vector<FrameAssembler::Frame> frames;
  try {
    while (!conn->read_closed) {
      // Backpressure: stop pulling bytes off a connection that already has
      // its fill of admitted requests or unwritten reply bytes. The bytes
      // wait in the kernel buffer; flush_and_update disarms EPOLLIN below
      // so the reactor does not spin on the still-ready socket.
      if (read_gate_engaged(*conn)) break;

      const Socket::ReadResult r =
          conn->socket.read_some(io.read_buf.data(), io.read_buf.size());
      if (r.status == Socket::ReadStatus::kWouldBlock) break;
      if (r.status == Socket::ReadStatus::kEof) {
        mark_read_closed();
        break;
      }

      frames.clear();
      const bool ok = conn->assembler.consume(io.read_buf.data(), r.bytes,
                                              frames);
      for (FrameAssembler::Frame& f : frames)
        process_frame(conn, std::move(f));
      if (!ok) {
        // The stream's framing cannot be trusted any more: answer, then
        // stop reading. Replies already owed (frames completed earlier,
        // including in this very span) still flush before the close.
        const FrameHeader& bad = conn->assembler.fatal_header();
        switch (conn->assembler.fatal_verdict()) {
          case HeaderVerdict::kBadMagic:
            send_error(conn, 0, ErrorCode::kMalformedFrame,
                       "bad frame magic (expected PGSV)");
            break;
          case HeaderVerdict::kBadVersion:
            send_error(conn, bad.request_id, ErrorCode::kBadVersion,
                       "unsupported protocol version " +
                           std::to_string(bad.version) +
                           " (this server speaks " +
                           std::to_string(kProtocolVersion) + ")");
            break;
          case HeaderVerdict::kOversized:
            send_error(conn, bad.request_id, ErrorCode::kMalformedFrame,
                       "frame payload larger than the protocol cap");
            break;
          case HeaderVerdict::kOk:
            break;  // unreachable: consume() only fails on a bad verdict
        }
        mark_read_closed();
        break;
      }
      // A short read drained the socket; the next readiness event (level-
      // triggered) resumes if more arrived meanwhile.
      if (r.bytes < io.read_buf.size()) break;
    }
  } catch (const SocketError&) {
    // Peer reset mid-read: nothing left to answer.
    close_connection(io, conn);
    return;
  }
  flush_and_update(io, conn);
}

void Server::process_frame(const ConnectionPtr& conn,
                           FrameAssembler::Frame&& frame) {
  const FrameHeader& header = frame.header;
  switch (header.kind) {
    case FrameKind::kPing:
      stat_pings_.fetch_add(1, std::memory_order_relaxed);
      enqueue_reply(conn, FrameKind::kPongReply, header.request_id, nullptr,
                    0);
      return;

    case FrameKind::kPredictRequest: {
      if (frame.payload.empty()) {
        send_error(conn, header.request_id, ErrorCode::kBadPayload,
                   "zero-length predict payload (expected a .psample "
                   "container)");
        return;  // request-scoped failure: the connection lives on
      }

      // Reply cache: a byte-identical repeat of a cached request needs no
      // decode, no queue hop, and no forward pass — the whole pipeline is
      // deterministic in the payload bytes, so the stored prediction IS
      // what recomputation would produce.
      if (cache_ != nullptr) {
        if (const auto hit = cache_->lookup(frame.payload)) {
          PredictReply reply;
          reply.scaled = *hit;
          reply.runtime_us = scaler_set_.from_target(*hit);
          const auto out = encode_predict_reply_payload(reply);
          stat_requests_ok_.fetch_add(1, std::memory_order_relaxed);
          enqueue_reply(conn, FrameKind::kPredictReply, header.request_id,
                        out.data(), out.size());
          return;
        }
      }

      Pending pending;
      pending.conn = conn;
      pending.request_id = header.request_id;
      try {
        model::TrainingSample sample =
            io::read_sample(frame.payload.data(), frame.payload.size());
        pending.graph = std::move(sample.graph);
        pending.aux = sample.aux;
        if (cache_ != nullptr) pending.bytes = std::move(frame.payload);
      } catch (const io::FormatError& e) {
        // Per-request error isolation: one malformed sample answers with an
        // error reply and never disturbs the process or this connection.
        send_error(conn, header.request_id, ErrorCode::kBadPayload, e.what());
        return;
      }

      // Admit: inflight counts up BEFORE the queue sees the request, so the
      // read gate can never undercount; every non-kOk outcome answers with
      // completes=true to count back down.
      conn->inflight.fetch_add(1, std::memory_order_relaxed);
      switch (try_enqueue(std::move(pending))) {
        case Enqueue::kOk:
          return;
        case Enqueue::kBusy:
          stat_busy_.fetch_add(1, std::memory_order_relaxed);
          enqueue_reply(conn, FrameKind::kBusyReply, header.request_id,
                        nullptr, 0, /*completes=*/true);
          return;
        case Enqueue::kShuttingDown:
          send_error(conn, header.request_id, ErrorCode::kShuttingDown,
                     "server shutting down", /*completes=*/true);
          return;
      }
      return;
    }

    default:
      // Unknown or reply-direction kind; the assembler already consumed the
      // payload, so just answer and keep the connection.
      send_error(conn, header.request_id, ErrorCode::kBadKind,
                 "unexpected frame kind " +
                     std::to_string(static_cast<unsigned>(header.kind)));
      return;
  }
}

void Server::reap_idle(IoThread& io) {
  if (config_.idle_timeout_ms <= 0) return;
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<ConnectionPtr> victims;
  for (const auto& [fd, conn] : io.conns) {
    // "Idle" means nothing owed in either direction — a connection merely
    // waiting on a slow batch or a slow flush is live, not idle.
    if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
    if (conn->write_queue_bytes.load(std::memory_order_relaxed) > 0) continue;
    if (now - conn->last_activity >= limit) victims.push_back(conn);
  }
  for (const ConnectionPtr& conn : victims) {
    stat_idle_closed_.fetch_add(1, std::memory_order_relaxed);
    close_connection(io, conn);
  }
}

void Server::flush_and_update(IoThread& io, const ConnectionPtr& conn) {
  bool should_close = false;
  std::uint32_t want = 0;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->closed) return;
    try {
      if (!conn->write_buf.empty()) send_queued(*conn);
    } catch (const SocketError&) {
      // The peer is gone; dropping its queued replies is the correct
      // outcome.
      should_close = true;
    }
    if (!should_close) {
      const bool empty = conn->write_buf.empty();
      if (empty && conn->read_closed &&
          conn->inflight.load(std::memory_order_relaxed) == 0) {
        // Nothing more will ever be owed: requests all answered, answers
        // all written, no more requests coming.
        should_close = true;
      } else {
        const bool gated = read_gate_engaged(*conn);
        if (gated && !conn->read_gated)
          stat_read_gated_.fetch_add(1, std::memory_order_relaxed);
        conn->read_gated = gated;
        if (!conn->read_closed && !gated) want |= EPOLLIN;
        if (!empty) want |= EPOLLOUT;
      }
    }
  }
  if (should_close) {
    close_connection(io, conn);
    return;
  }
  if (want != conn->armed_events) {
    const int fd = conn->socket.fd();
    io.epoll.mod(fd, want, static_cast<std::uint64_t>(fd));
    conn->armed_events = want;
  }
}

void Server::close_connection(IoThread& io, const ConnectionPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->closed) return;
    conn->closed = true;
    conn->write_buf = std::vector<std::uint8_t>();
    conn->write_queue_bytes.store(0, std::memory_order_relaxed);
  }
  const int fd = conn->socket.fd();
  io.epoll.del(fd);
  conn->socket.close();
  io.conns.erase(fd);
}

// --- queue / workers ------------------------------------------------------

Server::Enqueue Server::try_enqueue(Pending&& pending) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Checked under the lock so stop()'s leftover sweep (which also holds
    // queue_mutex_ after setting stopping_) can never miss an admission.
    if (stopping_.load()) return Enqueue::kShuttingDown;
    if (queue_.size() >= config_.queue_depth) return Enqueue::kBusy;
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return Enqueue::kOk;
}

std::vector<Server::Pending> Server::pop_batch() {
  std::vector<Pending> batch;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_cv_.wait(lock, [this] { return !queue_.empty() || stopping_.load(); });
  if (queue_.empty()) return batch;  // stopping and fully drained

  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(config_.batch_window_us);
  while (batch.size() < config_.batch_max) {
    if (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      continue;
    }
    // Draining: never sit out the window on an empty queue during shutdown.
    if (stopping_.load()) break;
    if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  return batch;
}

void Server::worker_loop(std::size_t /*worker_index*/) {
  // Each worker owns its engine shard: InferenceEngine keys its per-thread
  // state by OpenMP thread ids, which distinct std::threads share — one
  // engine per worker keeps the workspace arenas disjoint. OpenMP's thread
  // count is per calling thread, so it is set here, before the engine sizes
  // its pool; the main thread's setting never reaches a worker.
  set_max_threads(static_cast<int>(config_.engine_threads));
  model::InferenceEngine engine(*model_);

  std::vector<model::EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  std::vector<double> scaled;
  while (true) {
    std::vector<Pending> batch = pop_batch();
    if (batch.empty()) return;

    graphs.clear();
    aux.clear();
    graphs.reserve(batch.size());
    aux.reserve(batch.size());
    for (Pending& p : batch) {
      graphs.push_back(std::move(p.graph));
      aux.push_back(p.aux);
    }
    scaled.assign(batch.size(), 0.0);
    const model::ScheduleStats before = engine.schedule_stats();
    try {
      engine.predict_batch(graphs, aux, scaled);
      // Insert before replying: a client that repeats a request after
      // reading its reply must hit.
      if (cache_ != nullptr)
        for (std::size_t i = 0; i < batch.size(); ++i)
          cache_->insert(std::move(batch[i].bytes), scaled[i]);
    } catch (const std::exception& e) {
      for (const Pending& p : batch)
        send_error(p.conn, p.request_id, ErrorCode::kInternal, e.what(),
                   /*completes=*/true);
      continue;
    }
    stat_batches_.fetch_add(1, std::memory_order_relaxed);
    // Fold this batch's scheduler counters (the worker-local engine's
    // delta) into the server-wide totals so stats() sees all shards.
    const model::ScheduleStats after = engine.schedule_stats();
    stat_sched_chunks_.fetch_add(after.chunks - before.chunks,
                                 std::memory_order_relaxed);
    stat_sched_rows_.fetch_add(after.rows - before.rows,
                               std::memory_order_relaxed);
    stat_sched_intra_.fetch_add(after.intra_chunks - before.intra_chunks,
                                std::memory_order_relaxed);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      PredictReply reply;
      reply.scaled = scaled[i];
      reply.runtime_us = scaler_set_.from_target(scaled[i]);
      const auto payload = encode_predict_reply_payload(reply);
      // Count before writing: a client that reads stats() right after its
      // reply must already see this request.
      stat_requests_ok_.fetch_add(1, std::memory_order_relaxed);
      enqueue_reply(batch[i].conn, FrameKind::kPredictReply,
                    batch[i].request_id, payload.data(), payload.size(),
                    /*completes=*/true);
    }
  }
}

// --- replies --------------------------------------------------------------

void Server::send_error(const ConnectionPtr& conn, std::uint64_t request_id,
                        ErrorCode code, const std::string& message,
                        bool completes) {
  ErrorReply reply;
  reply.code = code;
  reply.message = message;
  const auto payload = encode_error_reply_payload(reply);
  stat_requests_error_.fetch_add(1, std::memory_order_relaxed);
  enqueue_reply(conn, FrameKind::kErrorReply, request_id, payload.data(),
                payload.size(), completes);
}

void Server::enqueue_reply(const ConnectionPtr& conn, FrameKind kind,
                           std::uint64_t request_id, const void* payload,
                           std::size_t payload_bytes, bool completes) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    // The inflight count-down happens here, under the same mutex as the
    // append and the close check in flush_and_update: the owning io thread
    // can never observe "buffer empty + inflight 0" with this reply still
    // unqueued, so the last reply on a read-closed connection is never
    // dropped by an early close.
    if (completes) conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (!conn->closed) {
      const bool was_empty = conn->write_buf.empty();
      append_frame(conn->write_buf, kind, request_id, payload, payload_bytes);
      conn->write_queue_bytes.store(conn->write_buf.size(),
                                    std::memory_order_relaxed);
      stat_reply_frames_.fetch_add(1, std::memory_order_relaxed);
      // With nothing queued ahead of it the frame goes straight to the
      // kernel from this thread (the mutex serialises all writers of this
      // socket): the common case costs one send and no reactor wakeup.
      // Bytes queued ahead mean the socket is full, and the reactor sends
      // them on EPOLLOUT together with this frame.
      if (was_empty) {
        try {
          send_queued(*conn);
        } catch (const SocketError&) {
          // Hard error: leave the bytes queued; the reactor's send hits the
          // same error and closes the connection (only the owning io
          // thread may close).
        }
      }
      // Wake the owning io thread only when there is reactor work left:
      // unsent bytes (arm EPOLLOUT), an engaged read gate that this
      // completion may release (re-arm EPOLLIN), or a finished connection
      // to close.
      const bool work_left = !conn->write_buf.empty();
      const bool gate_recheck = conn->read_gated;
      const bool close_ready =
          !work_left && conn->read_closed &&
          conn->inflight.load(std::memory_order_relaxed) == 0;
      if ((work_left || gate_recheck || close_ready) && !conn->dirty) {
        conn->dirty = true;
        notify = true;
      }
    }
    // closed: the peer is gone (or shutdown passed); dropping is correct.
  }
  if (notify) {
    IoThread& io = *io_threads_[conn->io_index];
    {
      std::lock_guard<std::mutex> lock(io.mutex);
      io.dirty.push_back(conn);
    }
    io.wake.signal();
  }
}

void Server::send_queued(Connection& conn) {
  std::vector<std::uint8_t>& buf = conn.write_buf;
  const std::size_t wrote = conn.socket.write_some(buf.data(), buf.size());
  if (wrote == 0) return;  // kernel send buffer full: wait for EPOLLOUT
  stat_writev_calls_.fetch_add(1, std::memory_order_relaxed);
  // A partial send means the kernel buffer just filled: the rest waits for
  // EPOLLOUT, and the read gate keeps it near write_queue_cap.
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(wrote));
  if (buf.empty() && buf.capacity() > kReadBufBytes)
    buf = std::vector<std::uint8_t>();
  conn.write_queue_bytes.store(buf.size(), std::memory_order_relaxed);
}

}  // namespace pg::serve
