// paragraph-serve core: a resident prediction service over the frame
// protocol in serve/protocol.hpp.
//
// Request flow (event-driven reactor — no thread ever belongs to one
// connection):
//
//   io threads (PARAGRAPH_SERVE_IO_THREADS, default min(4, cores)), each
//   running nonblocking sockets behind its own epoll_wait:
//        accept:  io thread 0 owns the (nonblocking) listener, and closes
//                 it on stop; accepted connections are assigned
//                 round-robin across io threads
//        read:    readiness events feed a per-connection FrameAssembler —
//                 partial headers/payloads accumulate as ~bytes of state
//                 instead of parking a blocked thread; complete predict
//                 frames decode straight from their bytes (a memory
//                 io::Source) and try_push into the admission queue
//                 (full queue => immediate kBusyReply backpressure)
//        write:   reply frames append to one contiguous byte buffer per
//                 connection. The thread whose append finds it empty
//                 sends right away; bytes the kernel does not take wait
//                 for the owning io thread, which sends everything queued
//                 in one send(2) on EPOLLOUT, so replies that pile up
//                 behind a full socket leave together
//        gate:    a connection whose admitted-but-unanswered requests
//                 exceed conn_inflight_cap, or whose queued reply bytes
//                 exceed write_queue_cap (a peer that never reads), stops
//                 being polled for reads until it drains (level-triggered
//                 backpressure — bytes wait in the kernel buffer)
//        timers:  idle connections past idle_timeout_ms are closed by the
//                 reactor's timer pass (no per-socket SO_RCVTIMEO)
//   admission queue (bounded, FIFO)
//        worker threads: pop the first request, then keep collecting until
//                batch_max requests are in hand or batch_window_us has
//                elapsed since the first pop (the dynamic batching window),
//                run ONE InferenceEngine::predict_batch over the coalesced
//                graphs, queue each reply back on its own connection.
//
// Each worker owns a private InferenceEngine shard (engine per-thread state
// is keyed by OpenMP thread ids, which std::threads share — sharding keeps
// the arenas disjoint). Because the fused engine is bitwise-identical to
// predict_one regardless of how graphs are coalesced, every reply is
// bitwise-equal to a single-threaded in-process prediction no matter how
// the batching window cut the traffic (tests/serve_test.cpp pins this).
// Reply buffering moves bytes, never values: frames are concatenated
// verbatim, so the wire bytes are identical to one write_all per frame.
//
// The daemon's thread count is FIXED at io_threads + workers regardless of
// connection count — thousands of mostly-idle connections cost a few
// hundred bytes of state each, not a blocked reader thread each
// (tests/serve_concurrency_test.cpp pins the thread ceiling under 512 idle
// + 32 active connections). Each worker applies engine_threads to its own
// OpenMP team before building its engine shard (default 1, so the count
// holds exactly; N adds N - 1 team threads per worker), whatever the
// process-wide OpenMP default is.
//
// Shutdown (stop()): io thread 0 closes the listener; io threads stop
// admitting (late predict frames answer kShuttingDown); workers drain
// everything already admitted; any request admitted in the shutdown race
// still gets a kShuttingDown reply; io threads flush every queued reply
// (bounded drain deadline for peers that stopped reading), then close all
// sockets. One malformed frame never takes down the process: framing
// errors answer with kErrorReply and at worst close that one connection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "model/checkpoint.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "model/sample.hpp"
#include "serve/frame_assembler.hpp"
#include "serve/protocol.hpp"
#include "serve/reply_cache.hpp"
#include "serve/socket.hpp"

namespace pg::serve {

struct ServeConfig {
  std::uint16_t port = 0;  // 0 = kernel-chosen ephemeral; see Server::port()
  int backlog = 64;
  std::size_t queue_depth = 256;  // admission-queue bound (backpressure)
  std::size_t batch_max = 16;     // flush the batching window at N graphs...
  std::uint32_t batch_window_us = 200;  // ...or T microseconds, whichever first
  std::size_t workers = 2;        // InferenceEngine shards
  std::size_t engine_threads = 1;  // OpenMP threads per shard (per worker)
  std::size_t io_threads = 0;     // reactor threads; 0 = min(4, cores)
  // Per-connection read-gating caps (level-triggered backpressure): stop
  // polling a connection for reads while it has this many admitted-but-
  // unanswered requests, or this many queued-but-unwritten reply bytes.
  std::size_t conn_inflight_cap = 64;
  std::size_t write_queue_cap = 1 << 20;  // bytes
  int idle_timeout_ms = 0;  // reactor-timer idle close; 0 = never
  // Reply cache (serve/reply_cache.hpp): payload bytes -> prediction LRU.
  // Off by default; either way replies stay bitwise-identical to predict_one.
  bool cache = false;
  std::size_t cache_capacity = 1024;
  // The paragraph-serve daemon's own settings; the Server ignores them.
  std::string checkpoint;
  std::string port_file;
  std::string simd;
  std::size_t hidden_dim = model::ModelConfig{}.hidden_dim;
  std::int64_t duration_s = 0;  // 0 = run until a signal
};

/// One daemon setting: its environment variable and/or paragraph-serve flag
/// and the ServeConfig field it sets, through pg::int_in_range in [lo, hi]
/// (get/set) or verbatim (`text`).
struct ServeKnob {
  const char* env;   // nullptr: flag only
  const char* flag;  // nullptr: environment only
  const char* arg;   // the flag's value in usage text; nullptr: bare flag = 1
  std::int64_t lo, hi;
  const char* help;
  std::int64_t (*get)(const ServeConfig&);
  void (*set)(ServeConfig&, std::int64_t);
  std::string ServeConfig::*text;
};

/// Every daemon setting; paragraph-serve's usage text is printed from it.
std::span<const ServeKnob> serve_knobs();

/// Reads every row of serve_knobs(): a flag in `args` beats its variable,
/// which beats `base`. Throws std::invalid_argument on an option that is
/// not in the table or a flag without its value.
ServeConfig read_serve_config(std::span<char* const> args,
                              ServeConfig base = {});

/// read_serve_config with no flags: the environment over the defaults.
inline ServeConfig serve_config_from_env() { return read_serve_config({}); }

/// Monotonic counters; safe to read while the server runs.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests_ok = 0;      // predict requests answered
  std::uint64_t requests_error = 0;   // error replies sent
  std::uint64_t busy_rejected = 0;    // kBusyReply backpressure responses
  std::uint64_t batches = 0;          // fused predict_batch calls
  std::uint64_t pings = 0;
  // Reactor counters. reply_frames / writev_calls is the write-coalescing
  // ratio: how many frames one reply send carried on average.
  std::uint64_t accepts_dropped = 0;  // accept failures (EMFILE, ...) backed off
  std::uint64_t idle_closed = 0;      // connections reaped by the idle timer
  std::uint64_t read_gated = 0;       // times a connection's reads were paused
  std::uint64_t writev_calls = 0;     // reply sends that moved bytes
  std::uint64_t reply_frames = 0;     // reply frames queued to live conns
  // Scheduler counters aggregated over every worker's engine shard (the
  // per-batch deltas of model::ScheduleStats): fused chunks dispatched,
  // node rows packed, and chunks run under intra-batch parallelism.
  std::uint64_t sched_chunks = 0;
  std::uint64_t sched_rows = 0;
  std::uint64_t sched_intra_chunks = 0;
  // Reply-cache counters (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

class Server {
 public:
  /// The model must stay alive (and unmodified) for the server's lifetime;
  /// scalers are copied. Construction does not open any socket.
  Server(const model::ParaGraphModel& model,
         const model::CheckpointScalers& scalers, ServeConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens and spawns the io/worker threads.
  void start();

  /// Graceful shutdown: stop accepting, drain the admission queue, flush
  /// every queued reply, join all threads. Idempotent; also run by the
  /// destructor.
  void stop();

  /// The actual bound port (after start(); resolves config port 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.bound_port(); }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  /// Reactor threads actually spawned (resolves config io_threads = 0).
  [[nodiscard]] std::size_t io_thread_count() const {
    return io_threads_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    Socket socket;
    std::size_t io_index = 0;  // owning io thread

    // Read-side state, written only by the owning io thread. read_closed
    // and read_gated are written under write_mutex too: enqueue_reply reads
    // both on worker threads.
    FrameAssembler assembler;
    Clock::time_point last_activity{};
    bool read_closed = false;     // peer EOF or fatal framing error
    bool read_gated = false;      // backpressure pause currently engaged
    std::uint32_t armed_events = 0;  // events currently registered in epoll

    // Admitted-but-unanswered requests (read by the io thread's gate, also
    // the "still owed a reply" count that delays the final close).
    std::atomic<std::uint32_t> inflight{0};

    // Unsent reply bytes in reply order; a partial send erases the sent
    // prefix, so the buffer may start mid-frame. Any thread appends and
    // sends under write_mutex; write_queue_bytes mirrors its size for the
    // lock-free read gate.
    std::mutex write_mutex;
    std::vector<std::uint8_t> write_buf;
    std::atomic<std::size_t> write_queue_bytes{0};
    bool closed = false;  // fd gone — drop any further replies
    bool dirty = false;   // already queued on the io thread's dirty list
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct IoThread {
    EpollSet epoll;
    WakeFd wake;
    std::thread thread;
    std::mutex mutex;  // guards incoming + dirty (handoff from other threads)
    std::vector<ConnectionPtr> incoming;
    std::vector<ConnectionPtr> dirty;
    // Owning connection table, io thread only. Keyed by fd (the epoll tag).
    std::unordered_map<int, ConnectionPtr> conns;
    std::vector<std::uint8_t> read_buf;  // per-thread read scratch
  };

  struct Pending {
    ConnectionPtr conn;
    std::uint64_t request_id = 0;
    model::EncodedGraph graph;
    std::array<float, 2> aux{};
    std::string bytes;  // wire payload, kept (cache on) to key insertions
  };

  // Reactor (io threads).
  void io_loop(std::size_t index);
  void adopt_incoming(IoThread& io);
  void process_dirty(IoThread& io);
  void handle_accept(IoThread& io);
  void handle_readable(IoThread& io, const ConnectionPtr& conn);
  void process_frame(const ConnectionPtr& conn, FrameAssembler::Frame&& frame);
  void reap_idle(IoThread& io);
  /// Sends the queued reply bytes, then re-arms epoll interest (EPOLLOUT
  /// while bytes remain, EPOLLIN unless gated/closed) and closes the
  /// connection once it is fully finished. The single point where epoll
  /// interest changes — io thread only.
  void flush_and_update(IoThread& io, const ConnectionPtr& conn);
  void close_connection(IoThread& io, const ConnectionPtr& conn);
  [[nodiscard]] bool read_gate_engaged(const Connection& conn) const;

  // Replies (any thread): append a frame to the connection's buffer, send
  // it if nothing was queued ahead of it, and wake the owner if work is
  // left. `completes` marks the final answer to an admitted request — the
  // inflight count-down happens inside enqueue_reply, under write_mutex,
  // so the close check can never race it.
  void enqueue_reply(const ConnectionPtr& conn, FrameKind kind,
                     std::uint64_t request_id, const void* payload,
                     std::size_t payload_bytes, bool completes = false);
  void send_error(const ConnectionPtr& conn, std::uint64_t request_id,
                  ErrorCode code, const std::string& message,
                  bool completes = false);
  /// One send(2) of conn.write_buf; erases what the kernel took. Caller
  /// holds write_mutex. Throws SocketError on a hard error.
  void send_queued(Connection& conn);

  enum class Enqueue { kOk, kBusy, kShuttingDown };
  Enqueue try_enqueue(Pending&& pending);
  /// Pops a coalesced batch honouring batch_max/batch_window_us. Empty
  /// result means the server is draining and fully drained.
  std::vector<Pending> pop_batch();
  void worker_loop(std::size_t worker_index);

  const model::ParaGraphModel* model_;
  model::SampleSet scaler_set_;  // from_target() for microsecond replies
  ServeConfig config_;
  std::unique_ptr<ReplyCache> cache_;  // null when config_.cache is off

  Listener listener_;  // after start(), io thread 0 alone touches its fd
  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::size_t next_io_ = 0;  // round-robin assignment (io thread 0 only)
  Clock::time_point accept_cooldown_until_{};  // io thread 0 only
  std::vector<std::thread> worker_threads_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};  // final reply flush in progress
  std::atomic<bool> stopped_{false};
  Clock::time_point drain_deadline_{};

  // Stats counters (relaxed; read via stats()).
  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_ok_{0};
  std::atomic<std::uint64_t> stat_requests_error_{0};
  std::atomic<std::uint64_t> stat_busy_{0};
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_pings_{0};
  std::atomic<std::uint64_t> stat_accepts_dropped_{0};
  std::atomic<std::uint64_t> stat_idle_closed_{0};
  std::atomic<std::uint64_t> stat_read_gated_{0};
  std::atomic<std::uint64_t> stat_writev_calls_{0};
  std::atomic<std::uint64_t> stat_reply_frames_{0};
  std::atomic<std::uint64_t> stat_sched_chunks_{0};
  std::atomic<std::uint64_t> stat_sched_rows_{0};
  std::atomic<std::uint64_t> stat_sched_intra_{0};
};

}  // namespace pg::serve
