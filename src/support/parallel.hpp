// The OpenMP runtime queries, and self-gating block parallelism for the
// intra-batch split points.
//
// max_threads(), thread_index(), in_parallel() and set_max_threads() are
// the only calls into the OpenMP runtime outside `#pragma omp` lines; a
// build without OpenMP (_OPENMP undefined) gets their serial answers.
// Include this header only from targets that link pg_openmp: an inline
// function must read the same in every translation unit, and one compiled
// without the OpenMP flags would hold the serial bodies, which the linker
// may then pick for the whole program.
//
// parallel_for_blocks cuts an index range [0, n) into at most
// omp_get_max_threads() contiguous blocks and runs `fn(lo, hi)` on each.
// Every split point in the predict path partitions *independent outputs*
// (disjoint node rows, disjoint destination groups, disjoint pooled
// segments), so each block computes exactly the FP operations the serial
// loop would — identical inputs, identical per-element order — and results
// are bitwise-equal to the serial pass whatever the block count.
//
// The helper stays serial (one fn(0, n) call on the current thread) when:
//   - the caller is already inside an active parallel region
//     (omp_in_parallel()) — the engine's chunk fan-out and the trainer's
//     gradient chunks own the cores there, and nested teams would
//     oversubscribe;
//   - OpenMP has one thread (omp_get_max_threads() <= 1);
//   - n < 2 * grain — too little work to amortise a fork/join.
// `grain` is the minimum per-block work in the caller's units (rows,
// groups, elements); blocks never shrink below it.
//
// LoopFailures is the one way a parallel loop reports a failing iteration:
// an exception must not leave an OpenMP region (that calls std::terminate),
// so each iteration body runs inside run(i, ...) and rethrow() after the
// loop throws the failure at the lowest index — the one a serial pass would
// have hit first — whatever the thread count or schedule.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstddef>
#include <exception>

namespace pg {

/// Threads a parallel region started here would get (omp_get_max_threads).
inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// The calling thread's index in its team, 0 outside any region
/// (omp_get_thread_num).
inline int thread_index() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// True inside an active parallel region (omp_in_parallel).
inline bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Sets the calling thread's team size for later regions
/// (omp_set_num_threads).
inline void set_max_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Number of blocks parallel_for_blocks would use for `n` work units at
/// `grain` units per block minimum; 1 means "stays serial".
inline int parallel_lanes(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = 1;
  if (n < 2 * grain) return 1;
  if (in_parallel()) return 1;
  const int threads = max_threads();
  if (threads <= 1) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), n / grain));
}

/// Runs fn(lo, hi) over an even cut of [0, n) into parallel_lanes blocks.
/// fn must write only outputs indexed by its own [lo, hi) — under that
/// contract the result is bitwise-identical to fn(0, n).
template <typename Fn>
void parallel_for_blocks(std::size_t n, std::size_t grain, Fn&& fn) {
  const int lanes = parallel_lanes(n, grain);
  if (lanes <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
#pragma omp parallel for schedule(static)
  for (int b = 0; b < lanes; ++b) {
    const std::size_t lo = n * static_cast<std::size_t>(b) /
                           static_cast<std::size_t>(lanes);
    const std::size_t hi = n * (static_cast<std::size_t>(b) + 1) /
                           static_cast<std::size_t>(lanes);
    fn(lo, hi);
  }
}

/// Worker count for a loop that pins its team: `threads` > 0 as given,
/// otherwise the OpenMP default.
inline int team_size(int threads) {
  return threads > 0 ? threads : max_threads();
}

/// Keeps the lowest-index exception thrown by the iterations of a parallel
/// loop (see the file comment). The loop and its schedule stay at the call
/// site:
///
///   LoopFailures failures;
///   #pragma omp parallel for schedule(dynamic, 8)
///   for (std::size_t i = 0; i < n; ++i) failures.run(i, [&] { work(i); });
///   failures.rethrow();
class LoopFailures {
 public:
  /// Runs fn() as iteration `i`; an exception it throws is kept, not
  /// propagated.
  template <typename Fn>
  void run(std::size_t i, Fn&& fn) noexcept {
    try {
      fn();
    } catch (...) {
#pragma omp critical(pg_loop_failures)
      if (error_ == nullptr || i < index_) {
        error_ = std::current_exception();
        index_ = i;
      }
    }
  }

  /// After the loop: rethrows the lowest-index failure, if any.
  void rethrow() const {
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::size_t index_ = 0;
};

}  // namespace pg
