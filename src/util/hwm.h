// Retire/seal accounting for the streaming window machinery.
//
// The memory contract (README "Any-time results & memory model") says
// the resident monitor may retain a segment's raw clauses only until
// its per-day drain has filed them; the monitor reports every
// retain/retire transition to an HwmGauge and exposes the gauge's
// high-water mark, so tests and benchmarks can assert the bound instead
// of trusting it.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/check.h"

namespace ct::util {

/// A concurrent gauge with a monotone high-water mark.  add() on
/// retain, sub() on retire/seal; peak() is the maximum the gauge ever
/// reached.  All operations are lock-free and safe from any thread.
///
/// Underflow contract: retires must never outrun retains.  A sub() that
/// would take the running total negative is an accounting bug in the
/// caller — concurrent add()s can only make the observed total *higher*
/// than the retired amount, never lower, so a negative post-sub value
/// proves over-retirement regardless of interleaving.  Debug builds
/// abort on it (CT_DCHECK); release builds clamp the total back to zero
/// and count the event in underflows(), so a peak()/current() read
/// never reports a negative working set as "within bounds".
class HwmGauge {
 public:
  void add(std::int64_t n) {
    const std::int64_t now = current_.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  void sub(std::int64_t n) {
    const std::int64_t now = current_.fetch_sub(n, std::memory_order_relaxed) - n;
    if (now < 0) {
      CT_DCHECK(now >= 0, "HwmGauge::sub retired more than was ever added");
      underflows_.fetch_add(1, std::memory_order_relaxed);
      // Clamp: restore the over-subtracted amount so the gauge reads 0,
      // not a negative working set.  Concurrent add()s interleaved with
      // the two RMWs only shift the total upward, which the clamp
      // preserves (it adds back exactly the observed deficit).
      current_.fetch_add(-now, std::memory_order_relaxed);
    }
  }

  std::int64_t current() const { return current_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Number of sub() calls that drove the total negative (always 0 in a
  /// correct pipeline; asserted by the memory-accounting suite).
  std::int64_t underflows() const { return underflows_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::int64_t> underflows_{0};
};

}  // namespace ct::util
