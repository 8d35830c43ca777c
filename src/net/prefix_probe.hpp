// PrefixProbe — the ready-made INetProbe that attests the paper's safety
// observable on the wire: every receiver's output is a prefix of its
// input at all times, not only at the end.
//
// on_item(session, i) must arrive in exactly ascending order per session
// (the session adapter has already equality-checked the written item
// against expected[i]).  on_rehydrate seeds a session's next expected
// index from its restored position, so a superseded checkpoint re-earns
// items but never skips or repeats one within a server generation.
// Thread-safe: hooks fire concurrently from the mux pump and workers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/mux.hpp"

namespace stpx::net {

class PrefixProbe final : public INetProbe {
 public:
  /// Tracks the order of sessions [0, max_sessions); hooks for larger
  /// ids still count in the tallies but are not order-checked.
  explicit PrefixProbe(std::size_t max_sessions)
      : next_(max_sessions), restored_(max_sessions) {}

  void on_item(std::uint32_t session, std::size_t index) override {
    items_.fetch_add(1, std::memory_order_relaxed);
    if (session < next_.size() &&
        next_[session].fetch_add(1, std::memory_order_relaxed) != index) {
      out_of_order_.store(true, std::memory_order_relaxed);
    }
  }
  void on_session_state(std::uint32_t, SessionState s) override {
    entered_[static_cast<std::size_t>(s)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void on_rehydrate(std::uint32_t session, std::size_t position,
                    SessionState) override {
    rehydrated_.fetch_add(1, std::memory_order_relaxed);
    if (session >= next_.size()) return;
    next_[session].store(position, std::memory_order_relaxed);
    restored_[session].store(position, std::memory_order_relaxed);
  }

  /// True once any tracked session wrote an item out of prefix order.
  bool out_of_order() const { return out_of_order_.load(); }
  std::uint64_t items() const { return items_.load(); }
  /// How many sessions entered state `s` (only terminal states fire).
  std::uint64_t entered(SessionState s) const {
    return entered_[static_cast<std::size_t>(s)].load();
  }
  std::uint64_t rehydrated() const { return rehydrated_.load(); }
  /// Session `i`'s next expected index: its items so far, counted from
  /// the restored position when it was rehydrated.
  std::size_t progress(std::size_t i) const { return next_[i].load(); }
  /// The position session `i` was rehydrated at (0 if it never was).
  std::size_t restored(std::size_t i) const { return restored_[i].load(); }
  /// Smallest progress across the first `n` tracked sessions.
  std::size_t min_progress(std::size_t n) const {
    std::size_t lo = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < std::min(n, next_.size()); ++i) {
      lo = std::min(lo, progress(i));
    }
    return lo;
  }

 private:
  std::vector<std::atomic<std::size_t>> next_;
  std::vector<std::atomic<std::size_t>> restored_;
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> rehydrated_{0};
  std::atomic<std::uint64_t> entered_[5] = {};  // by SessionState
  static_assert(static_cast<int>(SessionState::kRecoveryViolation) == 4);
  std::atomic<bool> out_of_order_{false};
};

}  // namespace stpx::net
