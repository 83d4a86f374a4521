// Admission control: a bounded pending-work gate plus the structured
// kOverloaded status it rejects with. When the serving tier is saturated,
// queueing more work only grows latency for everyone; the gate instead
// sheds load deterministically — the caller gets StatusCode::kOverloaded
// with a machine-readable "retry_after_ms=N" hint in the message, retries
// after the hint, and the system stays responsive for the work it already
// admitted. Both the Router (client-side fan-out) and the ShardServer's
// request queue gate through this class.
//
// Depth semantics: "pending" counts work that has entered the gate and not
// yet exited — queued AND executing. With limit L, the L+1-th concurrent
// entry is rejected. limit 0 disables the gate (always admits), which is
// the historical queue-unboundedly behavior.

#ifndef JOINMI_COMMON_ADMISSION_H_
#define JOINMI_COMMON_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace joinmi {

/// \brief Builds the structured rejection: kOverloaded, with a message
/// naming the depth/limit and ending in the "retry_after_ms=N" hint that
/// RetryAfterHintMs parses back out.
Status MakeOverloadedStatus(size_t depth, size_t limit, int retry_after_ms);

/// \brief Extracts the retry-after hint from an Overloaded status message;
/// -1 when the status carries none (wrong code, or a foreign message).
int RetryAfterHintMs(const Status& status);

/// \brief Bounded pending-work gate. Thread-safe; admission is one atomic
/// CAS loop, so the gate adds no lock to the hot path.
class AdmissionGate {
 public:
  /// \brief `max_pending` bounds concurrently admitted work (0 = no
  /// bound); `retry_after_ms` is the hint stamped into rejections.
  explicit AdmissionGate(size_t max_pending, int retry_after_ms = 50)
      : max_pending_(max_pending), retry_after_ms_(retry_after_ms) {}

  /// \brief RAII admission: releases the gate slot on destruction.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    Ticket(Ticket&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        gate_ = other.gate_;
        other.gate_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release() {
      if (gate_ != nullptr) {
        gate_->Exit();
        gate_ = nullptr;
      }
    }

   private:
    AdmissionGate* gate_ = nullptr;
  };

  /// \brief Admits (returning the slot's ticket) or rejects with the
  /// structured Overloaded status.
  Result<Ticket> TryEnter() {
    size_t depth = pending_.load(std::memory_order_relaxed);
    while (true) {
      if (max_pending_ != 0 && depth >= max_pending_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return MakeOverloadedStatus(depth, max_pending_, retry_after_ms_);
      }
      if (pending_.compare_exchange_weak(depth, depth + 1,
                                         std::memory_order_relaxed)) {
        admitted_.fetch_add(1, std::memory_order_relaxed);
        return Ticket(this);
      }
    }
  }

  size_t pending() const { return pending_.load(std::memory_order_relaxed); }
  size_t max_pending() const { return max_pending_; }
  int retry_after_ms() const { return retry_after_ms_; }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  friend class Ticket;
  void Exit() { pending_.fetch_sub(1, std::memory_order_relaxed); }

  const size_t max_pending_;
  const int retry_after_ms_;
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace joinmi

#endif  // JOINMI_COMMON_ADMISSION_H_
