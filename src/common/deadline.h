// Cooperative wall-clock deadline behind every backend's time_budget_ms.
// A budget of 0 ms or less is unlimited, and so is one that reaches past
// the last representable steady_clock time point: "now + ms" saturates
// instead of overflowing into the past, so a huge budget never reads as
// already expired.
#ifndef RAPAR_COMMON_DEADLINE_H_
#define RAPAR_COMMON_DEADLINE_H_

#include <chrono>

namespace rapar {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Deadline(long long ms) {
    if (ms <= 0) return;
    const Clock::time_point now = Clock::now();
    // Whole milliseconds left before time_point::max(), rounded down, so
    // the addition below cannot overflow.
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (ms >= headroom.count()) return;
    limited_ = true;
    at_ = now + std::chrono::milliseconds(ms);
  }

  // False for an unlimited budget; callers skip their clock reads then.
  bool limited() const { return limited_; }
  bool Expired() const { return limited_ && Clock::now() > at_; }

 private:
  bool limited_ = false;
  Clock::time_point at_;
};

}  // namespace rapar

#endif  // RAPAR_COMMON_DEADLINE_H_
