// Traced replay: re-drives one request through each layer's public
// function in SafetyVerifier::Run's order and times every call from the
// benchmark side. Spans carry an id, their parent and the request id;
// a span's self time is its duration minus its children's.
#ifndef RAPAR_BENCH_REPLAY_H_
#define RAPAR_BENCH_REPLAY_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace rbench {

// Per-request accumulators; the parent sums them over a run.
enum Slot : int {
  kParseMs, kParseCalls, kBuildMs, kPrepassMs, kPrepassPruned,
  kExploreMs, kExploreStates, kWitnessMs,
  kEnumerateMs, kGuesses, kMakepMs, kMakepRules,
  kOptimizeMs, kRulesBefore, kRulesAfter, kHintsMs,
  kEvalMs, kEvalSolves, kEvalTuples, kEvalJoins, kEvalFirings,
  kRenderMs, kGlueMs,
  kRunMs,          // untraced SafetyVerifier::Run wall time
  kOneShotMs,      // untraced one-shot request (parse..render) wall time
  kReplayMs,       // traced replay of the same request, root span
  kPartialMs,      // serve hits: replay of parse + build only
  kServeHitMs, kServeHits, kServeMissMs, kServeMisses, kServeOverheadMs,
  kNumSlots
};
using Slots = std::array<double, kNumSlots>;

class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  // 0 = none
    std::uint64_t request;
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t self_ns;
  };

  // RAII span around one layer call.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  explicit Tracer(std::size_t keep_limit) : keep_limit_(keep_limit) {}

  void BeginRequest(std::uint64_t request);
  // Closes the request: computes self times, adds them to `slots` by
  // layer, and keeps the spans for the trace file (up to keep_limit).
  void EndRequest(Slots* slots);

  // Writes the kept spans as a Chrome/Perfetto trace via
  // obs::TraceRecorder. Returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  const std::size_t keep_limit_;
  std::uint64_t request_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<Span> open_;       // spans of the current request
  std::vector<std::size_t> stack_;
  std::vector<Span> kept_;
  std::size_t dropped_ = 0;
};

// Replays one one-shot request under `tracer`, filling `slots` (zeroed
// by the caller: they hold this request only). Returns
// the replay's verdict; *reference receives Run's own verdict on the same
// input (untraced, timed into kRunMs/kOneShotMs).
Answer ReplayOneShot(const Input& in, Tracer& tracer, std::uint64_t request,
                     Slots* slots, Answer* reference);

// serve-mix cache hits: a hit re-parses and re-builds the request before
// the cache probe, so only those two layers are replayed.
void ReplayParseBuild(const Input& in, Tracer& tracer, std::uint64_t request,
                      Slots* slots);

}  // namespace rbench

#endif  // RAPAR_BENCH_REPLAY_H_
