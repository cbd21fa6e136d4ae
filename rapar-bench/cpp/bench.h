// Shared types of the rapar benchmark program (rapar_bench).
//
// A workload is a pool of request inputs plus the order in which one
// closed-loop client issues them. Every input is self-contained source
// text, exactly what `rapar_cli verify --format=json` (or one serve
// request line) would receive; the known answer each verdict is checked
// against comes from oracle.cpp, computed before timing.
#ifndef RAPAR_BENCH_BENCH_H_
#define RAPAR_BENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/param_system.h"
#include "core/verifier.h"

namespace rbench {

// A verdict as the benchmark sees it. kCrash and kError never come from
// the program's verdict enum: kCrash is a request whose process died,
// kError an error envelope or a parse/build failure.
enum class Answer : int { kSafe = 0, kUnsafe = 1, kUnknown = 2, kError = 3,
                          kCrash = 4 };

const char* AnswerName(Answer a);
Answer FromResult(rapar::Verdict::Result r);

struct Input {
  // Stable, seed-reproducible identity, e.g. "rand(1117)" or
  // "rand-mg(9381:v2=2)"; printed when the input fails.
  std::string name;
  // Family tag used to aggregate and to pick the oracle: "catalog",
  // "pc", "pc-safe", "tqbf", "rand".
  std::string family;
  std::string env;
  std::vector<std::string> dis;
  // Message-Generation goal; empty goal_var = assert-false reachability.
  std::string goal_var;
  int goal_val = -1;
  rapar::Backend backend = rapar::Backend::kSimplifiedExplorer;
  // Analytically known verdict (catalog expected_unsafe, TQBF truth,
  // producer-consumer family); unset for random systems, whose known
  // answer is the other exact backend.
  std::optional<bool> expected_unsafe;
  // serve-mix: the request line sent to the session.
  std::string line;
  // serve-mix: member of the repeated hot set.
  bool hot = false;
};

struct Workload {
  std::string name;
  std::vector<Input> pool;
  // One pass: indexes into `pool` in issue order. The loop repeats the
  // pass and stops at the first pass boundary after --seconds, so every
  // run measures whole passes of the same multiset of requests.
  std::vector<std::uint32_t> order;
};

// The issue order of pass `pass` of a run with seed `seed`: pass 0 issues
// w.order, every later pass a permutation of it drawn from (seed, pass).
// Over a run each input follows many different requests, so its latency
// is not a property of the one predecessor a seed happened to give it.
std::vector<std::uint32_t> PassOrder(const Workload& w, std::uint64_t seed,
                                     std::size_t pass);

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Generates `name`'s inputs from `seed` (same seed, same inputs). Returns
// false for an unknown workload name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

// The audit pool: both queries of rand8 generator seeds [from, to), with
// backend=datalog (the oracle's other backend is the simplified one).
Workload AuditPool(std::uint64_t from, std::uint64_t to);

// Parses and builds an input's system (the request's first two steps).
rapar::Expected<rapar::ParamSystem> BuildInput(const Input& in);

// Resolves the input's MG goal against its built system; nullopt for
// assert-false inputs. Sets *ok = false when the goal variable is unknown.
std::optional<std::pair<rapar::VarId, rapar::Value>> GoalOf(
    const Input& in, const rapar::ParamSystem& sys, bool* ok);

// One one-shot request as `rapar_cli verify --format=json` runs it:
// parse -> build -> Run -> VerdictToJson. Returns the verdict.
Answer RunOneShot(const Input& in, const rapar::VerifierOptions& options);

}  // namespace rbench

#endif  // RAPAR_BENCH_BENCH_H_
