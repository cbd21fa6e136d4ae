// makeP (§4.1): emits one Cache Datalog query instance per dis-run guess.
//
// Predicates (following the paper):
//   emp(x, d, t_1..t_k)   — an available env message on x with value d and
//                           view (t_1..t_k); views are inlined as one
//                           abstract-timestamp argument per variable.
//   etp(lc, r_1..r_m, t_1..t_k)
//                         — a reachable env-thread configuration.
//   dmp(x, d, t_1..t_k)   — an available dis message (init messages are
//                           facts; guessed stores are derived from the
//                           thread predicates, which validates the guess).
//   dtp_i_j(t_1..t_k)     — dis thread i has executed the first j steps of
//                           its guessed path; registers are concrete along
//                           the guess, so only the view is threaded.
//   violation()/goal()/unsafe() — query atoms.
//
// Abstract timestamps are interned first, so Sym value == encoded
// timestamp (2t for dis t, 2t+1 for t⁺); natives compare/join them
// directly. Rules have at most two IDB body atoms (a thread predicate and
// a message predicate), i.e. the program is Cache Datalog as required by
// Lemma 4.2's pipeline; dmp/emp-free rules are linear outright.
//
// Base and suffix. Apart from the dis chains, an instance depends on its
// guess only through the guess's *env signature*: the number of dis
// stores on each variable (which fixes the timestamp constants) and the
// frozen-gap mask of each variable (which fixes the env load/store gap
// rules). A MakePEncoder therefore builds, once per signature, a *base*:
// the constant and predicate tables, the init facts, the env rules and
// the goal rules. Per guess it emits only the *suffix* — the dtp
// predicates and dis-chain rules — and hands out the instance as
// (base facts + env rules, suffix, base goal rules), which is exactly the
// rule list MakeP emits, in MakeP's order and with MakeP's predicate
// numbering: the guess's dtp predicates are appended after the base's
// four, so every downstream consumer (dlopt, the engine's fact snapshot
// and indexes, the width report) sees the same program either way.
#ifndef RAPAR_ENCODING_MAKEP_H_
#define RAPAR_ENCODING_MAKEP_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "encoding/dis_guess.h"

namespace rapar {

struct MakePResult {
  std::unique_ptr<dl::Program> prog;
  // The query atom g: unsafe().
  dl::Atom goal;
};

struct MakePOptions {
  // MG goal message (var, val); when unset only assert-false violations
  // constitute unsafety.
  std::optional<std::pair<VarId, Value>> goal_message;
};

// One guess's query instance, borrowed from a MakePEncoder: valid until
// the encoder's next Encode call.
struct MakePInstance {
  // The instance's tables: the base's constants and predicates plus this
  // guess's dtp predicates. Its rule list is scratch space for the caller
  // (the verifier puts the rules it evaluates there).
  dl::Program* tables = nullptr;
  std::span<const dl::Rule> prefix;      // base: init facts, env rules
  std::span<const dl::Rule> suffix;      // this guess: dis chains
  std::span<const dl::Rule> goal_rules;  // base: MG goal rules
  // The query atom g: unsafe().
  dl::Atom goal;

  std::size_t size() const {
    return prefix.size() + suffix.size() + goal_rules.size();
  }
  // Appends a pointer to every rule, in MakeP order.
  void AppendRules(std::vector<const dl::Rule*>* out) const;
  // Copies every rule, in MakeP order.
  std::vector<dl::Rule> CopyRules() const;
};

// Encodes the guesses of one verification. Builds each env-signature base
// once and keeps it for the encoder's lifetime (up to kMaxBases at a time,
// then it starts over); not thread-safe (the parallel verifier owns one
// encoder per worker).
class MakePEncoder {
 public:
  MakePEncoder(const SimplSystem& sys, const MakePOptions& options);
  ~MakePEncoder();
  MakePEncoder(const MakePEncoder&) = delete;
  MakePEncoder& operator=(const MakePEncoder&) = delete;

  MakePInstance Encode(const DisGuess& guess);

  // Bases built so far.
  std::size_t bases() const { return built_; }

 private:
  struct Base;
  // Bounds the memory of a verification with very many signatures.
  static constexpr std::size_t kMaxBases = 256;

  const SimplSystem& sys_;
  const MakePOptions options_;
  // Dead env edges (AnalyzeReachability), computed once: they depend on
  // the env CFA only.
  const std::vector<bool> env_edge_dead_;
  std::map<std::vector<int>, std::unique_ptr<Base>> bases_;
  std::size_t built_ = 0;
  std::vector<int> key_;          // signature scratch
  std::vector<dl::Rule> suffix_;  // the current guess's dis chains
};

// Builds the query instance for one guess. The caller owns the program.
// A one-guess MakePEncoder; the verifier reuses an encoder instead.
MakePResult MakeP(const SimplSystem& sys, const DisGuess& guess,
                  const MakePOptions& options);

}  // namespace rapar

#endif  // RAPAR_ENCODING_MAKEP_H_
