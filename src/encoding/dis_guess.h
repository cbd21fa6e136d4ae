// Guessed dis-thread run skeletons for the makeP encoding (§4.1).
//
// makeP is a *non-deterministic* polynomial-time procedure: each execution
// guesses the dis part of a run and emits one Datalog query instance. A
// guess pins, for every dis thread, its control path and all data it
// computes (register valuations / read values), and, per shared variable,
// the final modification order of dis stores including CAS glue — i.e.
// everything except the message views, which the Datalog derivation
// computes. This keeps the emitted program sound: with the dis part fixed,
// monotone evaluation cannot recombine incompatible dis branches.
//
// The enumerator below realises the nondeterminism by exhaustive
// enumeration with pruning; it is exponential in the dis programs (as the
// NP guess must be) and intended for the small instances the Datalog
// backend is exercised on. One enumeration core has two front ends:
//
//   * EnumerateDisGuesses(sys, options, sink) — hands every guess, in
//     enumeration order, to a caller-supplied sink on the calling thread.
//     The sink can stop the enumeration, so a consumer (the Datalog scan
//     driver) holds only the guesses it is working on instead of up to
//     max_guesses = 200'000 skeletons, and the exponential search ends the
//     moment a verdict is decided;
//   * EnumerateDisGuesses(sys, options, &complete) — materializes every
//     guess into a vector (fine for tests and small systems).
//
// Sharding & resume: the enumeration order is deterministic, so every
// guess has a stable *global index*. GuessEnumOptions can restrict an
// enumeration to one residue class of that order (shard i of N sees exactly
// the indices ≡ i mod N) and/or skip a prefix (start_index, for resuming
// an aborted scan). Both filters only suppress *emission* — the global
// index keeps counting, so all shards agree on which guess is which and
// the max_guesses cap cuts the same global prefix everywhere. A
// CursorCheckpoint serializes a scan position (shard identity + first
// unscanned global index) as versioned JSON.
#ifndef RAPAR_ENCODING_DIS_GUESS_H_
#define RAPAR_ENCODING_DIS_GUESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "simplified/transitions.h"

namespace rapar {

// One annotated step of a guessed dis-thread path.
struct GuessStep {
  std::uint32_t edge = 0;  // CFA edge id of this thread
  // Loads and CAS loads: the value read, and the source.
  Value read_value = -1;   // -1: no read
  bool read_from_env = false;
  // If reading a dis message: its final position in the variable's
  // guessed sequence (0 = init message).
  int read_dis_pos = -1;
  // Stores and CAS stores: final position (>= 1) in the variable's
  // guessed modification order.
  int store_pos = -1;
  // The register valuation *after* this step (concrete along the path).
  std::vector<Value> rv_after;
};

struct ThreadGuess {
  std::vector<GuessStep> steps;
  // True if the path traverses an `assert false` edge.
  bool hits_assert = false;
};

// One guessed dis store cell in a variable's final modification order.
struct MemCell {
  Value val = 0;
  int thread = -1;     // dis thread index that performs the store
  int step_idx = -1;   // index into that thread's step list
  bool glued = false;  // CAS store: the gap below is frozen
};

struct DisGuess {
  std::vector<ThreadGuess> threads;
  // mem[x][p-1] describes the dis store at position p (init at position 0
  // is implicit: value d_init, never glued).
  std::vector<std::vector<MemCell>> mem;

  // Number of dis stores on x.
  int StoresOn(std::size_t x) const { return static_cast<int>(mem[x].size()); }
  // A gap h on x is frozen iff the store at position h+1 is glued.
  bool GapFrozen(std::size_t x, int gap) const {
    return gap + 1 <= StoresOn(x) &&
           mem[x][static_cast<std::size_t>(gap)].glued;
  }

  std::string ToString(const SimplSystem& sys) const;
};

struct GuessEnumOptions {
  // Hard cap on the *global* enumeration index: enumeration stops once
  // max_guesses guesses exist in the global order, regardless of how many
  // this shard emitted. With shard_count = 1 and start_index = 0 this is
  // exactly the legacy "number of guesses produced" cap.
  std::size_t max_guesses = 200'000;
  // Stride sharding: emit only guesses whose global index ≡ shard_index
  // (mod shard_count). The default (0 of 1) emits everything.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  // Resume: additionally suppress guesses with global index < start_index
  // (they were scanned by a previous run).
  std::size_t start_index = 0;
};

// A serializable scan position: enough to reconstruct the remaining
// enumeration of one shard. `next_index` is the first global index not
// yet scanned by this shard's run (every index of the shard's residue
// class below it is done); `scanned` carries the shard's cumulative
// solve count across prior runs so a resumed verdict's guess accounting
// matches an uninterrupted run; `exhausted` means the enumeration
// finished and there is nothing to resume.
struct CursorCheckpoint {
  static constexpr int kSchemaVersion = 1;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t next_index = 0;
  std::size_t scanned = 0;
  bool exhausted = false;

  // Versioned JSON via common/json. FromJson validates shape, schema
  // version and field ranges (shard_index < shard_count, a corrupted or
  // version-mismatched document is an error, never a zeroed checkpoint).
  std::string ToJson(bool pretty = false) const;
  static Expected<CursorCheckpoint> FromJson(std::string_view text);
};

// Receives the guesses of an enumeration in order, each with its global
// enumeration index (stable across shard/resume filters — see
// GuessEnumOptions). Returning false stops the enumeration.
using GuessSink = std::function<bool(std::size_t index, DisGuess&& guess)>;

// Enumerates all valid dis-run guesses of `sys` (up to the cap) into
// `sink`, on the calling thread. Register effects, assumes and CAS
// value-matching are checked during enumeration; view feasibility is left
// to the Datalog derivation. Returns true iff the enumeration ran to
// completion: false when the max_guesses cap was hit or the sink stopped
// it.
bool EnumerateDisGuesses(const SimplSystem& sys,
                         const GuessEnumOptions& options,
                         const GuessSink& sink);

// The same sequence, materialized. Sets *complete to false if the cap was
// hit.
std::vector<DisGuess> EnumerateDisGuesses(const SimplSystem& sys,
                                          const GuessEnumOptions& options,
                                          bool* complete);

}  // namespace rapar

#endif  // RAPAR_ENCODING_DIS_GUESS_H_
