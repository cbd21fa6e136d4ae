// Multi-process guess-space sharding: checkpoint file IO, the shard
// subprocess runner, and the envelope merge (DESIGN.md §13).
//
// The orchestrator behind `rapar_cli verify --shards=N`: spawn one
// subprocess per shard (each scanning its residue class of the guess
// enumeration with `--shard-index=i`), capture the per-shard
// `--format=json` envelopes, and merge them under the
// first-terminating-event-wins rule into one envelope with a "shard"
// section. Merge rule (mirrors the in-process scan driver):
//
//   * The winning shard is the one with the minimum *global*
//     terminating index (`shard.terminating_index` in its telemetry).
//     Stride sharding partitions the enumeration order, so the minimum
//     over the per-shard first terminating events IS the global first
//     terminating event — the merged verdict, witness and guess count
//     (terminating index + 1) are bit-identical to a single-process run.
//   * No terminating event anywhere: all shards safe-exhaustive merges
//     to safe with guesses = the summed per-shard counts (the residue
//     classes partition the order, so the sum is the full enumeration);
//     any truncated shard (deadline/cancel/scan-limit) degrades the
//     merge to unknown.
//   * Remaining telemetry counters sum across shards — they describe
//     work actually performed, which (unlike the verdict) exceeds the
//     single-process prefix because shards do not cancel each other.
#ifndef RAPAR_CORE_SHARD_H_
#define RAPAR_CORE_SHARD_H_

#include <string>
#include <vector>

#include "common/expected.h"
#include "encoding/dis_guess.h"

namespace rapar {

// --- checkpoint files -------------------------------------------------------

// Reads and validates a checkpoint file (CursorCheckpoint::FromJson).
Expected<CursorCheckpoint> LoadCheckpointFile(const std::string& path);

// Writes atomically: to `path`.tmp, fsync, then rename over `path` — a
// kill mid-write leaves the previous checkpoint intact, never a torn
// one. Returns an error message on IO failure.
Expected<bool> SaveCheckpointFile(const std::string& path,
                                  const CursorCheckpoint& cp);

// --- subprocess runner ------------------------------------------------------

// Absolute path of the running executable (/proc/self/exe), empty when
// unavailable.
std::string SelfExecutablePath();

struct ShardProcessResult {
  int exit_code = -1;        // wait status; -1 = abnormal termination
  std::string stdout_text;   // captured stdout (the JSON envelope)
};

// Spawns one subprocess per argv vector (fork/execv; argv[0] is the
// executable path), streams each child's stdout into memory on a reader
// thread, and waits for all of them. stderr is inherited so shard
// diagnostics surface directly. Fails only on spawn/plumbing errors;
// per-child exit codes are reported, not judged.
Expected<std::vector<ShardProcessResult>> RunShardProcesses(
    const std::vector<std::vector<std::string>>& argvs);

// --- envelope merge ---------------------------------------------------------

struct MergedShardEnvelope {
  std::string envelope_json;  // merged verify envelope (trailing '\n')
  std::string verdict;        // "safe", "unsafe" or "unknown"
  int exit_code = 2;          // the merged verdict's CLI exit code
};

// Merges per-shard verify envelopes (the `--format=json` output of each
// shard subprocess, any shard order) under first-terminating-event-wins.
// The merged envelope keeps shard 0's key order and metadata (command,
// system signature, options echo, width report — guess 0 always lives in
// shard 0, so the width report matches the single-process run), replaces
// verdict/witness/telemetry per the merge rule, and swaps the per-shard
// "shard" section for an orchestrator one:
//
//   "shard": {"count": N, "winner": i | null,
//             "per_shard": [{"index", "verdict", "guesses", "solves",
//                            "steals", "solve_ms", "checkpoint_writes",
//                            "terminating_index"}, ...]}
//
// Errors on malformed envelopes, inconsistent shard counts, or duplicate
// shard indices.
Expected<MergedShardEnvelope> MergeShardEnvelopes(
    const std::vector<std::string>& envelopes, bool pretty);

}  // namespace rapar

#endif  // RAPAR_CORE_SHARD_H_
