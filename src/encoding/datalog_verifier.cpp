#include "encoding/datalog_verifier.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "datalog/engine.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"

namespace rapar {

namespace {

// Lap timer for the per-layer phase gauges (PhaseTimes).
class PhaseClock {
 public:
  // Milliseconds since construction or the previous Lap.
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }

 private:
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
};

// Everything one guess contributes to the verdict. Produced by exactly one
// task, read by the fold once that task has finished; schedule-independent
// except for stats.index_builds (see the header's determinism rule).
struct GuessOutcome {
  bool evaluated = false;
  bool derived = false;
  bool budget_aborted = false;
  std::size_t rules_emitted = 0;
  std::size_t rules_after = 0;
  dlopt::DlOptStats dlopt;
  dl::EvalStats stats;
  std::string witness;       // filled when derived
  std::string width_report;  // filled for guess 0 only

  bool terminating() const { return derived || budget_aborted; }
};

// Per-worker solver: owns the dl::Engine so arena reuse and EDB snapshot
// rollback keep working across the guesses this worker happens to solve.
class GuessSolver {
 public:
  GuessSolver(const SimplSystem& sys, const DatalogVerifierOptions& options)
      : sys_(sys),
        options_(options),
        encoder_(sys, MakePOptions{options.goal_message}) {
    eval_.max_tuples = options.max_tuples_per_query;
    eval_.engine = options.engine;
    dlopt_.trace = options.trace;
  }

  GuessOutcome Solve(const DisGuess& guess, std::size_t index,
                     bool want_width_report) {
    obs::ScopedSpan span(options_.trace, "guess");
    GuessOutcome out;
    out.evaluated = true;
    PhaseClock clock;
    const MakePInstance inst = [&] {
      obs::ScopedSpan s(options_.trace, "makep");
      return encoder_.Encode(guess);
    }();
    out.rules_emitted = inst.size();
    phases_.makep_ms += clock.Lap();

    // The instance is evaluated in its base's tables, which hold exactly
    // the predicates and constants MakeP would have emitted.
    dl::Program& prog = *inst.tables;
    dl::JoinHints hints;
    std::optional<dlopt::PredGraph> graph;
    eval_.hints = nullptr;
    if (options_.enable_dlopt) {
      obs::ScopedSpan s(options_.trace, "dlopt");
      rules_.clear();
      inst.AppendRules(&rules_);
      dlopt::RuleListResult opt =
          dlopt::OptimizeRules(prog, rules_, inst.goal, dlopt_);
      out.dlopt = opt.stats;
      prog.SetRules(std::move(opt.kept));
      // The width/SCC classification doubles as the engine's join-order
      // growth hint (EDB < non-recursive IDB < recursive IDB).
      graph.emplace(dlopt::PredGraph::Build(prog));
      hints = dlopt::MakeJoinHints(*graph);
      eval_.hints = &hints;
    } else {
      prog.SetRules(inst.CopyRules());
    }
    out.rules_after = prog.size();
    if (want_width_report) {
      // Reuse the join-hint graph instead of building a second one for
      // the report (they describe the same optimized program).
      if (!graph.has_value()) graph.emplace(dlopt::PredGraph::Build(prog));
      out.width_report = dlopt::AnalyzeWidth(prog, *graph, inst.goal.pred)
                             .ToString(prog, *graph);
    }
    phases_.dlopt_ms += clock.Lap();

    {
      obs::ScopedSpan s(options_.trace, "eval");
      try {
        out.derived = engine_.Solve(prog, inst.goal, eval_);
      } catch (const dl::BudgetExceeded&) {
        out.budget_aborted = true;  // partial stats of the solve still count
      }
    }
    phases_.eval_ms += clock.Lap();
    out.stats = engine_.last_stats();
    if (out.derived) out.witness = guess.ToString(sys_);
    if (span.active()) {
      span.set_args(StrCat("{\"index\":", index,
                           ",\"rules\":", out.rules_emitted,
                           ",\"rules_after\":", out.rules_after,
                           ",\"tuples\":", out.stats.tuples,
                           ",\"derived\":", out.derived ? "true" : "false",
                           "}"));
    }
    return out;
  }

  std::size_t fact_reuses() const { return engine_.fact_reuses(); }
  // Time spent per phase by this solver's Solve calls.
  const PhaseTimes& phases() const { return phases_; }

 private:
  const SimplSystem& sys_;
  const DatalogVerifierOptions& options_;
  MakePEncoder encoder_;
  std::vector<const dl::Rule*> rules_;  // the instance's rule list
  PhaseTimes phases_;
  dl::EvalOptions eval_;
  dlopt::DlOptOptions dlopt_;
  dl::Engine engine_;
};

// Folds one evaluated guess into the verdict aggregates (enumeration
// order; only the scanned prefix is ever passed here).
void Accumulate(DatalogVerdict& v, const GuessOutcome& o) {
  ++v.queries_evaluated;
  v.total_rules += o.rules_emitted;
  v.total_rules_after += o.rules_after;
  v.dlopt += o.dlopt;
  v.total_tuples += o.stats.tuples;
  v.rule_firings += o.stats.rule_firings;
  v.join_attempts += o.stats.join_attempts;
  v.index_probes += o.stats.index_probes;
  v.index_hits += o.stats.index_hits;
  v.index_builds += o.stats.index_builds;
  if (v.width_report.empty() && !o.width_report.empty()) {
    v.width_report = o.width_report;
  }
}

// Seals the verdict for a terminating event at *global* guess index
// `idx`. `scanned` is the guess count to report (resume base + solves up
// to and including the terminating one); with single-shard, no-resume
// options it equals idx + 1.
void FinishEarly(DatalogVerdict& v, std::size_t idx, std::size_t scanned,
                 const GuessOutcome& o) {
  v.guesses = scanned;
  v.parallel.early_exit_index = idx;
  v.terminating_index = idx;
  if (o.derived) {
    v.unsafe = true;
    v.witness_guess = o.witness;
    // Definitive regardless of the unscanned remainder.
    v.exhaustive = true;
  } else {
    v.exhaustive = false;
    v.budget_aborted_guess = idx;
  }
}

void FetchMin(std::atomic<std::size_t>& a, std::size_t v) {
  std::size_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Emits a scan-position checkpoint through the configured sink (no-op
// without one) and counts the write. `next_index` is the first global
// index a resumed run must look at; `scanned` the cumulative solve count
// to seed resume_scanned_base with.
void EmitCheckpoint(const DatalogVerifierOptions& options,
                    DatalogVerdict& verdict, std::size_t next_index,
                    std::size_t scanned, bool exhausted) {
  if (!options.checkpoint_sink) return;
  CursorCheckpoint cp;
  cp.shard_index = options.guess.shard_index;
  cp.shard_count = options.guess.shard_count;
  cp.next_index = next_index;
  cp.scanned = scanned;
  cp.exhausted = exhausted;
  options.checkpoint_sink(cp);
  ++verdict.checkpoint_writes;
}

// One chunk of guesses, consecutive in this run's enumeration: filled by
// the calling thread, solved by one task, folded back into the verdict by
// the calling thread.
struct Batch {
  std::vector<std::size_t> indices;    // global enumeration index per guess
  std::vector<DisGuess> guesses;       // released once solved
  std::vector<GuessOutcome> outcomes;  // one slot per guess
  std::size_t skipped = 0;  // guesses dropped unsolved after a stop signal
  std::string error;        // the task's exception, if any
  bool finished = false;    // guarded by the driver's finished_m
};

}  // namespace

// The scan driver, one code path for every thread count. The calling
// thread enumerates the guesses, cuts them into batch_size chunks and
// hands each chunk to an executor: it runs inline at one thread and on a
// work-stealing pool otherwise. Solved chunks are folded into the verdict
// strictly in enumeration order, so the verdict, the statistics and the
// checkpoints come out of the same fold whatever ran the solves.
DatalogVerdict DatalogVerify(const SimplSystem& sys,
                             const DatalogVerifierOptions& options) {
  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  const std::size_t batch_size =
      options.batch_size == 0 ? 1 : options.batch_size;
  const std::size_t base = options.resume_scanned_base;

  DatalogVerdict verdict;
  verdict.parallel.threads = threads;
  verdict.shard_index = options.guess.shard_index;
  verdict.shard_count = options.guess.shard_count;
  verdict.resume_offset = options.guess.start_index;

  std::vector<std::unique_ptr<GuessSolver>> solvers;
  solvers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    solvers.push_back(std::make_unique<GuessSolver>(sys, options));
  }

  // Stop signals shared with the tasks. The token is the fast "something
  // happened" flag, stop_idx the lowest terminating index seen so far. A
  // task may skip a guess only when its index is strictly above stop_idx,
  // so every guess up to the final minimum is solved.
  CancellationToken cancel;
  std::atomic<std::size_t> stop_idx{kNoGuessIndex};
  const Deadline deadline(options.time_budget_ms);
  std::atomic<bool> deadline_fired{false};
  std::atomic<bool> ext_cancelled{false};
  // Index of this run's first guess, whose solve renders the width report
  // (set before the first chunk is handed out, read-only afterwards).
  std::size_t first_index = kNoGuessIndex;

  // Dispatched chunks not yet folded, oldest first. Their count is the
  // backpressure: at most four per worker, so memory is bounded by the
  // chunks in flight, not by the size of the guess space.
  std::deque<Batch> inflight;
  const std::size_t max_inflight = static_cast<std::size_t>(threads) * 4;
  std::mutex finished_m;
  std::condition_variable finished_cv;

  // Polls the two stops that come from outside the scan — the deadline
  // and the caller's cancel — and turns either into a scan-wide cancel.
  const auto outside_stop = [&] {
    if (deadline.Expired()) {
      deadline_fired.store(true, std::memory_order_relaxed);
    } else if (options.cancel != nullptr && options.cancel->cancelled()) {
      ext_cancelled.store(true, std::memory_order_relaxed);
    } else {
      return false;
    }
    cancel.Cancel();
    return true;
  };

  const auto solve_batch = [&](Batch& b, GuessSolver& solver) {
    try {
      for (std::size_t i = 0; i < b.guesses.size(); ++i) {
        const std::size_t idx = b.indices[i];
        if (idx > stop_idx.load(std::memory_order_relaxed) || outside_stop()) {
          b.skipped = b.guesses.size() - i;
          break;
        }
        GuessOutcome& o = b.outcomes[i];
        o = solver.Solve(b.guesses[i], idx,
                         /*want_width_report=*/idx == first_index);
        if (o.terminating()) {
          FetchMin(stop_idx, idx);
          cancel.Cancel();
          obs::TraceInstant(options.trace,
                            o.derived ? "early_exit" : "budget_abort",
                            StrCat("{\"guess\":", idx, "}"));
          break;  // the rest of the chunk lies beyond the stop
        }
      }
    } catch (const std::exception& e) {
      b.error = e.what();
      cancel.Cancel();
    }
    b.guesses = {};
    // Notify under the lock: once `finished` is seen the calling thread
    // may fold the last batch and return, destroying finished_cv.
    std::lock_guard<std::mutex> lock(finished_m);
    b.finished = true;
    finished_cv.notify_all();
  };

  // Declared after everything its tasks touch: if an exception unwinds
  // the scan, the pool is destroyed first and finishes the queued tasks
  // while their state is still alive.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Fold state, touched by the calling thread only. The contiguous prefix
  // (solved guesses up to the first unsolved one) is where a resumed run
  // picks up; only deadline and cancel stops leave unsolved gaps below the
  // terminating guess.
  std::size_t evaluated = 0;  // solves folded into the aggregates
  std::size_t prefix = 0;     // ... of which in the contiguous prefix
  std::size_t next_index = options.guess.start_index;  // after the prefix
  bool gap = false;
  std::size_t since_checkpoint = 0;
  std::size_t stop = kNoGuessIndex;  // the folded terminating guess
  std::string error;                 // the first task exception

  const auto fold = [&](const Batch& b) {
    verdict.parallel.skipped += b.skipped;
    if (error.empty()) error = b.error;
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
      const GuessOutcome& o = b.outcomes[i];
      if (!o.evaluated) {
        gap = true;
        continue;
      }
      ++verdict.parallel.solves;
      if (stop != kNoGuessIndex) {
        // Raced past the terminating guess: kept out of the aggregates.
        ++verdict.parallel.discarded;
        continue;
      }
      Accumulate(verdict, o);
      ++evaluated;
      if (!gap) {
        prefix = evaluated;
        next_index = b.indices[i] + 1;
      }
      if (o.terminating()) {
        stop = b.indices[i];
        FinishEarly(verdict, stop, base + evaluated, o);
        if (o.budget_aborted) {
          // Restartable: a rerun with a larger budget resumes *at* the
          // aborted guess, so its (discarded) solve is not counted.
          EmitCheckpoint(options, verdict, stop, base + evaluated - 1,
                         false);
        }
      } else if (options.checkpoint_every != 0 && !gap &&
                 evaluated != options.scan_limit &&
                 ++since_checkpoint >= options.checkpoint_every) {
        since_checkpoint = 0;
        EmitCheckpoint(options, verdict, next_index, base + prefix, false);
      }
    }
  };

  // Folds the oldest chunk if it has finished, or once it has when
  // `wait` is set. Returns whether it folded one.
  const auto fold_front = [&](bool wait) {
    Batch& b = inflight.front();
    {
      std::unique_lock<std::mutex> lock(finished_m);
      if (wait) {
        finished_cv.wait(lock, [&b] { return b.finished; });
      } else if (!b.finished) {
        return false;
      }
    }
    fold(b);
    inflight.pop_front();
    return true;
  };

  std::size_t dispatched = 0;
  bool scan_limited = false;
  const auto dispatch = [&](Batch& b) {
    b.outcomes.resize(b.guesses.size());
    if (first_index == kNoGuessIndex) first_index = b.indices.front();
    dispatched += b.guesses.size();
    scan_limited = dispatched == options.scan_limit;
    ++verdict.parallel.batches;
    if (pool == nullptr) {
      solve_batch(b, *solvers.front());
      return;
    }
    pool->Submit([&solve_batch, &solvers, &b] {
      const int w = ThreadPool::CurrentWorkerIndex();
      solve_batch(b, *solvers[static_cast<std::size_t>(w)]);
    });
  };

  // The enumeration runs on this thread; the sink stops it on a
  // terminating guess, the deadline, an external cancel or scan_limit.
  Batch* open = nullptr;  // the chunk being filled, inflight.back()
  double enumerate_ms = 0;
  PhaseClock clock;
  const bool complete = EnumerateDisGuesses(
      sys, options.guess, [&](std::size_t idx, DisGuess&& guess) {
        enumerate_ms += clock.Lap();
        if (cancel.cancelled() || outside_stop()) return false;
        if (open == nullptr) {
          while (inflight.size() >= max_inflight) fold_front(/*wait=*/true);
          open = &inflight.emplace_back();
        }
        open->indices.push_back(idx);
        open->guesses.push_back(std::move(guess));
        const std::size_t n = open->guesses.size();
        if (n == batch_size || dispatched + n == options.scan_limit) {
          dispatch(*open);
          open = nullptr;
          while (!inflight.empty() && fold_front(/*wait=*/false)) {
          }
        }
        clock.Lap();
        return !cancel.cancelled() && !scan_limited;
      });
  enumerate_ms += clock.Lap();
  if (open != nullptr) {
    // A partial last chunk: solve it, unless the scan has already stopped
    // (its guesses all lie beyond whatever stopped it).
    if (cancel.cancelled()) {
      inflight.pop_back();
    } else {
      dispatch(*open);
    }
  }
  while (!inflight.empty()) fold_front(/*wait=*/true);
  if (!error.empty()) {
    throw std::runtime_error("datalog verifier worker failed: " + error);
  }

  verdict.parallel.steals = pool != nullptr ? pool->steals() : 0;
  verdict.phases.enumerate_ms = enumerate_ms;
  for (const auto& solver : solvers) {
    verdict.fact_reuses += solver->fact_reuses();
    verdict.phases += solver->phases();
  }

  if (stop != kNoGuessIndex) return verdict;  // sealed by FinishEarly
  const bool deadline_hit = deadline_fired.load(std::memory_order_relaxed);
  const bool cancelled = ext_cancelled.load(std::memory_order_relaxed);
  verdict.guesses = base + evaluated;
  if (deadline_hit || cancelled || scan_limited) {
    // Truncated, inconclusive. An external cancel blames no budget.
    verdict.exhaustive = false;
    verdict.deadline_hit = deadline_hit;
    verdict.scan_limit_hit = !deadline_hit && !cancelled;
    obs::TraceInstant(options.trace,
                      deadline_hit ? "deadline"
                      : cancelled  ? "cancelled"
                                   : "scan_limit",
                      StrCat("{\"solves\":", evaluated, "}"));
    EmitCheckpoint(options, verdict, next_index, base + prefix, false);
  } else {
    // Every guess was solved. An incomplete enumeration hit the
    // max_guesses cap: resumable with a larger cap.
    verdict.exhaustive = complete;
    EmitCheckpoint(options, verdict, next_index, verdict.guesses, complete);
  }
  return verdict;
}

}  // namespace rapar
