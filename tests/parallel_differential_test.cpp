// Differential check: the parallel guess-level verification driver must
// be invisible in the verdict. Runs the Datalog backend at thread counts
// 1 / 2 / 8 across the benchmark catalog and a corpus of random systems,
// demanding bit-identical unsafe / exhaustive / witness_guess / guesses
// and identical aggregated engine statistics — the executable counterpart
// of the determinism rule in encoding/datalog_verifier.h. index_builds
// and fact_reuses are the two documented exceptions (they depend on which
// guesses a worker happens to see) and are excluded.
//
// Also pins the sink enumeration to the vector API: the sink must receive
// exactly the EnumerateDisGuesses sequence, and a sink that returns false
// must stop the search.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "lang/parser.h"
#include "lang/random_program.h"

namespace rapar {
namespace {

DatalogVerdict VerifyAt(const SimplSystem& sys, unsigned threads,
                        std::size_t max_guesses, std::size_t max_tuples,
                        std::size_t batch_size = 32,
                        std::optional<std::pair<VarId, Value>> goal = {}) {
  DatalogVerifierOptions opts;
  opts.goal_message = goal;
  opts.guess.max_guesses = max_guesses;
  opts.max_tuples_per_query = max_tuples;
  opts.threads = threads;
  opts.batch_size = batch_size;
  return DatalogVerify(sys, opts);
}

// Everything that must not depend on the thread count.
void ExpectIdentical(const DatalogVerdict& base, const DatalogVerdict& v,
                     const std::string& label) {
  EXPECT_EQ(base.unsafe, v.unsafe) << label;
  EXPECT_EQ(base.exhaustive, v.exhaustive) << label;
  EXPECT_EQ(base.witness_guess, v.witness_guess) << label;
  EXPECT_EQ(base.guesses, v.guesses) << label;
  EXPECT_EQ(base.queries_evaluated, v.queries_evaluated) << label;
  EXPECT_EQ(base.budget_aborted_guess, v.budget_aborted_guess) << label;
  EXPECT_EQ(base.total_rules, v.total_rules) << label;
  EXPECT_EQ(base.total_rules_after, v.total_rules_after) << label;
  EXPECT_EQ(base.total_tuples, v.total_tuples) << label;
  EXPECT_EQ(base.rule_firings, v.rule_firings) << label;
  EXPECT_EQ(base.join_attempts, v.join_attempts) << label;
  EXPECT_EQ(base.index_probes, v.index_probes) << label;
  EXPECT_EQ(base.index_hits, v.index_hits) << label;
  EXPECT_EQ(base.width_report, v.width_report) << label;
  EXPECT_EQ(base.parallel.early_exit_index, v.parallel.early_exit_index)
      << label;
  // index_builds and fact_reuses intentionally not compared.
}

TEST(ParallelDifferentialTest, BenchmarkCatalogIdenticalAcrossThreadCounts) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const DatalogVerdict base =
        VerifyAt(bench.system.simpl(), 1, 2'000, 500'000);
    for (unsigned threads : {2u, 8u}) {
      const DatalogVerdict v =
          VerifyAt(bench.system.simpl(), threads, 2'000, 500'000);
      ExpectIdentical(base, v,
                      bench.name + " @" + std::to_string(threads));
      EXPECT_EQ(v.parallel.threads, threads) << bench.name;
    }
  }
}

TEST(ParallelDifferentialTest, SmallBatchesStressTheEarlyExitOrdering) {
  // batch_size 1 maximizes the interleaving of chunk dispatch and the
  // first-unsafe-wins cutoff; the witness must still be the
  // lowest-enumeration-index one.
  BenchmarkCase bench = ProducerConsumer(2);
  const DatalogVerdict base =
      VerifyAt(bench.system.simpl(), 1, 2'000, 500'000, /*batch_size=*/1);
  ASSERT_TRUE(base.unsafe);
  for (unsigned threads : {2u, 3u, 8u}) {
    const DatalogVerdict v = VerifyAt(bench.system.simpl(), threads, 2'000,
                                      500'000, /*batch_size=*/1);
    ExpectIdentical(base, v, "pc-unsafe @" + std::to_string(threads));
  }
}

TEST(ParallelDifferentialTest, BudgetAbortStopsAtTheSameGuessEverywhere) {
  // A tiny tuple budget forces an abort (on the first query — the makeP
  // shape is uniform across guesses, so the first one blows first); every
  // thread count must report the same aborted index, and the scan must
  // stop there instead of evaluating the remaining guesses (peterson-ra
  // has 29).
  BenchmarkCase bench = PetersonRa();
  const DatalogVerdict base =
      VerifyAt(bench.system.simpl(), 1, 2'000, /*max_tuples=*/3);
  ASSERT_NE(base.budget_aborted_guess, kNoGuessIndex);
  EXPECT_FALSE(base.exhaustive);
  EXPECT_FALSE(base.unsafe);
  EXPECT_EQ(base.guesses, base.budget_aborted_guess + 1);
  const DatalogVerdict full =
      VerifyAt(bench.system.simpl(), 1, 2'000, /*max_tuples=*/500'000);
  EXPECT_LT(base.guesses, full.guesses) << "abort did not stop the scan";
  for (unsigned threads : {2u, 8u}) {
    const DatalogVerdict v =
        VerifyAt(bench.system.simpl(), threads, 2'000, /*max_tuples=*/3);
    ExpectIdentical(base, v, "budget @" + std::to_string(threads));
  }
}

TEST(ParallelDifferentialTest, RandomSystemsIdenticalAcrossTwoHundredSeeds) {
  int unsafe_seen = 0;
  int exhaustive_seen = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RandomProgramOptions env_opts;
    env_opts.num_vars = 2;
    env_opts.num_regs = 2;
    env_opts.dom = 3;
    env_opts.size = 5;
    env_opts.allow_cas = false;
    env_opts.allow_loops = false;
    RandomProgramOptions dis_opts = env_opts;
    dis_opts.size = 4;

    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed << ": "
                          << (sys.ok() ? "" : sys.error());
    // Even seeds ask the MG question "can (v0, d) be generated?" with d
    // cycling over the domain — (v0, 0) is derivable for most systems, so
    // this half of the corpus exercises the first-unsafe-wins early exit;
    // odd seeds run the assert-false query (mostly safe full scans).
    std::optional<std::pair<VarId, Value>> goal;
    if (seed % 2 == 0) {
      const VarId v0 = sys.value().vars().Find("v0");
      ASSERT_TRUE(v0.valid()) << "seed " << seed;
      goal = {v0, static_cast<Value>((seed / 2) % 3)};
    }
    const DatalogVerdict base = VerifyAt(sys.value().simpl(), 1, 500,
                                         200'000, /*batch_size=*/8, goal);
    for (unsigned threads : {2u, 8u}) {
      const DatalogVerdict v = VerifyAt(sys.value().simpl(), threads, 500,
                                        200'000, /*batch_size=*/8, goal);
      ExpectIdentical(base, v,
                      "seed " + std::to_string(seed) + " @" +
                          std::to_string(threads));
    }
    unsafe_seen += base.unsafe;
    exhaustive_seen += base.exhaustive;
  }
  // The corpus must exercise both early exits and full scans.
  EXPECT_GT(unsafe_seen, 20);
  EXPECT_GT(exhaustive_seen, 100);
}

TEST(ParallelDifferentialTest, CursorYieldsTheVectorSequence) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    const SimplSystem& sys = bench.system.simpl();
    GuessEnumOptions opts;
    opts.max_guesses = 2'000;
    bool complete = true;
    const std::vector<DisGuess> all =
        EnumerateDisGuesses(sys, opts, &complete);

    std::vector<DisGuess> streamed;
    const bool streamed_complete = EnumerateDisGuesses(
        sys, opts, [&](std::size_t index, DisGuess&& g) {
          EXPECT_EQ(index, streamed.size()) << bench.name;
          streamed.push_back(std::move(g));
          return true;
        });
    EXPECT_EQ(streamed_complete, complete) << bench.name;
    ASSERT_EQ(streamed.size(), all.size()) << bench.name;
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(streamed[i].ToString(sys), all[i].ToString(sys))
          << bench.name << " guess " << i;
    }
  }
}

TEST(ParallelDifferentialTest, CursorCancelStopsProduction) {
  // peterson-ra has 29 guesses; a sink that refuses the third one must
  // stop the search right there and report it incomplete.
  BenchmarkCase bench = PetersonRa();
  const SimplSystem& sys = bench.system.simpl();
  std::size_t produced = 0;
  const bool complete = EnumerateDisGuesses(
      sys, GuessEnumOptions{},
      [&produced](std::size_t, DisGuess&&) { return ++produced < 3; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(produced, 3u);
  EXPECT_LT(produced, 29u);
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(RAPAR_EXAMPLES_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// At one thread the scan has no scheduling at all: two runs report the
// same counters, and every chunk but the last is full, so the batch count
// follows from the solve count.
TEST(ParallelDifferentialTest, OneThreadRunsAreReproducible) {
  Expected<Program> env = ParseProgram(ReadExample("dekker_env.rap"));
  Expected<Program> dis0 = ParseProgram(ReadExample("dekker.rap"));
  Expected<Program> dis1 = ParseProgram(ReadExample("dekker1.rap"));
  ASSERT_TRUE(env.ok() && dis0.ok() && dis1.ok());
  Expected<ParamSystem> sys = ParamSystem::Builder()
                                  .Env(std::move(env).value())
                                  .Dis(std::move(dis0).value())
                                  .Dis(std::move(dis1).value())
                                  .Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  DatalogVerifierOptions opts;
  opts.threads = 1;
  const DatalogVerdict a = DatalogVerify(sys.value().simpl(), opts);
  const DatalogVerdict b = DatalogVerify(sys.value().simpl(), opts);
  ExpectIdentical(a, b, "dekker");
  EXPECT_EQ(a.index_builds, b.index_builds);
  EXPECT_EQ(a.fact_reuses, b.fact_reuses);
  EXPECT_EQ(a.parallel.threads, 1u);
  EXPECT_EQ(a.parallel.batches, b.parallel.batches);
  EXPECT_EQ(a.parallel.solves, b.parallel.solves);
  EXPECT_EQ(a.parallel.skipped, b.parallel.skipped);
  EXPECT_EQ(a.parallel.discarded, 0u);
  ASSERT_GT(a.queries_evaluated, opts.batch_size);  // more than one chunk
  EXPECT_EQ(a.parallel.solves, a.queries_evaluated);
  EXPECT_EQ(a.parallel.batches,
            (a.queries_evaluated + opts.batch_size - 1) / opts.batch_size);
}

}  // namespace
}  // namespace rapar
