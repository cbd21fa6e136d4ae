// Tests for the makeP encoding (§4.1) and the Datalog-backed verifier
// (Theorem 4.1), cross-validated against the saturation explorer.
#include "encoding/datalog_verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "datalog/engine.h"
#include "dlopt/optimize.h"
#include "encoding/makep.h"
#include "lang/parser.h"
#include "lang/random_program.h"
#include "simplified/explorer.h"

namespace rapar {
namespace {

struct Sys {
  std::vector<std::unique_ptr<Cfa>> owned;
  SimplSystem sys;
  VarTable vars;
};

Sys MakeSys(const std::string& env_text,
            const std::vector<std::string>& dis_texts) {
  Sys out;
  auto parse = [&](const std::string& text) {
    Expected<Program> p = ParseProgram(text);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    return std::move(p).value();
  };
  Program env = parse(env_text);
  out.sys.dom = env.dom();
  out.sys.num_vars = env.vars().size();
  out.vars = env.vars();
  out.owned.push_back(std::make_unique<Cfa>(Cfa::Build(env)));
  out.sys.env = out.owned[0].get();
  for (const auto& text : dis_texts) {
    Program d = parse(text);
    out.owned.push_back(std::make_unique<Cfa>(Cfa::Build(d)));
    out.sys.dis.push_back(out.owned.back().get());
  }
  return out;
}

// --- Guess enumeration ---------------------------------------------------

TEST(DisGuessTest, NoDisThreadsYieldsOneEmptyGuess) {
  Sys s = MakeSys(R"(
    program env
    vars x
    regs r
    dom 2
    begin
      r := x
    end
  )", {});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(guesses.size(), 1u);
  EXPECT_TRUE(guesses[0].threads.empty());
}

TEST(DisGuessTest, LoadBranchesOverDomainAndSources) {
  // One dis thread: a single load of x. Paths: one per domain value.
  // Sources: value 0 -> {init, env}; value 1, 2 -> {env} (no dis store).
  Sys s = MakeSys(R"(
    program env
    vars x
    regs r
    dom 3
    begin
      skip
    end
  )", {R"(
    program dis
    vars x
    regs r
    dom 3
    begin
      r := x
    end
  )"});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(guesses.size(), 4u);  // (0,init), (0,env), (1,env), (2,env)
}

TEST(DisGuessTest, AssumePrunesInfeasiblePaths) {
  Sys s = MakeSys(R"(
    program env
    vars x
    regs r
    dom 3
    begin
      skip
    end
  )", {R"(
    program dis
    vars x
    regs r
    dom 3
    begin
      r := x;
      assume (r == 2)
    end
  )"});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  EXPECT_TRUE(complete);
  // Only the value-2 read survives, and 2 can only come from env.
  ASSERT_EQ(guesses.size(), 1u);
  EXPECT_TRUE(guesses[0].threads[0].steps[0].read_from_env);
  EXPECT_EQ(guesses[0].threads[0].steps[0].read_value, 2);
}

TEST(DisGuessTest, StoreInterleavingsEnumerated) {
  // Two dis threads each storing once to x: two merge orders; each store
  // is a path without reads.
  const char* disA = R"(
    program disA
    vars x
    regs one
    dom 2
    begin
      one := 1;
      x := one
    end
  )";
  Sys s = MakeSys(R"(
    program env
    vars x
    regs r
    dom 2
    begin
      skip
    end
  )", {disA, disA});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(guesses.size(), 2u);
  for (const DisGuess& g : guesses) {
    EXPECT_EQ(g.StoresOn(0), 2);
  }
}

TEST(DisGuessTest, CasGlueAndAdjacency) {
  Sys s = MakeSys(R"(
    program env
    vars x
    regs r
    dom 3
    begin
      skip
    end
  )", {R"(
    program dis
    vars x
    regs zero one
    dom 3
    begin
      zero := 0;
      one := 1;
      cas(x, zero, one)
    end
  )"});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  EXPECT_TRUE(complete);
  // CAS on init (glued) or CAS on an env message with value 0 (no glue).
  ASSERT_EQ(guesses.size(), 2u);
  int glued = 0;
  for (const DisGuess& g : guesses) {
    if (g.mem[0][0].glued) {
      ++glued;
      EXPECT_TRUE(g.GapFrozen(0, 0));
    }
  }
  EXPECT_EQ(glued, 1);
}

// --- makeP structure -------------------------------------------------------

TEST(MakePTest, EmitsCacheDatalogWithAtMostTwoBodyAtoms) {
  Sys s = MakeSys(R"(
    program env
    vars x y
    regs r one
    dom 2
    begin
      one := 1;
      r := x;
      y := one
    end
  )", {R"(
    program dis
    vars x y
    regs one
    dom 2
    begin
      one := 1;
      x := one
    end
  )"});
  bool complete = false;
  auto guesses = EnumerateDisGuesses(s.sys, {}, &complete);
  ASSERT_FALSE(guesses.empty());
  MakePOptions opts;
  opts.goal_message = {s.vars.Find("y"), 1};
  MakePResult q = MakeP(s.sys, guesses[0], opts);
  for (const dl::Rule& r : q.prog->rules()) {
    EXPECT_LE(r.body.size(), 2u);
  }
  // The instance is printable.
  EXPECT_NE(q.prog->ToString().find("emp"), std::string::npos);
}

// --- Verifier end-to-end ----------------------------------------------------

TEST(DatalogVerifierTest, MessagePassingForbidden) {
  const char* env = R"(
    program writer
    vars x y
    regs one
    dom 2
    begin
      one := 1;
      y := one;
      x := one
    end
  )";
  const char* dis = R"(
    program reader
    vars x y
    regs a b
    dom 2
    begin
      a := x;
      assume (a == 1);
      b := y;
      assume (b == 0);
      assert false
    end
  )";
  Sys s = MakeSys(env, {dis});
  DatalogVerdict v = DatalogVerify(s.sys);
  EXPECT_FALSE(v.unsafe);
  EXPECT_TRUE(v.exhaustive);
  EXPECT_GT(v.guesses, 0u);
}

TEST(DatalogVerifierTest, MessagePassingPositive) {
  const char* env = R"(
    program writer
    vars x y
    regs one
    dom 2
    begin
      one := 1;
      y := one;
      x := one
    end
  )";
  const char* dis = R"(
    program reader
    vars x y
    regs a b
    dom 2
    begin
      a := x;
      assume (a == 1);
      b := y;
      assume (b == 1);
      assert false
    end
  )";
  Sys s = MakeSys(env, {dis});
  DatalogVerdict v = DatalogVerify(s.sys);
  EXPECT_TRUE(v.unsafe);
  EXPECT_FALSE(v.witness_guess.empty());
}

TEST(DatalogVerifierTest, EnvOnlyChainGoal) {
  const char* env = R"(
    program chain
    vars x
    regs r s
    dom 4
    begin
      r := x;
      s := r + 1;
      x := s
    end
  )";
  Sys s = MakeSys(env, {});
  DatalogVerifierOptions opts;
  opts.goal_message = {VarId(0), Value(3)};
  DatalogVerdict v = DatalogVerify(s.sys, opts);
  EXPECT_TRUE(v.unsafe);

  opts.goal_message = {VarId(0), Value(0)};  // init value, never stored...
  DatalogVerdict v0 = DatalogVerify(s.sys, opts);
  // ...except by an env thread that read 3 and wrapped around: 3+1 = 0.
  EXPECT_TRUE(v0.unsafe);
}

TEST(DatalogVerifierTest, CasContentionSafe) {
  const char* env = R"(
    program noop
    vars x f1 f2
    regs r
    dom 2
    begin
      skip
    end
  )";
  auto contender = [](const char* flag) {
    return std::string(R"(
      program contender
      vars x f1 f2
      regs zero one
      dom 2
      begin
        zero := 0;
        one := 1;
        cas(x, zero, one);
        )") + flag + R"( := one
      end
    )";
  };
  const char* checker = R"(
    program checker
    vars x f1 f2
    regs a b
    dom 2
    begin
      a := f1;
      assume (a == 1);
      b := f2;
      assume (b == 1);
      assert false
    end
  )";
  Sys s = MakeSys(env, {contender("f1"), contender("f2"), checker});
  DatalogVerdict v = DatalogVerify(s.sys);
  EXPECT_TRUE(v.exhaustive);
  EXPECT_FALSE(v.unsafe);
}

// --- Differential: Datalog backend vs saturation explorer -------------------

class BackendAgreementTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BackendAgreementTest, VerdictsAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  RandomProgramOptions env_opts;
  env_opts.num_vars = 2;
  env_opts.num_regs = 1;
  env_opts.dom = 2;
  env_opts.size = 3;
  RandomProgramOptions dis_opts = env_opts;
  dis_opts.size = 3;
  dis_opts.allow_cas = (seed % 3 == 0);

  Program env = RandomProgram(rng, env_opts, "env");
  Program dis = RandomProgram(rng, dis_opts, "dis");

  Sys s;
  s.owned.push_back(std::make_unique<Cfa>(Cfa::Build(env)));
  s.owned.push_back(std::make_unique<Cfa>(Cfa::Build(dis)));
  s.sys.env = s.owned[0].get();
  s.sys.dis = {s.owned[1].get()};
  s.sys.dom = env_opts.dom;
  s.sys.num_vars = env_opts.num_vars;

  // Goal: is the message (v0, 1) generable?
  const std::pair<VarId, Value> goal{VarId(0), Value(1)};

  SimplExplorer ex(s.sys);
  SimplExplorerOptions eopts;
  eopts.goal = goal;
  eopts.max_states = 60'000;
  eopts.time_budget_ms = 10'000;
  SimplResult er = ex.Check(eopts);
  if (!er.goal_reached && !er.exhaustive) {
    GTEST_SKIP() << "explorer inconclusive";
  }

  DatalogVerifierOptions dopts;
  dopts.goal_message = goal;
  dopts.guess.max_guesses = 50'000;
  DatalogVerdict dv = DatalogVerify(s.sys, dopts);
  if (!dv.unsafe && !dv.exhaustive) GTEST_SKIP() << "guess cap hit";

  EXPECT_EQ(er.goal_reached, dv.unsafe) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Corpus, BackendAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 30));

// --- Encoder reuse parity ---------------------------------------------------
//
// The verifier keeps one MakePEncoder per worker for a whole verification
// and reuses each env-signature base across guesses. For every guess, the
// long-lived encoder's instance must be indistinguishable from a fresh
// encoder's (which is what MakeP builds): the same rule text in the same
// order, and the same optimizer outcome — survivors, statistics and
// per-rule removal causes.

void ExpectSameStats(const dlopt::DlOptStats& a, const dlopt::DlOptStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.ToString(), b.ToString()) << label;
  EXPECT_EQ(a.preds_before, b.preds_before) << label;
  EXPECT_EQ(a.preds_after, b.preds_after) << label;
}

// Sets *bases to the number of bases the long-lived encoder built.
void ExpectEncoderReuseParity(const SimplSystem& sys,
                              const MakePOptions& options,
                              std::size_t max_guesses,
                              const std::string& label,
                              std::size_t* bases = nullptr) {
  GuessEnumOptions enum_opts;
  enum_opts.max_guesses = max_guesses;
  bool complete = false;
  const std::vector<DisGuess> guesses =
      EnumerateDisGuesses(sys, enum_opts, &complete);
  MakePEncoder reused(sys, options);
  for (std::size_t g = 0; g < guesses.size(); ++g) {
    const std::string at = label + " guess " + std::to_string(g);
    MakePEncoder fresh(sys, options);
    const MakePInstance a = reused.Encode(guesses[g]);
    const MakePInstance b = fresh.Encode(guesses[g]);
    std::vector<const dl::Rule*> ra;
    std::vector<const dl::Rule*> rb;
    a.AppendRules(&ra);
    b.AppendRules(&rb);
    ASSERT_EQ(ra.size(), rb.size()) << at;
    ASSERT_EQ(a.tables->num_preds(), b.tables->num_preds()) << at;
    ASSERT_EQ(a.goal, b.goal) << at;
    std::vector<std::string> text;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      text.push_back(a.tables->RuleToString(*ra[i]));
      ASSERT_EQ(text[i], b.tables->RuleToString(*rb[i])) << at << " rule " << i;
    }
    const dlopt::RuleListResult oa =
        dlopt::OptimizeRules(*a.tables, ra, a.goal);
    const dlopt::RuleListResult ob =
        dlopt::OptimizeRules(*b.tables, rb, b.goal);
    // The optimizer reads the instance in place and must leave it intact.
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(text[i], a.tables->RuleToString(*ra[i]))
          << at << " rule " << i << " after dlopt";
    }
    ExpectSameStats(oa.stats, ob.stats, at);
    EXPECT_TRUE(oa.cause == ob.cause) << at;
    ASSERT_EQ(oa.kept.size(), ob.kept.size()) << at;
    for (std::size_t i = 0; i < oa.kept.size(); ++i) {
      EXPECT_EQ(a.tables->RuleToString(oa.kept[i]),
                b.tables->RuleToString(ob.kept[i]))
          << at << " survivor " << i;
    }
  }
  if (bases != nullptr) *bases = reused.bases();
}

TEST(EncoderReuseParityTest, BenchmarkCatalog) {
  for (BenchmarkCase& bench : StandardBenchmarks()) {
    ExpectEncoderReuseParity(bench.system.simpl(), {}, 300, bench.name);
  }
}

TEST(EncoderReuseParityTest, RandomSystemsBothQueries) {
  std::size_t guesses_with_shared_base = 0;
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
    const VarId var(static_cast<std::uint32_t>(rng.Below(2)));
    const Value val = rng.IntIn(1, 2);
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "seed " << seed;
    const std::string label = "seed " + std::to_string(seed);
    const SimplSystem& simpl = sys.value().simpl();
    bool complete = false;
    const std::size_t n = EnumerateDisGuesses(simpl, {}, &complete).size();
    std::size_t bases = 0;
    ExpectEncoderReuseParity(simpl, {}, 500, label + " assert", &bases);
    guesses_with_shared_base += std::min<std::size_t>(n, 500) - bases;
    MakePOptions mg;
    mg.goal_message = {var, val};
    ExpectEncoderReuseParity(simpl, mg, 500, label + " mg");
  }
  // The corpus must actually reuse bases.
  EXPECT_GT(guesses_with_shared_base, 200u);
}

// CAS glue freezes gaps, so dis-CAS guesses split over several bases;
// where the env side reads or writes the CAS variable, bases with
// different frozen-gap masks emit different env rules.
TEST(EncoderReuseParityTest, DisCasSystemsWithSeveralSignatures) {
  std::size_t bases = 0;
  ExpectEncoderReuseParity(DekkerCas().system.simpl(), {}, 2'000,
                           "dekker-cas", &bases);
  EXPECT_GT(bases, 1u);
  std::size_t multi_base = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    RandomProgramOptions env_opts;
    env_opts.num_vars = 2;
    env_opts.num_regs = 2;
    env_opts.dom = 3;
    env_opts.size = 5;
    env_opts.allow_cas = false;
    env_opts.allow_loops = false;
    RandomProgramOptions dis_opts = env_opts;
    dis_opts.size = 5;
    dis_opts.allow_cas = true;
    Program env = RandomProgram(rng, env_opts, "env");
    Program dis = RandomProgram(rng, dis_opts, "dis");
    Expected<ParamSystem> sys = ParamSystem::Builder()
                                    .Env(std::move(env))
                                    .Dis(std::move(dis))
                                    .Build();
    ASSERT_TRUE(sys.ok()) << "cas seed " << seed;
    ExpectEncoderReuseParity(sys.value().simpl(), {}, 500,
                             "cas seed " + std::to_string(seed), &bases);
    multi_base += bases > 1;
  }
  EXPECT_GT(multi_base, 5u);
}

}  // namespace
}  // namespace rapar
