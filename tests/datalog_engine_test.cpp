// Datalog engine tests: textbook programs, natives, linearity, early exit,
// the binding frame and native scratch of the delta loop, and golden
// counters on the benchmark's deep-solve instances.
#include "datalog/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/benchmarks.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rapar::dl {
namespace {

// Builds the classic transitive-closure program over a small graph.
struct TcProgram {
  Program prog;
  PredId edge, path;
  Sym a, b, c, d;

  TcProgram() {
    edge = prog.AddPred("edge", 2);
    path = prog.AddPred("path", 2);
    a = prog.ConstSym("a");
    b = prog.ConstSym("b");
    c = prog.ConstSym("c");
    d = prog.ConstSym("d");
    prog.AddFact(Atom{edge, {C(a), C(b)}});
    prog.AddFact(Atom{edge, {C(b), C(c)}});
    prog.AddFact(Atom{edge, {C(c), C(d)}});
    // path(X, Y) :- edge(X, Y).
    prog.AddRule(Rule{Atom{path, {V(0), V(1)}},
                      {Atom{edge, {V(0), V(1)}}},
                      {}});
    // path(X, Z) :- path(X, Y), edge(Y, Z).   (linear: edge is EDB)
    prog.AddRule(Rule{Atom{path, {V(0), V(2)}},
                      {Atom{path, {V(0), V(1)}}, Atom{edge, {V(1), V(2)}}},
                      {}});
  }
};

TEST(DatalogEngineTest, TransitiveClosure) {
  TcProgram tc;
  EXPECT_TRUE(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.d)}}));
  EXPECT_TRUE(Query(tc.prog, Atom{tc.path, {C(tc.b), C(tc.d)}}));
  EXPECT_FALSE(Query(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_FALSE(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.a)}}));
}

TEST(DatalogEngineTest, FullEvalComputesAllTuples) {
  TcProgram tc;
  EvalStats stats;
  Database db = Eval(tc.prog, &stats);
  EXPECT_EQ(db.Tuples(tc.edge).size(), 3u);
  EXPECT_EQ(db.Tuples(tc.path).size(), 6u);  // 3+2+1 pairs
  EXPECT_EQ(stats.tuples, 9u);
}

TEST(DatalogEngineTest, LinearityCheck) {
  TcProgram tc;
  EXPECT_TRUE(tc.prog.IsLinear());
  // Non-linear variant: path(X,Z) :- path(X,Y), path(Y,Z).
  tc.prog.AddRule(Rule{
      Atom{tc.path, {V(0), V(2)}},
      {Atom{tc.path, {V(0), V(1)}}, Atom{tc.path, {V(1), V(2)}}},
      {}});
  EXPECT_FALSE(tc.prog.IsLinear());
}

TEST(DatalogEngineTest, EarlyExitStopsDerivation) {
  TcProgram tc;
  EvalStats stats;
  EvalOptions opts;
  opts.early_exit = true;
  EXPECT_TRUE(
      Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.b)}}, &stats, opts));
  EXPECT_TRUE(stats.goal_found);
  EXPECT_LT(stats.tuples, 9u);
}

TEST(DatalogEngineTest, NativeCheckFiltersBindings) {
  Program prog;
  PredId num = prog.AddPred("num", 1);
  PredId even = prog.AddPred("even", 1);
  std::vector<Sym> syms;
  for (int i = 0; i < 6; ++i) syms.push_back(prog.IntSym(i));
  for (Sym s : syms) prog.AddFact(Atom{num, {C(s)}});
  // even(X) :- num(X), is_even[X].
  Rule r;
  r.head = Atom{even, {V(0)}};
  r.body = {Atom{num, {V(0)}}};
  Native check;
  check.name = "is_even";
  check.inputs = {V(0)};
  // Sym values for IntSym(i) were interned in order, so sym == i here.
  check.fn = [](std::span<const Sym> in, Sym*) { return in[0] % 2 == 0; };
  r.natives.push_back(std::move(check));
  prog.AddRule(std::move(r));

  Database db = Eval(prog);
  EXPECT_EQ(db.Tuples(even).size(), 3u);  // 0, 2, 4
}

TEST(DatalogEngineTest, NativeFunctionBindsOutput) {
  Program prog;
  PredId num = prog.AddPred("num", 1);
  PredId succ = prog.AddPred("succ", 2);
  for (int i = 0; i < 4; ++i) prog.IntSym(i);
  prog.AddFact(Atom{num, {C(0)}});
  // num(Y), succ(X, Y) :- num(X), plus1[X] -> Y  (two rules)
  for (PredId head : {num, succ}) {
    Rule r;
    r.head = head == num ? Atom{num, {V(1)}} : Atom{succ, {V(0), V(1)}};
    r.body = {Atom{num, {V(0)}}};
    Native plus1;
    plus1.name = "plus1";
    plus1.inputs = {V(0)};
    plus1.output = 1;
    plus1.fn = [](std::span<const Sym> in, Sym* out) {
      if (in[0] >= 3) return false;  // stay within interned range
      *out = in[0] + 1;
      return true;
    };
    r.natives.push_back(std::move(plus1));
    prog.AddRule(std::move(r));
  }
  Database db = Eval(prog);
  EXPECT_EQ(db.Tuples(num).size(), 4u);   // 0..3
  EXPECT_EQ(db.Tuples(succ).size(), 3u);  // (0,1) (1,2) (2,3)
}

TEST(DatalogEngineTest, TupleBudgetThrows) {
  TcProgram tc;
  EvalOptions opts;
  opts.max_tuples = 4;
  // BudgetExceeded derives from runtime_error (legacy catch sites).
  EXPECT_THROW(Eval(tc.prog, nullptr, opts), std::runtime_error);
  try {
    Eval(tc.prog, nullptr, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.budget(), 4u);
  }
}

// --- input validation (release-build UB fixes) ----------------------------
// These used to be assert-only: in an NDEBUG build a non-ground goal read
// Term::val of a variable as a constant and an unbound native input
// dereferenced an empty optional. They are structured errors now.

TEST(DatalogEngineTest, NonGroundGoalIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {V(0), C(tc.a)}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, ArityMismatchedGoalIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {C(tc.a)}}),
               std::invalid_argument);
  EXPECT_THROW(Query(tc.prog, Atom{tc.path, {C(tc.a), C(tc.b), C(tc.c)}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, UnknownGoalPredicateIsRejected) {
  TcProgram tc;
  EXPECT_THROW(Query(tc.prog, Atom{static_cast<PredId>(99), {}}),
               std::invalid_argument);
}

TEST(DatalogEngineTest, UnboundNativeInputIsRejected) {
  // q(X) :- p(X), f[Y] -> Z: Y is bound by nothing when the native runs.
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  Rule r;
  r.head = Atom{q, {V(0)}};
  r.body = {Atom{p, {V(0)}}};
  Native f;
  f.name = "f";
  f.inputs = {V(1)};  // unbound
  f.output = 2;
  f.fn = [](std::span<const Sym>, Sym* out) {
    *out = 0;
    return true;
  };
  r.natives.push_back(std::move(f));
  prog.AddRule(std::move(r));
  EXPECT_THROW(Eval(prog), std::invalid_argument);
  EXPECT_THROW(Query(prog, Atom{q, {C(a)}}), std::invalid_argument);
}

TEST(DatalogEngineTest, NativeInputBoundByEarlierOutputIsAccepted) {
  // q(Z) :- p(X), f[X] -> Y, g[Y] -> Z: chained outputs are fine.
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  Rule r;
  r.head = Atom{q, {V(2)}};
  r.body = {Atom{p, {V(0)}}};
  auto id = [](std::span<const Sym> in, Sym* out) {
    *out = in[0];
    return true;
  };
  Native f;
  f.name = "f";
  f.inputs = {V(0)};
  f.output = 1;
  f.fn = id;
  Native g;
  g.name = "g";
  g.inputs = {V(1)};
  g.output = 2;
  g.fn = id;
  r.natives.push_back(std::move(f));
  r.natives.push_back(std::move(g));
  prog.AddRule(std::move(r));
  EXPECT_TRUE(Query(prog, Atom{q, {C(a)}}));
}

TEST(DatalogEngineTest, UnboundHeadVariableIsRejected) {
  Program prog;
  PredId p = prog.AddPred("p", 1);
  PredId q = prog.AddPred("q", 1);
  Sym a = prog.ConstSym("a");
  prog.AddFact(Atom{p, {C(a)}});
  // q(Y) :- p(X): Y is unbound.
  prog.AddRule(Rule{Atom{q, {V(1)}}, {Atom{p, {V(0)}}}, {}});
  EXPECT_THROW(Eval(prog), std::invalid_argument);
}

TEST(DatalogEngineTest, BodyAtomArityMismatchIsRejected) {
  Program prog;
  PredId p = prog.AddPred("p", 2);
  PredId q = prog.AddPred("q", 1);
  prog.AddRule(Rule{Atom{q, {V(0)}}, {Atom{p, {V(0)}}}, {}});  // p used /1
  EXPECT_THROW(Eval(prog), std::invalid_argument);
}

// --- argument-hash indexes and engine reuse -------------------------------

TEST(DatalogEngineTest, IndexReducesJoinAttempts) {
  TcProgram tc;
  EvalStats indexed, scanned;
  EvalOptions scan;
  scan.engine.use_index = false;
  scan.engine.reorder_joins = false;
  Eval(tc.prog, &scanned, scan);
  Eval(tc.prog, &indexed);
  EXPECT_EQ(indexed.tuples, scanned.tuples);
  EXPECT_LT(indexed.join_attempts, scanned.join_attempts);
  EXPECT_GT(indexed.index_probes, 0u);
  EXPECT_GT(indexed.index_builds, 0u);
  EXPECT_EQ(scanned.index_probes, 0u);
  EXPECT_EQ(scanned.index_builds, 0u);
}

TEST(DatalogEngineTest, EngineReusesFactSnapshotAcrossSolves) {
  TcProgram tc;
  Engine engine;
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_EQ(engine.fact_reuses(), 0u);
  const std::size_t first = engine.last_stats().tuples;
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}));
  EXPECT_EQ(engine.fact_reuses(), 1u);
  EXPECT_EQ(engine.last_stats().tuples, first);  // same fixpoint either way

  // A different fact set invalidates the snapshot.
  TcProgram other;
  other.prog.AddFact(Atom{other.edge, {C(other.d), C(other.a)}});
  EXPECT_TRUE(
      engine.Solve(other.prog, Atom{other.path, {C(other.d), C(other.b)}}));
  EXPECT_EQ(engine.fact_reuses(), 1u);
}

TEST(DatalogEngineTest, EngineReusesAcrossDifferentDerivedPredicates) {
  // The Datalog backend's per-guess programs share their EDB but differ
  // in derived-only predicates; reuse must survive a predicate-count
  // change in both directions (grow, then shrink).
  TcProgram a;
  Engine engine;
  EXPECT_FALSE(engine.Solve(a.prog, Atom{a.path, {C(a.d), C(a.a)}}));
  EXPECT_EQ(engine.fact_reuses(), 0u);

  TcProgram b;
  PredId twohop = b.prog.AddPred("twohop", 2);
  b.prog.AddRule(Rule{
      Atom{twohop, {V(0), V(2)}},
      {Atom{b.edge, {V(0), V(1)}}, Atom{b.edge, {V(1), V(2)}}},
      {}});
  EXPECT_TRUE(engine.Solve(b.prog, Atom{twohop, {C(b.a), C(b.c)}}));
  EXPECT_EQ(engine.fact_reuses(), 1u);

  TcProgram c;
  EXPECT_TRUE(engine.Solve(c.prog, Atom{c.path, {C(c.a), C(c.d)}}));
  EXPECT_EQ(engine.fact_reuses(), 2u);
}

TEST(DatalogEngineTest, EngineReuseDisabledNeverRollsBack) {
  TcProgram tc;
  Engine engine;
  EvalOptions opts;
  opts.engine.reuse_facts = false;
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}, opts));
  EXPECT_FALSE(engine.Solve(tc.prog, Atom{tc.path, {C(tc.d), C(tc.a)}}, opts));
  EXPECT_EQ(engine.fact_reuses(), 0u);
}

TEST(DatalogEngineTest, ProgramPrinting) {
  TcProgram tc;
  std::string text = tc.prog.ToString();
  EXPECT_NE(text.find("path(X0, X2) :- path(X0, X1), edge(X1, X2)."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("edge(a, b)."), std::string::npos);
  EXPECT_NE(text.find(".decl path/2"), std::string::npos);
}

TEST(DatalogEngineTest, IdbPredsExcludesFactOnly) {
  TcProgram tc;
  std::vector<bool> idb = tc.prog.IdbPreds();
  EXPECT_FALSE(idb[tc.edge]);
  EXPECT_TRUE(idb[tc.path]);
}

// --- binding frame and native scratch ------------------------------------
//
// The delta loop clears one solve-sized binding frame by undoing its trail
// and evaluates native inputs into arena scratch. These programs target
// what that could get wrong — a binding left over from an earlier, wider
// rule; a native whose output feeds the next native; a repeated variable
// in the delta atom — and check the engine against a naive reference.

using GroundAtom = std::vector<Sym>;  // [pred, args...]

// The least model by naive iteration: every round joins every rule
// against every known atom, with a fresh frame per rule. Shares nothing
// with the engine's worklist, indexes or frame.
std::set<GroundAtom> NaiveModel(const Program& prog) {
  std::set<GroundAtom> model;
  for (bool grew = true; grew;) {
    std::set<GroundAtom> next = model;
    for (const Rule& r : prog.rules()) {
      std::vector<std::optional<Sym>> env(64);  // > any variable used here
      const auto value = [&](const Term& t) {
        return t.kind == Term::Kind::kConst ? t.val : *env[t.val];
      };
      std::function<void(std::size_t)> join = [&](std::size_t at) {
        if (at < r.body.size()) {
          const Atom& a = r.body[at];
          for (const GroundAtom& g : model) {
            if (g[0] != a.pred) continue;
            const auto saved = env;
            bool ok = true;
            for (std::size_t i = 0; ok && i < a.args.size(); ++i) {
              const Term& t = a.args[i];
              if (t.kind == Term::Kind::kVar && !env[t.val]) {
                env[t.val] = g[i + 1];
              }
              ok = value(t) == g[i + 1];
            }
            if (ok) join(at + 1);
            env = saved;
          }
          return;
        }
        const auto saved = env;
        for (const Native& n : r.natives) {
          std::vector<Sym> in;
          for (const Term& t : n.inputs) in.push_back(value(t));
          Sym out = 0;
          if (!n.fn(in, &out) ||
              (n.output && env[*n.output] && *env[*n.output] != out)) {
            env = saved;
            return;
          }
          if (n.output) env[*n.output] = out;
        }
        GroundAtom head{r.head.pred};
        for (const Term& t : r.head.args) head.push_back(value(t));
        next.insert(std::move(head));
        env = saved;
      };
      join(0);
    }
    grew = next.size() != model.size();
    model = std::move(next);
  }
  return model;
}

std::set<GroundAtom> EngineModel(const Program& prog) {
  const Database db = Eval(prog);
  std::set<GroundAtom> out;
  for (PredId p = 0; p < prog.num_preds(); ++p) {
    for (const std::vector<Sym>& tuple : db.Tuples(p)) {
      GroundAtom g{p};
      g.insert(g.end(), tuple.begin(), tuple.end());
      out.insert(std::move(g));
    }
  }
  return out;
}

// Asks `engine` every ground goal over the program's constants on the
// given predicates and compares each answer with the naive model.
void ExpectEngineAnswersMatchNaive(Engine& engine, const Program& prog,
                                   const std::vector<PredId>& preds) {
  const std::set<GroundAtom> model = NaiveModel(prog);
  const Sym consts = static_cast<Sym>(prog.num_consts());
  for (const PredId p : preds) {
    const std::size_t arity = prog.pred(p).arity;
    std::vector<Sym> tuple(arity, 0);
    for (bool more = true; more;) {
      Atom goal{p, {}};
      GroundAtom g{p};
      for (const Sym s : tuple) {
        goal.args.push_back(C(s));
        g.push_back(s);
      }
      EXPECT_EQ(engine.Solve(prog, goal), model.count(g) == 1)
          << prog.AtomToString(goal);
      more = false;
      for (std::size_t i = 0; i < arity && !more; ++i) {
        more = ++tuple[i] < consts;
        if (!more) tuple[i] = 0;
      }
    }
  }
}

// A chain a0 -> a1 -> ... -> a5 and a rule with ten variables whose goal
// derivation stops the solve mid-join, with the frame full of bindings.
struct WideProgram {
  Program prog;
  PredId edge, hop5;
  std::vector<Sym> a;

  WideProgram() {
    edge = prog.AddPred("edge", 2);
    hop5 = prog.AddPred("hop5", 2);
    for (int i = 0; i < 6; ++i) {
      a.push_back(prog.ConstSym("a" + std::to_string(i)));
    }
    for (int i = 0; i + 1 < 6; ++i) {
      prog.AddFact(Atom{edge, {C(a[i]), C(a[i + 1])}});
    }
    // hop5(X0, X5) :- edge(X0, X1), ..., edge(X4, X5), edge(X1, X6), ...,
    // edge(X4, X9): X6..X9 repeat X2..X5, so the frame is wider than the
    // narrow rules below.
    Rule r;
    r.head = Atom{hop5, {V(0), V(5)}};
    for (VarSym v = 0; v < 5; ++v) {
      r.body.push_back(Atom{edge, {V(v), V(v + 1)}});
    }
    for (VarSym v = 6; v < 10; ++v) {
      r.body.push_back(Atom{edge, {V(v - 5), V(v)}});
    }
    prog.AddRule(std::move(r));
  }
};

TEST(EngineFrameTest, NarrowRuleAfterWideRuleOnOneEngine) {
  WideProgram wide;
  ASSERT_EQ(NaiveModel(wide.prog), EngineModel(wide.prog));
  // sym(X, Y) :- link(X, Y).  sym(Y, X) :- link(X, Y).  loop(X) :- sym(X, X).
  Program narrow;
  const PredId link = narrow.AddPred("link", 2);
  const PredId sym = narrow.AddPred("sym", 2);
  const PredId loop = narrow.AddPred("loop", 1);
  const Sym b0 = narrow.ConstSym("b0"), b1 = narrow.ConstSym("b1"),
            b2 = narrow.ConstSym("b2");
  narrow.AddFact(Atom{link, {C(b0), C(b1)}});
  narrow.AddFact(Atom{link, {C(b1), C(b1)}});
  narrow.AddFact(Atom{link, {C(b2), C(b0)}});
  narrow.AddRule(Rule{Atom{sym, {V(0), V(1)}}, {Atom{link, {V(0), V(1)}}}, {}});
  narrow.AddRule(Rule{Atom{sym, {V(1), V(0)}}, {Atom{link, {V(0), V(1)}}}, {}});
  narrow.AddRule(Rule{Atom{loop, {V(0)}}, {Atom{sym, {V(0), V(0)}}}, {}});

  Engine engine;
  for (int round = 0; round < 2; ++round) {
    // Each wide solve exits on its goal with bindings still in the frame.
    EXPECT_TRUE(
        engine.Solve(wide.prog, Atom{wide.hop5, {C(wide.a[0]), C(wide.a[5])}}));
    EXPECT_TRUE(engine.last_stats().goal_found);
    ExpectEngineAnswersMatchNaive(engine, narrow, {sym, loop});
  }
}

TEST(EngineFrameTest, NativeOutputFeedsLaterNative) {
  // out(X, Z) :- num(X), succ[X] -> Y, twice[Y, X] -> Z, even[Z]: the
  // second native reads the first one's output, the check the second's.
  Program prog;
  const PredId num = prog.AddPred("num", 1);
  const PredId out = prog.AddPred("out", 2);
  for (int i = 0; i < 12; ++i) prog.IntSym(i);  // Sym i stands for i
  for (Sym i = 0; i < 4; ++i) prog.AddFact(Atom{num, {C(i)}});
  Rule r;
  r.head = Atom{out, {V(0), V(2)}};
  r.body = {Atom{num, {V(0)}}};
  Native succ{"succ", "succ", {V(0)}, VarSym{1},
              [](std::span<const Sym> in, Sym* o) {
                *o = in[0] + 1;
                return true;
              }};
  Native twice{"twice", "twice", {V(1), V(0)}, VarSym{2},
               [](std::span<const Sym> in, Sym* o) {
                 *o = in[0] + in[1];  // (x + 1) + x
                 return true;
               }};
  Native odd{"odd", "odd", {V(2)}, std::nullopt,
             [](std::span<const Sym> in, Sym*) { return in[0] % 2 == 1; }};
  r.natives = {succ, twice, odd};
  prog.AddRule(std::move(r));
  const std::set<GroundAtom> model = NaiveModel(prog);
  EXPECT_EQ(EngineModel(prog), model);
  EXPECT_EQ(model.count(GroundAtom{out, 3, 7}), 1u);
  Engine engine;
  ExpectEngineAnswersMatchNaive(engine, prog, {out});
}

TEST(EngineFrameTest, RepeatedVariableInDeltaAtom) {
  // diag(X) :- pair(X, c, X).  mid(Y) :- pair(X, Y, X), pair(Y, Y, Y).
  // Delta tuples must agree on the repeated positions and the constant.
  Program prog;
  const PredId pair = prog.AddPred("pair", 3);
  const PredId diag = prog.AddPred("diag", 1);
  const PredId mid = prog.AddPred("mid", 1);
  std::vector<Sym> s;
  for (int i = 0; i < 3; ++i) {
    s.push_back(prog.ConstSym("s" + std::to_string(i)));
  }
  const Sym c = s[2];
  for (const auto& [x, y, z] :
       {std::tuple{0, 2, 0}, std::tuple{0, 2, 1}, std::tuple{1, 1, 1},
        std::tuple{0, 1, 0}, std::tuple{2, 2, 2}, std::tuple{1, 2, 0}}) {
    prog.AddFact(Atom{pair, {C(s[x]), C(s[y]), C(s[z])}});
  }
  prog.AddRule(Rule{Atom{diag, {V(0)}}, {Atom{pair, {V(0), C(c), V(0)}}}, {}});
  prog.AddRule(Rule{Atom{mid, {V(1)}},
                    {Atom{pair, {V(0), V(1), V(0)}},
                     Atom{pair, {V(1), V(1), V(1)}}},
                    {}});
  const std::set<GroundAtom> model = NaiveModel(prog);
  EXPECT_EQ(EngineModel(prog), model);
  EXPECT_EQ(model.count(GroundAtom{diag, s[0]}), 1u);
  EXPECT_EQ(model.count(GroundAtom{mid, s[1]}), 1u);
  Engine engine;
  ExpectEngineAnswersMatchNaive(engine, prog, {diag, mid});
}

// --- counter parity on the deep-solve instances ---------------------------
//
// Golden EvalStats for the instances rapar-bench's deep-solve workload
// draws, recorded before the delta loop stopped re-zeroing the binding
// frame per rule occurrence and heap-allocating native inputs per call.
// Those are pure evaluation-cost changes: derivation order, and with it
// every counter and the derived bit, must stay exactly as recorded.

struct DeepInstance {
  std::string name;
  ParamSystem system;
};

// Two TQBF n=3 and four n=2 instances off QBF stream 2022, drawn as
// rapar-bench's deep-solve pool draws them (16 n=2 QBFs, then 8 n=3), plus
// ProducerConsumerSafe(12).
std::vector<DeepInstance> DeepSolveInstances() {
  std::vector<DeepInstance> out;
  Rng stream(2022);
  auto draw = [&](int n) {
    Rng qrng(stream.Next());
    const Qbf qbf = RandomQbf(qrng, n, 4 + 2 * n);
    return TqbfSystem(qbf).value();
  };
  for (int i = 0; i < 16; ++i) {
    ParamSystem sys = draw(2);
    if (i < 4) out.push_back({"tqbf2#" + std::to_string(i), std::move(sys)});
  }
  for (int i = 0; i < 2; ++i) {
    out.push_back({"tqbf3#" + std::to_string(i), draw(3)});
  }
  out.push_back({"pc-safe(12)", ProducerConsumerSafe(12).system});
  return out;
}

struct SolveTotals {
  std::size_t tuples = 0;
  std::size_t rule_firings = 0;
  std::size_t join_attempts = 0;
  std::size_t index_probes = 0;
  std::size_t index_hits = 0;
  bool goal_found = false;
  bool derived = false;

  bool operator==(const SolveTotals&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SolveTotals& t) {
  return os << "{" << t.tuples << ", " << t.rule_firings << ", "
            << t.join_attempts << ", " << t.index_probes << ", "
            << t.index_hits << ", " << t.goal_found << ", " << t.derived
            << "}";
}

// Runs every guess of `sys` the way the Datalog backend does (makeP, then
// dlopt with its join hints, then Engine::Solve), twice over on one
// engine so the second pass runs on a warm arena (fact reuse), at default
// engine options. Sums the per-solve counters.
SolveTotals SolveEveryGuessTwice(const SimplSystem& sys) {
  std::vector<DisGuess> guesses;
  EnumerateDisGuesses(sys, GuessEnumOptions{},
                      [&guesses](std::size_t, DisGuess&& g) {
                        guesses.push_back(std::move(g));
                        return true;
                      });
  MakePEncoder encoder(sys, MakePOptions{});
  Engine engine;
  SolveTotals t;
  std::vector<const Rule*> rules;
  for (int pass = 0; pass < 2; ++pass) {
    for (const DisGuess& guess : guesses) {
      const MakePInstance inst = encoder.Encode(guess);
      Program& prog = *inst.tables;
      rules.clear();
      inst.AppendRules(&rules);
      prog.SetRules(dlopt::OptimizeRules(prog, rules, inst.goal).kept);
      const JoinHints hints =
          dlopt::MakeJoinHints(dlopt::PredGraph::Build(prog));
      EvalOptions opts;
      opts.hints = &hints;
      const bool derived = engine.Solve(prog, inst.goal, opts);
      const EvalStats& s = engine.last_stats();
      t.tuples += s.tuples;
      t.rule_firings += s.rule_firings;
      t.join_attempts += s.join_attempts;
      t.index_probes += s.index_probes;
      t.index_hits += s.index_hits;
      t.goal_found = t.goal_found || s.goal_found;
      t.derived = t.derived || derived;
      if (derived) break;  // the verifier stops at the first derivation
    }
  }
  return t;
}

TEST(EngineCounterParityTest, DeepSolveInstancesMatchGoldenStats) {
  struct Golden {
    const char* name;
    SolveTotals plain;
  };
  const Golden goldens[] = {
      // {tuples, rule_firings, join_attempts, index_probes, index_hits,
      //  goal_found, derived}, summed over both passes.
      {"tqbf2#0", {2546, 4610, 4136, 1502, 4136, false, false}},
      {"tqbf2#1", {790, 838, 440, 570, 440, false, false}},
      {"tqbf2#2", {1812, 2820, 2416, 918, 2416, false, false}},
      {"tqbf2#3", {4480, 11474, 10824, 3302, 10824, true, true}},
      {"tqbf3#0", {30516, 217988, 215546, 18890, 215546, false, false}},
      {"tqbf3#1", {36246, 280978, 277970, 22382, 277970, true, true}},
      {"pc-safe(12)", {88, 112, 52, 36, 28, false, false}},
  };
  const std::vector<DeepInstance> instances = DeepSolveInstances();
  ASSERT_EQ(instances.size(), std::size(goldens));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ASSERT_EQ(instances[i].name, goldens[i].name);
    const SimplSystem& sys = instances[i].system.simpl();
    EXPECT_EQ(SolveEveryGuessTwice(sys), goldens[i].plain)
        << goldens[i].name << " (default options)";
  }
}

}  // namespace
}  // namespace rapar::dl
