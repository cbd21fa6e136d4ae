#include "encoding/makep.h"

#include <cassert>

#include "analysis/reachability.h"
#include "common/strings.h"

namespace rapar {

namespace {

using dl::Atom;
using dl::C;
using dl::Native;
using dl::PredId;
using dl::Rule;
using dl::Sym;
using dl::Term;
using dl::V;

// Symbol layout of one base. Convention for constants: abstract
// timestamps are interned first so that Sym value == encoded timestamp;
// domain values follow at val_off; then node and variable tags.
struct Layout {
  std::size_t k = 0;  // |Var|
  std::size_t m = 0;  // env registers
  Sym val_off = 0;
  Sym node_off = 0;
  Sym var_off = 0;
  PredId emp = 0, dmp = 0, etp = 0, unsafe = 0;
};

// Interns the base's constants and predicates into `prog` for the env
// signature of `guess`.
Layout MakeTables(const SimplSystem& sys, const DisGuess& guess,
                  dl::Program& prog) {
  Layout lay;
  lay.k = sys.num_vars;
  lay.m = sys.env->program().regs().size();

  // Maximum abstract timestamp: 2*T_x + 1 over all variables.
  int max_ts = 1;
  for (std::size_t x = 0; x < lay.k; ++x) {
    max_ts = std::max(max_ts, 2 * guess.StoresOn(x) + 1);
  }
  for (int t = 0; t <= max_ts; ++t) {
    Sym s = prog.ConstSym(StrCat("$ts", AbsTsToString(t)));
    assert(s == static_cast<Sym>(t));
    (void)s;
  }
  lay.val_off = static_cast<Sym>(max_ts + 1);
  for (Value v = 0; v < sys.dom; ++v) {
    Sym s = prog.ConstSym(StrCat("$val", v));
    assert(s == lay.val_off + static_cast<Sym>(v));
    (void)s;
  }
  lay.node_off = lay.val_off + static_cast<Sym>(sys.dom);
  for (std::size_t n = 0; n < sys.env->num_nodes(); ++n) {
    prog.ConstSym(StrCat("$n", n));
  }
  lay.var_off = lay.node_off + static_cast<Sym>(sys.env->num_nodes());
  for (std::size_t x = 0; x < lay.k; ++x) {
    prog.ConstSym(
        StrCat("$var_", sys.env->program().vars().Name(
                            VarId(static_cast<std::uint32_t>(x)))));
  }

  lay.emp = prog.AddPred("emp", 2 + lay.k);
  lay.dmp = prog.AddPred("dmp", 2 + lay.k);
  lay.etp = prog.AddPred("etp", 1 + lay.m + lay.k);
  lay.unsafe = prog.AddPred("unsafe", 0);
  return lay;
}

// Emits rules for one guess into `out_`. The env side (facts, env rules,
// goal rules) reads the guess only through its env signature, so the
// encoder runs it once per base; the dis chains are emitted per guess.
class Emitter {
 public:
  Emitter(const SimplSystem& sys, const DisGuess& guess,
          const MakePOptions& options, const Layout& lay,
          std::vector<Rule>* out)
      : sys_(sys),
        guess_(guess),
        options_(options),
        out_(out),
        k_(lay.k),
        m_(lay.m),
        val_off_(lay.val_off),
        node_off_(lay.node_off),
        var_off_(lay.var_off),
        emp_(lay.emp),
        dmp_(lay.dmp),
        etp_(lay.etp),
        unsafe_(lay.unsafe) {}

 private:
  Sym TsSym(int ts) const { return static_cast<Sym>(ts); }
  Sym ValSym(Value v) const { return val_off_ + static_cast<Sym>(v); }
  Sym NodeSym(NodeId n) const {
    return node_off_ + static_cast<Sym>(n.value());
  }
  Sym NodeSym(std::uint32_t n) const { return node_off_ + n; }
  Sym VarSymOf(VarId x) const { return var_off_ + x.value(); }

  // --- natives -----------------------------------------------------------

  static Native LeqCheck(Term a, Term b) {
    Native n;
    n.name = "leq";
    n.tag = "leq";
    n.inputs = {a, b};
    n.fn = [](std::span<const Sym> in, Sym*) { return in[0] <= in[1]; };
    return n;
  }

  static Native MaxFn(Term a, Term b, dl::VarSym out) {
    Native n;
    n.name = "max";
    n.tag = "max";
    n.inputs = {a, b};
    n.output = out;
    n.fn = [](std::span<const Sym> in, Sym* o) {
      *o = std::max(in[0], in[1]);
      return true;
    };
    return n;
  }

  // The register values a native's value-symbol inputs stand for, decoded
  // into per-thread scratch: assume/eval natives run once per candidate
  // binding, so a fresh vector per call would cost an allocation each.
  // Expr::Eval never re-enters a native, so one buffer per thread is safe.
  static std::span<const Value> DecodeRegs(std::span<const Sym> in, Sym off) {
    thread_local std::vector<Value> rv;
    rv.resize(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      rv[i] = static_cast<Value>(in[i] - off);
    }
    return rv;
  }

  Native ExprCheck(const ExprPtr& expr) const {
    Native n;
    n.name = "assume";
    n.tag = StrCat("assume:", expr->ToString(sys_.env->program().regs()));
    for (std::size_t r = 0; r < m_; ++r) {
      n.inputs.push_back(V(static_cast<dl::VarSym>(r)));
    }
    const Sym off = val_off_;
    const Value dom = sys_.dom;
    n.fn = [expr, off, dom](std::span<const Sym> in, Sym*) {
      return expr->Eval(DecodeRegs(in, off), dom) != 0;
    };
    return n;
  }

  Native ExprFn(const ExprPtr& expr, dl::VarSym out) const {
    Native n;
    n.name = "eval";
    n.tag = StrCat("eval:", expr->ToString(sys_.env->program().regs()));
    for (std::size_t r = 0; r < m_; ++r) {
      n.inputs.push_back(V(static_cast<dl::VarSym>(r)));
    }
    n.output = out;
    const Sym off = val_off_;
    const Value dom = sys_.dom;
    n.fn = [expr, off, dom](std::span<const Sym> in, Sym* o) {
      *o = off + static_cast<Sym>(expr->Eval(DecodeRegs(in, off), dom));
      return true;
    };
    return n;
  }

  // --- env rule plumbing ----------------------------------------------------
  //
  // Variable layout for env rules: 0..m-1 registers, m..m+k-1 view, then
  // scratch variables from m+k upward.

  Term RvVar(std::size_t r) const { return V(static_cast<dl::VarSym>(r)); }
  Term ViewVar(std::size_t x) const {
    return V(static_cast<dl::VarSym>(m_ + x));
  }

  Atom EtpAtom(NodeId node, const std::vector<Term>& rv,
               const std::vector<Term>& view) const {
    Atom a;
    a.pred = etp_;
    a.args.push_back(C(NodeSym(node)));
    a.args.insert(a.args.end(), rv.begin(), rv.end());
    a.args.insert(a.args.end(), view.begin(), view.end());
    return a;
  }

  std::vector<Term> IdentityRv() const {
    std::vector<Term> rv;
    for (std::size_t r = 0; r < m_; ++r) rv.push_back(RvVar(r));
    return rv;
  }
  std::vector<Term> IdentityView() const {
    std::vector<Term> vw;
    for (std::size_t x = 0; x < k_; ++x) vw.push_back(ViewVar(x));
    return vw;
  }

  // --- base: init facts, env rules, goal rules ---------------------------

 public:
  void AddFacts() {
    // Initial dis (init) messages: value d_init, zero view.
    for (std::size_t x = 0; x < k_; ++x) {
      Atom a;
      a.pred = dmp_;
      a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      a.args.push_back(C(ValSym(kInitValue)));
      for (std::size_t y = 0; y < k_; ++y) a.args.push_back(C(TsSym(0)));
      AddFact(std::move(a));
    }
    // Initial env-thread configuration.
    {
      Atom a;
      a.pred = etp_;
      a.args.push_back(C(NodeSym(std::uint32_t{0})));
      for (std::size_t r = 0; r < m_; ++r) {
        a.args.push_back(C(ValSym(kInitValue)));
      }
      for (std::size_t x = 0; x < k_; ++x) a.args.push_back(C(TsSym(0)));
      AddFact(std::move(a));
    }
  }

  // Dead env edges (unreachable source or constantly-false guard) would
  // generate rules that can never fire; skip them so the emitted program
  // stays small even when the caller did not run the verifier pre-pass.
  void AddEnvRules(const std::vector<bool>& edge_dead) {
    const Cfa& cfa = *sys_.env;
    for (std::size_t ei = 0; ei < cfa.edges().size(); ++ei) {
      if (edge_dead[ei]) continue;
      const CfaEdge& edge = cfa.edges()[ei];
      const Instr& instr = edge.instr;
      switch (instr.kind) {
        case Instr::Kind::kNop: {
          Rule r;
          r.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kAssume: {
          Rule r;
          r.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          r.natives.push_back(ExprCheck(instr.expr));
          AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kAssertFail: {
          Rule r;
          r.head = Atom{unsafe_, {}};
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          AddRule(std::move(r));
          Rule adv;
          adv.head = EtpAtom(edge.to, IdentityRv(), IdentityView());
          adv.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          AddRule(std::move(adv));
          break;
        }
        case Instr::Kind::kAssign: {
          const dl::VarSym out = static_cast<dl::VarSym>(m_ + k_);
          std::vector<Term> rv = IdentityRv();
          rv[instr.reg.index()] = V(out);
          Rule r;
          r.head = EtpAtom(edge.to, rv, IdentityView());
          r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
          r.natives.push_back(ExprFn(instr.expr, out));
          AddRule(std::move(r));
          break;
        }
        case Instr::Kind::kLoad:
          AddEnvLoadRules(edge);
          break;
        case Instr::Kind::kStore:
          AddEnvStoreRules(edge);
          break;
        case Instr::Kind::kCas:
          assert(false && "env threads are CAS-free (env(nocas))");
          break;
      }
    }
  }

 private:
  void AddEnvLoadRules(const CfaEdge& edge) {
    const Instr& instr = edge.instr;
    const std::size_t x = instr.var.index();
    // Scratch variables: message value D, message view U_0..U_{k-1},
    // joined view W_0..W_{k-1}.
    const dl::VarSym d0 = static_cast<dl::VarSym>(m_ + k_);
    const dl::VarSym u0 = d0 + 1;
    const dl::VarSym w0 = u0 + static_cast<dl::VarSym>(k_);
    auto msg_atom = [&](PredId pred) {
      Atom a;
      a.pred = pred;
      a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      a.args.push_back(V(d0));
      for (std::size_t y = 0; y < k_; ++y) {
        a.args.push_back(V(u0 + static_cast<dl::VarSym>(y)));
      }
      return a;
    };
    std::vector<Term> rv = IdentityRv();
    rv[instr.reg.index()] = V(d0);

    // (a) From a dis message: timestamp check + full join.
    {
      Rule r;
      std::vector<Term> w;
      for (std::size_t y = 0; y < k_; ++y) {
        w.push_back(V(w0 + static_cast<dl::VarSym>(y)));
        r.natives.push_back(MaxFn(ViewVar(y),
                                  V(u0 + static_cast<dl::VarSym>(y)),
                                  w0 + static_cast<dl::VarSym>(y)));
      }
      r.head = EtpAtom(edge.to, rv, w);
      r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView()),
                msg_atom(dmp_)};
      // view(x) <= msg.ts(x)
      r.natives.push_back(
          LeqCheck(ViewVar(x), V(u0 + static_cast<dl::VarSym>(x))));
      AddRule(std::move(r));
    }
    // (b) From an env message, clone promoted into unfrozen gap h.
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      Rule r;
      std::vector<Term> w;
      for (std::size_t y = 0; y < k_; ++y) {
        if (y == x) {
          w.push_back(C(TsSym(PlusTs(h))));
        } else {
          w.push_back(V(w0 + static_cast<dl::VarSym>(y)));
          r.natives.push_back(MaxFn(ViewVar(y),
                                    V(u0 + static_cast<dl::VarSym>(y)),
                                    w0 + static_cast<dl::VarSym>(y)));
        }
      }
      r.head = EtpAtom(edge.to, rv, w);
      r.body = {EtpAtom(edge.from, IdentityRv(), IdentityView()),
                msg_atom(emp_)};
      r.natives.push_back(LeqCheck(ViewVar(x), C(TsSym(PlusTs(h)))));
      r.natives.push_back(
          LeqCheck(V(u0 + static_cast<dl::VarSym>(x)), C(TsSym(PlusTs(h)))));
      AddRule(std::move(r));
    }
  }

  void AddEnvStoreRules(const CfaEdge& edge) {
    const Instr& instr = edge.instr;
    const std::size_t x = instr.var.index();
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      std::vector<Term> w = IdentityView();
      w[x] = C(TsSym(PlusTs(h)));
      // emp(x, rv[reg], view[x -> h+]) :- etp(from, ...), view(x) <= h+.
      Rule msg;
      msg.head = Atom{emp_, {}};
      msg.head.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      msg.head.args.push_back(RvVar(instr.reg.index()));
      msg.head.args.insert(msg.head.args.end(), w.begin(), w.end());
      msg.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
      msg.natives.push_back(LeqCheck(ViewVar(x), C(TsSym(PlusTs(h)))));
      AddRule(std::move(msg));

      Rule adv;
      adv.head = EtpAtom(edge.to, IdentityRv(), w);
      adv.body = {EtpAtom(edge.from, IdentityRv(), IdentityView())};
      adv.natives.push_back(LeqCheck(ViewVar(x), C(TsSym(PlusTs(h)))));
      AddRule(std::move(adv));
    }
  }

  // --- dis chains --------------------------------------------------------
  //
  // Variable layout for dis rules: 0..k-1 current view T, then scratch.

 public:
  // Appends the dtp_t_j predicates (arity k) to `prog`, after the base's.
  void AddDisChains(dl::Program& prog) {
    std::vector<PredId> dtp;
    for (std::size_t t = 0; t < guess_.threads.size(); ++t) {
      const ThreadGuess& path = guess_.threads[t];
      const Cfa& cfa = *sys_.dis[t];
      dtp.resize(path.steps.size() + 1);
      for (std::size_t j = 0; j <= path.steps.size(); ++j) {
        dtp[j] = prog.AddPred(StrCat("dtp", t, "_", j), k_);
      }
      // Initial fact: zero view.
      {
        Atom a;
        a.pred = dtp[0];
        for (std::size_t y = 0; y < k_; ++y) a.args.push_back(C(TsSym(0)));
        AddFact(std::move(a));
      }
      for (std::size_t j = 0; j < path.steps.size(); ++j) {
        AddDisStepRules(cfa, path.steps[j], dtp[j], dtp[j + 1]);
      }
    }
  }

 private:
  Atom DtpAtom(PredId pred, const std::vector<Term>& view) const {
    Atom a;
    a.pred = pred;
    a.args = view;
    return a;
  }

  std::vector<Term> DisView() const {
    std::vector<Term> vw;
    for (std::size_t y = 0; y < k_; ++y) {
      vw.push_back(V(static_cast<dl::VarSym>(y)));
    }
    return vw;
  }

  void AddDisStepRules(const Cfa& cfa, const GuessStep& step, PredId from,
                       PredId to) {
    const Instr& instr = cfa.Edge(EdgeId(step.edge)).instr;
    switch (instr.kind) {
      case Instr::Kind::kNop:
      case Instr::Kind::kAssume:  // pre-validated on the concrete path
      case Instr::Kind::kAssign: {
        Rule r;
        r.head = DtpAtom(to, DisView());
        r.body = {DtpAtom(from, DisView())};
        AddRule(std::move(r));
        break;
      }
      case Instr::Kind::kAssertFail: {
        Rule v;
        v.head = Atom{unsafe_, {}};
        v.body = {DtpAtom(from, DisView())};
        AddRule(std::move(v));
        Rule adv;
        adv.head = DtpAtom(to, DisView());
        adv.body = {DtpAtom(from, DisView())};
        AddRule(std::move(adv));
        break;
      }
      case Instr::Kind::kLoad:
        AddDisLoadRules(instr, step, from, to);
        break;
      case Instr::Kind::kStore:
        AddDisWriteRules(instr, step, from, to, /*is_cas=*/false);
        break;
      case Instr::Kind::kCas:
        AddDisWriteRules(instr, step, from, to, /*is_cas=*/true);
        break;
    }
  }

  void AddDisLoadRules(const Instr& instr, const GuessStep& step,
                       PredId from, PredId to) {
    const std::size_t x = instr.var.index();
    const dl::VarSym u0 = static_cast<dl::VarSym>(k_);
    const dl::VarSym w0 = u0 + static_cast<dl::VarSym>(k_);
    auto msg_atom = [&](PredId pred, std::optional<int> pin_pos) {
      Atom a;
      a.pred = pred;
      a.args.push_back(C(var_off_ + static_cast<Sym>(x)));
      a.args.push_back(C(ValSym(step.read_value)));
      for (std::size_t y = 0; y < k_; ++y) {
        if (y == x && pin_pos.has_value()) {
          a.args.push_back(C(TsSym(DisTs(*pin_pos))));
        } else {
          a.args.push_back(V(u0 + static_cast<dl::VarSym>(y)));
        }
      }
      return a;
    };

    if (!step.read_from_env) {
      // Pinned dis message at position p.
      const int p = step.read_dis_pos;
      Rule r;
      std::vector<Term> w;
      for (std::size_t y = 0; y < k_; ++y) {
        if (y == x) {
          const dl::VarSym wy = w0 + static_cast<dl::VarSym>(y);
          w.push_back(V(wy));
          r.natives.push_back(MaxFn(V(static_cast<dl::VarSym>(y)),
                                    C(TsSym(DisTs(p))), wy));
        } else {
          const dl::VarSym wy = w0 + static_cast<dl::VarSym>(y);
          w.push_back(V(wy));
          r.natives.push_back(MaxFn(V(static_cast<dl::VarSym>(y)),
                                    V(u0 + static_cast<dl::VarSym>(y)), wy));
        }
      }
      r.head = DtpAtom(to, w);
      r.body = {DtpAtom(from, DisView()), msg_atom(dmp_, p)};
      r.natives.push_back(
          LeqCheck(V(static_cast<dl::VarSym>(x)), C(TsSym(DisTs(p)))));
      AddRule(std::move(r));
      return;
    }
    // From an env message: one rule per unfrozen promotion gap.
    for (int h = 0; h <= guess_.StoresOn(x); ++h) {
      if (guess_.GapFrozen(x, h)) continue;
      Rule r;
      std::vector<Term> w;
      for (std::size_t y = 0; y < k_; ++y) {
        if (y == x) {
          w.push_back(C(TsSym(PlusTs(h))));
        } else {
          const dl::VarSym wy = w0 + static_cast<dl::VarSym>(y);
          w.push_back(V(wy));
          r.natives.push_back(MaxFn(V(static_cast<dl::VarSym>(y)),
                                    V(u0 + static_cast<dl::VarSym>(y)), wy));
        }
      }
      r.head = DtpAtom(to, w);
      r.body = {DtpAtom(from, DisView()), msg_atom(emp_, std::nullopt)};
      r.natives.push_back(
          LeqCheck(V(static_cast<dl::VarSym>(x)), C(TsSym(PlusTs(h)))));
      r.natives.push_back(
          LeqCheck(V(u0 + static_cast<dl::VarSym>(x)), C(TsSym(PlusTs(h)))));
      AddRule(std::move(r));
    }
  }

  // Store or CAS at guessed position p.
  void AddDisWriteRules(const Instr& instr, const GuessStep& step,
                        PredId from, PredId to, bool is_cas) {
    const std::size_t x = instr.var.index();
    const int p = step.store_pos;
    assert(p >= 1);
    const Value stored = is_cas ? step.rv_after[instr.reg2.index()]
                                : step.rv_after[instr.reg.index()];
    const dl::VarSym u0 = static_cast<dl::VarSym>(k_);
    const dl::VarSym w0 = u0 + static_cast<dl::VarSym>(k_);

    // Assembles the common body + joined view; for plain stores there is
    // no read, so the "join" is the thread view itself.
    auto build = [&](bool as_msg) {
      Rule r;
      std::vector<Term> w;
      for (std::size_t y = 0; y < k_; ++y) {
        if (y == x) {
          w.push_back(C(TsSym(DisTs(p))));
          continue;
        }
        if (!is_cas) {
          w.push_back(V(static_cast<dl::VarSym>(y)));
        } else {
          const dl::VarSym wy = w0 + static_cast<dl::VarSym>(y);
          w.push_back(V(wy));
          r.natives.push_back(MaxFn(V(static_cast<dl::VarSym>(y)),
                                    V(u0 + static_cast<dl::VarSym>(y)), wy));
        }
      }
      r.body = {DtpAtom(from, DisView())};
      if (is_cas) {
        Atom msg;
        msg.pred = step.read_from_env ? emp_ : dmp_;
        msg.args.push_back(C(var_off_ + static_cast<Sym>(x)));
        msg.args.push_back(C(ValSym(step.read_value)));
        for (std::size_t y = 0; y < k_; ++y) {
          if (y == x && !step.read_from_env) {
            msg.args.push_back(C(TsSym(DisTs(p - 1))));
          } else {
            msg.args.push_back(V(u0 + static_cast<dl::VarSym>(y)));
          }
        }
        r.body.push_back(std::move(msg));
        if (step.read_from_env) {
          // Clone sits at the top of gap p-1, directly below the store.
          r.natives.push_back(LeqCheck(V(u0 + static_cast<dl::VarSym>(x)),
                                       C(TsSym(PlusTs(p - 1)))));
          r.natives.push_back(LeqCheck(V(static_cast<dl::VarSym>(x)),
                                       C(TsSym(PlusTs(p - 1)))));
        } else {
          r.natives.push_back(LeqCheck(V(static_cast<dl::VarSym>(x)),
                                       C(TsSym(DisTs(p - 1)))));
        }
      } else {
        // Plain store into gap p-1.
        r.natives.push_back(LeqCheck(V(static_cast<dl::VarSym>(x)),
                                     C(TsSym(PlusTs(p - 1)))));
      }
      if (as_msg) {
        Atom head;
        head.pred = dmp_;
        head.args.push_back(C(var_off_ + static_cast<Sym>(x)));
        head.args.push_back(C(ValSym(stored)));
        head.args.insert(head.args.end(), w.begin(), w.end());
        r.head = std::move(head);
      } else {
        r.head = DtpAtom(to, w);
      }
      return r;
    };
    AddRule(build(/*as_msg=*/true));
    AddRule(build(/*as_msg=*/false));
  }

 public:
  void AddGoalRules() {
    if (!options_.goal_message.has_value()) return;
    const auto [gx, gv] = *options_.goal_message;
    for (PredId pred : {emp_, dmp_}) {
      Rule r;
      r.head = Atom{unsafe_, {}};
      Atom msg;
      msg.pred = pred;
      msg.args.push_back(C(VarSymOf(gx)));
      msg.args.push_back(C(ValSym(gv)));
      for (std::size_t y = 0; y < k_; ++y) {
        msg.args.push_back(V(static_cast<dl::VarSym>(y)));
      }
      r.body = {std::move(msg)};
      AddRule(std::move(r));
    }
  }

 private:
  void AddRule(Rule rule) { out_->push_back(std::move(rule)); }
  void AddFact(Atom atom) { out_->push_back(Rule{std::move(atom), {}, {}}); }

  const SimplSystem& sys_;
  const DisGuess& guess_;
  const MakePOptions& options_;
  std::vector<Rule>* out_;
  const std::size_t k_;  // |Var|
  const std::size_t m_;  // env registers
  const Sym val_off_;
  const Sym node_off_;
  const Sym var_off_;
  const PredId emp_, dmp_, etp_, unsafe_;
};

}  // namespace

// One base: everything an instance shares with the other guesses of its
// env signature.
struct MakePEncoder::Base {
  dl::Program tables;  // base constants and predicates; rules: scratch
  Layout lay;
  std::vector<Rule> prefix;      // init facts, env rules
  std::vector<Rule> goal_rules;  // MG goal rules
};

void MakePInstance::AppendRules(std::vector<const Rule*>* out) const {
  for (const std::span<const Rule> part : {prefix, suffix, goal_rules}) {
    for (const Rule& r : part) out->push_back(&r);
  }
}

std::vector<Rule> MakePInstance::CopyRules() const {
  std::vector<Rule> rules;
  rules.reserve(size());
  for (const std::span<const Rule> part : {prefix, suffix, goal_rules}) {
    rules.insert(rules.end(), part.begin(), part.end());
  }
  return rules;
}

MakePEncoder::MakePEncoder(const SimplSystem& sys, const MakePOptions& options)
    : sys_(sys),
      options_(options),
      env_edge_dead_(AnalyzeReachability(*sys.env).edge_dead) {}

MakePEncoder::~MakePEncoder() = default;

MakePInstance MakePEncoder::Encode(const DisGuess& guess) {
  // The env signature: per variable, the dis store count and then the
  // frozen flag of each gap.
  key_.clear();
  for (std::size_t x = 0; x < sys_.num_vars; ++x) {
    key_.push_back(guess.StoresOn(x));
    for (int h = 0; h <= guess.StoresOn(x); ++h) {
      key_.push_back(guess.GapFrozen(x, h) ? 1 : 0);
    }
  }
  auto it = bases_.find(key_);
  if (it == bases_.end()) {
    if (bases_.size() == kMaxBases) bases_.clear();
    it = bases_.emplace(key_, std::make_unique<Base>()).first;
    ++built_;
    Base& fresh = *it->second;
    fresh.lay = MakeTables(sys_, guess, fresh.tables);
    Emitter env(sys_, guess, options_, fresh.lay, &fresh.prefix);
    env.AddFacts();
    env.AddEnvRules(env_edge_dead_);
    Emitter goal(sys_, guess, options_, fresh.lay, &fresh.goal_rules);
    goal.AddGoalRules();
  }
  Base& base = *it->second;
  // Drop the previous guess's dtp predicates, then emit this guess's.
  base.tables.TruncatePreds(base.lay.unsafe + 1);
  suffix_.clear();
  Emitter(sys_, guess, options_, base.lay, &suffix_)
      .AddDisChains(base.tables);

  MakePInstance inst;
  inst.tables = &base.tables;
  inst.prefix = base.prefix;
  inst.suffix = suffix_;
  inst.goal_rules = base.goal_rules;
  inst.goal = Atom{base.lay.unsafe, {}};
  return inst;
}

MakePResult MakeP(const SimplSystem& sys, const DisGuess& guess,
                  const MakePOptions& options) {
  MakePEncoder encoder(sys, options);
  const MakePInstance inst = encoder.Encode(guess);
  MakePResult result;
  result.prog = std::make_unique<dl::Program>(*inst.tables);
  result.prog->SetRules(inst.CopyRules());
  result.goal = inst.goal;
  return result;
}

}  // namespace rapar
