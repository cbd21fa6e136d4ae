#include "dlopt/rule_checks.h"

#include <charconv>
#include <cstdint>
#include <optional>

#include "common/strings.h"

namespace rapar::dlopt {

namespace {

std::size_t NumVars(const dl::Rule& rule) {
  std::size_t mx = 0;
  auto scan = [&](const dl::Term& t) {
    if (t.kind == dl::Term::Kind::kVar && t.val + 1 > mx) mx = t.val + 1;
  };
  for (const dl::Term& t : rule.head.args) scan(t);
  for (const dl::Atom& a : rule.body) {
    for (const dl::Term& t : a.args) scan(t);
  }
  for (const dl::Native& n : rule.natives) {
    for (const dl::Term& t : n.inputs) scan(t);
    if (n.output.has_value() && *n.output + 1 > mx) mx = *n.output + 1;
  }
  return mx;
}

}  // namespace

std::string CanonicalRuleKey(const dl::Rule& rule) {
  std::vector<std::uint32_t> renumber(NumVars(rule), UINT32_MAX);
  std::uint32_t next = 0;
  // Built by appending in place: the optimizer keys every surviving rule
  // of every guess.
  std::string key;
  key.reserve(128);
  auto number = [&](char prefix, std::uint64_t v) {
    key += prefix;
    char buf[24];
    key.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  auto term = [&](const dl::Term& t) {
    if (t.kind == dl::Term::Kind::kConst) return number('c', t.val);
    if (renumber[t.val] == UINT32_MAX) renumber[t.val] = next++;
    number('v', renumber[t.val]);
  };
  auto atom = [&](const dl::Atom& a) {
    number('p', a.pred);
    key += '(';
    for (const dl::Term& t : a.args) {
      term(t);
      key += ',';
    }
    key += ')';
  };
  key += 'H';
  atom(rule.head);
  key += "|B";
  for (const dl::Atom& a : rule.body) {
    atom(a);
    key += ';';
  }
  key += "|N";
  for (const dl::Native& n : rule.natives) {
    if (n.tag.empty()) {
      // Unknown function: a key that collides with nothing (the native's
      // own address is unique per rule instance).
      number('?', reinterpret_cast<std::uintptr_t>(&n));
      key += ';';
      continue;
    }
    key += '[';
    key += n.tag;
    key += "](";
    for (const dl::Term& t : n.inputs) {
      term(t);
      key += ',';
    }
    key += ')';
    if (n.output.has_value()) {
      key += "->";
      term(dl::V(*n.output));
    }
    key += ';';
  }
  return key;
}

namespace {

// Substitution from `general`'s variables to terms of `specific`.
class Subst {
 public:
  explicit Subst(std::size_t num_vars) : map_(num_vars) {}

  bool MatchTerm(const dl::Term& g, const dl::Term& s) {
    if (g.kind == dl::Term::Kind::kConst) {
      return s.kind == dl::Term::Kind::kConst && s.val == g.val;
    }
    if (map_[g.val].has_value()) return *map_[g.val] == s;
    map_[g.val] = s;
    trail_.push_back(g.val);
    return true;
  }

  bool MatchAtom(const dl::Atom& g, const dl::Atom& s) {
    if (g.pred != s.pred || g.args.size() != s.args.size()) return false;
    for (std::size_t i = 0; i < g.args.size(); ++i) {
      if (!MatchTerm(g.args[i], s.args[i])) return false;
    }
    return true;
  }

  std::size_t Mark() const { return trail_.size(); }
  void Undo(std::size_t mark) {
    while (trail_.size() > mark) {
      map_[trail_.back()] = std::nullopt;
      trail_.pop_back();
    }
  }

 private:
  std::vector<std::optional<dl::Term>> map_;
  std::vector<dl::VarSym> trail_;
};

bool MatchNative(const dl::Native& g, const dl::Native& s, Subst& subst) {
  if (g.tag.empty() || g.tag != s.tag) return false;
  if (g.inputs.size() != s.inputs.size()) return false;
  if (g.output.has_value() != s.output.has_value()) return false;
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    if (!subst.MatchTerm(g.inputs[i], s.inputs[i])) return false;
  }
  if (g.output.has_value() &&
      !subst.MatchTerm(dl::V(*g.output), dl::V(*s.output))) {
    return false;
  }
  return true;
}

struct SubsumeSearch {
  const dl::Rule& general;
  const dl::Rule& specific;
  Subst subst;
  int budget = 10'000;

  SubsumeSearch(const dl::Rule& g, const dl::Rule& s)
      : general(g), specific(s), subst(NumVars(g)) {}

  bool Run() {
    if (!subst.MatchAtom(general.head, specific.head)) return false;
    return Body(0);
  }

  // θ(body(general)) ⊆ body(specific), as sets: each general atom maps to
  // *some* specific atom (reuse allowed).
  bool Body(std::size_t at) {
    if (at == general.body.size()) return Natives(0);
    if (--budget < 0) return false;
    for (const dl::Atom& cand : specific.body) {
      const std::size_t mark = subst.Mark();
      if (subst.MatchAtom(general.body[at], cand) && Body(at + 1)) {
        return true;
      }
      subst.Undo(mark);
    }
    return false;
  }

  bool Natives(std::size_t at) {
    if (at == general.natives.size()) return true;
    if (--budget < 0) return false;
    for (const dl::Native& cand : specific.natives) {
      const std::size_t mark = subst.Mark();
      if (MatchNative(general.natives[at], cand, subst) &&
          Natives(at + 1)) {
        return true;
      }
      subst.Undo(mark);
    }
    return false;
  }
};

}  // namespace

bool Subsumes(const dl::Rule& general, const dl::Rule& specific) {
  // A rule with an unknown (untagged) native cannot be proved harmless in
  // either role.
  for (const dl::Native& n : general.natives) {
    if (n.tag.empty()) return false;
  }
  if (general.body.size() > specific.body.size()) return false;
  if (general.natives.size() > specific.natives.size()) return false;
  SubsumeSearch search(general, specific);
  return search.Run();
}

std::vector<RangeRestrictionViolation> ValidateRangeRestriction(
    const dl::Program& prog) {
  std::vector<RangeRestrictionViolation> out;
  for (std::size_t ri = 0; ri < prog.rules().size(); ++ri) {
    const dl::Rule& rule = prog.rules()[ri];
    std::vector<bool> bound(NumVars(rule), false);
    for (const dl::Atom& a : rule.body) {
      for (const dl::Term& t : a.args) {
        if (t.kind == dl::Term::Kind::kVar) bound[t.val] = true;
      }
    }
    for (const dl::Native& n : rule.natives) {
      for (const dl::Term& t : n.inputs) {
        if (t.kind == dl::Term::Kind::kVar && !bound[t.val]) {
          out.push_back({ri, StrCat("input X", t.val, " of native '",
                                    n.name,
                                    "' is not bound by the body or an "
                                    "earlier native")});
        }
      }
      if (n.output.has_value()) bound[*n.output] = true;
    }
    for (const dl::Term& t : rule.head.args) {
      if (t.kind == dl::Term::Kind::kVar && !bound[t.val]) {
        out.push_back(
            {ri, StrCat("head variable X", t.val,
                        " is not bound by the body or a native output")});
      }
    }
  }
  return out;
}

}  // namespace rapar::dlopt
