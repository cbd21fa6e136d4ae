#include "dlopt/optimize.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "dlopt/pred_graph.h"
#include "dlopt/rule_checks.h"
#include "obs/trace.h"

namespace rapar::dlopt {

DlOptStats& DlOptStats::operator+=(const DlOptStats& o) {
  rules_before += o.rules_before;
  rules_after += o.rules_after;
  unproductive_removed += o.unproductive_removed;
  unreachable_removed += o.unreachable_removed;
  demand_removed += o.demand_removed;
  duplicates_removed += o.duplicates_removed;
  subsumed_removed += o.subsumed_removed;
  copy_aliased_removed += o.copy_aliased_removed;
  preds_before += o.preds_before;
  preds_after += o.preds_after;
  return *this;
}

std::string DlOptStats::ToString() const {
  return StrCat("rules ", rules_before, " -> ", rules_after,
                " (unreachable ", unreachable_removed, ", unproductive ",
                unproductive_removed, ", demand ", demand_removed,
                ", dup ", duplicates_removed, ", subsumed ",
                subsumed_removed, ", aliased ", copy_aliased_removed,
                ")");
}

namespace {

// Per-predicate, per-position demanded constants; ⊤ ("any value") as soon
// as some occurrence binds the position with a variable. Positions are
// numbered flat (slot = first slot of the predicate + position); the
// demanded (slot, constant) pairs are collected, then sorted for lookup.
class Demand {
 public:
  explicit Demand(const dl::Program& prog) : first_slot_(prog.num_preds()) {
    std::size_t slots = 0;
    for (std::size_t p = 0; p < prog.num_preds(); ++p) {
      first_slot_[p] = slots;
      slots += prog.pred(p).arity;
    }
    top_.assign(slots, 0);
  }

  void AddUse(const dl::Atom& a) {
    const std::size_t first = first_slot_[a.pred];
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      if (a.args[i].kind == dl::Term::Kind::kConst) {
        consts_.push_back(Key(first + i, a.args[i].val));
      } else {
        top_[first + i] = 1;
      }
    }
  }

  // Call once every use is added, before HeadDemanded.
  void Seal() { std::sort(consts_.begin(), consts_.end()); }

  // A head deriving `a` can be consumed: every constant head position is
  // demanded.
  bool HeadDemanded(const dl::Atom& a) const {
    const std::size_t first = first_slot_[a.pred];
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      if (a.args[i].kind != dl::Term::Kind::kConst) continue;
      if (top_[first + i]) continue;
      if (!std::binary_search(consts_.begin(), consts_.end(),
                              Key(first + i, a.args[i].val))) {
        return false;
      }
    }
    return true;
  }

 private:
  static std::uint64_t Key(std::size_t slot, dl::Sym sym) {
    return (static_cast<std::uint64_t>(slot) << 32) | sym;
  }

  std::vector<std::size_t> first_slot_;  // [pred]
  std::vector<char> top_;                // [slot]
  std::vector<std::uint64_t> consts_;    // (slot, constant) keys
};

class Optimizer {
 public:
  Optimizer(const dl::Program& prog, std::span<const dl::Rule* const> rules,
            const dl::Atom& goal, const DlOptOptions& options)
      : prog_(prog),
        goal_(goal),
        options_(options),
        rules_(rules.begin(), rules.end()) {
    cause_.assign(rules_.size(), RemovalCause::kKept);
  }

  RuleListResult Run() {
    DlOptStats stats;
    stats.rules_before = rules_.size();
    stats.preds_before = MentionedPreds();

    // Per-pass tracing: every invocation (incl. fixpoint re-runs) is a
    // "dlopt:<pass>" span. A null recorder makes `timed` a plain call.
    auto timed = [this](const char* name, auto&& fn) {
      obs::ScopedSpan span(options_.trace, name);
      return fn();
    };

    // Passes 1–3 shrink each other's inputs; iterate to fixpoint, then
    // run the (pricier) structural passes once and give the cheap passes
    // one more chance on their output.
    auto cheap_passes = [&, this] {
      bool changed = false;
      if (options_.dead_rule_elimination) {
        changed |= timed("dlopt:unproductive", [&] {
          return DropUnproductive(&stats.unproductive_removed);
        });
        changed |= timed("dlopt:unreachable", [&] {
          return DropUnreachable(&stats.unreachable_removed);
        });
      }
      if (options_.demand_specialization) {
        changed |= timed("dlopt:demand", [&] {
          return DropUndemanded(&stats.demand_removed);
        });
      }
      if (options_.copy_alias_elimination) {
        changed |= timed("dlopt:copy_alias", [&] {
          return DropCopyAliases(&stats.copy_aliased_removed);
        });
      }
      return changed;
    };
    bool changed = true;
    while (changed) changed = cheap_passes();
    if (options_.duplicate_elimination) {
      if (timed("dlopt:duplicates", [&] {
            return DropDuplicates(&stats.duplicates_removed);
          })) {
        changed = true;
      }
    }
    if (options_.subsumption_elimination) {
      if (timed("dlopt:subsumption", [&] {
            return DropSubsumed(&stats.subsumed_removed);
          })) {
        changed = true;
      }
    }
    while (changed) changed = cheap_passes();

    RuleListResult result{{}, std::move(stats), {}};
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) result.kept.push_back(*rules_[i]);
    }
    result.stats.rules_after = result.kept.size();
    result.stats.preds_after = MentionedPreds();
    result.cause = std::move(cause_);
    return result;
  }

 private:
  bool Alive(std::size_t i) const {
    return cause_[i] == RemovalCause::kKept;
  }
  std::size_t MentionedPreds() const {
    std::vector<bool> seen(prog_.num_preds(), false);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      const dl::Rule& r = *rules_[i];
      seen[r.head.pred] = true;
      for (const dl::Atom& a : r.body) seen[a.pred] = true;
    }
    std::size_t n = 0;
    for (bool b : seen) n += b;
    return n;
  }

  // Least fixpoint of "can hold a tuple" over the alive rules.
  bool DropUnproductive(std::size_t* count) {
    std::vector<bool> productive(prog_.num_preds(), false);
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::size_t i = 0; i < cause_.size(); ++i) {
        if (!Alive(i)) continue;
        const dl::Rule& r = *rules_[i];
        if (productive[r.head.pred]) continue;
        bool all = true;
        for (const dl::Atom& a : r.body) {
          if (!productive[a.pred]) {
            all = false;
            break;
          }
        }
        if (all) {
          productive[r.head.pred] = true;
          grew = true;
        }
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      for (const dl::Atom& a : rules_[i]->body) {
        if (!productive[a.pred]) {
          cause_[i] = RemovalCause::kUnproductive;
          ++*count;
          changed = true;
          break;
        }
      }
    }
    return changed;
  }

  bool DropUnreachable(std::size_t* count) {
    const std::size_t np = prog_.num_preds();
    // Alive rules grouped by head predicate: rules of p are
    // by_head[head_start[p] .. head_start[p + 1]).
    std::vector<std::size_t> head_start(np + 1, 0);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) ++head_start[rules_[i]->head.pred + 1];
    }
    for (std::size_t p = 0; p < np; ++p) head_start[p + 1] += head_start[p];
    std::vector<std::size_t> by_head(head_start[np]);
    {
      std::vector<std::size_t> fill(head_start.begin(), head_start.end() - 1);
      for (std::size_t i = 0; i < cause_.size(); ++i) {
        if (Alive(i)) by_head[fill[rules_[i]->head.pred]++] = i;
      }
    }
    // Backward reachability over alive rules only.
    std::vector<bool> reach(np, false);
    std::vector<dl::PredId> work{goal_.pred};
    reach[goal_.pred] = true;
    while (!work.empty()) {
      const dl::PredId p = work.back();
      work.pop_back();
      for (std::size_t k = head_start[p]; k < head_start[p + 1]; ++k) {
        for (const dl::Atom& a : rules_[by_head[k]]->body) {
          if (!reach[a.pred]) {
            reach[a.pred] = true;
            work.push_back(a.pred);
          }
        }
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i) && !reach[rules_[i]->head.pred]) {
        cause_[i] = RemovalCause::kUnreachable;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  bool DropUndemanded(std::size_t* count) {
    Demand demand(prog_);
    demand.AddUse(goal_);
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      for (const dl::Atom& a : rules_[i]->body) demand.AddUse(a);
    }
    demand.Seal();
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i) && !demand.HeadDemanded(rules_[i]->head)) {
        cause_[i] = RemovalCause::kUndemanded;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  // A rule is an identity copy when it derives p(X0..Xn) :- q(X0..Xn)
  // with the head and body argument vectors equal, all distinct
  // variables, and no natives: then p ⊆ q instance-for-instance. When it
  // is also p's *only* derivation (no other rule, no fact) and p is not
  // the query predicate, p ≡ q — rewrite every occurrence of p to q and
  // drop the rule. makeP's dis-chain nop/assume/assign steps have exactly
  // this shape.
  static bool IsIdentityCopy(const dl::Rule& r) {
    if (r.body.size() != 1 || !r.natives.empty()) return false;
    const dl::Atom& b = r.body[0];
    if (b.pred == r.head.pred) return false;
    if (r.head.args != b.args) return false;
    for (std::size_t i = 0; i < b.args.size(); ++i) {
      if (b.args[i].kind != dl::Term::Kind::kVar) return false;
      for (std::size_t j = 0; j < i; ++j) {
        if (b.args[j] == b.args[i]) return false;  // repeated variable
      }
    }
    return true;
  }

  bool DropCopyAliases(std::size_t* count) {
    bool changed = false;
    bool again = true;
    std::vector<std::size_t> defs;
    std::vector<std::size_t> def_rule;
    while (again) {
      again = false;
      // Defining-rule census over the alive rules (facts included).
      defs.assign(prog_.num_preds(), 0);
      def_rule.assign(prog_.num_preds(), 0);
      for (std::size_t i = 0; i < cause_.size(); ++i) {
        if (!Alive(i)) continue;
        ++defs[rules_[i]->head.pred];
        def_rule[rules_[i]->head.pred] = i;
      }
      for (std::size_t p = 0; p < prog_.num_preds(); ++p) {
        if (defs[p] != 1 || p == goal_.pred) continue;
        const std::size_t i = def_rule[p];
        if (!IsIdentityCopy(*rules_[i])) continue;
        const dl::PredId q = rules_[i]->body[0].pred;
        cause_[i] = RemovalCause::kCopyAliased;
        ++*count;
        for (std::size_t j = 0; j < cause_.size(); ++j) {
          if (!Alive(j)) continue;
          for (std::size_t b = 0; b < rules_[j]->body.size(); ++b) {
            if (rules_[j]->body[b].pred == p) Writable(j).body[b].pred = q;
          }
        }
        changed = again = true;
        break;  // census is stale; rescan (chains collapse link by link)
      }
    }
    return changed;
  }

  bool DropDuplicates(std::size_t* count) {
    std::unordered_set<std::string> seen;
    bool changed = false;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (!Alive(i)) continue;
      if (!seen.insert(CanonicalRuleKey(*rules_[i])).second) {
        cause_[i] = RemovalCause::kDuplicate;
        ++*count;
        changed = true;
      }
    }
    return changed;
  }

  bool DropSubsumed(std::size_t* count) {
    std::unordered_map<dl::PredId, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cause_.size(); ++i) {
      if (Alive(i)) groups[rules_[i]->head.pred].push_back(i);
    }
    bool changed = false;
    for (const auto& [pred, members] : groups) {
      if (members.size() < 2 ||
          members.size() > options_.max_subsumption_group) {
        continue;
      }
      for (std::size_t j : members) {
        if (!Alive(j)) continue;
        for (std::size_t i : members) {
          if (i == j || !Alive(i)) continue;
          if (Subsumes(*rules_[i], *rules_[j])) {
            cause_[j] = RemovalCause::kSubsumed;
            ++*count;
            changed = true;
            break;
          }
        }
      }
    }
    return changed;
  }

  // Copy on write: the first rewrite of input rule i copies it into
  // owned_ and repoints rules_[i] there.
  dl::Rule& Writable(std::size_t i) {
    if (copied_.empty()) copied_.assign(rules_.size(), nullptr);
    if (copied_[i] == nullptr) {
      copied_[i] = &owned_.emplace_back(*rules_[i]);
      rules_[i] = copied_[i];
    }
    return *copied_[i];
  }

  const dl::Program& prog_;
  const dl::Atom goal_;
  const DlOptOptions& options_;
  // The rules as the passes see them, indexed like the input (and
  // cause_): borrowed input rules, or the owned_ copies aliasing rewrote.
  std::vector<const dl::Rule*> rules_;
  std::deque<dl::Rule> owned_;
  std::vector<dl::Rule*> copied_;  // per input rule: its owned_ copy
  std::vector<RemovalCause> cause_;
};

}  // namespace

RuleListResult OptimizeRules(const dl::Program& tables,
                             std::span<const dl::Rule* const> rules,
                             const dl::Atom& goal,
                             const DlOptOptions& options) {
  assert(goal.pred < tables.num_preds());
  Optimizer opt(tables, rules, goal, options);
  return opt.Run();
}

OptimizeResult OptimizeForQuery(const dl::Program& prog,
                                const dl::Atom& goal,
                                const DlOptOptions& options) {
  std::vector<const dl::Rule*> rules;
  rules.reserve(prog.size());
  for (const dl::Rule& r : prog.rules()) rules.push_back(&r);
  RuleListResult opt = OptimizeRules(prog, rules, goal, options);
  return OptimizeResult{prog.WithRules(std::move(opt.kept)),
                        std::move(opt.stats), std::move(opt.cause)};
}

}  // namespace rapar::dlopt
