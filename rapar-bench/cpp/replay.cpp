#include "replay.h"

#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "analysis/prepass.h"
#include "common/strings.h"
#include "core/result_json.h"
#include "core/trace_render.h"
#include "datalog/engine.h"
#include "depgraph/dep_graph.h"
#include "dlopt/optimize.h"
#include "dlopt/pred_graph.h"
#include "dlopt/width.h"
#include "encoding/datalog_verifier.h"
#include "encoding/dis_guess.h"
#include "encoding/makep.h"
#include "lang/parser.h"
#include "obs/trace.h"
#include "simplified/explorer.h"
#include "simplified/witness_min.h"

namespace rbench {

using Clock = std::chrono::steady_clock;

namespace {

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

// Span name -> the slot its self time lands in (-1: none).
int SlotOf(const char* name) {
  static const std::pair<const char*, int> kMap[] = {
      {"lang.parse", kParseMs},
      {"core.build", kBuildMs},
      {"analysis.prepass", kPrepassMs},
      {"simplified.explore", kExploreMs},
      {"simplified.witness", kWitnessMs},
      {"encoding.enumerate", kEnumerateMs},
      {"encoding.makep", kMakepMs},
      {"dlopt.optimize", kOptimizeMs},
      {"dlopt.hints", kHintsMs},
      {"datalog.eval", kEvalMs},
      {"core.render", kRenderMs},
  };
  for (const auto& [n, slot] : kMap) {
    if (std::strcmp(n, name) == 0) return slot;
  }
  return -1;
}

// Mirrors the verifier's Prepare(): the backend runs on pruned CFA
// copies when the pre-pass removed anything, else on the originals.
struct Prepared {
  rapar::SimplSystem simpl;
  std::unique_ptr<rapar::Cfa> env;
  std::vector<std::unique_ptr<rapar::Cfa>> dis;
};

Prepared Prepare(const rapar::ParamSystem& sys, rapar::VarId protect,
                 Slots* slots) {
  Prepared p;
  p.simpl = sys.simpl();
  rapar::PrepassResult r =
      rapar::RunPrepass(*p.simpl.env, p.simpl.dis, protect);
  (*slots)[kPrepassPruned] += r.stats.dead_edges_removed +
                              r.stats.guards_folded + r.stats.stores_sliced +
                              r.stats.assigns_dropped;
  if (!r.stats.Any()) return p;
  p.env = std::make_unique<rapar::Cfa>(std::move(r.env));
  p.simpl.env = p.env.get();
  p.simpl.dis.clear();
  for (rapar::Cfa& d : r.dis) {
    p.dis.push_back(std::make_unique<rapar::Cfa>(std::move(d)));
    p.simpl.dis.push_back(p.dis.back().get());
  }
  return p;
}

Answer ReplaySimplified(const rapar::SimplSystem& simpl,
                        std::optional<std::pair<rapar::VarId, rapar::Value>> goal,
                        const rapar::VerifierOptions& options, Tracer& tracer,
                        Slots* slots) {
  rapar::SimplExplorer explorer(simpl);
  rapar::SimplExplorerOptions opts;
  opts.goal = goal;
  opts.max_states = options.max_states;
  opts.max_depth = options.max_depth;
  rapar::SimplResult r;
  {
    Tracer::Scope s(tracer, "simplified.explore");
    r = explorer.Check(opts);
  }
  (*slots)[kExploreStates] += static_cast<double>(r.states);
  const bool hit = goal.has_value() ? r.goal_reached : r.violation;
  if (!hit) return r.exhaustive ? Answer::kSafe : Answer::kUnknown;

  Tracer::Scope s(tracer, "simplified.witness");
  if (r.witness.size() <= 400) {
    const rapar::WitnessProperty property =
        goal.has_value() ? rapar::GoalProperty(goal->first, goal->second)
                         : rapar::ViolationProperty();
    r.witness = rapar::MinimizeWitness(simpl, std::move(r.witness), property);
  }
  rapar::TraceRenderOptions render;
  render.elide_silent = true;
  const std::string text = rapar::RenderTrace(simpl, r.witness, render);
  if (!r.witness.empty()) {
    std::map<std::uint32_t, int> final_reads;
    const rapar::DepGraph g =
        rapar::DepGraph::Build(simpl, r.witness, &final_reads);
    if (goal.has_value()) {
      (void)g.CostOfMessage(goal->first, goal->second);
    } else {
      (void)g.CostOfReads(final_reads, r.witness.back().actor ==
                                           rapar::SimplStep::Actor::kEnv);
    }
  }
  return text.empty() && !r.witness.empty() ? Answer::kError
                                            : Answer::kUnsafe;
}

Answer ReplayDatalog(const rapar::SimplSystem& simpl,
                     std::optional<std::pair<rapar::VarId, rapar::Value>> goal,
                     const rapar::VerifierOptions& options, Tracer& tracer,
                     Slots* slots) {
  // The verifier's per-query defaults (DatalogVerifierOptions).
  const rapar::DatalogVerifierOptions defaults;
  rapar::GuessEnumOptions gopts;
  gopts.max_guesses = options.max_guesses;
  bool complete = true;
  std::vector<rapar::DisGuess> guesses;
  {
    Tracer::Scope s(tracer, "encoding.enumerate");
    guesses = rapar::EnumerateDisGuesses(simpl, gopts, &complete);
  }
  (*slots)[kGuesses] += static_cast<double>(guesses.size());

  rapar::MakePOptions mp;
  mp.goal_message = goal;
  rapar::dl::Engine engine;
  rapar::dl::EvalOptions eval;
  eval.max_tuples = defaults.max_tuples_per_query;
  eval.engine = options.datalog.engine;
  const rapar::dlopt::DlOptOptions dopts;
  for (const rapar::DisGuess& guess : guesses) {
    Tracer::Scope g(tracer, "encoding.guess");
    rapar::MakePResult q;
    {
      Tracer::Scope s(tracer, "encoding.makep");
      q = rapar::MakeP(simpl, guess, mp);
    }
    (*slots)[kMakepRules] += static_cast<double>(q.prog->size());
    rapar::dlopt::OptimizeResult opt;
    {
      Tracer::Scope s(tracer, "dlopt.optimize");
      opt = rapar::dlopt::OptimizeForQuery(*q.prog, q.goal, dopts);
    }
    (*slots)[kRulesBefore] += static_cast<double>(opt.stats.rules_before);
    (*slots)[kRulesAfter] += static_cast<double>(opt.stats.rules_after);
    rapar::dl::JoinHints hints;
    {
      Tracer::Scope s(tracer, "dlopt.hints");
      const rapar::dlopt::PredGraph graph =
          rapar::dlopt::PredGraph::Build(opt.prog);
      hints = rapar::dlopt::MakeJoinHints(graph);
    }
    eval.hints = &hints;
    bool derived = false;
    bool aborted = false;
    {
      Tracer::Scope s(tracer, "datalog.eval");
      try {
        derived = engine.Solve(opt.prog, q.goal, eval);
      } catch (const rapar::dl::BudgetExceeded&) {
        aborted = true;
      }
    }
    const rapar::dl::EvalStats& st = engine.last_stats();
    (*slots)[kEvalSolves] += 1;
    (*slots)[kEvalTuples] += static_cast<double>(st.tuples);
    (*slots)[kEvalJoins] += static_cast<double>(st.join_attempts);
    (*slots)[kEvalFirings] += static_cast<double>(st.rule_firings);
    if (derived) return Answer::kUnsafe;
    if (aborted) return Answer::kUnknown;
  }
  return complete ? Answer::kSafe : Answer::kUnknown;
}

// The request's parse and build steps, one span per call. nullopt when a
// program does not parse.
std::optional<rapar::Expected<rapar::ParamSystem>> TracedBuild(
    const Input& in, Tracer& tracer) {
  rapar::ParamSystem::Builder builder;
  bool parsed = true;
  {
    Tracer::Scope s(tracer, "lang.parse");
    rapar::Expected<rapar::Program> env = rapar::ParseProgram(in.env);
    parsed = env.ok();
    if (parsed) builder.Env(std::move(env).value());
  }
  for (const std::string& text : in.dis) {
    Tracer::Scope s(tracer, "lang.parse");
    rapar::Expected<rapar::Program> dis = rapar::ParseProgram(text);
    parsed = parsed && dis.ok();
    if (dis.ok()) builder.Dis(std::move(dis).value());
  }
  Tracer::Scope s(tracer, "core.build");
  rapar::Expected<rapar::ParamSystem> sys = builder.Build();
  if (!parsed) return std::nullopt;
  return sys;
}

}  // namespace

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  Span s{};
  s.id = t_.next_id_++;
  s.parent = t_.stack_.empty() ? 0 : t_.open_[t_.stack_.back()].id;
  s.request = t_.request_;
  s.name = name;
  s.start_ns = t_.NowNs();
  index_ = t_.open_.size();
  t_.open_.push_back(s);
  t_.stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  Span& s = t_.open_[index_];
  s.dur_ns = t_.NowNs() - s.start_ns;
  t_.stack_.pop_back();
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::BeginRequest(std::uint64_t request) {
  request_ = request;
  open_.clear();
  stack_.clear();
}

void Tracer::EndRequest(Slots* slots) {
  // Spans are appended in start order, so a parent precedes its
  // children; ids within a request are contiguous from open_[0].id.
  for (Span& s : open_) s.self_ns = s.dur_ns;
  if (!open_.empty()) {
    const std::uint32_t base = open_.front().id;
    for (const Span& s : open_) {
      if (s.parent >= base) open_[s.parent - base].self_ns -= s.dur_ns;
    }
  }
  for (const Span& s : open_) {
    const int slot = SlotOf(s.name);
    if (slot >= 0) (*slots)[slot] += static_cast<double>(s.self_ns) / 1e6;
    if (std::strcmp(s.name, "lang.parse") == 0) (*slots)[kParseCalls] += 1;
  }
  for (const Span& s : open_) {
    if (kept_.size() < keep_limit_) {
      kept_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  open_.clear();
}

bool Tracer::WriteFile(const std::string& path) const {
  rapar::obs::TraceRecorder recorder;
  for (const Span& s : kept_) {
    recorder.RecordComplete(
        s.name, static_cast<std::uint64_t>(s.start_ns / 1000),
        static_cast<std::uint64_t>(s.dur_ns / 1000),
        rapar::StrCat("{\"id\":", s.id, ",\"parent\":", s.parent,
                      ",\"request\":", s.request,
                      ",\"self_us\":", s.self_ns / 1000, "}"));
  }
  if (dropped_ > 0) {
    recorder.RecordInstant("spans_dropped",
                           rapar::StrCat("{\"count\":", dropped_, "}"));
  }
  return recorder.WriteFile(path);
}

Answer ReplayOneShot(const Input& in, Tracer& tracer, std::uint64_t request,
                     Slots* slots, Answer* reference) {
  rapar::VerifierOptions options;
  options.backend = in.backend;
  const char* command = in.goal_var.empty() ? "verify" : "mg";

  // Reference: the untraced one-shot request, with Run timed on its own.
  std::optional<rapar::Verdict> ref;
  {
    const Clock::time_point t0 = Clock::now();
    rapar::Expected<rapar::ParamSystem> sys = BuildInput(in);
    bool ok = sys.ok();
    std::optional<std::pair<rapar::VarId, rapar::Value>> goal;
    if (ok) goal = GoalOf(in, sys.value(), &ok);
    if (!ok) {
      *reference = Answer::kError;
      return Answer::kError;
    }
    const rapar::SafetyVerifier verifier(sys.value());
    const Clock::time_point r0 = Clock::now();
    ref.emplace(verifier.Run(goal, options));
    (*slots)[kRunMs] += MsSince(r0);
    const std::string json = rapar::VerdictToJson(*ref, options, command,
                                                  sys.value().Signature());
    (*slots)[kOneShotMs] += MsSince(t0);
    *reference = json.empty() ? Answer::kError : FromResult(ref->result);
  }

  // Replay, one span per layer call.
  tracer.BeginRequest(request);
  Answer answer = Answer::kError;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope root(tracer, "request");
    std::optional<rapar::Expected<rapar::ParamSystem>> sys =
        TracedBuild(in, tracer);
    bool ok = sys.has_value() && sys->ok();
    std::optional<std::pair<rapar::VarId, rapar::Value>> goal;
    if (ok) goal = GoalOf(in, sys->value(), &ok);
    if (ok) {
      const rapar::ParamSystem& system = sys->value();
      std::optional<Prepared> prep;
      {
        Tracer::Scope s(tracer, "analysis.prepass");
        prep.emplace(Prepare(
            system, goal.has_value() ? goal->first : rapar::VarId::Invalid(),
            slots));
      }
      answer = in.backend == rapar::Backend::kDatalog
                   ? ReplayDatalog(prep->simpl, goal, options, tracer, slots)
                   : ReplaySimplified(prep->simpl, goal, options, tracer,
                                      slots);
      // Renders Run's own verdict: the envelope depends on its telemetry
      // and witness, which the replay does not rebuild.
      Tracer::Scope s(tracer, "core.render");
      if (rapar::VerdictToJson(*ref, options, command, system.Signature())
              .empty()) {
        answer = Answer::kError;
      }
    }
  }
  (*slots)[kReplayMs] += MsSince(t0);
  tracer.EndRequest(slots);
  // Run's wall time not covered by the replayed layers (`slots` holds
  // this request only).
  const Slots& sl = *slots;
  (*slots)[kGlueMs] = sl[kRunMs] - (sl[kPrepassMs] + sl[kExploreMs] +
                                    sl[kWitnessMs] + sl[kEnumerateMs] +
                                    sl[kMakepMs] + sl[kOptimizeMs] +
                                    sl[kHintsMs] + sl[kEvalMs]);
  return answer;
}

void ReplayParseBuild(const Input& in, Tracer& tracer, std::uint64_t request,
                      Slots* slots) {
  tracer.BeginRequest(request);
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope root(tracer, "request");
    (void)TracedBuild(in, tracer);
  }
  (*slots)[kPartialMs] += MsSince(t0);
  tracer.EndRequest(slots);
}

}  // namespace rbench
