// Input generation for the four workloads. Everything here is a pure
// function of (workload, seed): the inputs come from fixed rapar::Rng
// streams, the issue order from one seeded by the run seed.
#include <algorithm>
#include <utility>

#include "bench.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/benchmarks.h"
#include "core/result_json.h"
#include "lang/parser.h"
#include "lang/random_program.h"
#include "lowerbound/qbf.h"
#include "lowerbound/tqbf_reduction.h"

namespace rbench {

using rapar::Backend;
using rapar::StrCat;

namespace {

// Random env(nocas) || dis(acyc) systems. With a dis program of size 8
// the Datalog backend sees ~100 makeP guesses per system on average and
// up to tens of thousands (guess-scan); size 5 keeps the same env side
// (where the simplified explorer works) at a few guesses per system, so
// the Datalog oracle of the default-backend workloads stays cheap.
constexpr int kRandVars = 3;
constexpr int kRandRegs = 3;
constexpr int kRandDom = 4;
constexpr int kRandEnvSize = 10;
constexpr int kGuessDisSize = 8;
constexpr int kDefaultDisSize = 5;

// Pool sizes. Every pool is fixed; the run seed draws the issue order
// (and serve-mix's hot picks). A per-seed sample of inputs would make the
// metrics properties of the seed: a TQBF query costs 10-330 ms, a rand8
// system up to 58k guesses (seconds), the tail of the rand5 systems sets
// cli-default's p90, and every serve-mix input that crashes restarts the
// session cold. Random systems are generator seeds [0, N); all QBFs come
// from one stream.
constexpr std::uint64_t kCliRandomSystems = 250;
constexpr int kCliTqbfs = 24;
constexpr std::uint64_t kGuessCorpus = 128;
constexpr int kDeepTqbf2 = 16;
constexpr int kDeepTqbf3 = 8;
constexpr std::uint64_t kQbfStream = 2022;
constexpr std::uint64_t kServeFreshSystems = 600;
constexpr int kServeFreshTqbfs = 24;

std::uint64_t Salted(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return rapar::SplitMix64(h ^ rapar::SplitMix64(seed));
}

Input FromCase(const rapar::BenchmarkCase& c, const std::string& family,
               Backend backend) {
  Input in;
  in.name = c.name;
  in.family = family;
  in.env = c.system.env_program().ToString();
  for (const rapar::Program& d : c.system.dis_programs()) {
    in.dis.push_back(d.ToString());
  }
  in.backend = backend;
  in.expected_unsafe = c.expected_unsafe;
  return in;
}

// The two queries of random system `sys_seed`: assert-false, then the MG
// goal (v_i, d) drawn from the same stream right after the programs.
void AddRandomSystem(std::uint64_t sys_seed, int dis_size, Backend backend,
                     std::vector<Input>* out) {
  rapar::Rng rng(sys_seed);
  rapar::RandomProgramOptions env_opts;
  env_opts.num_vars = kRandVars;
  env_opts.num_regs = kRandRegs;
  env_opts.dom = kRandDom;
  env_opts.size = kRandEnvSize;
  env_opts.allow_cas = false;
  env_opts.allow_loops = false;
  rapar::RandomProgramOptions dis_opts = env_opts;
  dis_opts.size = dis_size;
  const rapar::Program env = rapar::RandomProgram(rng, env_opts, "env");
  const rapar::Program dis = rapar::RandomProgram(rng, dis_opts, "dis");
  const int var = static_cast<int>(rng.Below(kRandVars));
  const int val = rng.IntIn(1, kRandDom - 1);

  Input in;
  in.family = "rand";
  in.env = env.ToString();
  in.dis = {dis.ToString()};
  in.backend = backend;
  in.name = StrCat("rand", dis_size, "(", sys_seed, ")");
  out->push_back(in);
  in.goal_var = StrCat("v", var);
  in.goal_val = val;
  in.name = StrCat("rand", dis_size, "-mg(", sys_seed, ":v", var, "=", val,
                   ")");
  out->push_back(std::move(in));
}

Input RandomTqbf(rapar::Rng& rng, int n, Backend backend) {
  const std::uint64_t qseed = rng.Next();
  rapar::Rng qrng(qseed);
  const rapar::Qbf qbf = rapar::RandomQbf(qrng, n, 4 + 2 * n);
  Input in;
  in.name = StrCat("tqbf(n=", n, ",", qseed, ")");
  in.family = "tqbf";
  in.env = rapar::TqbfToPureRa(qbf).ToString();
  in.backend = backend;
  in.expected_unsafe = rapar::EvalQbf(qbf);
  return in;
}

void Shuffle(rapar::Rng& rng, std::vector<std::uint32_t>* v) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

void ShuffledOrder(rapar::Rng& rng, Workload* w) {
  w->order.resize(w->pool.size());
  for (std::uint32_t i = 0; i < w->order.size(); ++i) w->order[i] = i;
  Shuffle(rng, &w->order);
}

// cli-default: the paper's default decision procedure (simplified
// backend, prepass on) over the catalog, both producer-consumer
// families, TQBF n=2 and random systems.
void CliDefault(std::uint64_t seed, Workload* w) {
  const Backend b = Backend::kSimplifiedExplorer;
  for (const rapar::BenchmarkCase& c : rapar::StandardBenchmarks()) {
    w->pool.push_back(FromCase(c, "catalog", b));
  }
  for (const int z : {1, 3, 6, 10}) {
    w->pool.push_back(FromCase(rapar::ProducerConsumer(z), "pc", b));
    w->pool.push_back(FromCase(rapar::ProducerConsumerSafe(z), "pc-safe", b));
  }
  rapar::Rng qbfs(kQbfStream);
  for (int i = 0; i < kCliTqbfs; ++i) w->pool.push_back(RandomTqbf(qbfs, 2, b));
  for (std::uint64_t s = 0; s < kCliRandomSystems; ++s) {
    AddRandomSystem(s, kDefaultDisSize, b, &w->pool);
  }
  rapar::Rng rng(Salted(w->name, seed));
  ShuffledOrder(rng, w);
}

// guess-scan: many small makeP queries (backend=datalog).
void GuessScan(std::uint64_t seed, Workload* w) {
  const Backend b = Backend::kDatalog;
  w->pool.push_back(FromCase(rapar::DekkerCas(), "catalog", b));
  w->pool.push_back(FromCase(rapar::PetersonRa(), "catalog", b));
  for (std::uint64_t s = 0; s < kGuessCorpus; ++s) {
    AddRandomSystem(s, kGuessDisSize, b, &w->pool);
  }
  rapar::Rng rng(Salted(w->name, seed));
  ShuffledOrder(rng, w);
}

// deep-solve: one makeP guess, one big fixpoint (backend=datalog).
void DeepSolve(std::uint64_t seed, Workload* w) {
  const Backend b = Backend::kDatalog;
  rapar::Rng qbfs(kQbfStream);
  for (int i = 0; i < kDeepTqbf2; ++i) w->pool.push_back(RandomTqbf(qbfs, 2, b));
  for (int i = 0; i < kDeepTqbf3; ++i) w->pool.push_back(RandomTqbf(qbfs, 3, b));
  for (const int z : {12, 16, 20}) {
    w->pool.push_back(FromCase(rapar::ProducerConsumerSafe(z), "pc-safe", b));
  }
  rapar::Rng rng(Salted(w->name, seed));
  ShuffledOrder(rng, w);
}

std::string RequestLine(const Input& in, std::size_t id) {
  rapar::JsonWriter j;
  j.BeginObject();
  j.Key("id").UInt(id);
  j.Key("command").String(in.goal_var.empty() ? "verify" : "mg");
  j.Key("env").String(in.env);
  j.Key("dis").BeginArray();
  for (const std::string& d : in.dis) j.String(d);
  j.EndArray();
  if (!in.goal_var.empty()) {
    j.Key("var").String(in.goal_var);
    j.Key("val").Int(in.goal_val);
  }
  j.EndObject();
  return j.TakeString();
}

// serve-mix: one session per pass; half the requests repeat the hot set,
// half are fresh random systems or TQBF n=2. One pass issues every fresh
// input once, so within a pass only hot inputs are hits.
void ServeMix(std::uint64_t seed, Workload* w) {
  const Backend b = Backend::kSimplifiedExplorer;
  std::vector<std::uint32_t> hot;
  for (const rapar::BenchmarkCase& c : rapar::StandardBenchmarks()) {
    hot.push_back(static_cast<std::uint32_t>(w->pool.size()));
    w->pool.push_back(FromCase(c, "catalog", b));
  }
  for (const int z : {1, 2, 3}) {
    hot.push_back(static_cast<std::uint32_t>(w->pool.size()));
    w->pool.push_back(FromCase(rapar::ProducerConsumer(z), "pc", b));
    hot.push_back(static_cast<std::uint32_t>(w->pool.size()));
    w->pool.push_back(FromCase(rapar::ProducerConsumerSafe(z), "pc-safe", b));
  }
  for (Input& in : w->pool) in.hot = true;
  const std::size_t first_fresh = w->pool.size();
  for (std::uint64_t s = 0; s < kServeFreshSystems; ++s) {
    AddRandomSystem(s, kDefaultDisSize, b, &w->pool);
  }
  rapar::Rng qbfs(kQbfStream);
  for (int i = 0; i < kServeFreshTqbfs; ++i) {
    w->pool.push_back(RandomTqbf(qbfs, 2, b));
  }
  for (std::size_t i = 0; i < w->pool.size(); ++i) {
    w->pool[i].line = RequestLine(w->pool[i], i);
  }
  rapar::Rng rng(Salted(w->name, seed));
  std::vector<std::uint32_t> fresh;
  for (std::size_t i = first_fresh; i < w->pool.size(); ++i) {
    fresh.push_back(static_cast<std::uint32_t>(i));
  }
  Shuffle(rng, &fresh);
  // Slot kinds of one pass: as many hot repeats as fresh inputs.
  std::vector<std::uint32_t> is_hot(2 * fresh.size(), 0);
  std::fill(is_hot.begin(), is_hot.begin() + fresh.size(), 1);
  Shuffle(rng, &is_hot);
  std::size_t next_fresh = 0;
  for (const std::uint32_t h : is_hot) {
    w->order.push_back(h != 0 ? hot[rng.Below(hot.size())]
                              : fresh[next_fresh++]);
  }
}

}  // namespace

std::vector<std::uint32_t> PassOrder(const Workload& w, std::uint64_t seed,
                                     std::size_t pass) {
  std::vector<std::uint32_t> order = w.order;
  if (pass > 0) {
    rapar::Rng rng(Salted(w.name, seed) ^ rapar::SplitMix64(pass));
    Shuffle(rng, &order);
  }
  return order;
}

const char* AnswerName(Answer a) {
  switch (a) {
    case Answer::kSafe:
      return "safe";
    case Answer::kUnsafe:
      return "unsafe";
    case Answer::kUnknown:
      return "unknown";
    case Answer::kError:
      return "error";
    case Answer::kCrash:
      return "crash";
  }
  return "?";
}

Answer FromResult(rapar::Verdict::Result r) {
  switch (r) {
    case rapar::Verdict::Result::kSafe:
      return Answer::kSafe;
    case rapar::Verdict::Result::kUnsafe:
      return Answer::kUnsafe;
    case rapar::Verdict::Result::kUnknown:
      return Answer::kUnknown;
  }
  return Answer::kUnknown;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cli-default", "guess-scan",
                                                 "deep-solve", "serve-mix"};
  return names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "cli-default") {
    CliDefault(seed, out);
  } else if (name == "guess-scan") {
    GuessScan(seed, out);
  } else if (name == "deep-solve") {
    DeepSolve(seed, out);
  } else if (name == "serve-mix") {
    ServeMix(seed, out);
  } else {
    return false;
  }
  return true;
}

Workload AuditPool(std::uint64_t from, std::uint64_t to) {
  Workload w;
  w.name = "audit";
  for (std::uint64_t s = from; s < to; ++s) {
    AddRandomSystem(s, kGuessDisSize, Backend::kDatalog, &w.pool);
  }
  return w;
}

rapar::Expected<rapar::ParamSystem> BuildInput(const Input& in) {
  using Result = rapar::Expected<rapar::ParamSystem>;
  rapar::Expected<rapar::Program> env = rapar::ParseProgram(in.env);
  if (!env.ok()) return Result::Error("env: " + env.error());
  rapar::ParamSystem::Builder builder;
  builder.Env(std::move(env).value());
  for (const std::string& text : in.dis) {
    rapar::Expected<rapar::Program> dis = rapar::ParseProgram(text);
    if (!dis.ok()) return Result::Error("dis: " + dis.error());
    builder.Dis(std::move(dis).value());
  }
  return builder.Build();
}

std::optional<std::pair<rapar::VarId, rapar::Value>> GoalOf(
    const Input& in, const rapar::ParamSystem& sys, bool* ok) {
  *ok = true;
  if (in.goal_var.empty()) return std::nullopt;
  const rapar::VarId var = sys.vars().Find(in.goal_var);
  if (!var.valid()) {
    *ok = false;
    return std::nullopt;
  }
  return std::pair{var, static_cast<rapar::Value>(in.goal_val)};
}

Answer RunOneShot(const Input& in, const rapar::VerifierOptions& options) {
  rapar::Expected<rapar::ParamSystem> sys = BuildInput(in);
  if (!sys.ok()) return Answer::kError;
  bool ok = true;
  const auto goal = GoalOf(in, sys.value(), &ok);
  if (!ok) return Answer::kError;
  const rapar::SafetyVerifier verifier(sys.value());
  const rapar::Verdict v = verifier.Run(goal, options);
  const std::string json =
      rapar::VerdictToJson(v, options, goal.has_value() ? "mg" : "verify",
                           sys.value().Signature());
  return json.empty() ? Answer::kError : FromResult(v.result);
}

}  // namespace rbench
