// rapar_bench: the closed-loop benchmark program.
//
//   rapar_bench --workload W --seed N --seconds S --trace 0|1 --out DIR
//               [--commit C] [--source-digest D]
//               [--inject-abort I] [--inject-wrong-verdict I]
//   rapar_bench --list-metrics
//   rapar_bench --audit FROM TO
//
// One client on one thread issues the workload's requests back to back,
// repeating whole passes until S seconds have passed; every pass runs in
// a fresh child, in its own order of the same requests, with reference
// samples between requests that scale the reported times (see
// ReferenceSampleMs). Every phase that runs program code — the oracle,
// the timed loop, disagreement resolution — runs in forked children, so
// a request that kills its process is counted as failed and the run goes
// on from the next request in a fresh child (for serve-mix: a fresh
// session, as a restarted daemon would have). The last stdout line is
// the result object; DIR receives the full result file (machine record,
// every failure and disagreement) and, for --trace 1, the span files.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/serve.h"
#include "replay.h"

#ifndef RAPAR_BENCH_BUILD_TYPE
#define RAPAR_BENCH_BUILD_TYPE "unknown"
#endif

namespace rbench {
namespace {

using Clock = std::chrono::steady_clock;
using rapar::StrCat;

constexpr int kSetupRepeats = 15;
constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
// Span budget of one traced child's trace file.
constexpr std::size_t kKeepSpans = 50'000;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_rps", "req/s"}, {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"lang.parse.ms", "ms"},
    {"lang.parse.calls", "count"},
    {"core.build.ms", "ms"},
    {"analysis.prepass.ms", "ms"},
    {"analysis.prepass.pruned", "count"},
    {"simplified.explore.ms", "ms"},
    {"simplified.explore.states", "count"},
    {"simplified.explore.states_per_ms", "1/ms"},
    {"simplified.witness.ms", "ms"},
    {"encoding.enumerate.ms", "ms"},
    {"encoding.enumerate.guesses", "count"},
    {"encoding.makep.ms", "ms"},
    {"encoding.makep.rules", "count"},
    {"dlopt.optimize.ms", "ms"},
    {"dlopt.hints.ms", "ms"},
    {"dlopt.kept_ratio", "ratio"},
    {"datalog.eval.ms", "ms"},
    {"datalog.eval.solves", "count"},
    {"datalog.eval.tuples", "count"},
    {"datalog.eval.join_attempts", "count"},
    {"datalog.eval.firings_per_join", "ratio"},
    {"core.render.ms", "ms"},
    {"core.glue.ms", "ms"},
    {"core.request.ms", "ms"},
    {"serve.hit.ms", "ms"},
    {"serve.miss.ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.overhead.ms", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_results";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::size_t inject_abort = kNoPos;
  std::size_t inject_wrong = kNoPos;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rapar_bench: %s\nusage: rapar_bench --workload W --seed N "
               "--seconds S --trace 0|1 [--out DIR] | --list-metrics | "
               "--audit FROM TO\n",
               why);
  std::exit(2);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Reference kernel.
//
// On a shared host the speed of hash-, allocation- and branch-heavy code
// drifts by tens of percent over minutes, while a plain arithmetic loop
// barely moves; rapar's requests are code of the first kind. The kernel
// below is a fixed piece of the benchmark's own code of that kind (hash
// maps, string-keyed ordered maps, vectors, a sort, many small
// allocations), sampled between requests. On a shared 4-vCPU VM, over
// ten 20 s runs per workload, a run's request times followed its median
// kernel time with log-log slopes of 0.8-1.4 (correlation 0.7-0.94), so
// every time the benchmark reports is scaled to the speed at which one
// sample takes kReferenceMs; that cut deep-solve's quartile spread on
// throughput from 31% to 6%. A run on a slowed host and one on a quiet
// host report close figures, while a change to the program moves them
// as before (the kernel calls none of it). The unscaled figures are kept
// in the result file.

constexpr double kReferenceMs = 3.5;
// Seconds of requests between two reference samples.
constexpr double kReferenceEveryS = 0.1;

volatile std::uint64_t reference_sink;  // keeps the kernel's work alive

double ReferenceSampleMs() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 4; ++rep) {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    std::map<std::string, std::uint64_t> names;
    for (std::uint32_t i = 0; i < 4000; ++i) {
      buckets[next() % 3000].push_back(i);
      if (i % 8 == 0) names[std::to_string(next() % 100000)] += i;
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(buckets.size());
    for (const auto& [k, v] : buckets) keys.push_back(k * v.size());
    std::sort(keys.begin(), keys.end());
    for (const auto& [k, v] : names) sum += v + k.size();
    sum += keys.back();
  }
  reference_sink = sum;
  return MsSince(t0);
}

// ---------------------------------------------------------------------------
// Crash isolation.

bool WriteAll(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct IsolatedRun {
  // Child side: runs position `pos`, returns its record (one line).
  std::function<std::string(std::size_t pos)> step;
  // Child side, once per child before it exits normally.
  std::function<void(int child)> child_exit;
  // Parent side: one completed position and its record.
  std::function<void(std::size_t pos, const std::string& record)> on_record;
  // Parent side: the child died while running `pos`.
  std::function<void(std::size_t pos, const std::string& why)> on_crash;
  // Start a fresh child at every pass boundary, so that every pass runs
  // from the same process state instead of the heap the previous passes
  // left behind.
  bool child_per_pass = false;
  // Child side: take a reference sample before the next request once
  // this many seconds have passed since the child's start or its last
  // sample (0: never).
  double reference_every_s = 0;
  // Parent side: one reference sample, in ms, taken before `pos` ran.
  std::function<void(std::size_t pos, double ms)> on_reference;
};

struct IsolationStats {
  // Peak RSS of each pass: the largest of the children that ran in it.
  std::map<std::size_t, long> pass_peak_rss_kb;
  int children = 0;
};

// Runs positions [begin, end) in forked children, restarting after every
// child death at the next position (and, with run.child_per_pass, at
// every pass boundary). Past `deadline` the run stops at the next
// position that is a multiple of `pass`.
IsolationStats RunIsolated(std::size_t begin, std::size_t end,
                           Clock::time_point deadline, std::size_t pass,
                           const IsolatedRun& run) {
  IsolationStats stats;
  const auto done = [&](std::size_t pos) {
    return pos >= end || (pos % pass == 0 && Clock::now() >= deadline);
  };
  std::size_t next = begin;
  while (!done(next)) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      std::exit(3);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const int child_no = stats.children++;
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(3);
    }
    if (pid == 0) {
      close(fds[0]);
      // A crashing request must not spend the run writing a core file.
      const struct rlimit no_core {0, 0};
      setrlimit(RLIMIT_CORE, &no_core);
      Clock::time_point last_reference = Clock::now();
      for (std::size_t pos = next; !done(pos); ++pos) {
        if (run.child_per_pass && pos != next && pos % pass == 0) break;
        if (run.reference_every_s > 0 &&
            Seconds(Clock::now() - last_reference) >= run.reference_every_s) {
          char line[64];
          std::snprintf(line, sizeof line, "ref %zu %.9g\n", pos,
                        ReferenceSampleMs());
          if (!WriteAll(fds[1], line)) _exit(4);
          last_reference = Clock::now();
        }
        if (!WriteAll(fds[1], StrCat(pos, " ", run.step(pos), "\n"))) {
          _exit(4);
        }
      }
      if (run.child_exit) run.child_exit(child_no);
      close(fds[1]);
      _exit(0);
    }
    close(fds[1]);
    std::string buf;
    std::size_t expected = next;
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = read(fds[0], chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const std::string line = buf.substr(start, nl - start);
        if (line.rfind("ref ", 0) == 0) {
          std::istringstream ref(line.substr(4));
          std::size_t pos = 0;
          double ms = 0;
          ref >> pos >> ms;
          if (run.on_reference) run.on_reference(pos, ms);
          continue;
        }
        const std::size_t sp = line.find(' ');
        const std::size_t pos = std::stoull(line.substr(0, sp));
        run.on_record(pos, sp == std::string::npos ? "" : line.substr(sp + 1));
        expected = pos + 1;
      }
      buf.erase(0, start);
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru {};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    long& peak = stats.pass_peak_rss_kb[next / pass];
    peak = std::max(peak, ru.ru_maxrss);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      if (!run.child_per_pass) break;
      next = expected;
      continue;
    }
    const std::string why =
        WIFSIGNALED(status)
            ? StrCat("killed by signal ", WTERMSIG(status), " (",
                     strsignal(WTERMSIG(status)), ")")
            : StrCat("exited with code ", WEXITSTATUS(status));
    if (expected >= end) break;
    run.on_crash(expected, why);
    next = expected + 1;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Oracle: known answers, crash-isolated, computed before timing.

rapar::Backend OtherBackend(rapar::Backend b) {
  return b == rapar::Backend::kDatalog ? rapar::Backend::kSimplifiedExplorer
                                       : rapar::Backend::kDatalog;
}

const char* BackendName(rapar::Backend b) {
  switch (b) {
    case rapar::Backend::kSimplifiedExplorer:
      return "simplified";
    case rapar::Backend::kDatalog:
      return "datalog";
    case rapar::Backend::kConcrete:
      return "concrete";
    default:
      return "other";
  }
}

bool Definitive(Answer a) { return a == Answer::kSafe || a == Answer::kUnsafe; }

// Runs pool[idx[k]] for every k under `base` — or, with other_backend,
// under the exact backend the input does not use — crash-isolated.
std::vector<Answer> RunEach(const Workload& w,
                            const std::vector<std::uint32_t>& idx,
                            const rapar::VerifierOptions& base,
                            bool other_backend) {
  std::vector<Answer> out(idx.size(), Answer::kCrash);
  IsolatedRun run;
  run.step = [&](std::size_t k) {
    const Input& in = w.pool[idx[k]];
    rapar::VerifierOptions options = base;
    if (other_backend) options.backend = OtherBackend(in.backend);
    return StrCat(static_cast<int>(RunOneShot(in, options)));
  };
  run.on_record = [&](std::size_t k, const std::string& r) {
    out[k] = static_cast<Answer>(std::stoi(r));
  };
  run.on_crash = [&](std::size_t k, const std::string&) {
    out[k] = Answer::kCrash;
  };
  RunIsolated(0, idx.size(), Clock::time_point::max(), 1, run);
  return out;
}

// The concrete backend as tie-breaker: a violation found with a fixed
// number of env threads is a parameterized violation.
rapar::VerifierOptions ConcreteOptions() {
  rapar::VerifierOptions o;
  o.backend = rapar::Backend::kConcrete;
  o.concrete.env_threads = 2;
  o.max_states = 100'000;
  o.time_budget_ms = 1'000;
  return o;
}

// The known answer of one input, and how the oracle got it.
struct Oracle {
  Answer known = Answer::kUnknown;
  std::string note;
};

struct OracleTable {
  std::vector<Oracle> known;
  // Other backend's answer for cross-checked inputs (kUnknown otherwise).
  std::vector<Answer> other;
  std::vector<bool> cross_checked;
};

OracleTable ComputeOracle(const Workload& w) {
  OracleTable t;
  t.known.resize(w.pool.size());
  t.other.assign(w.pool.size(), Answer::kUnknown);
  t.cross_checked.assign(w.pool.size(), false);
  std::vector<std::uint32_t> cross;
  for (std::uint32_t i = 0; i < w.pool.size(); ++i) {
    const Input& in = w.pool[i];
    if (in.expected_unsafe.has_value()) {
      t.known[i].known = *in.expected_unsafe ? Answer::kUnsafe : Answer::kSafe;
      t.known[i].note = "analytic";
    } else {
      cross.push_back(i);
    }
  }
  const std::vector<Answer> other =
      RunEach(w, cross, rapar::VerifierOptions{}, /*other_backend=*/true);
  std::vector<std::uint32_t> undecided;
  for (std::size_t k = 0; k < cross.size(); ++k) {
    const std::uint32_t i = cross[k];
    t.cross_checked[i] = true;
    t.other[i] = other[k];
    if (Definitive(other[k])) {
      t.known[i].known = other[k];
      t.known[i].note = StrCat(BackendName(OtherBackend(w.pool[i].backend)),
                               "=", AnswerName(other[k]));
    } else {
      undecided.push_back(i);
    }
  }
  // The other backend crashed or gave up: only a concrete violation can
  // still settle the answer.
  const std::vector<Answer> conc =
      RunEach(w, undecided, ConcreteOptions(), /*other_backend=*/false);
  for (std::size_t k = 0; k < undecided.size(); ++k) {
    const std::uint32_t i = undecided[k];
    t.known[i].known =
        conc[k] == Answer::kUnsafe ? Answer::kUnsafe : Answer::kUnknown;
    t.known[i].note =
        StrCat(BackendName(OtherBackend(w.pool[i].backend)), "=",
               AnswerName(t.other[i]), " concrete=", AnswerName(conc[k]));
  }
  return t;
}

// --audit: both exact backends on every query of rand8 generator seeds
// [from, to), crash-isolated, outside any timing. Lists every crash and
// every disagreement (settled by the concrete backend, as in a run).
int Audit(std::uint64_t from, std::uint64_t to) {
  const Workload w = AuditPool(from, to);
  const OracleTable oracle = ComputeOracle(w);
  std::vector<std::uint32_t> all(w.pool.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  rapar::VerifierOptions datalog;
  datalog.backend = rapar::Backend::kDatalog;
  const std::vector<Answer> own =
      RunEach(w, all, datalog, /*other_backend=*/false);
  std::vector<std::uint32_t> contested;
  for (const std::uint32_t i : all) {
    if (Definitive(own[i]) && Definitive(oracle.other[i]) &&
        own[i] != oracle.other[i]) {
      contested.push_back(i);
    }
  }
  const std::vector<Answer> conc =
      RunEach(w, contested, ConcreteOptions(), /*other_backend=*/false);
  std::size_t findings = 0;
  for (const std::uint32_t i : all) {
    for (const auto& [backend, answer] :
         {std::pair{"datalog", own[i]}, std::pair{"simplified", oracle.other[i]}}) {
      if (answer == Answer::kCrash) {
        ++findings;
        std::printf("CRASH %s: %s\n", w.pool[i].name.c_str(), backend);
      }
    }
  }
  for (std::size_t k = 0; k < contested.size(); ++k) {
    const std::uint32_t i = contested[k];
    ++findings;
    std::printf("DISAGREEMENT %s: datalog=%s simplified=%s concrete=%s\n",
                w.pool[i].name.c_str(), AnswerName(own[i]),
                AnswerName(oracle.other[i]), AnswerName(conc[k]));
  }
  std::printf("audit of rand8 seeds [%llu, %llu): %zu queries, %zu finding(s)\n",
              static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(to), w.pool.size(), findings);
  return 0;
}

// ---------------------------------------------------------------------------
// Result bookkeeping.

struct Record {
  std::size_t pos = 0;
  Answer answer = Answer::kCrash;
  double ms = 0;
  double end_s = 0;  // completion time, seconds since the loop started
  int cache = 0;  // serve-mix: 1 hit, 2 miss
  bool replay_mismatch = false;
  Slots slots{};
};

struct Failure {
  std::size_t pos;
  std::string input;
  std::string reason;
};

struct Disagreement {
  std::string input;
  std::string detail;
};

Answer ParseServeResponse(const std::string& response, int* cache) {
  *cache = 0;
  rapar::Expected<rapar::JsonValue> doc = rapar::ParseJson(response);
  if (!doc.ok() || !doc.value().is_object()) return Answer::kError;
  const rapar::JsonValue* c = doc.value().Find("cache");
  if (c != nullptr && c->is_string()) {
    *cache = c->string == "hit" ? 1 : c->string == "miss" ? 2 : 0;
  }
  const rapar::JsonValue* v = doc.value().Find("verdict");
  if (v == nullptr || !v->is_string()) return Answer::kError;
  if (v->string == "safe") return Answer::kSafe;
  if (v->string == "unsafe") return Answer::kUnsafe;
  if (v->string == "unknown") return Answer::kUnknown;
  return Answer::kError;
}

std::string EncodeRecord(const Record& r) {
  std::string s = StrCat(static_cast<int>(r.answer), " ", r.cache, " ",
                         r.replay_mismatch ? 1 : 0);
  char num[64];
  std::snprintf(num, sizeof num, " %.9g %.9g", r.ms, r.end_s);
  s += num;
  for (const double v : r.slots) {
    std::snprintf(num, sizeof num, " %.9g", v);
    s += num;
  }
  return s;
}

Record DecodeRecord(std::size_t pos, const std::string& line) {
  Record r;
  r.pos = pos;
  std::istringstream in(line);
  int answer = 0;
  int mismatch = 0;
  in >> answer >> r.cache >> mismatch >> r.ms >> r.end_s;
  r.answer = static_cast<Answer>(answer);
  r.replay_mismatch = mismatch != 0;
  for (double& v : r.slots) in >> v;
  return r;
}

// A metric at the reference speed: times shrink by `time_scale` on a host
// slower than the reference, rates grow by it; counts and ratios stay.
double Scaled(const MetricDef& def, double v, double time_scale) {
  const std::string unit = def.unit;
  if (unit == "ms" || unit == "s") return v * time_scale;
  if (unit == "req/s" || unit == "1/ms") return v / time_scale;
  return v;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double x = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(x));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (x - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Machine record.

std::string ReadSmallFile(const char* path) {
  std::ifstream f(path);
  if (!f) return "";
  std::string s;
  std::getline(f, s);
  return s;
}

std::string CpuMax() {
  std::string v = ReadSmallFile("/sys/fs/cgroup/cpu.max");
  if (!v.empty()) return v;
  const std::string quota = ReadSmallFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period =
      ReadSmallFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (!quota.empty()) return StrCat(quota == "-1" ? "max" : quota, " ", period);
  return "unavailable";
}

struct Calibration {
  double effective_cores = 0;
  // Single-thread speed of the burn loop; compare it between result
  // files before comparing their timings.
  double ns_per_iter = 0;
};

// Effective cores: `n` threads each burning the same fixed work, compared
// with one thread alone. 1.0 means the n threads ran one after another.
Calibration Calibrate(unsigned n) {
  const auto burn = [](std::uint64_t iters) {
    volatile std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + i;
    return static_cast<std::uint64_t>(x);
  };
  std::uint64_t iters = 1 << 20;
  Clock::time_point t0 = Clock::now();
  burn(iters);
  double one = Seconds(Clock::now() - t0);
  while (one < 0.05) {
    iters *= 2;
    t0 = Clock::now();
    burn(iters);
    one = Seconds(Clock::now() - t0);
  }
  t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (unsigned i = 0; i < n; ++i) threads.emplace_back([&] { burn(iters); });
  }
  const double all = Seconds(Clock::now() - t0);
  Calibration c;
  c.effective_cores = all > 0 ? static_cast<double>(n) * one / all : 0;
  c.ns_per_iter = one * 1e9 / static_cast<double>(iters);
  return c;
}

// ---------------------------------------------------------------------------

std::uint64_t ParseCount(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    Usage(("bad value for " + flag).c_str());
  }
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    Usage(("bad value for " + flag).c_str());
  }
}

int Main(int argc, char** argv) {
  Args a;
  bool list_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--list-metrics") {
      list_metrics = true;
    } else if (k == "--audit") {
      const std::uint64_t from = ParseCount(k, val());
      const std::uint64_t to = ParseCount(k, val());
      return Audit(from, to);
    } else if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = ParseCount(k, val());
    } else if (k == "--seconds") {
      const std::string v = val();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') Usage("bad value for --seconds");
    } else if (k == "--trace") {
      const std::uint64_t t = ParseCount(k, val());
      if (t > 1) Usage("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (k == "--out") {
      a.out = val();
    } else if (k == "--commit") {
      a.commit = val();
    } else if (k == "--source-digest") {
      a.source_digest = val();
    } else if (k == "--inject-abort") {
      a.inject_abort = ParseCount(k, val());
    } else if (k == "--inject-wrong-verdict") {
      a.inject_wrong = ParseCount(k, val());
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (list_metrics) {
    rapar::JsonWriter j;
    j.BeginObject().Key("end_to_end").BeginArray();
    for (const MetricDef& m : kEndToEnd) {
      j.BeginObject().Key("name").String(m.name).Key("unit").String(m.unit);
      j.EndObject();
    }
    j.EndArray().Key("per_layer").BeginArray();
    for (const MetricDef& m : kPerLayer) {
      j.BeginObject().Key("name").String(m.name).Key("unit").String(m.unit);
      j.EndObject();
    }
    j.EndArray().Key("workloads").BeginArray();
    for (const std::string& n : WorkloadNames()) j.String(n);
    j.EndArray().EndObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
  }
  if (!(a.seconds > 0 && a.seconds <= 3600)) {
    Usage("--seconds must be in (0, 3600]");
  }
  const bool serve = a.workload == "serve-mix";

  // --- set-up, several times; the last one is kept. A reference sample
  // before each (not part of the set-up time) scales setup_s. ---
  Workload w;
  std::unique_ptr<rapar::serve::ServeSession> session;
  std::vector<double> setup_s, setup_reference_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_reference_ms.push_back(ReferenceSampleMs());
    session.reset();
    const Clock::time_point t0 = Clock::now();
    if (!MakeWorkload(a.workload, a.seed, &w)) {
      Usage(("unknown workload '" + a.workload + "'").c_str());
    }
    if (serve) {
      rapar::serve::ServeOptions so;
      so.threads = 1;
      session = std::make_unique<rapar::serve::ServeSession>(so);
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  // --- oracle ---
  const Clock::time_point oracle_start = Clock::now();
  OracleTable oracle = ComputeOracle(w);
  const double oracle_s = Seconds(Clock::now() - oracle_start);

  // --- the closed loop ---
  std::vector<Record> records;
  std::vector<Failure> failures;
  std::vector<std::size_t> crashed;
  Tracer tracer(kKeepSpans);
  const std::string tag = StrCat(a.workload, "-seed", a.seed);
  // Pool index issued at `pos`; positions are asked for in increasing
  // order, so only the current pass's order is kept.
  std::size_t order_pass = kNoPos;
  std::vector<std::uint32_t> pass_order;
  const auto issued_at = [&](std::size_t pos) {
    if (pos / w.order.size() != order_pass) {
      order_pass = pos / w.order.size();
      pass_order = PassOrder(w, a.seed, order_pass);
    }
    return pass_order[pos % w.order.size()];
  };
  const auto input_at = [&](std::size_t pos) -> const Input& {
    return w.pool[issued_at(pos)];
  };

  Clock::time_point loop_start;
  IsolatedRun run;
  run.step = [&](std::size_t pos) {
    if (pos == a.inject_abort) std::abort();
    const Input& in = input_at(pos);
    Record r;
    if (a.trace == 0) {
      const Clock::time_point t0 = Clock::now();
      if (serve) {
        const std::string resp = session->HandleLine(in.line);
        r.ms = MsSince(t0);
        r.answer = ParseServeResponse(resp, &r.cache);
      } else {
        rapar::VerifierOptions options;
        options.backend = in.backend;
        r.answer = RunOneShot(in, options);
        r.ms = MsSince(t0);
      }
    } else if (serve) {
      const Clock::time_point t0 = Clock::now();
      const std::string resp = session->HandleLine(in.line);
      r.ms = MsSince(t0);
      r.answer = ParseServeResponse(resp, &r.cache);
      if (r.cache == 1) {
        r.slots[kServeHitMs] += r.ms;
        r.slots[kServeHits] += 1;
        ReplayParseBuild(in, tracer, pos, &r.slots);
      } else {
        r.slots[kServeMissMs] += r.ms;
        r.slots[kServeMisses] += 1;
        Answer reference = Answer::kError;
        const Answer replay =
            ReplayOneShot(in, tracer, pos, &r.slots, &reference);
        r.replay_mismatch = replay != reference;
        r.slots[kServeOverheadMs] += r.ms - r.slots[kOneShotMs];
      }
    } else {
      Answer reference = Answer::kError;
      const Answer replay = ReplayOneShot(in, tracer, pos, &r.slots, &reference);
      r.answer = reference;
      r.ms = r.slots[kOneShotMs];
      r.replay_mismatch = replay != reference;
    }
    if (pos == a.inject_wrong) {
      r.answer = r.answer == Answer::kUnsafe ? Answer::kSafe : Answer::kUnsafe;
    }
    r.end_s = Seconds(Clock::now() - loop_start);
    return EncodeRecord(r);
  };
  run.child_exit = [&](int child) {
    const std::string path =
        StrCat(a.out, "/trace-", tag, "-", child, ".json");
    if (a.trace == 1 && !tracer.WriteFile(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  };
  run.on_record = [&](std::size_t pos, const std::string& line) {
    records.push_back(DecodeRecord(pos, line));
  };
  run.on_crash = [&](std::size_t pos, const std::string& why) {
    crashed.push_back(pos);
    failures.push_back({pos, input_at(pos).name, "crash: " + why});
  };
  std::vector<double> reference_ms;
  std::map<std::size_t, std::vector<double>> pass_reference_ms;
  run.child_per_pass = true;
  run.reference_every_s = kReferenceEveryS;
  run.on_reference = [&](std::size_t pos, double ms) {
    reference_ms.push_back(ms);
    pass_reference_ms[pos / w.order.size()].push_back(ms);
  };
  loop_start = Clock::now();
  const IsolationStats iso = RunIsolated(
      0, kNoPos, loop_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(a.seconds)),
      w.order.size(), run);
  const double loop_s = Seconds(Clock::now() - loop_start);

  // --- disagreement resolution: a definitive verdict that contradicts
  // the other backend is settled by a concrete violation (if any) ---
  std::vector<Disagreement> disagreements;
  {
    std::set<std::uint32_t> contested;
    for (const Record& r : records) {
      const std::uint32_t i = issued_at(r.pos);
      if (oracle.cross_checked[i] && Definitive(r.answer) &&
          Definitive(oracle.other[i]) && r.answer != oracle.other[i]) {
        contested.insert(i);
      }
    }
    const std::vector<std::uint32_t> idx(contested.begin(), contested.end());
    const std::vector<Answer> conc =
        RunEach(w, idx, ConcreteOptions(), /*other_backend=*/false);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const std::uint32_t i = idx[k];
      const Input& in = w.pool[i];
      const Answer own = oracle.other[i] == Answer::kSafe ? Answer::kUnsafe
                                                          : Answer::kSafe;
      oracle.known[i].known =
          conc[k] == Answer::kUnsafe ? Answer::kUnsafe : Answer::kUnknown;
      oracle.known[i].note =
          StrCat(BackendName(in.backend), "=", AnswerName(own), " ",
                 BackendName(OtherBackend(in.backend)), "=",
                 AnswerName(oracle.other[i]), " concrete=", AnswerName(conc[k]));
      disagreements.push_back({in.name, oracle.known[i].note});
    }
  }

  // --- check every verdict ---
  bool harness_ok = true;
  std::vector<std::string> harness_errors;
  struct FamilyStats {
    std::size_t n = 0;
    double ms = 0;
    double max_ms = 0;
  };
  std::map<std::string, FamilyStats> families;
  Slots sum{};
  std::size_t completed = 0;
  for (const Record& r : records) {
    const std::uint32_t i = issued_at(r.pos);
    const Input& in = w.pool[i];
    ++completed;
    FamilyStats& fs = families[in.family + (in.hot ? "/hot" : "")];
    ++fs.n;
    fs.ms += r.ms;
    fs.max_ms = std::max(fs.max_ms, r.ms);
    for (int s = 0; s < kNumSlots; ++s) sum[s] += r.slots[s];
    if (r.replay_mismatch) {
      harness_ok = false;
      harness_errors.push_back(
          StrCat("replay did not reach Run's verdict on ", in.name));
    }
    const Oracle& o = oracle.known[i];
    if (!Definitive(o.known)) {
      failures.push_back({r.pos, in.name,
                          StrCat("no known answer (", o.note, "); got ",
                                 AnswerName(r.answer))});
    } else if (r.answer != o.known) {
      failures.push_back({r.pos, in.name,
                          StrCat("verdict ", AnswerName(r.answer),
                                 " != known ", AnswerName(o.known), " (",
                                 o.note, ")")});
    }
  }
  // Reported times are scaled to the reference speed (see kReferenceMs),
  // each pass by its own samples, since a host's speed can shift within a
  // run; a pass without samples takes the run's median, and so do the
  // per-layer times.
  const double reference_median = Quantile(reference_ms, 0.5);
  const double time_scale =
      reference_median > 0 ? kReferenceMs / reference_median : 1;
  const auto pass_scale = [&](std::size_t pass) {
    const auto it = pass_reference_ms.find(pass);
    return it == pass_reference_ms.end()
               ? time_scale
               : kReferenceMs / Quantile(it->second, 0.5);
  };
  // Per-pass throughput: the pass's completed requests over the time spent
  // in them, so the forks and reference samples between requests do not
  // count.
  std::vector<double> pass_rps, raw_pass_rps, latencies, raw_latencies;
  {
    std::map<std::size_t, std::pair<std::size_t, double>> pass_ms;
    for (const Record& r : records) {
      auto& [n, ms] = pass_ms[r.pos / w.order.size()];
      ++n;
      ms += r.ms;
      raw_latencies.push_back(r.ms);
      latencies.push_back(r.ms * pass_scale(r.pos / w.order.size()));
    }
    for (const auto& [pass, nm] : pass_ms) {
      if (nm.second > 0) {
        raw_pass_rps.push_back(1000.0 * static_cast<double>(nm.first) /
                               nm.second);
        pass_rps.push_back(raw_pass_rps.back() / pass_scale(pass));
      }
    }
  }
  std::sort(failures.begin(), failures.end(),
            [](const Failure& x, const Failure& y) { return x.pos < y.pos; });
  const std::size_t attempted = completed + crashed.size();
  if (completed == 0) {
    harness_ok = false;
    harness_errors.push_back("no request completed");
  }

  // --- metrics ---
  struct Metric {
    const MetricDef* def;
    double value;  // at the reference speed
    double raw;    // as measured
  };
  std::vector<Metric> metrics;
  // `scaled` < 0: scale `raw` by the run's time_scale.
  const auto put = [&](const MetricDef* defs, std::size_t n, const char* name,
                       double raw, double scaled = -1) {
    for (std::size_t k = 0; k < n; ++k) {
      if (std::strcmp(defs[k].name, name) == 0) {
        metrics.push_back({&defs[k],
                           scaled >= 0 ? scaled
                                       : Scaled(defs[k], raw, time_scale),
                           raw});
        return;
      }
    }
    harness_ok = false;
    harness_errors.push_back(StrCat("unknown metric ", name));
  };
  const double failed_ratio =
      attempted == 0 ? 0
                     : static_cast<double>(failures.size()) /
                           static_cast<double>(attempted);
  // Median over the passes, so the number of passes a run fits in does
  // not decide which pass sets the figure.
  std::vector<double> pass_peak_rss_kb;
  for (const auto& [pass, kb] : iso.pass_peak_rss_kb) {
    pass_peak_rss_kb.push_back(static_cast<double>(kb));
  }
  const double peak_rss_kb = Quantile(pass_peak_rss_kb, 0.5);
  if (a.trace == 0) {
    const auto e2e = [&](const char* n, double raw, double scaled = -1) {
      put(kEndToEnd, std::size(kEndToEnd), n, raw, scaled);
    };
    if (pass_rps.empty()) {
      e2e("throughput_rps", static_cast<double>(completed) / loop_s);
    } else {
      e2e("throughput_rps", Quantile(raw_pass_rps, 0.5),
          Quantile(pass_rps, 0.5));
    }
    e2e("latency_p50_ms", Quantile(raw_latencies, 0.5),
        Quantile(latencies, 0.5));
    e2e("latency_p90_ms", Quantile(raw_latencies, 0.9),
        Quantile(latencies, 0.9));
    e2e("setup_s", Quantile(setup_s, 0.5),
        Quantile(setup_s, 0.5) * kReferenceMs /
            Quantile(setup_reference_ms, 0.5));
    e2e("peak_rss_mb", peak_rss_kb / 1024.0);
  } else {
    const double n = completed == 0 ? 1 : static_cast<double>(completed);
    const auto per = [&](int slot) { return sum[slot] / n; };
    const auto ratio = [](double num, double den) {
      return den == 0 ? 0 : num / den;
    };
    const auto pl = [&](const char* name, double v) {
      put(kPerLayer, std::size(kPerLayer), name, v);
    };
    pl("lang.parse.ms", per(kParseMs));
    pl("lang.parse.calls", per(kParseCalls));
    pl("core.build.ms", per(kBuildMs));
    pl("analysis.prepass.ms", per(kPrepassMs));
    pl("analysis.prepass.pruned", per(kPrepassPruned));
    pl("simplified.explore.ms", per(kExploreMs));
    pl("simplified.explore.states", per(kExploreStates));
    pl("simplified.explore.states_per_ms",
       ratio(sum[kExploreStates], sum[kExploreMs]));
    pl("simplified.witness.ms", per(kWitnessMs));
    pl("encoding.enumerate.ms", per(kEnumerateMs));
    pl("encoding.enumerate.guesses", per(kGuesses));
    pl("encoding.makep.ms", per(kMakepMs));
    pl("encoding.makep.rules", per(kMakepRules));
    pl("dlopt.optimize.ms", per(kOptimizeMs));
    pl("dlopt.hints.ms", per(kHintsMs));
    pl("dlopt.kept_ratio", ratio(sum[kRulesAfter], sum[kRulesBefore]));
    pl("datalog.eval.ms", per(kEvalMs));
    pl("datalog.eval.solves", per(kEvalSolves));
    pl("datalog.eval.tuples", per(kEvalTuples));
    pl("datalog.eval.join_attempts", per(kEvalJoins));
    pl("datalog.eval.firings_per_join",
       ratio(sum[kEvalFirings], sum[kEvalJoins]));
    pl("core.render.ms", per(kRenderMs));
    pl("core.glue.ms", per(kGlueMs));
    pl("core.request.ms", (sum[kReplayMs] + sum[kPartialMs]) / n);
    pl("serve.hit.ms", ratio(sum[kServeHitMs], sum[kServeHits]));
    pl("serve.miss.ms", ratio(sum[kServeMissMs], sum[kServeMisses]));
    pl("serve.hit_ratio",
       ratio(sum[kServeHits], sum[kServeHits] + sum[kServeMisses]));
    pl("serve.overhead.ms", ratio(sum[kServeOverheadMs], sum[kServeMisses]));
    pl("trace.overhead_pct",
       sum[kOneShotMs] == 0 ? 0
                            : 100.0 * (sum[kReplayMs] / sum[kOneShotMs] - 1));
  }

  // --- machine record (after the timed part: the burn is not free) ---
  const unsigned nproc =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const Calibration cal = Calibrate(nproc);

  // --- result file ---
  rapar::JsonWriter j(/*pretty=*/true);
  j.BeginObject();
  j.Key("workload").String(a.workload);
  j.Key("seed").UInt(a.seed);
  j.Key("trace").Int(a.trace);
  j.Key("seconds").Double(a.seconds);
  j.Key("correct").Bool(harness_ok);
  j.Key("attempted").UInt(attempted);
  j.Key("completed").UInt(completed);
  j.Key("failed").UInt(failures.size());
  j.Key("failed_ratio").Double(failed_ratio);
  const auto write_metrics = [&metrics](rapar::JsonWriter& w, bool scaled) {
    w.Key(scaled ? "metrics" : "raw_metrics").BeginObject();
    for (const Metric& m : metrics) {
      w.Key(m.def->name).BeginObject().Key("value").Double(
          scaled ? m.value : m.raw);
      w.Key("unit").String(m.def->unit).EndObject();
    }
    w.EndObject();
  };
  write_metrics(j, true);
  write_metrics(j, false);
  j.Key("reference").BeginObject();
  j.Key("samples").UInt(reference_ms.size());
  j.Key("median_ms").Double(reference_median);
  j.Key("nominal_ms").Double(kReferenceMs);
  j.Key("time_scale").Double(time_scale);
  j.Key("setup_median_ms").Double(Quantile(setup_reference_ms, 0.5));
  j.EndObject();
  j.Key("loop").BeginObject();
  j.Key("clients").Int(1).Key("threads").Int(1);
  j.Key("kind").String("closed");
  j.Key("wait_time").String(
      "not reported: one client on one thread never queues");
  j.Key("wall_s").Double(loop_s);
  j.Key("children").Int(iso.children);
  j.Key("pool_inputs").UInt(w.pool.size());
  j.Key("pass_requests").UInt(w.order.size());
  j.Key("passes").Double(static_cast<double>(attempted) /
                         static_cast<double>(w.order.size()));
  j.Key("oracle_s").Double(oracle_s);
  j.Key("setup_samples_s").BeginArray();
  for (const double s : setup_s) j.Double(s);
  j.EndArray();
  j.Key("pass_rps").BeginArray();
  for (const double v : pass_rps) j.Double(v);
  j.EndArray();
  j.Key("raw_pass_rps").BeginArray();
  for (const double v : raw_pass_rps) j.Double(v);
  j.EndArray();
  j.Key("families").BeginObject();
  for (const auto& [name, fs] : families) {
    j.Key(name).BeginObject().Key("requests").UInt(fs.n);
    j.Key("total_ms").Double(fs.ms).Key("max_ms").Double(fs.max_ms);
    j.EndObject();
  }
  j.EndObject().EndObject();
  j.Key("machine").BeginObject();
  j.Key("nproc").UInt(nproc);
  j.Key("cgroup_cpu_max").String(CpuMax());
  j.Key("effective_cores").Double(cal.effective_cores);
  j.Key("burn_ns_per_iter").Double(cal.ns_per_iter);
  j.Key("compiler").String(StrCat("g++ ", __VERSION__));
  j.Key("build_type").String(RAPAR_BENCH_BUILD_TYPE);
  j.Key("commit").String(a.commit);
  j.Key("source_digest").String(a.source_digest);
  j.EndObject();
  j.Key("failures").BeginArray();
  for (const Failure& f : failures) {
    j.BeginObject().Key("workload").String(a.workload);
    j.Key("seed").UInt(a.seed).Key("index").UInt(f.pos);
    j.Key("input").String(f.input).Key("reason").String(f.reason);
    j.EndObject();
  }
  j.EndArray();
  j.Key("disagreements").BeginArray();
  for (const Disagreement& d : disagreements) {
    j.BeginObject().Key("input").String(d.input);
    j.Key("detail").String(d.detail).EndObject();
  }
  j.EndArray();
  j.Key("harness_errors").BeginArray();
  for (const std::string& e : harness_errors) j.String(e);
  j.EndArray();
  j.EndObject();
  const std::string result_path =
      StrCat(a.out, "/result-", tag, "-trace", a.trace, ".json");
  {
    std::ofstream f(result_path);
    f << j.str() << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
      harness_ok = false;
    }
  }

  // --- human summary, then the result object as the last line ---
  std::printf("workload %s seed %llu trace %d: %zu attempted, %zu failed "
              "(failed_ratio %.6f), %zu disagreement(s), effective cores "
              "%.2f of %u\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace, attempted, failures.size(), failed_ratio,
              disagreements.size(), cal.effective_cores, nproc);
  std::printf("  reference kernel %.4f ms (nominal %.1f ms): run time "
              "scale %.4f\n", reference_median, kReferenceMs, time_scale);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6f %s\n", m.def->name, m.value, m.def->unit);
  }
  std::size_t shown = 0;
  for (const Failure& f : failures) {
    if (shown++ == 20) {
      std::printf("  ... %zu more in %s\n", failures.size() - 20,
                  result_path.c_str());
      break;
    }
    std::printf("  FAILED (%s, %llu, %zu) %s: %s\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), f.pos,
                f.input.c_str(), f.reason.c_str());
  }
  for (const Disagreement& d : disagreements) {
    std::printf("  DISAGREEMENT %s: %s\n", d.input.c_str(), d.detail.c_str());
  }
  for (const std::string& e : harness_errors) {
    std::printf("  HARNESS ERROR %s\n", e.c_str());
  }
  rapar::JsonWriter out;
  out.BeginObject();
  out.Key("correct").Bool(harness_ok);
  out.Key("attempted").UInt(attempted);
  out.Key("failed").UInt(failures.size());
  write_metrics(out, true);
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace rbench

int main(int argc, char** argv) { return rbench::Main(argc, argv); }
