// xftl_perfbench: runs one workload at one seed as a warm-up round and then
// identical full rounds, one per 10 s of --seconds and at least two; checks
// the program's outputs and the determinism of every simulated figure
// across the full rounds, and prints the metrics. Human-readable lines go first; the last line is one JSON object
// with every metric the run measured.
//
//   xftl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --latency-limit-ms MS --nominal-rate TXN_PER_S
//                  --sql-cache-pages N --fs-cache-pages N
//                  --commit-mode drain|barrier|plp
//                  [--tiny] [--corrupt-check] [--spans-out PATH]
//
// The workload's latency limit, nominal offered rate, cache sizes and
// commit mode have one source, perfbench/spec.json; run.py passes them.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates traced and untraced full rounds and reports the per-layer metrics:
// the layers' counters, the benchmark's span self times, the stack's tracer
// rows, and the tracing overhead. Exit code 1 means a correctness or
// determinism violation; 2 means bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ftl/ftl_interface.h"
#include "workloads.h"

namespace perfbench {
namespace {

// One full round per this many seconds of --seconds, and at least two: the
// determinism check needs a pair, and an untraced run's host figure is
// never the figure of one round. The count depends on --seconds alone, never on how fast the
// machine runs, so every run of a budget reports the same estimator.
constexpr double kSecondsPerRound = 10;

struct Args {
  RoundSpec spec;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseCommitMode(const std::string& name, int* mode) {
  for (auto m : {xftl::ftl::CommitMode::kDrain, xftl::ftl::CommitMode::kBarrier,
                 xftl::ftl::CommitMode::kPlp}) {
    if (name == xftl::ftl::CommitModeName(m)) {
      *mode = int(m);
      return true;
    }
  }
  return false;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    RoundSpec& spec = a->spec;
    if (k == "--tiny" || k == "--corrupt-check") {
      (k == "--tiny" ? spec.tiny : spec.corrupt_check) = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (k == "--workload") {
      spec.workload = v;
    } else if (k == "--seed") {
      spec.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--latency-limit-ms") {
      spec.latency_limit_ms = std::atof(v);
    } else if (k == "--nominal-rate") {
      spec.nominal_rate = std::atof(v);
    } else if (k == "--sql-cache-pages") {
      spec.sql_cache_pages = uint32_t(std::strtoul(v, nullptr, 10));
    } else if (k == "--fs-cache-pages") {
      spec.fs_cache_pages = uint32_t(std::strtoul(v, nullptr, 10));
    } else if (k == "--commit-mode") {
      if (!ParseCommitMode(v, &spec.commit_mode)) return false;
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  const RoundSpec& spec = a->spec;
  return !spec.workload.empty() && a->seconds > 0 &&
         spec.latency_limit_ms > 0 && spec.nominal_rate > 0 &&
         spec.sql_cache_pages > 0 && spec.fs_cache_pages > 0 &&
         spec.commit_mode >= 0;
}

void PrintJsonLine(bool correct, uint64_t attempted, uint64_t failed,
                   const Metrics& m, const std::vector<std::string>& errors) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"errors\": [",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < errors.size(); ++i) {
    std::string e;
    for (char c : errors[i]) {
      if (c == '"' || c == '\\') e += '\\';
      e += (c == '\n' || c == '\t') ? ' ' : c;
    }
    std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xftl_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --latency-limit-ms MS --nominal-rate TXN_PER_S "
                 "--sql-cache-pages N --fs-cache-pages N "
                 "--commit-mode drain|barrier|plp [--tiny] [--corrupt-check] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  bool known = false;
  for (const auto& w : WorkloadNames()) known |= w == args.spec.workload;
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", args.spec.workload.c_str());
    return 2;
  }

  // Round 0 warms the process (allocator arenas, first-touch page faults; a
  // cold set-up is up to 1.7x slower on host-array; see RoundSpec::warm_up)
  // and is never timed for host figures, so those are medians over the full
  // rounds 1..full_rounds. Round 1 is the determinism reference. With
  // --trace 1 the full rounds alternate traced and untraced.
  const size_t full_rounds =
      std::max<size_t>(2, size_t(args.seconds / kSecondsPerRound));
  std::vector<RoundResult> rounds;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  for (size_t r = 0; r <= full_rounds; ++r) {
    RoundSpec spec = args.spec;
    spec.warm_up = r == 0;
    spec.traced = args.trace && r % 2 == 1;
    rounds.emplace_back();
    RunRound(spec, &rounds.back());
    RoundResult& res = rounds.back();
    attempted += res.attempted;
    failed += res.failed;
    for (const auto& v : res.violations) {
      errors.push_back("round " + std::to_string(r) + ": " + v);
    }
    std::string diff;
    if (r > 1 && !SameBits(rounds[1].sim, res.sim, &diff)) {
      errors.push_back("determinism: round " + std::to_string(r) +
                       " differs from round 1 at the same seed: " + diff);
    }
    if (!errors.empty()) break;
    if (r == 1) {
      for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
    }
    std::printf("# round %zu%s: setup %.3f s (raw %.3f), measured %.3f s "
                "(raw %.3f), kernel median %.3f ms over %zu runs\n",
                r, spec.traced ? " traced" : "", res.setup.calibrated_s(),
                res.setup.raw_s(), res.measured.calibrated_s(),
                res.measured.raw_s(), res.measured.median_kernel_s() * 1e3,
                res.measured.kernel_runs());
  }

  Metrics out;
  // The first full round's simulated figures (round 0's when a failure
  // stopped the run there).
  const RoundResult& ref = rounds[std::min<size_t>(1, rounds.size() - 1)];
  for (const auto& [name, v] : ref.sim) out[name] = v;
  Put(&out, "txn_failed_frac", attempted == 0 ? 1.0
                                              : double(failed) / attempted,
      "ratio");

  std::vector<double> host_rate, raw_rate, setup_s, setup_raw_s, kernel_ms,
      traced_s, untraced_s;
  for (size_t r = 1; r < rounds.size(); ++r) {
    const RoundResult& res = rounds[r];
    kernel_ms.push_back(res.measured.median_kernel_s() * 1e3);
    if (res.spans.enabled()) {
      traced_s.push_back(res.measured.calibrated_s());
      continue;
    }
    untraced_s.push_back(res.measured.calibrated_s());
    host_rate.push_back(res.committed / res.measured.calibrated_s());
    raw_rate.push_back(res.committed / res.measured.raw_s());
    setup_s.push_back(res.setup.calibrated_s());
    setup_raw_s.push_back(res.setup.raw_s());
  }
  Put(&out, "host_txn_per_s", Median(host_rate), "1/s");
  Put(&out, "setup_s", Median(setup_s), "s");
  Put(&out, "peak_rss_mb", PeakRssMb(), "MB");
  Put(&out, "host.raw_txn_per_s", Median(raw_rate), "1/s");
  Put(&out, "host.raw_setup_s", Median(setup_raw_s), "s");
  Put(&out, "host.ref_kernel_ms", Median(kernel_ms), "ms");
  Put(&out, "host.rounds", double(rounds.size()), "count");
  if (args.trace) {
    // Traced figures: the median over traced rounds of each.
    std::map<std::string, std::pair<std::string, std::vector<double>>> traced;
    for (const RoundResult& res : rounds) {
      if (!res.spans.enabled()) continue;
      for (const auto& [name, v] : res.traced) {
        traced[name].first = v.unit;
        traced[name].second.push_back(v.value);
      }
    }
    for (const auto& [name, uv] : traced) {
      Put(&out, name, Median(uv.second), uv.first);
    }
    Put(&out, "trace.overhead_frac",
        untraced_s.empty() || traced_s.empty()
            ? 0.0
            : Median(traced_s) / Median(untraced_s) - 1.0,
        "ratio");
    if (!args.spans_out.empty()) {
      std::remove(args.spans_out.c_str());
      for (size_t r = 0; r < rounds.size(); ++r) {
        const RoundResult& res = rounds[r];
        if (!res.spans.enabled()) continue;
        double scale = res.measured.calibrated_s() /
                       std::max(res.measured.raw_s(), 1e-12);
        if (!res.spans.WriteJsonLines(args.spans_out, std::to_string(r),
                                      scale)) {
          errors.push_back("cannot write " + args.spans_out);
        }
      }
    }
  }

  for (const auto& [name, v] : out) {
    std::printf("%-40s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  if (args.trace && rounds.size() > 1 && rounds[1].spans.enabled()) {
    // Per-layer span table of the first traced round: totals and self
    // times (duration minus children), host in calibrated ms.
    const RoundResult& t = rounds[1];
    const double scale = t.measured.raw_s() > 0
                             ? t.measured.calibrated_s() / t.measured.raw_s()
                             : 0.0;
    std::printf("# %-20s %9s %14s %14s %14s %14s\n", "span", "calls",
                "host_ms", "host_self_ms", "sim_ms", "sim_self_ms");
    for (const auto& [name, a] : t.spans.Aggregate()) {
      std::printf("# %-20s %9llu %14.3f %14.3f %14.3f %14.3f\n", name.c_str(),
                  (unsigned long long)a.count, a.host_s * scale * 1e3,
                  a.self_host_s * scale * 1e3, a.sim_ns / 1e6,
                  a.self_sim_ns / 1e6);
    }
  }
  for (const auto& e : errors) std::printf("ERROR %s\n", e.c_str());
  const bool correct = errors.empty() && attempted > 0;
  PrintJsonLine(correct, attempted, failed, out, errors);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
