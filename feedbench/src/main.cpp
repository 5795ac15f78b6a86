// feedbench — the feedback-loop benchmark.
//
// Runs one benchmark workload in-process against the Release `dtse` library:
// set-up (repeated, median reported), then timed passes for --seconds, then
// one untimed check pass through the other path, then the correctness gate.
// With --trace 0 every pass is untraced and the end-to-end metrics are
// printed; with --trace 1 untraced and traced passes alternate, and the
// per-layer ledger (self times, counter deltas, tracing overhead) is printed
// and written next to a Chrome trace of the benchmark's own spans.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage: feedbench --workload cold-loop|warm-loop|point-queries --seed N
//                  --seconds S --trace 0|1 --expected FILE --work-dir DIR
//                  [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"

#if !defined(NDEBUG) || defined(DTSE_ENABLE_CHECKS)
#error "feedbench measures the Release dtse library: build with -O3 -DNDEBUG, never dtse_checked"
#endif

namespace feedbench {

namespace {

constexpr int kSetupRepetitions = 3;
constexpr std::uint64_t kDefaultSeed = 42;
/// Sweep workers (`ExplorerOptions::parallelism`), capped at the host's
/// hardware threads; the value used is part of the fingerprint.
constexpr unsigned kParallelism = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string work_dir;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "feedbench: " << problem << "\n"
            << "usage: feedbench --workload cold-loop|warm-loop|point-queries --seed N\n"
               "                 --seconds S --trace 0|1 --expected FILE --work-dir DIR\n"
               "                 [--out-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " requires a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.expected.empty() || args.work_dir.empty()) {
    usage("--workload, --expected and --work-dir are required");
  }
  return args;
}

std::string cpuinfo_field(const char* field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

/// Host and configuration fingerprint, one JSON object.
std::string fingerprint(const Args& args, unsigned parallelism) {
  std::ostringstream os;
  dtse::obs::JsonWriter json(os);
  json.begin_object();
  json.key("cpu");
  json.value(cpuinfo_field("model name"));
  json.key("mhz");
  json.value(cpuinfo_field("cpu MHz"));
  json.key("nproc");
  json.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  json.key("compiler");
  json.value("clang " __clang_version__);
#elif defined(__GNUC__)
  json.key("compiler");
  json.value("gcc " __VERSION__);
#endif
  json.key("build");
  json.value("Release (-O3 -DNDEBUG), dtse");
  json.key("parallelism");
  json.value(static_cast<std::uint64_t>(parallelism));
  json.key("seed");
  json.value(args.seed);
  json.key("simd");
  json.value(to_string(dtse::support::resolve_simd_mode(dtse::support::SimdMode::kAuto)));
  json.key("workload");
  json.value(args.workload);
  json.key("trace");
  json.value(args.trace);
  json.end_object();
  return os.str();
}

/// Peak resident memory of this program.  VmHWM covers only the current
/// address space; getrusage's ru_maxrss would also carry over the RSS of the
/// process that forked us (run.py's interpreter).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// Committed expected digests: "<family> <16 hex digits>" lines, '#' comments.
std::map<std::string, std::string> read_expected(const std::string& path) {
  std::map<std::string, std::string> expected;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string family;
    std::string digest;
    if (fields >> family >> digest) expected[family] = digest;
  }
  return expected;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"<name>": {"value": v, "unit": u}, ...}
void write_metrics(dtse::obs::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const auto& metric : metrics) {
    json.key(metric.name);
    json.begin_object();
    json.key("value");
    json.value(metric.value);
    json.key("unit");
    json.value(metric.unit);
    json.end_object();
  }
  json.end_object();
}

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  dtse::obs::JsonWriter json(os);
  json.begin_object();
  json.key("correct");
  json.value(correct);
  json.key("attempted");
  json.value(tally.attempted);
  json.key("failed");
  json.value(tally.failed);
  json.key("metrics");
  write_metrics(json, metrics);
  json.end_object();
  std::cout << os.str() << std::endl;
}

std::vector<double> column(const std::vector<Pass>& passes, bool traced,
                           const std::string& key) {
  std::vector<double> values;
  for (const auto& pass : passes) {
    if (pass.traced != traced) continue;
    const auto it = pass.row.find(key);
    values.push_back(it == pass.row.end() ? 0.0 : it->second);
  }
  return values;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// End-to-end metrics from the untraced passes.
std::vector<Metric> end_to_end(const std::vector<double>& setup_s, const std::vector<Pass>& passes,
                               bool feedback_per_pass) {
  std::vector<double> pass_s;
  std::vector<double> pooled_ms;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_p90_ms;
  double seconds = 0.0;
  double points = 0.0;
  for (const auto& pass : passes) {
    if (pass.traced) continue;
    pass_s.push_back(pass.seconds);
    seconds += pass.seconds;
    points += static_cast<double>(pass.points);
    pooled_ms.insert(pooled_ms.end(), pass.feedback_ms.begin(), pass.feedback_ms.end());
    pass_p50_ms.push_back(quantile(pass.feedback_ms, 0.5));
    pass_p90_ms.push_back(quantile(pass.feedback_ms, 0.9));
  }
  const double p50 = feedback_per_pass ? median(pass_p50_ms) : quantile(pooled_ms, 0.5);
  const double p90 = feedback_per_pass ? median(pass_p90_ms) : quantile(pooled_ms, 0.9);
  std::size_t beyond_p90 = 0;
  for (const double sample : pooled_ms) beyond_p90 += sample > p90 ? 1 : 0;
  std::cout << "untraced passes: " << pass_s.size() << "; pass_s median " << median(pass_s)
            << " s";
  if (const auto interval = median_interval(pass_s, 0.95)) {
    std::cout << ", 95% distribution-free interval [" << interval->first << ", "
              << interval->second << "] s";
  }
  std::cout << "\nfeedback samples: " << pooled_ms.size()
            << (feedback_per_pass ? " answer times (quantiles per pass, median over passes)"
                                  : " query latencies (pooled)")
            << ", " << beyond_p90 << " beyond p90\npass seconds:";
  for (const double s : pass_s) std::cout << ' ' << s;
  std::cout << "\nsetup seconds:";
  for (const double s : setup_s) std::cout << ' ' << s;
  std::cout << '\n';
  return {
      {"setup_s", median(setup_s), "s"},
      {"pass_s", median(pass_s), "s"},
      {"points_per_s", ratio(points, seconds), "1/s"},
      {"feedback_ms.p50", p50, "ms"},
      {"feedback_ms.p90", p90, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

const char* const kLayers[] = {"workloads", "trace", "persist", "graph", "hierarchy",
                               "core",      "scbd",  "alloc",   "feedbench"};

std::string unit_of(const std::string& name) {
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.ends_with("_frac") || name.ends_with("_ratio")) return "frac";
  if (name.ends_with("ns_per_event")) return "ns";
  return "count";
}

/// Per-layer metrics: medians over the traced passes, ratios of those
/// medians, and the traced-vs-untraced overhead.
std::vector<Metric> per_layer(const std::vector<Pass>& passes, unsigned parallelism) {
  std::map<std::string, double> m;
  for (const auto& pass : passes) {
    if (!pass.traced) continue;
    for (const auto& entry : pass.row) m.emplace(entry.first, 0.0);
  }
  double profile_ms = 0.0;
  double verify_ms = 0.0;
  for (auto& [key, value] : m) {
    value = median(column(passes, true, key));
    if (key.starts_with("trace.profile_ms.")) profile_ms += value;
    if (key.starts_with("workloads.verify_ms.")) verify_ms += value;
  }
  m["workloads.verify_ms"] = verify_ms;
  m["trace.profile_ms"] = profile_ms;
  m["trace.ns_per_event"] = ratio(profile_ms * 1e6, m["trace.events"]);
  m["persist.hit_ratio"] = ratio(m["persist.hits"], m["persist.hits"] + m["persist.misses"]);
  m["alloc.bb_prune_ratio"] = ratio(m["alloc.bb_pruned"], m["alloc.bb_nodes"]);
  m["alloc.sa_accept_ratio"] = ratio(m["alloc.sa_accepted"], m["alloc.sa_moves"]);
  const double sweep_wall_ms =
      m["core.budget_sweep_ms"] + m["core.alloc_sweep_ms"] + m["core.shared_sweep_ms"];
  m["core.sweep_busy_frac"] = ratio(m["core.sweep_point_ms"], sweep_wall_ms * parallelism);
  const double untraced_ms = median(column(passes, false, "pass_ms"));
  m["obs.trace_overhead_frac"] = ratio(m["pass_ms"] - untraced_ms, untraced_ms);

  std::printf("\nper-layer self time (median over traced passes)\n");
  std::printf("  %-10s %12s %14s %16s\n", "layer", "self [ms]", "% traced pass",
              "% untraced pass");
  double total = 0.0;
  for (const char* layer : kLayers) {
    const double self = m["self." + std::string(layer)];
    total += self;
    std::printf("  %-10s %12.3f %13.1f%% %15.1f%%\n", layer, self,
                100.0 * ratio(self, m["pass_ms"]), 100.0 * ratio(self, untraced_ms));
  }
  std::printf("  %-10s %12.3f %13.1f%% %15.1f%%\n", "sum", total,
              100.0 * ratio(total, m["pass_ms"]), 100.0 * ratio(total, untraced_ms));
  std::printf("  traced pass %.3f ms, untraced pass %.3f ms\n\n", m["pass_ms"], untraced_ms);

  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) {
    if (name.starts_with("self.") || name == "pass_ms") continue;
    metrics.push_back({name, value, unit_of(name)});
  }
  return metrics;
}

/// The layer metrics the result line carries: those every workload
/// exercises in its timed passes (the rest are in the printed ledger).
const char* const kResultLayerMetrics[] = {
    "scbd.distribute_ms", "scbd.conflict_edges", "alloc.allocate_ms",
    "alloc.bb_runs",      "alloc.bb_nodes",      "alloc.bb_prune_ratio",
    "core.evaluations",   "obs.trace_overhead_frac",
};

void write_ledger(const std::string& path, const std::string& fingerprint_json,
                  const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  out << "{\"fingerprint\":" << fingerprint_json << ",\"metrics\":";
  dtse::obs::JsonWriter json(out);
  write_metrics(json, metrics);
  out << "}\n";
}

int run(const Args& args) {
  if (const char* forced = std::getenv("DTSE_SIMD_MODE")) {
    // The variable overrides even explicit dispatch requests, so a result
    // taken under it would not measure the configured program.
    std::cerr << "feedbench: refusing to run with DTSE_SIMD_MODE=" << forced << " set\n";
    return 2;
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  Config config;
  config.seed = args.seed;
  config.parallelism = std::min(kParallelism, hardware);
  config.work_dir = std::filesystem::path(args.work_dir) / args.workload;

  std::unique_ptr<BenchWorkload> workload;
  if (args.workload == "cold-loop" || args.workload == "warm-loop") {
    workload = make_loop_workload(config, args.workload == "warm-loop");
  } else if (args.workload == "point-queries") {
    workload = make_point_queries(config);
  } else {
    usage("unknown workload '" + args.workload + "'");
  }
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  const auto fingerprint_json = fingerprint(args, config.parallelism);
  std::cout << "fingerprint " << fingerprint_json << '\n';

  Tally tally;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const auto start = Clock::now();
    workload->setup(tally);
    setup_s.push_back(ms_since(start) / 1000.0);
  }

  dtse::obs::TelemetryRegistry spans;
  Ledger traced(&spans);
  Ledger untraced(nullptr);
  // Untraced-only runs take at least 3 passes; traced runs alternate
  // untraced and traced passes, at least 2 of each.
  const std::size_t min_passes = args.trace ? 4 : 3;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (passes.size() < min_passes || ms_since(start) < args.seconds * 1000.0) {
    const bool traced_pass = args.trace && passes.size() % 2 == 1;
    passes.push_back(workload->pass(traced_pass ? traced : untraced, tally, traced_pass));
  }
  const auto check_digest = workload->check(tally);

  // Correctness gate.
  bool correct = tally.golden_ok;
  const auto family = std::string(workload->digest_family());
  const auto digest = passes.front().digest;
  for (const auto& pass : passes) {
    if (pass.digest != digest) {
      correct = false;
      std::cout << "GATE: pass digests differ (" << dtse::persist::to_hex(pass.digest)
                << " vs " << dtse::persist::to_hex(digest) << ")\n";
    }
  }
  if (check_digest != digest) {
    correct = false;
    std::cout << "GATE: " << workload->check_name() << " digest "
              << dtse::persist::to_hex(check_digest) << " differs from the timed passes'\n";
  }
  std::cout << "digest " << family << ' ' << dtse::persist::to_hex(digest) << '\n';
  if (args.seed == kDefaultSeed) {
    const auto expected = read_expected(args.expected);
    const auto it = expected.find(family);
    if (it == expected.end() || it->second != dtse::persist::to_hex(digest)) {
      correct = false;
      std::cout << "GATE: digest " << dtse::persist::to_hex(digest)
                << " does not match the committed " << family << " digest "
                << (it == expected.end() ? std::string("(none)") : it->second) << " in "
                << args.expected << '\n';
    } else {
      std::cout << "committed digest matched\n";
    }
  }
  for (const auto& problem : tally.problems) std::cout << "FAILED: " << problem << '\n';
  std::cout << "failed_frac " << ratio(static_cast<double>(tally.failed),
                                       static_cast<double>(tally.attempted))
            << " (" << tally.failed << " of " << tally.attempted << " operations)\n";

  std::vector<Metric> result;
  if (!args.trace) {
    result = end_to_end(setup_s, passes, workload->feedback_per_pass());
    for (const auto& metric : result) {
      std::printf("  %-20s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
  } else {
    const auto layers = per_layer(passes, config.parallelism);
    for (const char* name : kResultLayerMetrics) {
      for (const auto& metric : layers) {
        if (metric.name == name) result.push_back(metric);
      }
    }
    for (const auto& metric : layers) {
      std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    if (!args.out_dir.empty()) {
      std::filesystem::create_directories(args.out_dir);
      const auto stem = std::filesystem::path(args.out_dir) /
                        (args.workload + "-seed" + std::to_string(args.seed));
      write_ledger(stem.string() + ".ledger.json", fingerprint_json, layers);
      std::ofstream trace_out(stem.string() + ".trace.json");
      spans.write_chrome_trace(trace_out);
      std::cout << "ledger and Chrome trace written to " << stem.string() << ".*.json\n";
    }
  }
  std::filesystem::remove_all(config.work_dir);
  std::cout.flush();
  print_result(correct, tally, result);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace feedbench

int main(int argc, char** argv) {
  try {
    return feedbench::run(feedbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "feedbench: fatal: " << e.what() << '\n';
    return 1;
  }
}
