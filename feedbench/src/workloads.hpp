// The benchmark workloads: a closed loop driven by one client, where every
// call into the library returns before the next is issued.
//
//   cold-loop      the default `explore` pass with an empty profile cache
//   warm-loop      the same pass served from a cache that set-up fills
//   point-queries  single design-point questions, one `evaluate` each
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace feedbench {

struct Config {
  std::uint64_t seed = 42;
  unsigned parallelism = 4;
  std::filesystem::path work_dir;  ///< working space for profile caches
};

/// Operations attempted and failed across a run.  Failures are failed golden
/// checks, profiling exceptions, sweep points that errored or timed out, and
/// quarantined cache entries; an infeasible design point is a result.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool golden_ok = true;
  std::vector<std::string> problems;

  void fail(std::string problem) {
    ++failed;
    problems.push_back(std::move(problem));
  }
};

/// One timed pass.
struct Pass {
  bool traced = false;
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t points = 0;  ///< design points priced (sweep points + evaluations)
  /// Feedback samples: per-query latency (point-queries), or the time from
  /// pass start until each pricing call's answer was in (loops).
  std::vector<double> feedback_ms;
  Row row;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Which committed expected digest the results are checked against.
  [[nodiscard]] virtual std::string_view digest_family() const = 0;
  /// What `check` runs, for the report.
  [[nodiscard]] virtual std::string_view check_name() const = 0;
  /// True when feedback quantiles are taken per pass (then the median over
  /// passes is reported); false when samples are pooled over the run.
  [[nodiscard]] virtual bool feedback_per_pass() const = 0;

  /// One set-up repetition; the last one's state serves the passes.
  virtual void setup(Tally& tally) = 0;
  /// One timed pass.  `staged` issues the traced call sequence: profiling as
  /// key -> load -> profile -> store and direct evaluations as scbd ->
  /// allocate.  The results must not depend on it.
  virtual Pass pass(Ledger& ledger, Tally& tally, bool staged) = 0;
  /// One untimed pass through the other path (the other cache temperature,
  /// or the other evaluation call sequence); returns its digest, which must
  /// equal every timed pass's.
  virtual std::uint64_t check(Tally& tally) = 0;
};

[[nodiscard]] std::unique_ptr<BenchWorkload> make_loop_workload(const Config& config,
                                                                bool warm);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_point_queries(const Config& config);

/// The explorer options every workload runs with: `explore`'s defaults with
/// the sweep parallelism pinned.
[[nodiscard]] inline dtse::core::ExplorerOptions explorer_options(const Config& config) {
  dtse::core::ExplorerOptions options;
  options.parallelism = config.parallelism;
  return options;
}

}  // namespace feedbench
