// Measurement plumbing shared by the feedback-loop benchmark workloads.
//
// `Ledger` times the benchmark's own calls into the library's public
// functions.  Every call is clocked (the pass needs its feedback latencies
// either way); a traced ledger additionally records an obs::Span per call in
// its own in-memory registry, which becomes the run's Chrome trace.  Calls
// nest: a call's *self* time is its wall time minus the calls made inside it,
// and self times accumulate per layer, so the layer rows of one pass add up
// to the pass's wall time (the remainder is the benchmark's own glue).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/explorer.hpp"
#include "obs/telemetry.hpp"
#include "persist/fnv.hpp"

namespace feedbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One pass's measurements: metric name -> value (`*_ms` in milliseconds,
/// `self.<layer>` layer self time in milliseconds, everything else a count).
using Row = std::map<std::string, double>;

class Ledger {
 public:
  /// `spans` receives one span per call; null for an untraced ledger.
  explicit Ledger(dtse::obs::TelemetryRegistry* spans) : spans_(spans) {}

  [[nodiscard]] bool traced() const { return spans_ != nullptr; }

  /// Runs `fn()` as one call into `layer`, adding its wall time to `metric`
  /// and its self time to `self.<layer>` of the current row.
  template <typename Fn>
  decltype(auto) call(std::string_view layer, const std::string& metric, Fn&& fn) {
    Frame frame(*this, layer, metric);
    return fn();
  }

  /// Wall time of the most recently finished call, in milliseconds.
  [[nodiscard]] double last_ms() const { return last_ms_; }

  Row& row() { return row_; }
  /// Hands over the current row and starts an empty one.
  Row take_row() {
    Row out;
    out.swap(row_);
    return out;
  }

 private:
  class Frame {
   public:
    Frame(Ledger& ledger, std::string_view layer, const std::string& metric)
        : ledger_(ledger), layer_(layer), metric_(metric) {
      if (ledger_.spans_ != nullptr) span_.emplace(ledger_.spans_, metric, layer);
      ledger_.child_ms_.push_back(0.0);
      start_ = Clock::now();
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    ~Frame() {
      const double elapsed = ms_since(start_);
      const double children = ledger_.child_ms_.back();
      ledger_.child_ms_.pop_back();
      if (!ledger_.child_ms_.empty()) ledger_.child_ms_.back() += elapsed;
      ledger_.row_[metric_] += elapsed;
      ledger_.row_["self." + std::string(layer_)] += elapsed - children;
      ledger_.last_ms_ = elapsed;
    }

   private:
    Ledger& ledger_;
    std::string_view layer_;
    const std::string& metric_;
    std::optional<dtse::obs::Span> span_;
    Clock::time_point start_;
  };

  dtse::obs::TelemetryRegistry* spans_;
  std::vector<double> child_ms_;
  Row row_;
  double last_ms_ = 0.0;
};

/// Results digest: FNV-1a over exact bit patterns, so any changed cost bit,
/// flag or front membership changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) { hash_.update_u64(v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    hash_.update_u64(bits);
  }
  void add(std::string_view s) { hash_.update_string(s); }
  void add(const dtse::memlib::CostSummary& s) {
    add(s.onchip_area_mm2);
    add(s.onchip_power_mw);
    add(s.offchip_power_mw);
  }
  /// Cost triple, feasible/timed-out flags, error text, spare cycles and
  /// the solver's final cost (the scalarized objective plus every annealing
  /// chain's best cost).  Search effort (B&B nodes, SA moves) stays out: it
  /// may change while results may not.
  void add(const dtse::core::Evaluation& eval, const dtse::memlib::CostWeights& weights) {
    add(eval.summary);
    add(std::uint64_t{eval.feasible});
    add(std::uint64_t{eval.timed_out});
    add(eval.error);
    add(eval.spare_cycles);
    add(weights.scalarize(eval.summary));
    for (const auto& chain : eval.allocation.sa_chains) add(chain.best_cost);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_.digest(); }

 private:
  dtse::persist::Fnv1a hash_;
};

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Distribution-free confidence interval for the median: the narrowest
/// order-statistic pair (x_(k), x_(n+1-k)) whose binomial coverage
/// 1 - 2 P(Bin(n, 1/2) < k) reaches `confidence`; nullopt when too few
/// samples reach it even with (min, max).
[[nodiscard]] std::optional<std::pair<double, double>> median_interval(
    std::vector<double> samples, double confidence);

/// Folds the per-pass delta of the library's own telemetry counters (the
/// global registry, reset by the caller between passes) into `row` under
/// the benchmark's per-layer metric names.
void add_registry_counters(Row& row, const dtse::obs::MetricsSnapshot& snapshot);

/// `Explorer::evaluate` issued as its two stage calls, scbd then allocation,
/// each timed as its own layer.  `allocator` must be built over the
/// explorer's library.  Returns the same Evaluation `evaluate` would for an
/// uncancelled run (the gate checks this through the digest).
[[nodiscard]] dtse::core::Evaluation staged_evaluate(Ledger& ledger,
                                                     const dtse::alloc::MemoryAllocator& allocator,
                                                     const dtse::ir::Application& app,
                                                     const dtse::core::ExplorerOptions& options);

}  // namespace feedbench
