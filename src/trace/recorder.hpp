// Access profiling infrastructure — Section 4.1.
//
// "Because this kind of profiling is so often necessary to do any
// memory-related optimizations, we have written software to automatically
// instrument the application to gather the access counts."
//
// `Recorder` is that software.  The application under study declares its
// arrays, wraps loop bodies in `Iteration` scopes and performs all array
// accesses through `InstrumentedArray` (see instrumented_array.hpp).  The
// recorder aggregates, per loop body:
//   * per (array, read/write): access counts and stride-1 statistics,
//   * same-index co-access pairs between arrays (merging candidates),
//   * a dependency skeleton (reads gate subsequent writes; accesses to the
//     same array are ordered), giving the MACP analysis its DAG,
// and per array the reuse curve: LRU misses at a ladder of window capacities
// (the data-reuse input of the memory hierarchy decision).
//
// The reuse curve comes from one stack-distance computation per read, not
// one simulator per window.  LRU has the inclusion property (Mattson et al.,
// IBM Syst. J. 1970): a read hits a window of W words iff fewer than W
// distinct indices were read since its previous read (its stack distance
// d).  `StackDistanceSim` keeps a Fenwick tree over last-read times (one
// mark per live index; Bennett & Kruskal 1975, Olken 1981) and an
// open-addressing map from index to last time.  A read costs one map probe,
// one prefix query for d and two point updates, and charges a miss to every
// window with capacity <= d; a first read misses everywhere.  Memory stays
// O(largest window): the time axis has 2*M + slack slots (M = largest
// capacity), and when it fills a linear compaction renumbers the newest M
// marks in time order and forgets the rest — an older mark has d >= M and
// misses in every window when it is next read, exactly like a first read.
// Miss counts equal a textbook LRU stack at every window.
//
// All aggregation state is flat and slot-indexed: a *slot* is
// `array * 2 + kind`, so per-(array, kind) statistics live in plain vectors
// and co-access counts in a dense matrix — no tree lookups on the per-access
// or per-iteration paths.  `record_slot` is the inlined fast path used by
// `InstrumentedArray`, which pre-resolves its slots at registration time.
//
// `build()` converts everything into an ir::Application.  Profiling runs on
// a scaled-down input can be extrapolated with the `scale` parameter, which
// multiplies iteration counts and reuse misses but keeps per-iteration
// intensities — exactly how a designer profiles a 512x512 frame and reasons
// about the 1024x1024 product.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/application.hpp"
#include "support/check.hpp"

namespace dtse::trace {

using ArrayId = std::uint32_t;

/// LRU misses of one array at a ladder of window capacities, all from one
/// stack-distance computation per read (see the header comment).  Keys are
/// array indices below `kNoKey`.
class StackDistanceSim {
 public:
  static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

  StackDistanceSim() = default;
  /// `capacities[i]` is the size in words of window `i`; any order, repeats
  /// allowed, every capacity at least one word.
  explicit StackDistanceSim(const std::vector<std::uint64_t>& capacities);

  [[nodiscard]] bool active() const { return !rank_.empty(); }

  /// Records one read of `key`.
  void touch(std::uint32_t key);

  /// Misses of window `window` (constructor order) so far.
  [[nodiscard]] std::uint64_t misses(std::size_t window) const {
    return far_ + misses_by_rank_[rank_[window]];
  }

 private:
  struct MapEntry {
    std::uint32_t key = kNoKey;
    std::uint32_t time = 0;
  };

  [[nodiscard]] MapEntry& probe(std::uint32_t key);
  void add_mark(std::uint32_t time, std::int32_t delta);
  [[nodiscard]] std::uint32_t marks_up_to(std::uint32_t time) const;
  void compact();

  std::vector<std::uint32_t> rank_;            ///< window -> ascending-capacity rank
  std::vector<std::uint64_t> ranked_capacity_; ///< capacities, ascending
  std::vector<std::uint64_t> misses_by_rank_;  ///< finite-distance misses per rank
  std::uint64_t far_ = 0;  ///< reads with d >= the largest window (first reads too)
  std::uint32_t largest_ = 0;

  std::vector<std::uint32_t> tree_;    ///< Fenwick over time slots, 1-based
  std::vector<std::uint32_t> key_at_;  ///< time -> key of its live mark, or kNoKey
  std::uint32_t now_ = 0;              ///< next free time slot
  std::uint32_t live_ = 0;             ///< live marks (distinct keys remembered)

  std::vector<MapEntry> map_;  ///< key -> last time, power-of-two sized
  unsigned map_shift_ = 0;     ///< 64 - log2(map size), for multiplicative hashing
};

class Recorder {
 public:
  explicit Recorder(std::string application_name);

  // --- declaration ---------------------------------------------------------
  /// Declares an array.  `words`/`bitwidth` describe the *product* geometry
  /// (declare the 1M-word image even when profiling a smaller frame).
  ArrayId register_array(std::string name, std::uint64_t words, int bitwidth,
                         std::optional<memlib::Location> forced_location = std::nullopt);

  /// One reuse-simulation window.  `sim_words` is the capacity simulated on
  /// the profiled frame; `declared_words` is the capacity it corresponds to
  /// at the declared design geometry (row-buffer-like windows must shrink
  /// with the frame width to stay meaningful — 5 rows are 5 rows).
  struct WindowSpec {
    std::uint64_t sim_words = 0;
    std::uint64_t declared_words = 0;
  };

  /// Enables LRU reuse simulation for the array at the given capacities.
  /// The array's reads must use indices below `StackDistanceSim::kNoKey`.
  void set_reuse_windows(ArrayId array, std::vector<WindowSpec> windows);
  void set_reuse_windows(ArrayId array, const std::vector<std::uint64_t>& window_words);

  // --- recording (called by InstrumentedArray / Iteration) -----------------
  /// Aggregation slot of an (array, kind) pair; the unit all flat per-body
  /// state is indexed by.
  [[nodiscard]] static constexpr std::uint32_t slot_of(ArrayId array,
                                                       ir::AccessKind kind) {
    return array * 2u + static_cast<std::uint32_t>(kind);
  }

  void begin_iteration(std::string_view body_name);
  void end_iteration();

  /// Checked general-purpose recording entry point.
  void record(ArrayId array, std::uint64_t index, ir::AccessKind kind) {
    DTSE_CHECK(array < arrays_.size(), "unknown array");
    DTSE_CHECK(current_body_ >= 0, "record() outside of an Iteration scope");
    DTSE_CHECK(index < StackDistanceSim::kNoKey, "index exceeds the 32-bit key range");
    record_slot(slot_of(array, kind), index);
  }

  /// Fast path for callers that pre-resolved their slot (InstrumentedArray)
  /// and already know an iteration is active.
  void record_slot(std::uint32_t slot, std::uint64_t index) {
    DTSE_DCHECK(slot < 2 * arrays_.size(), "unknown aggregation slot");
    DTSE_DCHECK(current_body_ >= 0, "record_slot() outside of an Iteration scope");
    pending_.push_back({slot, index});
    ++total_events_;
    // Reuse simulation tracks read locality only: copies into a hierarchy
    // layer serve reads, writes go to the backing store anyway.
    if ((slot & 1u) == static_cast<std::uint32_t>(ir::AccessKind::kRead)) {
      auto& reuse = arrays_[slot >> 1].reuse;
      if (reuse.active()) reuse.touch(static_cast<std::uint32_t>(index));
    }
  }

  [[nodiscard]] bool in_iteration() const { return current_body_ >= 0; }

  // --- extraction -----------------------------------------------------------
  /// Builds the pruned application model.  `scale` extrapolates the profiled
  /// frame to a larger one (iteration counts and reuse misses multiply).
  [[nodiscard]] ir::Application build(double scale = 1.0) const;

  [[nodiscard]] std::uint64_t total_events() const { return total_events_; }

 private:
  struct ArrayInfo {
    std::string name;
    std::uint64_t words = 0;
    int bitwidth = 0;
    std::optional<memlib::Location> forced_location;
    std::vector<std::uint64_t> declared_windows;  ///< declared words, ascending
    StackDistanceSim reuse;
  };

  /// Aggregated per-slot statistics within one loop body.
  struct AccessAgg {
    std::uint64_t count = 0;
    std::uint64_t stride1 = 0;      ///< successor at distance exactly 1
    std::uint64_t dense = 0;        ///< successor at distance 1..3
    std::uint64_t dense_delta = 0;  ///< sum of those distances
    std::uint64_t last_index = ~std::uint64_t{0};
    bool has_last = false;
  };

  struct PendingEvent {
    std::uint32_t slot;
    std::uint64_t index;
  };

  struct BodyInfo {
    std::string name;
    std::uint64_t iterations = 0;
    /// Slot-indexed aggregation, sized 2 * arrays (grown on demand).
    std::vector<AccessAgg> accesses;
    /// Dense same-index co-access counts: kind * n * n + lo * n + hi with
    /// lo < hi, where n is `co_arrays` (the array count the matrix was last
    /// sized for; regrown and remapped when arrays are registered later).
    std::vector<std::uint64_t> co_access;
    std::size_t co_arrays = 0;
    /// Dependency skeleton over slots, from the first iteration.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deps;
    bool deps_captured = false;
  };

  void aggregate_iteration();
  static void grow_body_state(BodyInfo& body, std::size_t arrays);

  std::string app_name_;
  std::vector<ArrayInfo> arrays_;
  std::vector<BodyInfo> bodies_;
  std::map<std::string, std::size_t, std::less<>> body_index_;
  long current_body_ = -1;
  std::vector<PendingEvent> pending_;
  std::uint64_t total_events_ = 0;
};

/// RAII marker for one iteration of a named loop body.
class Iteration {
 public:
  Iteration(Recorder& recorder, std::string_view body_name) : recorder_(recorder) {
    recorder_.begin_iteration(body_name);
  }
  ~Iteration() { recorder_.end_iteration(); }

  Iteration(const Iteration&) = delete;
  Iteration& operator=(const Iteration&) = delete;

 private:
  Recorder& recorder_;
};

/// Like `Iteration`, but tolerant of a null recorder: kernels that serve
/// both production and profiling runs guard each loop-body iteration with
/// this scope and pay one predictable branch when no recorder is attached.
class IterationScope {
 public:
  IterationScope(Recorder* recorder, std::string_view body_name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin_iteration(body_name);
  }
  ~IterationScope() {
    if (recorder_ != nullptr) recorder_->end_iteration();
  }

  IterationScope(const IterationScope&) = delete;
  IterationScope& operator=(const IterationScope&) = delete;

 private:
  Recorder* recorder_;
};

}  // namespace dtse::trace
