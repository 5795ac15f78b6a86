#include "trace/recorder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace dtse::trace {

namespace {

constexpr ArrayId array_of(std::uint32_t slot) { return slot >> 1; }
constexpr ir::AccessKind kind_of(std::uint32_t slot) {
  return static_cast<ir::AccessKind>(slot & 1u);
}

/// Time slots past twice the largest window.  A compaction keeps at most the
/// largest window's worth of marks, so at least largest + kTimeSlack reads
/// pass between compactions, even on a one-word ladder.
constexpr std::uint32_t kTimeSlack = 64;

}  // namespace

// --- StackDistanceSim --------------------------------------------------------

StackDistanceSim::StackDistanceSim(const std::vector<std::uint64_t>& capacities) {
  DTSE_CHECK(!capacities.empty(), "a reuse ladder needs at least one window");
  std::vector<std::uint32_t> order(capacities.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return capacities[a] < capacities[b];
  });
  rank_.resize(capacities.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    rank_[order[r]] = r;
    ranked_capacity_.push_back(capacities[order[r]]);
  }
  misses_by_rank_.assign(capacities.size(), 0);

  // Time slots and map entries are 32-bit; keep the time axis well inside.
  DTSE_CHECK(ranked_capacity_.front() > 0, "reuse window must hold at least one word");
  DTSE_CHECK(ranked_capacity_.back() <= (std::uint64_t{1} << 28),
             "reuse window too large for the 32-bit time axis");
  largest_ = static_cast<std::uint32_t>(ranked_capacity_.back());
  const std::uint32_t slots = 2 * largest_ + kTimeSlack;
  tree_.assign(slots + 1, 0);
  key_at_.assign(slots, kNoKey);
  // At most `slots` keys are ever mapped: load factor <= 2/3.
  const std::uint64_t map_size = std::bit_ceil(std::uint64_t{slots} + slots / 2);
  map_.assign(map_size, MapEntry{});
  map_shift_ = 64u - static_cast<unsigned>(std::countr_zero(map_size));
}

StackDistanceSim::MapEntry& StackDistanceSim::probe(std::uint32_t key) {
  const std::size_t mask = map_.size() - 1;
  std::size_t at = (key * 0x9E3779B97F4A7C15ULL) >> map_shift_;
  while (map_[at].key != key && map_[at].key != kNoKey) at = (at + 1) & mask;
  return map_[at];
}

void StackDistanceSim::add_mark(std::uint32_t time, std::int32_t delta) {
  for (std::size_t i = std::size_t{time} + 1; i < tree_.size(); i += i & (~i + 1)) {
    tree_[i] += static_cast<std::uint32_t>(delta);
  }
}

std::uint32_t StackDistanceSim::marks_up_to(std::uint32_t time) const {
  std::uint32_t sum = 0;
  for (std::size_t i = std::size_t{time} + 1; i > 0; i &= i - 1) sum += tree_[i];
  return sum;
}

void StackDistanceSim::touch(std::uint32_t key) {
  DTSE_DCHECK(key != kNoKey, "reuse key out of the 32-bit range");
  if (now_ == key_at_.size()) compact();
  MapEntry& entry = probe(key);
  if (entry.key == kNoKey) {
    entry.key = key;
    ++live_;
    ++far_;
  } else {
    // Stack distance: marks strictly newer than this key's last read.
    const std::uint32_t distance = live_ - marks_up_to(entry.time);
    if (distance >= largest_) {
      ++far_;
    } else {
      for (std::size_t r = 0; ranked_capacity_[r] <= distance; ++r) ++misses_by_rank_[r];
    }
    add_mark(entry.time, -1);
    key_at_[entry.time] = kNoKey;
  }
  entry.time = now_;
  key_at_[now_] = key;
  add_mark(now_, +1);
  ++now_;
}

void StackDistanceSim::compact() {
  // Keep the newest `largest_` marks; an older one would see d >= largest_
  // on its next read and miss everywhere, which a forgotten key does too.
  const std::uint32_t keep = std::min(live_, largest_);
  std::uint32_t first = now_;
  for (std::uint32_t found = 0; found < keep;) {
    if (key_at_[--first] != kNoKey) ++found;
  }
  std::fill(map_.begin(), map_.end(), MapEntry{});
  std::uint32_t time = 0;
  for (std::uint32_t t = first; t < now_; ++t) {
    const std::uint32_t key = key_at_[t];
    if (key == kNoKey) continue;
    key_at_[time] = key;
    probe(key) = {key, time};
    ++time;
  }
  std::fill(key_at_.begin() + time, key_at_.end(), kNoKey);
  // Marks now fill times [0, keep): node i covers (i - lowbit(i), i].
  for (std::size_t i = 1; i < tree_.size(); ++i) {
    const std::size_t low = i - (i & (~i + 1));
    tree_[i] = static_cast<std::uint32_t>(std::min<std::size_t>(i, keep) -
                                          std::min<std::size_t>(low, keep));
  }
  live_ = keep;
  now_ = keep;
}

// --- Recorder ----------------------------------------------------------------

Recorder::Recorder(std::string application_name)
    : app_name_(std::move(application_name)) {}

ArrayId Recorder::register_array(std::string name, std::uint64_t words, int bitwidth,
                                 std::optional<memlib::Location> forced_location) {
  DTSE_CHECK(!name.empty(), "array needs a name");
  DTSE_CHECK(words > 0 && bitwidth > 0, "array geometry must be positive");
  for (const auto& info : arrays_) {
    DTSE_CHECK(info.name != name, "duplicate array name: " + name);
  }
  ArrayInfo info;
  info.name = std::move(name);
  info.words = words;
  info.bitwidth = bitwidth;
  info.forced_location = forced_location;
  arrays_.push_back(std::move(info));
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void Recorder::set_reuse_windows(ArrayId array, std::vector<WindowSpec> windows) {
  DTSE_CHECK(array < arrays_.size(), "unknown array");
  std::sort(windows.begin(), windows.end(),
            [](const WindowSpec& a, const WindowSpec& b) {
              return a.declared_words < b.declared_words;
            });
  std::vector<std::uint64_t> sim_words;
  std::vector<std::uint64_t> declared_words;
  for (const auto& window : windows) {
    DTSE_CHECK(window.sim_words > 0 && window.declared_words > 0,
               "reuse window must hold at least one word");
    sim_words.push_back(window.sim_words);
    declared_words.push_back(window.declared_words);
  }
  auto& info = arrays_[array];
  info.declared_windows = std::move(declared_words);
  info.reuse = windows.empty() ? StackDistanceSim{} : StackDistanceSim(sim_words);
}

void Recorder::set_reuse_windows(ArrayId array,
                                 const std::vector<std::uint64_t>& window_words) {
  std::vector<WindowSpec> windows;
  windows.reserve(window_words.size());
  for (const auto w : window_words) windows.push_back({w, w});
  set_reuse_windows(array, std::move(windows));
}

void Recorder::begin_iteration(std::string_view body_name) {
  DTSE_CHECK(current_body_ < 0, "iterations cannot nest; end the previous one first");
  auto it = body_index_.find(body_name);
  if (it == body_index_.end()) {
    BodyInfo body;
    body.name = std::string(body_name);
    bodies_.push_back(std::move(body));
    it = body_index_.emplace(std::string(body_name), bodies_.size() - 1).first;
  }
  current_body_ = static_cast<long>(it->second);
  pending_.clear();
}

void Recorder::end_iteration() {
  DTSE_CHECK(current_body_ >= 0, "no iteration in progress");
  aggregate_iteration();
  current_body_ = -1;
  pending_.clear();
}

void Recorder::grow_body_state(BodyInfo& body, std::size_t arrays) {
  body.accesses.resize(2 * arrays);
  if (body.co_arrays == arrays) return;
  // Remap the dense co-access matrix to the new array count (arrays can be
  // registered between iterations of an already-seen body).
  std::vector<std::uint64_t> grown(2 * arrays * arrays, 0);
  const std::size_t old_n = body.co_arrays;
  for (std::size_t kind = 0; kind < 2; ++kind) {
    for (std::size_t lo = 0; lo < old_n; ++lo) {
      for (std::size_t hi = lo + 1; hi < old_n; ++hi) {
        grown[(kind * arrays + lo) * arrays + hi] =
            body.co_access[(kind * old_n + lo) * old_n + hi];
      }
    }
  }
  body.co_access = std::move(grown);
  body.co_arrays = arrays;
}

void Recorder::aggregate_iteration() {
  auto& body = bodies_[static_cast<std::size_t>(current_body_)];
  ++body.iterations;
  const std::size_t n = arrays_.size();
  if (body.accesses.size() != 2 * n || body.co_arrays != n) grow_body_state(body, n);

  for (const auto& event : pending_) {
    auto& agg = body.accesses[event.slot];
    if (agg.has_last && event.index > agg.last_index) {
      const std::uint64_t delta = event.index - agg.last_index;
      if (delta == 1) ++agg.stride1;
      if (delta <= 3) {
        ++agg.dense;
        agg.dense_delta += delta;
      }
    }
    agg.last_index = event.index;
    agg.has_last = true;
    ++agg.count;
  }

  // Same-index co-accesses of the same kind between different arrays.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    for (std::size_t j = i + 1; j < pending_.size(); ++j) {
      const auto& a = pending_[i];
      const auto& b = pending_[j];
      if (a.index != b.index || ((a.slot ^ b.slot) & 1u) != 0) continue;
      const ArrayId array_a = array_of(a.slot);
      const ArrayId array_b = array_of(b.slot);
      if (array_a == array_b) continue;
      const std::size_t kind = a.slot & 1u;
      const std::size_t lo = std::min(array_a, array_b);
      const std::size_t hi = std::max(array_a, array_b);
      ++body.co_access[(kind * n + lo) * n + hi];
    }
  }

  // Dependency skeleton, captured once from the first iteration.  Because
  // accesses aggregate into one node per slot, edges must follow a single
  // total order or they could form cycles; we use the first occurrence of
  // each slot within the iteration.  A read gates every write first seen
  // later (values flow from inputs through the datapath to outputs) and
  // same-array accesses stay ordered (flow through memory).
  if (!body.deps_captured) {
    body.deps_captured = true;
    std::vector<std::uint8_t> seen(2 * n, 0);
    std::vector<std::uint32_t> first_seen;
    for (const auto& event : pending_) {
      if (seen[event.slot] == 0) {
        seen[event.slot] = 1;
        first_seen.push_back(event.slot);
      }
    }
    for (std::size_t i = 0; i < first_seen.size(); ++i) {
      for (std::size_t j = i + 1; j < first_seen.size(); ++j) {
        const auto from = first_seen[i];
        const auto to = first_seen[j];
        const bool read_to_write = kind_of(from) == ir::AccessKind::kRead &&
                                   kind_of(to) == ir::AccessKind::kWrite;
        const bool same_array = array_of(from) == array_of(to);
        if (read_to_write || same_array) body.deps.emplace_back(from, to);
      }
    }
  }
}

ir::Application Recorder::build(double scale) const {
  DTSE_CHECK(scale > 0.0, "scale must be positive");
  DTSE_CHECK(current_body_ < 0, "finish the current iteration before building");

  ir::Application app(app_name_);
  std::vector<ir::BasicGroupId> group_of(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    ir::BasicGroup group;
    group.name = arrays_[i].name;
    group.words = arrays_[i].words;
    group.bitwidth = arrays_[i].bitwidth;
    group.forced_location = arrays_[i].forced_location;
    group_of[i] = app.add_group(std::move(group));
  }

  constexpr auto kNoAccess = ~std::size_t{0};
  for (const auto& body : bodies_) {
    if (body.iterations == 0) continue;
    ir::LoopBody ir_body;
    ir_body.name = body.name;
    ir_body.iterations = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(body.iterations) * scale));
    if (ir_body.iterations == 0) ir_body.iterations = 1;

    // Slot order is (array asc, read-before-write), matching the ordered-map
    // extraction the flat layout replaced; downstream tables rely on it.
    std::vector<std::size_t> access_index(body.accesses.size(), kNoAccess);
    const double iters = static_cast<double>(body.iterations);
    for (std::size_t slot = 0; slot < body.accesses.size(); ++slot) {
      const auto& agg = body.accesses[slot];
      if (agg.count == 0) continue;
      ir::Access access;
      access.group = group_of[array_of(static_cast<std::uint32_t>(slot))];
      access.kind = kind_of(static_cast<std::uint32_t>(slot));
      access.per_iteration = static_cast<double>(agg.count) / iters;
      access.stride1_fraction =
          static_cast<double>(agg.stride1) / static_cast<double>(agg.count);
      access.dense_fraction =
          static_cast<double>(agg.dense) / static_cast<double>(agg.count);
      access.dense_stride =
          agg.dense > 0
              ? static_cast<double>(agg.dense_delta) / static_cast<double>(agg.dense)
              : 1.0;
      access_index[slot] = ir_body.accesses.size();
      ir_body.accesses.push_back(access);
    }

    const std::size_t n = body.co_arrays;
    for (std::size_t kind = 0; kind < 2; ++kind) {
      for (std::size_t lo = 0; lo < n; ++lo) {
        for (std::size_t hi = lo + 1; hi < n; ++hi) {
          const auto pairs = body.co_access[(kind * n + lo) * n + hi];
          if (pairs == 0) continue;
          const auto a = access_index[2 * lo + kind];
          const auto b = access_index[2 * hi + kind];
          DTSE_ASSERT(a != kNoAccess && b != kNoAccess, "co-access over unknown accesses");
          ir_body.co_accesses.push_back({a, b, static_cast<double>(pairs) / iters});
        }
      }
    }

    for (const auto& [from, to] : body.deps) {
      const auto a = access_index[from];
      const auto b = access_index[to];
      if (a == kNoAccess || b == kNoAccess) continue;
      ir_body.deps.emplace_back(a, b);
    }
    app.add_body(std::move(ir_body));
  }

  std::uint64_t reuse_misses = 0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const auto& info = arrays_[i];
    if (!info.reuse.active()) continue;
    ir::ReuseProfile profile;
    for (std::size_t w = 0; w < info.declared_windows.size(); ++w) {
      const std::uint64_t misses = info.reuse.misses(w);
      reuse_misses += misses;
      profile.windows.push_back(
          {info.declared_windows[w], static_cast<double>(misses) * scale});
    }
    app.set_reuse_profile(group_of[i], std::move(profile));
  }

  auto& registry = obs::TelemetryRegistry::global();
  registry.counter("recorder.builds").add(1);
  registry.counter("recorder.recorded_events").add(total_events_);
  registry.counter("recorder.reuse_misses").add(reuse_misses);

  app.validate();
  return app;
}

}  // namespace dtse::trace
