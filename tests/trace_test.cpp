// Tests for the profiling infrastructure: recorder, instrumented arrays,
// LRU reuse simulation, and IR extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::trace {
namespace {

TEST(Recorder, CountsReadsAndWritesPerBody) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  for (int i = 0; i < 10; ++i) {
    Iteration scope(rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  ASSERT_EQ(app.body_count(), 1u);
  const auto& body = app.body(ir::LoopBodyId(0));
  EXPECT_EQ(body.iterations, 10u);
  const auto totals = app.totals(ir::BasicGroupId(0));
  EXPECT_DOUBLE_EQ(totals.reads, 20.0);
  EXPECT_DOUBLE_EQ(totals.writes, 10.0);
}

TEST(Recorder, StrideStatistics) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 1000, 8);
  // Pure stride-1 scan.
  for (int i = 0; i < 100; ++i) {
    Iteration scope(rec, "seq");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
  }
  // Stride-2 scan.
  for (int i = 0; i < 100; ++i) {
    Iteration scope(rec, "dense2");
    rec.record(a, static_cast<std::uint64_t>(2 * i), ir::AccessKind::kRead);
  }
  // Random-ish (large stride).
  for (int i = 0; i < 100; ++i) {
    Iteration scope(rec, "sparse");
    rec.record(a, static_cast<std::uint64_t>(7 * i), ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  const auto& seq = app.body(ir::LoopBodyId(0)).accesses[0];
  EXPECT_NEAR(seq.stride1_fraction, 0.99, 0.011);
  EXPECT_NEAR(seq.dense_fraction, 0.99, 0.011);
  EXPECT_NEAR(seq.dense_stride, 1.0, 1e-9);
  const auto& dense2 = app.body(ir::LoopBodyId(1)).accesses[0];
  EXPECT_NEAR(dense2.stride1_fraction, 0.0, 1e-9);
  EXPECT_NEAR(dense2.dense_fraction, 0.99, 0.011);
  EXPECT_NEAR(dense2.dense_stride, 2.0, 1e-9);
  const auto& sparse = app.body(ir::LoopBodyId(2)).accesses[0];
  EXPECT_NEAR(sparse.dense_fraction, 0.0, 1e-9);
}

TEST(Recorder, CoAccessDetection) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  const auto b = rec.register_array("b", 100, 2);
  for (int i = 0; i < 50; ++i) {
    Iteration scope(rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(b, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);  // same index
    rec.record(b, static_cast<std::uint64_t>(i + 1), ir::AccessKind::kWrite);  // not
  }
  const auto app = rec.build();
  const auto& body = app.body(ir::LoopBodyId(0));
  ASSERT_EQ(body.co_accesses.size(), 1u);
  EXPECT_DOUBLE_EQ(body.co_accesses[0].pairs_per_iteration, 1.0);
  const auto& acc_a = body.accesses[body.co_accesses[0].access_a];
  const auto& acc_b = body.accesses[body.co_accesses[0].access_b];
  EXPECT_EQ(acc_a.kind, ir::AccessKind::kRead);
  EXPECT_EQ(acc_b.kind, ir::AccessKind::kRead);
  EXPECT_NE(acc_a.group, acc_b.group);
}

TEST(Recorder, DifferentKindsDoNotCoAccess) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  const auto b = rec.register_array("b", 100, 2);
  for (int i = 0; i < 10; ++i) {
    Iteration scope(rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(b, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_TRUE(app.body(ir::LoopBodyId(0)).co_accesses.empty());
}

TEST(Recorder, DependencySkeletonIsAcyclicAndMeaningful) {
  Recorder rec("app");
  const auto in = rec.register_array("in", 100, 8);
  const auto out = rec.register_array("out", 100, 8);
  for (int i = 0; i < 5; ++i) {
    Iteration scope(rec, "body");
    rec.record(in, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(out, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
    rec.record(out, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(in, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_NO_THROW(app.validate());  // validates acyclicity
  const auto& body = app.body(ir::LoopBodyId(0));
  // read(in) must gate write(out).
  bool found = false;
  for (const auto& [from, to] : body.deps) {
    if (body.accesses[from].group == ir::BasicGroupId(0) &&
        body.accesses[from].kind == ir::AccessKind::kRead &&
        body.accesses[to].group == ir::BasicGroupId(1) &&
        body.accesses[to].kind == ir::AccessKind::kWrite) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Recorder, LruMissesForKnownPattern) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, std::vector<std::uint64_t>{2, 4});
  // Cyclic scan over 4 addresses, 10 rounds: window 2 misses every access
  // (LRU thrashing), window 4 misses only the 4 first touches.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      Iteration scope(rec, "body");
      rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    }
  }
  const auto app = rec.build();
  const auto* profile = app.reuse_profile(ir::BasicGroupId(0));
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->windows.size(), 2u);
  EXPECT_DOUBLE_EQ(profile->windows[0].misses_per_frame, 40.0);
  EXPECT_DOUBLE_EQ(profile->windows[1].misses_per_frame, 4.0);
}

TEST(Recorder, WritesDoNotTouchReuseSimulation) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, std::vector<std::uint64_t>{4});
  for (int i = 0; i < 10; ++i) {
    Iteration scope(rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_DOUBLE_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].misses_per_frame,
                   0.0);
}

TEST(Recorder, DeclaredWindowCapacitiesSurviveExtraction) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, std::vector<Recorder::WindowSpec>{{4, 16}});
  {
    Iteration scope(rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].window_words, 16u);
}

TEST(Recorder, ScalingMultipliesIterationsAndMisses) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, std::vector<std::uint64_t>{4});
  for (int i = 0; i < 10; ++i) {
    Iteration scope(rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i % 8), ir::AccessKind::kRead);
  }
  const auto app = rec.build(4.0);
  EXPECT_EQ(app.body(ir::LoopBodyId(0)).iterations, 40u);
  // per-iteration intensity unchanged:
  EXPECT_DOUBLE_EQ(app.body(ir::LoopBodyId(0)).accesses[0].per_iteration, 1.0);
  EXPECT_DOUBLE_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].misses_per_frame,
                   10.0 * 4.0);
}

TEST(Recorder, NestingAndMisuseRejected) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8);
  EXPECT_THROW(rec.record(a, 0, ir::AccessKind::kRead), support::ContractError);
  rec.begin_iteration("x");
  EXPECT_THROW(rec.begin_iteration("y"), support::ContractError);
  rec.end_iteration();
  EXPECT_THROW(rec.end_iteration(), support::ContractError);
}

TEST(Recorder, DuplicateArrayNameRejected) {
  Recorder rec("app");
  rec.register_array("a", 10, 8);
  EXPECT_THROW(rec.register_array("a", 20, 8), support::ContractError);
}

TEST(Recorder, ForcedLocationPropagates) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8, memlib::Location::kOnChip);
  {
    Iteration scope(rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).forced_location, memlib::Location::kOnChip);
}

TEST(InstrumentedArray, RecordsOnlyInsideIterations) {
  Recorder rec("app");
  InstrumentedArray<int> arr(rec, "arr", 16, 8);
  arr.write(3, 42);  // outside a scope: untracked
  {
    Iteration scope(rec, "body");
    EXPECT_EQ(arr.read(3), 42);
    arr.write(4, 1);
  }
  const auto app = rec.build();
  const auto totals = app.totals(ir::BasicGroupId(0));
  EXPECT_DOUBLE_EQ(totals.reads, 1.0);
  EXPECT_DOUBLE_EQ(totals.writes, 1.0);
}

TEST(InstrumentedArray, BoundsChecked) {
  InstrumentedArray<int> arr("arr", 4);
  EXPECT_THROW((void)arr.read(4), support::ContractError);
  EXPECT_THROW(arr.write(4, 0), support::ContractError);
}

TEST(InstrumentedArray, DeclaredWordsOverrideActualSize) {
  Recorder rec("app");
  InstrumentedArray<int> arr(rec, "arr", 16, 8, 0, 1024);
  {
    Iteration scope(rec, "body");
    arr.write(0, 1);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).words, 1024u);
}

TEST(InstrumentedArray2D, RowMajorIndexing) {
  Recorder rec("app");
  InstrumentedArray2D<int> arr(rec, "arr", 4, 3, 8);
  {
    Iteration scope(rec, "body");
    arr.write(1, 2, 7);
    EXPECT_EQ(arr.read(1, 2), 7);
  }
  EXPECT_THROW((void)arr.read(4, 0), support::ContractError);
  EXPECT_THROW((void)arr.read(0, 3), support::ContractError);
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).words, 12u);
}

// --- reuse simulation vs the textbook LRU -----------------------------------

/// The oracle: a textbook LRU stack (list + hash map) of `capacity` words,
/// replaying `trace` and counting misses.  One simulator per window — the
/// design the recorder's single stack-distance pass replaced.
std::uint64_t reference_lru_misses(std::uint64_t capacity,
                                   const std::vector<std::uint64_t>& trace) {
  std::list<std::uint64_t> order;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where;
  std::uint64_t misses = 0;
  for (const auto index : trace) {
    const auto it = where.find(index);
    if (it != where.end()) {
      order.erase(it->second);
      order.push_front(index);
      it->second = order.begin();
      continue;
    }
    ++misses;
    order.push_front(index);
    where[index] = order.begin();
    if (order.size() > capacity) {
      where.erase(order.back());
      order.pop_back();
    }
  }
  return misses;
}

/// Replays `trace` as reads of one array through the recorder and returns
/// the profile's per-window misses (in declared-capacity order).
std::vector<double> recorder_misses(const std::vector<Recorder::WindowSpec>& windows,
                                    const std::vector<std::uint64_t>& trace) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 1 << 20, 8);
  rec.set_reuse_windows(a, windows);
  for (const auto index : trace) {
    Iteration scope(rec, "body");
    rec.record(a, index, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  std::vector<double> misses;
  for (const auto& window : app.reuse_profile(ir::BasicGroupId(0))->windows) {
    misses.push_back(window.misses_per_frame);
  }
  return misses;
}

/// Mixed access trace: sequential runs, row-back revisits, random jumps —
/// the shapes the codec's parent reads produce.
std::vector<std::uint64_t> mixed_trace(std::uint64_t span, std::uint64_t seed,
                                       int length = 20'000) {
  support::Rng rng(seed);
  std::vector<std::uint64_t> trace;
  trace.reserve(static_cast<std::size_t>(length));
  std::uint64_t cursor = 0;
  for (int i = 0; i < length; ++i) {
    switch (i % 8) {
      case 3: trace.push_back((cursor + span - 37) % span); break;
      case 5: trace.push_back(rng.below(span)); break;
      default: trace.push_back(cursor = (cursor + 1) % span);
    }
  }
  return trace;
}

TEST(ReuseSim, ExactBackendsMatchReferenceLru) {
  // Every window of the profile must reproduce the oracle's misses exactly.
  // The time axis of the stack-distance engine holds 2 * largest + 64 slots
  // and compacts when full, forgetting all but the newest `largest` marks;
  // the cases below cross many compactions and read working sets far larger
  // than the biggest window, so the forget path is exercised too.
  using Spec = Recorder::WindowSpec;
  struct Case {
    const char* what;
    std::vector<Spec> windows;
    std::uint64_t span;
    int length;
  };
  const std::vector<Case> cases = {
      {"codec-like ladder", {{2, 2}, {4, 4}, {63, 63}, {64, 64}, {65, 65},
                             {128, 128}, {1024, 1024}}, 4096, 20'000},
      {"one-word windows and repeats", {{1, 1}, {1, 1}, {3, 3}, {3, 3}, {8, 8}},
       24, 20'000},
      // Simulated and declared orders differ, as in narrow profile cubes.
      {"sim order != declared order", {{64, 16}, {16, 64}, {256, 32}, {1, 512}},
       1024, 20'000},
      // (2 * 16 + 64) slots: 40 000 reads cross over 400 compactions.
      {"many compactions", {{1, 1}, {2, 2}, {5, 5}, {16, 16}}, 48, 40'000},
      // (2 * 1024 + 64) slots: over 18 compactions, working set 32x the window.
      {"working set beyond the largest window", {{12, 12}, {256, 256}, {1024, 1024}},
       32'768, 40'000},
      {"single window", {{7, 7}}, 10, 5'000},
  };
  for (const auto& c : cases) {
    auto by_declared = c.windows;
    std::stable_sort(by_declared.begin(), by_declared.end(),
                     [](const Spec& a, const Spec& b) {
                       return a.declared_words < b.declared_words;
                     });
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto trace = mixed_trace(c.span, seed, c.length);
      const auto misses = recorder_misses(c.windows, trace);
      ASSERT_EQ(misses.size(), by_declared.size()) << c.what;
      for (std::size_t i = 0; i < misses.size(); ++i) {
        EXPECT_DOUBLE_EQ(
            misses[i],
            static_cast<double>(reference_lru_misses(by_declared[i].sim_words, trace)))
            << c.what << ": window " << by_declared[i].sim_words << " seed " << seed;
      }
    }
  }
}

TEST(Recorder, BuildValidatesAndIsRepeatable) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8);
  {
    Iteration scope(rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app1 = rec.build();
  const auto app2 = rec.build();
  EXPECT_EQ(app1.group_count(), app2.group_count());
  EXPECT_EQ(app1.body_count(), app2.body_count());
}

}  // namespace
}  // namespace dtse::trace
