#include "alloc/incremental_cost.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace dtse::alloc {

MemberSet::MemberSet(const AssignmentProblem& problem)
    : problem_(&problem), bits_(problem.conflict_words(), 0) {}

bool MemberSet::try_insert(std::size_t group) {
  DTSE_DCHECK(!contains(group), "group already a member");
  const std::uint64_t* row = problem_->conflict_row(group);
  const std::uint64_t* self_bits = problem_->self_conflict_bits();
  const bool self = (self_bits[group / 64] & bit_of(group)) != 0;
  std::uint64_t degree = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    const std::uint64_t neighbours = row[w] & bits_[w];
    if (neighbours == 0) continue;
    // A conflicting pair with a self-conflicting endpoint needs 3 ports.
    if (self || (neighbours & self_bits[w]) != 0) return false;
    degree += std::popcount(neighbours);
    for (std::uint64_t scan = neighbours; scan != 0; scan &= scan - 1) {
      const std::size_t v = w * 64 + static_cast<std::size_t>(std::countr_zero(scan));
      // Triangle: a neighbour of the group that conflicts with another one.
      const std::uint64_t* row_v = problem_->conflict_row(v);
      for (std::size_t w2 = 0; w2 < bits_.size(); ++w2) {
        if ((row_v[w2] & row[w2] & bits_[w2]) != 0) return false;
      }
    }
  }
  const auto& figures = problem_->group_aggregates(group);
  bits_[group / 64] |= bit_of(group);
  ++tally_.count;
  tally_.pair_conflicts += degree;
  tally_.self_conflicts += self ? 1 : 0;
  tally_.totals.words += figures.words;
  tally_.totals.width_bits = std::max(tally_.totals.width_bits, figures.width_bits);
  tally_.totals.reads += figures.reads;
  tally_.totals.writes += figures.writes;
  return true;
}

void MemberSet::erase(std::size_t group) {
  DTSE_DCHECK(contains(group), "group not a member");
  bits_[group / 64] &= ~bit_of(group);
  const std::uint64_t* row = problem_->conflict_row(group);
  std::uint64_t degree = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    degree += std::popcount(row[w] & bits_[w]);
  }
  const auto& figures = problem_->group_aggregates(group);
  --tally_.count;
  tally_.pair_conflicts -= degree;
  tally_.self_conflicts -= problem_->self_conflicting(group) ? 1 : 0;
  tally_.totals.words -= figures.words;
  tally_.totals.reads -= figures.reads;
  tally_.totals.writes -= figures.writes;
  if (figures.width_bits < tally_.totals.width_bits) return;
  // The group may have held the max: re-derive it from the members left.
  int& width = tally_.totals.width_bits;
  width = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    for (std::uint64_t scan = bits_[w]; scan != 0; scan &= scan - 1) {
      const std::size_t m = w * 64 + static_cast<std::size_t>(std::countr_zero(scan));
      width = std::max(width, problem_->group_aggregates(m).width_bits);
    }
  }
}

void MemberSet::undo(std::size_t group, const Tally& saved) {
  bits_[group / 64] ^= bit_of(group);
  tally_ = saved;
}

AssignmentState::AssignmentState(const AssignmentProblem& problem, int memory_count,
                                 const memlib::CostWeights& weights, CostMode mode)
    : problem_(&problem), weights_(weights), mode_(mode), memory_count_(memory_count) {
  DTSE_CHECK(memory_count >= 1, "need at least one memory");
}

double AssignmentState::scalar_from_terms() const {
  // Sum in memory-index order, skipping empty memories — the exact loop
  // `AssignmentProblem::evaluate` runs, so the floating-point result matches
  // a from-scratch evaluation bit-for-bit.
  memlib::CostSummary summary;
  for (const auto& mem : memories_) {
    if (mem.set.empty()) continue;
    summary.onchip_area_mm2 += mem.term.area_mm2;
    summary.onchip_power_mw += mem.term.power_mw;
  }
  return weights_.scalarize(summary);
}

memlib::CostTerm AssignmentState::onchip_total() const {
  if (mode_ == CostMode::kFullRecost) {
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    DTSE_ASSERT(summary.has_value(), "state holds a feasible assignment");
    return {summary->onchip_area_mm2, summary->onchip_power_mw};
  }
  memlib::CostTerm total;
  for (const auto& mem : memories_) {
    if (!mem.set.empty()) total += mem.term;
  }
  return total;
}

bool AssignmentState::reset(const std::vector<int>& assignment) {
  DTSE_CHECK(assignment.size() == problem_->group_count(), "one entry per group");
  assignment_ = assignment;
  last_.active = false;

  if (mode_ == CostMode::kFullRecost) {
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    if (!summary) return false;
    scalar_ = weights_.scalarize(*summary);
    return true;
  }

  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(memory_count_));
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    DTSE_CHECK(assignment_[i] >= 0 && assignment_[i] < memory_count_,
               "assignment entry out of range");
    members[static_cast<std::size_t>(assignment_[i])].push_back(i);
  }
  memories_.assign(static_cast<std::size_t>(memory_count_),
                   MemoryState{MemberSet(*problem_), {}});
  for (std::size_t m = 0; m < members.size(); ++m) {
    // The exact reference computation gates feasibility, as in `evaluate`.
    const auto term = problem_->cost_of_members(members[m]);
    if (!term) return false;
    auto& mem = memories_[m];
    mem.term = *term;
    for (const auto group : members[m]) {
      const bool inserted = mem.set.try_insert(group);
      DTSE_ASSERT(inserted, "a subset of a feasible memory is feasible");
    }
  }
  scalar_ = scalar_from_terms();
  return true;
}

std::optional<double> AssignmentState::apply(std::size_t group, int new_m) {
  DTSE_DCHECK(group < assignment_.size(), "group index out of range");
  DTSE_DCHECK(new_m >= 0 && new_m < memory_count_, "memory index out of range");
  const int old_m = assignment_[group];
  DTSE_DCHECK(new_m != old_m, "move must change the memory");

  if (mode_ == CostMode::kFullRecost) {
    assignment_[group] = new_m;
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    if (!summary) {
      assignment_[group] = old_m;
      last_.active = false;  // a failed move leaves nothing to revert
      return std::nullopt;
    }
    last_ = {group, old_m, new_m, {}, {}, {}, {}, scalar_, true};
    scalar_ = weights_.scalarize(*summary);
    return scalar_;
  }

  auto& src = memories_[static_cast<std::size_t>(old_m)];
  auto& dst = memories_[static_cast<std::size_t>(new_m)];
  const MemberSet::Tally dst_tally = dst.set.tally();
  if (!dst.set.try_insert(group)) {
    last_.active = false;  // a failed move leaves nothing to revert
    return std::nullopt;
  }
  last_ = {group,           old_m,     new_m,   src.term, dst.term,
           src.set.tally(), dst_tally, scalar_, true};
  src.set.erase(group);
  src.term = src.set.term();
  dst.term = dst.set.term();
  assignment_[group] = new_m;
  scalar_ = scalar_from_terms();
  return scalar_;
}

void AssignmentState::revert() {
  DTSE_CHECK(last_.active, "no move to revert");
  last_.active = false;
  assignment_[last_.group] = last_.from;
  scalar_ = last_.scalar;
  if (mode_ == CostMode::kFullRecost) return;

  auto& src = memories_[static_cast<std::size_t>(last_.from)];
  auto& dst = memories_[static_cast<std::size_t>(last_.to)];
  dst.set.undo(last_.group, last_.to_tally);
  src.set.undo(last_.group, last_.from_tally);
  src.term = last_.from_term;
  dst.term = last_.to_term;
}

}  // namespace dtse::alloc
