// The BTPC case study of Sections 3-4, packaged for reuse by the examples
// and the table-regeneration benches.
//
// Wires the demonstrator profile through the four decision axes exactly as
// the paper does:
//   Table 1: structuring variants on ridge/pyr,
//   Table 2: memory hierarchy variants on the image array (Figure 3),
//   Table 3: the storage cycle budget sweep,
//   Table 4: the allocation sweep.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "btpc/codec.hpp"
#include "core/explorer.hpp"
#include "ir/application.hpp"
#include "support/image.hpp"

namespace dtse::core {

/// Profiling configuration for the demonstrator.
struct BtpcCaseOptions {
  int profile_width = 512;      ///< frame actually run through the encoder
  int profile_height = 512;
  int design_width = 1024;      ///< design point declared in the model
  int design_height = 1024;
  std::uint64_t image_seed = 42;
  /// Traversal knobs of the profiled encode (tile size, level-order
  /// reference); the bitstream and profile are traversal-invariant, only the
  /// profiling run's own memory behaviour changes.
  btpc::CodecOptions codec;
};

/// Runs the instrumented BTPC encoder on a synthetic compound image and
/// returns the pruned application model at the design geometry.
[[nodiscard]] ir::Application profile_btpc_demonstrator(const BtpcCaseOptions& options = {});

/// Table 1 variants: no structuring / ridge compacted / ridge+pyr merged.
[[nodiscard]] std::vector<std::pair<std::string, ir::Application>>
btpc_structuring_variants(const ir::Application& profiled);

/// Table 2 variants on top of the merged model: the four hierarchy options
/// of Figure 3 for the image array (12-register ylocal, 5K yhier).
[[nodiscard]] std::vector<std::pair<std::string, ir::Application>>
btpc_hierarchy_variants(const ir::Application& merged);

/// The winning variant after structuring + hierarchy (merged, layer 0) —
/// the input to the Table 3 and Table 4 sweeps.
[[nodiscard]] ir::Application btpc_best_variant(const ir::Application& profiled);

}  // namespace dtse::core
