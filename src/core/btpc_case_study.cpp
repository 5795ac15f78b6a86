#include "core/btpc_case_study.hpp"

#include "btpc/codec.hpp"
#include "hierarchy/hierarchy.hpp"
#include "structuring/structuring.hpp"
#include "support/check.hpp"

namespace dtse::core {

ir::Application profile_btpc_demonstrator(const BtpcCaseOptions& options) {
  const auto frame = support::make_synthetic_image(
      options.profile_width, options.profile_height, support::SyntheticKind::kCompound,
      options.image_seed);
  return btpc::profile_btpc(frame, options.design_width, options.design_height,
                            options.codec);
}

namespace {

ir::BasicGroupId require_group(const ir::Application& app, std::string_view name) {
  const auto id = app.find_group(name);
  DTSE_CHECK(id.has_value(), "demonstrator profile lacks the " + std::string(name) +
                                 " array");
  return *id;
}

}  // namespace

std::vector<std::pair<std::string, ir::Application>> btpc_structuring_variants(
    const ir::Application& profiled) {
  const auto ridge = require_group(profiled, "ridge");
  const auto pyr = require_group(profiled, "pyr");

  std::vector<std::pair<std::string, ir::Application>> variants;
  variants.emplace_back("No structuring", profiled);
  const int factor = structuring::recommended_compaction_factor(profiled, ridge, 8);
  variants.emplace_back("ridge compacted",
                        structuring::apply_compaction(profiled, ridge, factor));
  variants.emplace_back("ridge and pyr merged",
                        structuring::apply_merging(profiled, ridge, pyr, "pyr_ridge"));
  return variants;
}

std::vector<std::pair<std::string, ir::Application>> btpc_hierarchy_variants(
    const ir::Application& merged) {
  const auto image = require_group(merged, "image");
  std::vector<std::pair<std::string, ir::Application>> variants;
  for (const auto& option : hierarchy::enumerate_options(merged, image)) {
    variants.emplace_back(option.label,
                          hierarchy::apply_hierarchy(merged, image, option.layers));
  }
  return variants;
}

ir::Application btpc_best_variant(const ir::Application& profiled) {
  const auto ridge = require_group(profiled, "ridge");
  const auto pyr = require_group(profiled, "pyr");
  auto merged = structuring::apply_merging(profiled, ridge, pyr, "pyr_ridge");
  const auto image = require_group(merged, "image");
  const auto options = hierarchy::enumerate_options(merged, image);
  // "Only layer 0" wins in the paper; index 2 of the canonical option list.
  return hierarchy::apply_hierarchy(merged, image, options[2].layers);
}

}  // namespace dtse::core
