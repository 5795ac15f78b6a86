#include "workloads/profile_store.hpp"

#include "persist/fnv.hpp"

namespace dtse::workloads {

std::string profile_cache_key(std::string_view workload_name,
                              const WorkloadOptions& options) {
  persist::Fnv1a hash;
  hash.update_u64(kProfileKeySchemaVersion);
  hash.update_string(workload_name);
  hash.update_u64(static_cast<std::uint64_t>(options.profile_size));
  hash.update_u64(options.seed);
  // Distinguish "no override" from every concrete backend.
  hash.update_u8(options.entropy_backend.has_value() ? 1 : 0);
  hash.update_u8(options.entropy_backend.has_value()
                     ? static_cast<std::uint8_t>(*options.entropy_backend)
                     : 0);
  return persist::to_hex(hash.digest());
}

ir::Application profile_cached(const Workload& workload, const WorkloadOptions& options,
                               persist::ProfileCache* cache) {
  if (cache == nullptr) return workload.profile(options);
  const auto key = profile_cache_key(workload.name(), options);
  if (auto cached = cache->load(key)) return std::move(*cached);
  auto profiled = workload.profile(options);
  cache->store(key, profiled);
  return profiled;
}

}  // namespace dtse::workloads
