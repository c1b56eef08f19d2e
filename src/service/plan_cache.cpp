#include "service/plan_cache.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "tensor/generator.hpp"

namespace scalfrag::service {

std::string plan_config_key(const ExecConfig& cfg) {
  const auto& launch = cfg.launch_override;
  const gpusim::CpuSpec& cpu = cfg.cpu_spec;
  const HostExecParams& h = cfg.host_exec;
  std::ostringstream os;
  os << std::hexfloat << cfg.num_devices << ' ' << cfg.num_segments << ' '
     << cfg.num_streams << ' ' << cfg.use_shared_mem << cfg.adaptive_launch
     << ' ' << cfg.hybrid_cpu_threshold << ' ' << cfg.csf_fiber_budget << ' '
     << (launch ? launch->str() + std::to_string(launch->shmem_per_block)
                : "-")
     << ' ' << cpu.name << ' ' << cpu.cores << ' ' << cpu.threads << ' '
     << cpu.clock_ghz << ' ' << cpu.mem_bandwidth_gbps << ' '
     << cpu.simd_flops_per_cycle << ' ' << h.threads << ' ' << h.grain_nnz
     << ' ' << static_cast<int>(h.strategy) << ' '
     << static_cast<int>(h.isa) << ' ' << static_cast<int>(h.pinning);
  return os.str();
}

PlanCache::PlanCache(std::size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(capacity), metrics_(metrics) {
  SF_CHECK(capacity >= 1, "plan cache capacity must be >= 1");
}

void PlanCache::count(const char* name, std::uint64_t n) {
  if (metrics_ != nullptr) metrics_->count(name, n);
}

std::shared_ptr<const TensorEntry> PlanCache::tensor(const std::string& name,
                                                     double scale,
                                                     std::uint64_t seed,
                                                     bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const TensorKey key{name, scale, seed};
  if (auto found = tensors_.touch(key); found != nullptr) {
    count("service/tensor_cache_hits");
    if (hit != nullptr) *hit = true;
    return found;
  }
  count("service/tensor_cache_misses");
  if (hit != nullptr) *hit = false;
  WallTimer timer;
  auto entry = std::make_shared<TensorEntry>();
  entry->tensor = make_frostt_tensor(name, scale, seed);
  // make_frostt_tensor returns mode-0 sorted, so extraction is a pure
  // scan here (no internal re-sort copy).
  entry->features = TensorFeatures::extract(entry->tensor, 0);
  entry->prepare_seconds = timer.seconds();
  count("service/cache_evictions",
        tensors_.insert(key, entry, capacity_));
  return entry;
}

std::shared_ptr<const PlanEntry> PlanCache::plan(
    const PlanKey& key, const std::function<PlanEntry()>& build, bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto found = plans_.touch(key); found != nullptr) {
    count("service/cache_hits");
    if (hit != nullptr) *hit = true;
    return found;
  }
  count("service/cache_misses");
  if (hit != nullptr) *hit = false;
  auto entry = std::make_shared<PlanEntry>(build());
  count("service/cache_evictions", plans_.insert(key, entry, capacity_));
  return entry;
}

JointChoice PlanCache::choice(const TensorFeatures& feat, index_t rank,
                              const std::function<JointChoice()>& infer,
                              bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const ChoiceKey key{feat.to_vector(), rank};
  if (auto it = choices_.find(key); it != choices_.end()) {
    count("service/choice_cache_hits");
    if (hit != nullptr) *hit = true;
    return it->second;
  }
  count("service/choice_cache_misses");
  if (hit != nullptr) *hit = false;
  JointChoice c = infer();
  choices_.emplace(key, c);
  return c;
}

std::size_t PlanCache::tensor_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tensors_.entries.size();
}

std::size_t PlanCache::plan_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.entries.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tensors_ = {};
  plans_ = {};
  choices_.clear();
}

}  // namespace scalfrag::service
