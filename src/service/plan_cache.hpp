#pragma once
// PlanCache — the two-level preparation cache behind the decomposition
// service. Everything MTTKRP-shaped that is expensive and factor-value
// independent is cached here, so a warm job skips straight to replay:
//
//   level 1  (tensor recipe → TensorEntry): the generated canonical
//            tensor plus its mode-0 sparsity features. A hit skips
//            generation AND feature extraction.
//   level 2  (features + rank + backend + config → PlanEntry): the prepared
//            MttkrpPlan / CsfPlan (sort, segmentation, launch
//            selection all sunk). A hit skips plan construction; the
//            replay entry points (MttkrpPlan::run_on / CsfPlan::run_on)
//            make the warm run bit-identical to the cold one, because
//            the cold run executes through the very plan it just built.
//   side map (features + rank → JointChoice): the joint format×launch
//            inference for backend "auto", cached so repeat jobs skip
//            selector inference entirely (paper §IV-B: iterative use
//            dilutes inference overhead — here it is amortized across
//            *jobs*, not just iterations).
//
// Keys are content-shaped, not pointer-shaped: level 2 keys on the
// feature vector, so two tenants naming the same tensor recipe share
// one plan. Both levels are LRU-bounded; shared_ptr hand-out means an
// evicted entry stays alive for jobs already holding it.
//
// Thread safety: all public methods are mutex-guarded. Builders run
// under the lock — the service calls from its single scheduler thread,
// which also gives single-flight plan construction for free.

#include <array>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"
#include "scalfrag/csf_plan.hpp"
#include "scalfrag/format_select.hpp"
#include "scalfrag/plan.hpp"
#include "tensor/features.hpp"

namespace scalfrag::service {

/// Level-1 value: the canonical (mode-0 sorted) tensor plus the mode-0
/// features every admission / selection decision reads.
struct TensorEntry {
  CooTensor tensor;
  TensorFeatures features;
  /// Generation + feature-extraction wall time, paid once on miss.
  double prepare_seconds = 0.0;
};

/// The ExecConfig fields a cached plan bakes in at build or reads at
/// replay, as one comparable string. Decomposition knobs and metrics
/// sinks are left out: a CPD job replays the plan of the MTTKRP jobs on
/// the same recipe, and every job reports into its own registry.
std::string plan_config_key(const ExecConfig& cfg);

/// Level-2 key: "TensorFeatures + rank + backend name + plan config".
struct PlanKey {
  std::array<double, TensorFeatures::kVectorSize> features{};
  index_t rank = 0;
  std::string backend;
  /// Spec name of the device the plan targets: launch prediction and
  /// replay are per-spec, so a heterogeneous group caches one plan per
  /// member kind (uniform groups share a single entry as before).
  std::string device;
  /// plan_config_key of the job's config: jobs that differ in a baked-in
  /// field (segment count, launch override, ...) must not share a plan.
  std::string config;

  bool operator<(const PlanKey& o) const {
    return std::tie(features, rank, backend, device, config) <
           std::tie(o.features, o.rank, o.backend, o.device, o.config);
  }
};

/// Level-2 value: exactly one of the two plan kinds, per the backend
/// the key names.
struct PlanEntry {
  std::shared_ptr<const MttkrpPlan> coo;
  std::shared_ptr<const CsfPlan> csf;
  /// Plan-construction wall time, paid once on miss.
  double prepare_seconds = 0.0;
};

class PlanCache {
 public:
  /// `capacity` bounds each level independently (entries, not bytes —
  /// service tensors are generator-scaled). `metrics` (optional)
  /// receives service/cache_* and service/tensor_cache_* counters.
  explicit PlanCache(std::size_t capacity = 32,
                     obs::MetricsRegistry* metrics = nullptr);

  /// Level 1: get-or-generate the canonical tensor for a recipe.
  /// `hit` (optional) reports whether this was a cache hit.
  std::shared_ptr<const TensorEntry> tensor(const std::string& name,
                                            double scale, std::uint64_t seed,
                                            bool* hit = nullptr);

  /// Level 2: get-or-build the plan for `key`. `build` runs under the
  /// cache lock on miss (single-flight by construction).
  std::shared_ptr<const PlanEntry> plan(
      const PlanKey& key, const std::function<PlanEntry()>& build,
      bool* hit = nullptr);

  /// Side map: get-or-infer the joint choice for (features, rank).
  JointChoice choice(const TensorFeatures& feat, index_t rank,
                     const std::function<JointChoice()>& infer,
                     bool* hit = nullptr);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t tensor_entries() const;
  std::size_t plan_entries() const;
  void clear();

 private:
  using TensorKey = std::tuple<std::string, double, std::uint64_t>;
  using ChoiceKey =
      std::pair<std::array<double, TensorFeatures::kVectorSize>, index_t>;

  template <typename Key, typename Value>
  struct LruMap {
    struct Slot {
      std::shared_ptr<const Value> value;
      typename std::list<Key>::iterator lru_pos;
    };
    std::map<Key, Slot> entries;
    std::list<Key> lru;  // front = most recently used

    std::shared_ptr<const Value> touch(const Key& k) {
      auto it = entries.find(k);
      if (it == entries.end()) return nullptr;
      lru.splice(lru.begin(), lru, it->second.lru_pos);
      return it->second.value;
    }
    /// Insert; returns the number of entries evicted to stay within cap.
    std::size_t insert(const Key& k, std::shared_ptr<const Value> v,
                       std::size_t cap) {
      lru.push_front(k);
      entries[k] = Slot{std::move(v), lru.begin()};
      std::size_t evicted = 0;
      while (entries.size() > cap) {
        entries.erase(lru.back());
        lru.pop_back();
        ++evicted;
      }
      return evicted;
    }
  };

  void count(const char* name, std::uint64_t n = 1);

  const std::size_t capacity_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  LruMap<TensorKey, TensorEntry> tensors_;
  LruMap<PlanKey, PlanEntry> plans_;
  std::map<ChoiceKey, JointChoice> choices_;
};

}  // namespace scalfrag::service
