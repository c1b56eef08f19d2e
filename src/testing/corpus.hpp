#pragma once
// Seeded pathological-corpus generator for the conformance harness.
//
// Each archetype is a named sparsity pattern chosen to stress a
// structure the paper's feature extractor and kernels care about:
// empty inputs, a single mega-slice (the slice-level load-imbalance
// case), hypersparse mode sizes, duplicate coordinates, skewed
// fiber lengths, singleton/boundary dimensions, unsorted entry order,
// block-clustered locality (HiCOO's case), and low/high tensor orders.
// Generation is fully deterministic in (name, seed, size_class) via
// common/rng.hpp, so any fuzz failure replays from its seed alone.

#include <string>
#include <vector>

#include "tensor/coo.hpp"

namespace scalfrag::testing {

/// All registered archetype names, in a stable order.
const std::vector<std::string>& corpus_archetypes();

bool is_archetype(const std::string& name);

/// Deterministically generate one tensor of the named archetype.
/// `size_class` scales the instance: 0 = tiny (shrinker-friendly),
/// 1 = small (default fuzzing), 2 = medium (CI soak). Throws
/// scalfrag::Error for an unknown name or size_class outside [0, 2].
/// Tensors are emitted in generation order — NOT necessarily sorted or
/// coalesced; consumers that need mode-sorted input must sort a copy
/// (the differential checker does).
CooTensor make_archetype(const std::string& name, std::uint64_t seed,
                         int size_class = 1);

}  // namespace scalfrag::testing
