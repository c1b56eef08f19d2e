#include "testing/corpus.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/generator.hpp"

namespace scalfrag::testing {
namespace {

// Every generator receives the size multiplier m = 2^size_class, so
// size_class 0/1/2 scales mode sizes ~linearly and nnz ~quadratically.
using Generator = std::function<CooTensor(Rng&, index_t m)>;

value_t rand_value(Rng& rng) {
  // (0, 1] like generate_coo — strictly nonzero so an engine that drops
  // an entry always moves the output.
  return static_cast<value_t>(1.0 - rng.next_double());
}

void push_random(CooTensor& t, Rng& rng) {
  std::vector<index_t> c(t.order());
  for (order_t m = 0; m < t.order(); ++m) {
    c[m] = static_cast<index_t>(rng.next_below(t.dim(m)));
  }
  t.push(std::span<const index_t>(c.data(), c.size()), rand_value(rng));
}

CooTensor uniform_random(Rng& rng, std::vector<index_t> dims, nnz_t nnz) {
  CooTensor t(std::move(dims));
  t.reserve(nnz);
  for (nnz_t e = 0; e < nnz; ++e) push_random(t, rng);
  return t;
}

CooTensor shuffled(CooTensor t, Rng& rng) {
  const nnz_t n = t.nnz();
  std::vector<nnz_t> perm(n);
  for (nnz_t e = 0; e < n; ++e) perm[e] = e;
  for (nnz_t e = n; e > 1; --e) {
    std::swap(perm[e - 1], perm[rng.next_below(e)]);
  }
  CooTensor out(t.dims());
  out.reserve(n);
  std::vector<index_t> c(t.order());
  for (nnz_t e = 0; e < n; ++e) {
    for (order_t m = 0; m < t.order(); ++m) c[m] = t.index(m, perm[e]);
    out.push(std::span<const index_t>(c.data(), c.size()),
             t.value(perm[e]));
  }
  return out;
}

const std::vector<std::pair<std::string, Generator>>& registry() {
  static const std::vector<std::pair<std::string, Generator>> kArchetypes = {
      {"uniform",
       [](Rng& rng, index_t m) {
         return uniform_random(rng, {11 * m, 9 * m, 7 * m},
                               nnz_t{40} * m * m);
       }},
      {"empty",
       [](Rng&, index_t m) {
         return CooTensor({9 * m, 7 * m, 5 * m});
       }},
      {"single_nnz",
       [](Rng& rng, index_t m) {
         CooTensor t({8 * m, 7 * m, 6 * m});
         push_random(t, rng);
         return t;
       }},
      // One slice of mode 0 owns ~85% of all non-zeros: the
      // load-imbalance pattern SliceOwner must refuse.
      {"mega_slice",
       [](Rng& rng, index_t m) {
         CooTensor t({10 * m, 9 * m, 8 * m});
         const nnz_t n = nnz_t{48} * m * m;
         const auto heavy = static_cast<index_t>(rng.next_below(t.dim(0)));
         std::vector<index_t> c(3);
         for (nnz_t e = 0; e < n; ++e) {
           c[0] = rng.next_double() < 0.85
                      ? heavy
                      : static_cast<index_t>(rng.next_below(t.dim(0)));
           c[1] = static_cast<index_t>(rng.next_below(t.dim(1)));
           c[2] = static_cast<index_t>(rng.next_below(t.dim(2)));
           t.push(std::span<const index_t>(c.data(), c.size()),
                  rand_value(rng));
         }
         return t;
       }},
      // Mode sizes far above nnz — almost every slice is empty and
      // factor matrices dwarf the tensor.
      {"hypersparse",
       [](Rng& rng, index_t m) {
         return uniform_random(rng, {40000u * m, 15000u * m, 6000u * m},
                               nnz_t{40} * m);
       }},
      // Tiny dims so exact coordinate collisions are common; emitted
      // un-coalesced, so every path must accumulate duplicates.
      {"duplicates",
       [](Rng& rng, index_t m) {
         return uniform_random(rng, {5, 4, 3}, nnz_t{25} * m * m);
       }},
      // Power-law fiber lengths via the FROSTT-style skewed sampler.
      {"skewed_fibers",
       [](Rng& rng, index_t m) {
         GeneratorConfig cfg;
         cfg.dims = {30 * m, 24 * m, 16 * m};
         cfg.nnz = nnz_t{160} * m * m;
         cfg.skew = {1.0, 3.5, 2.5};
         cfg.seed = rng.next_u64();
         return generate_coo(cfg);
       }},
      // Singleton modes plus entries pinned at index 0 and dim−1 of the
      // one real mode (0-sized modes are rejected by CooTensor itself).
      {"boundary_dims",
       [](Rng& rng, index_t m) {
         CooTensor t({1, 13 * m, 1});
         t.push({0, 0, 0}, rand_value(rng));
         t.push({0, t.dim(1) - 1, 0}, rand_value(rng));
         for (nnz_t e = 0; e < nnz_t{10} * m; ++e) push_random(t, rng);
         return t;
       }},
      {"unsorted",
       [](Rng& rng, index_t m) {
         return shuffled(uniform_random(rng, {12 * m, 10 * m, 8 * m},
                                        nnz_t{45} * m * m),
                         rng);
       }},
      // Entries clustered around a few block bases — HiCOO's best case,
      // and dense-ish blocks for the shared-memory kernel model.
      {"block_clustered",
       [](Rng& rng, index_t m) {
         CooTensor t({32 * m, 32 * m, 32 * m});
         const int blocks = 4 + static_cast<int>(rng.next_below(4));
         std::vector<index_t> c(3);
         for (int b = 0; b < blocks; ++b) {
           std::vector<index_t> base(3);
           for (order_t mm = 0; mm < 3; ++mm) {
             base[mm] = static_cast<index_t>(rng.next_below(t.dim(mm) - 7));
           }
           for (nnz_t e = 0; e < nnz_t{12} * m * m; ++e) {
             for (order_t mm = 0; mm < 3; ++mm) {
               c[mm] = base[mm] + static_cast<index_t>(rng.next_below(8));
             }
             t.push(std::span<const index_t>(c.data(), c.size()),
                    rand_value(rng));
           }
         }
         return t;
       }},
      {"order2",
       [](Rng& rng, index_t m) {
         return uniform_random(rng, {19 * m, 23 * m}, nnz_t{60} * m * m);
       }},
      {"order4",
       [](Rng& rng, index_t m) {
         return uniform_random(rng, {9 * m, 8 * m, 7 * m, 6 * m},
                               nnz_t{50} * m * m);
       }},
  };
  return kArchetypes;
}

}  // namespace

const std::vector<std::string>& corpus_archetypes() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& [name, gen] : registry()) names.push_back(name);
    return names;
  }();
  return kNames;
}

bool is_archetype(const std::string& name) {
  for (const auto& [n, gen] : registry()) {
    if (n == name) return true;
  }
  return false;
}

CooTensor make_archetype(const std::string& name, std::uint64_t seed,
                         int size_class) {
  SF_CHECK(size_class >= 0 && size_class <= 2, "size_class must be in [0, 2]");
  const auto m = static_cast<index_t>(1u << size_class);
  for (const auto& [n, gen] : registry()) {
    if (n == name) {
      // Fold the archetype name into the stream so equal seeds still
      // give independent tensors across archetypes.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (char ch : name) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
      Rng rng(seed ^ h);
      return gen(rng, m);
    }
  }
  throw Error("unknown corpus archetype: " + name);
}

}  // namespace scalfrag::testing
