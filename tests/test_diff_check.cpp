// Differential-checker tests: the conformance table agrees with the
// oracle on every corpus archetype, and a deliberately broken kernel
// is both caught and shrunk to a tiny repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "testing/corpus.hpp"
#include "testing/diff_check.hpp"
#include "testing/oracle.hpp"

namespace scalfrag::testing {
namespace {

// A realistically broken kernel: the reference computation with an
// off-by-one loop bound, dropping the final entry's contribution.
DenseMatrix broken_mttkrp(const CooTensor& t, const FactorList& f,
                          order_t mode) {
  DenseMatrix out = mttkrp_coo_ref(t, f, mode);
  if (t.nnz() == 0) return out;
  const nnz_t e = t.nnz() - 1;
  for (index_t c = 0; c < out.cols(); ++c) {
    value_t term = t.value(e);
    for (order_t m = 0; m < t.order(); ++m) {
      if (m != mode) term *= f[m](t.index(m, e), c);
    }
    out(t.index(mode, e), c) -= term;
  }
  return out;
}

TEST(DiffCheck, TableCoversEveryPathFamily) {
  const auto& paths = conformance_paths();
  EXPECT_GE(paths.size(), 15u);
  auto has = [&](const std::string& needle) {
    for (const auto& p : paths) {
      if (p.name.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  for (const char* family :
       {"coo_ref", "coo_par", "csf", "hicoo", "fcoo", "parti", "pipeline",
        "hybrid"}) {
    EXPECT_TRUE(has(family)) << family << " missing from the table";
  }
}

TEST(DiffCheck, AllPathsAgreeOnEveryArchetype) {
  for (const auto& name : corpus_archetypes()) {
    const CooTensor t = make_archetype(name, 2024, 0);
    for (order_t mode = 0; mode < t.order(); ++mode) {
      DiffOptions opt;
      opt.rank = 5;
      const DiffReport rep = check_all_paths(t, mode, opt);
      EXPECT_TRUE(rep.ok())
          << name << " mode " << int(mode) << ": "
          << (rep.divergences.empty() ? "" : rep.divergences.front().path);
      EXPECT_GE(rep.paths_run, conformance_paths().size());
    }
  }
}

TEST(DiffCheck, UnsortedInputAlsoRunsRawOrderPaths) {
  const CooTensor t = make_archetype("unsorted", 7, 0);
  ASSERT_FALSE(t.is_sorted_by_mode(0));
  const DiffReport rep = check_all_paths(t, 0);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.paths_run, conformance_paths().size() + 2);
}

TEST(DiffCheck, PathFilterRestrictsTheTable) {
  const CooTensor t = make_archetype("uniform", 7, 0);
  DiffOptions opt;
  opt.path_filter = "pipeline";
  const DiffReport rep = check_all_paths(t, 0, opt);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.paths_run, 8u);  // 7 pipeline/* rows + views/pipeline/s3x2
}

TEST(DiffCheck, TableCoversScheduleAndShmemCombos) {
  // The fuzz surface must include explicit launch schedules, the
  // global-memory kernel variant, the budget planner, and the hybrid
  // combination of all of them.
  std::vector<std::string> names;
  for (const auto& p : conformance_paths()) names.push_back(p.name);
  for (const char* want :
       {"pipeline/s4x2/noshmem", "pipeline/s3x2/scheduled",
        "pipeline/budget", "hybrid/mixed/scheduled_noshmem"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing conformance path " << want;
  }
}

TEST(DiffCheck, ValidatesArguments) {
  const CooTensor t = make_archetype("uniform", 7, 0);
  EXPECT_THROW(check_all_paths(t, t.order()), Error);
  DiffOptions opt;
  opt.rank = 0;
  EXPECT_THROW(check_all_paths(t, 0, opt), Error);
}

TEST(DiffCheck, FactorsAreDeterministicInSeed) {
  const CooTensor t = make_archetype("uniform", 7, 0);
  const FactorList a = conformance_factors(t, 6, 99);
  const FactorList b = conformance_factors(t, 6, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (index_t i = 0; i < a[m].rows(); ++i) {
      for (index_t c = 0; c < a[m].cols(); ++c) {
        ASSERT_EQ(a[m](i, c), b[m](i, c));
      }
    }
  }
}

TEST(DiffCheck, HealthyTensorHasFalsePredicate) {
  const CooTensor t = make_archetype("mega_slice", 11, 0);
  EXPECT_FALSE(divergence_predicate(0, {})(t));
}

// The acceptance-criteria test: a mutated kernel must be caught by the
// oracle comparison and shrunk by the greedy minimizer to a handful of
// non-zeros (<= 8 nnz).
TEST(DiffCheck, BrokenKernelIsCaughtAndShrunkToTinyRepro) {
  const CooTensor t = make_archetype("uniform", 31337, 1);
  const order_t mode = 0;
  DiffOptions opt;
  opt.rank = 8;

  auto broken_fails = [&](const CooTensor& cand) {
    const FactorList f =
        conformance_factors(cand, opt.rank, opt.factor_seed);
    const OracleResult oracle = mttkrp_oracle(cand, f, mode);
    const DenseMatrix out = broken_mttkrp(cand, f, mode);
    return compare_to_oracle(oracle, out, cand.order(), opt.tolerance)
        .diverged;
  };

  ASSERT_TRUE(broken_fails(t)) << "mutated kernel was not caught";

  const CooTensor minimal = shrink_tensor(t, broken_fails);
  EXPECT_LE(minimal.nnz(), 8u)
      << "shrinker left " << minimal.nnz() << " nnz";
  EXPECT_GE(minimal.nnz(), 1u);
  EXPECT_TRUE(broken_fails(minimal)) << "shrunk repro no longer fails";
  // 1-minimality: the shrinker only stops when no single removal fails.
  EXPECT_EQ(minimal.dims(), t.dims()) << "shrinking must preserve dims";
}

TEST(DiffCheck, ShrinkerRejectsPassingInput) {
  const CooTensor t = make_archetype("uniform", 7, 0);
  EXPECT_THROW(shrink_tensor(t, [](const CooTensor&) { return false; }),
               Error);
}

TEST(DiffCheck, ShrinkerIsolatesTheSingleBadEntry) {
  // A kernel wrong only for entries in slice 3 of mode 0: the minimal
  // repro must contain slice-3 entries and nothing else removable.
  const CooTensor t = make_archetype("uniform", 5, 1);
  const order_t mode = 0;
  auto fails = [&](const CooTensor& cand) {
    const FactorList f = conformance_factors(cand, 4, 1);
    const OracleResult oracle = mttkrp_oracle(cand, f, mode);
    DenseMatrix out = mttkrp_coo_ref(cand, f, mode);
    bool touched = false;
    for (nnz_t e = 0; e < cand.nnz(); ++e) touched |= cand.index(0, e) == 3;
    if (touched && out.rows() > 3) {
      for (index_t c = 0; c < out.cols(); ++c) out(3, c) += 1.0f;
    }
    return compare_to_oracle(oracle, out, cand.order()).diverged;
  };
  ASSERT_TRUE(fails(t));
  const CooTensor minimal = shrink_tensor(t, fails);
  EXPECT_EQ(minimal.nnz(), 1u);
  EXPECT_EQ(minimal.index(0, 0), 3u);
}

}  // namespace
}  // namespace scalfrag::testing
