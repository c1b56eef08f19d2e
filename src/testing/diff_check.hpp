#pragma once
// Differential conformance checker: one table of every MTTKRP
// execution path in the repository, all pinned to the dense oracle.
//
// The ROADMAP's "refactor hot paths fearlessly" is only safe when every
// independently-written backend — reference COO, the parallel host
// engine under each strategy and thread count, CSF/HiCOO/F-COO,
// the ParTI baseline, the segmented pipeline, the CPU–GPU hybrid — is
// mechanically checked against one oracle on the same input. New
// kernels register here once (conformance_paths) and inherit coverage
// from every corpus archetype, the conformance test suite, and the
// fuzz driver for free.
//
// When a path diverges, shrink_tensor() greedily minimizes the failing
// tensor (ddmin-style chunk removal over the entry list) so the repro
// is a handful of non-zeros instead of a fuzz-sized instance.

#include <functional>
#include <string>
#include <vector>

#include "testing/oracle.hpp"
#include "tensor/coo.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag::testing {

/// One registered execution path. `run` receives a mode-sorted tensor
/// with validated factors and must return the full dims[mode] × rank
/// MTTKRP (a path builds whatever format it needs internally).
struct ExecPath {
  std::string name;
  std::function<DenseMatrix(const CooTensor& t, const FactorList& factors,
                            order_t mode)>
      run;
  /// Optional capability predicate; null means "supports everything".
  /// Paths return false for inputs outside their contract (the harness
  /// counts them as skipped rather than divergent).
  std::function<bool(const CooTensor& t, order_t mode)> supports;
};

/// THE conformance table. Add new kernels/formats/executors here — one
/// entry buys coverage in test_diff_check, the conformance suite, and
/// fuzz_mttkrp.
const std::vector<ExecPath>& conformance_paths();

/// Deterministic factor matrices for a tensor (uniform [0,1) rows from
/// the shared Rng) — the same factors every conformance site uses, so a
/// failure reproduces from (tensor, rank, seed) alone.
FactorList conformance_factors(const CooTensor& t, index_t rank,
                               std::uint64_t seed);

struct Divergence {
  std::string path;
  bool threw = false;   // the path raised instead of diverging
  std::string message;  // exception text when threw
  index_t row = 0;
  index_t col = 0;
  double got = 0.0;
  double want = 0.0;
  double tol = 0.0;
};

struct DiffOptions {
  index_t rank = 8;
  std::uint64_t factor_seed = 0x5eedfacau;
  /// Substring filter on path names; empty runs the whole table.
  std::string path_filter;
  /// Stop at the first divergent path (the shrinker wants this);
  /// false collects every divergence for reporting.
  bool stop_at_first = true;
  ToleranceModel tolerance;
};

struct DiffReport {
  std::size_t paths_run = 0;
  std::size_t paths_skipped = 0;
  std::vector<Divergence> divergences;

  bool ok() const noexcept { return divergences.empty(); }
};

/// Run every (filtered) registered path on `t` and compare each output
/// to the oracle. `t` may be unsorted/un-coalesced — a mode-sorted copy
/// is handed to the table, and order-independent paths additionally run
/// on the raw entry order.
DiffReport check_all_paths(const CooTensor& t, order_t mode,
                           const DiffOptions& opt = {});

/// Greedy input minimization: repeatedly remove entry chunks (halving
/// the chunk size down to single entries) while `still_fails` holds.
/// `still_fails(t)` must be true on entry; the result is 1-minimal —
/// removing any single remaining entry makes the failure disappear.
CooTensor shrink_tensor(const CooTensor& t,
                        const std::function<bool(const CooTensor&)>&
                            still_fails);

/// Predicate for shrink_tensor bound to check_all_paths(·, mode, opt):
/// true iff the (filtered) table still diverges on the candidate.
std::function<bool(const CooTensor&)> divergence_predicate(
    order_t mode, DiffOptions opt);

}  // namespace scalfrag::testing
