#pragma once
// JobSpec — the serializable description of one decomposition job the
// multi-tenant service accepts (docs/service.md has the schema).
//
// One config type: a JobSpec is tensor source + job kind + tenant
// identity + one ExecConfig (its decomposition knobs carry rank,
// iterations, tolerance and seed). Tensor data never rides
// in the spec — jobs name a FROSTT generator profile (name, scale,
// seed), the same deterministic recipe every bench uses, so a spec is
// a few hundred bytes and the service's PlanCache can key tensor
// identity without hashing gigabytes.

#include <string>

#include "obs/json.hpp"
#include "scalfrag/exec_config.hpp"
#include "tensor/generator.hpp"

namespace scalfrag::service {

enum class JobKind { Mttkrp, Cpd, Tucker };

const char* job_kind_name(JobKind k);
JobKind job_kind_from_name(const std::string& name);

struct JobSpec {
  /// Tenant identity for fair scheduling. The first job a tenant
  /// submits fixes its weighted-round-robin weight.
  std::string tenant = "default";
  int weight = 1;

  JobKind kind = JobKind::Mttkrp;

  /// Tensor source: a FROSTT generator profile (tensor/generator.hpp),
  /// scaled and seeded — the deterministic identity the plan cache
  /// keys tensors on.
  std::string tensor = "nips";
  double scale = kDefaultScale;
  std::uint64_t tensor_seed = 42;

  /// Mttkrp jobs: the mode to contract and the factor-init seed.
  /// (Cpd/Tucker jobs seed factors from exec.decomp_seed instead.)
  order_t mode = 0;
  std::uint64_t factor_seed = 1;

  /// Everything about execution: backend name, rank / max_iters / tol /
  /// core_dims, segments/streams/threads, memory_budget_bytes (the
  /// admission bound when set).
  ExecConfig exec;

  /// Structural checks that don't need the tensor (weight, names,
  /// kind-specific knobs). exec.validate() runs at admission, where a
  /// failure rejects the job instead of throwing at the submitter.
  void validate() const;

  /// Serialize as a self-contained JSON object.
  std::string to_json() const;
  /// Emit into an in-progress writer (for embedding in reports).
  void write_json(obs::JsonWriter& w) const;

  /// Parse. Absent fields keep their defaults; unknown fields are
  /// ignored (forward compatibility). Throws scalfrag::Error on type
  /// mismatches or unknown kind/backend-free structural errors.
  static JobSpec from_json(const obs::JsonValue& v);
  static JobSpec parse(std::string_view text);
};

}  // namespace scalfrag::service
