// Multi-tenant decomposition service tests: JobSpec serialization, the
// smooth-WRR JobQueue (fairness + starvation-freedom), DeviceGroup
// leases, admission control against memory budgets, plan-cache hit
// bit-identity, service-vs-direct driver equivalence, and graceful
// drain on shutdown. Lives in scalfrag_par_tests: the service is
// scheduler + worker threads, exactly what the TSAN preset targets.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "tensor/generator.hpp"

namespace scalfrag::service {
namespace {

// Tiny recipes so the whole suite stays in milliseconds of sim prep.
constexpr double kTinyScale = 1.0 / 2048;

JobSpec mttkrp_spec(const std::string& tenant, int weight,
                    const std::string& backend = "coo") {
  JobSpec s;
  s.tenant = tenant;
  s.weight = weight;
  s.kind = JobKind::Mttkrp;
  s.tensor = "nips";
  s.scale = kTinyScale;
  s.mode = 0;
  s.factor_seed = 11;
  s.exec = ExecConfig{}.backend(backend).rank(8);
  return s;
}

TEST(ServiceJobSpec, JsonRoundTrip) {
  JobSpec s;
  s.tenant = "team-a";
  s.weight = 3;
  s.kind = JobKind::Tucker;
  s.tensor = "uber";
  s.scale = 1.0 / 512;
  s.tensor_seed = 99;
  s.mode = 1;
  s.factor_seed = 7;
  s.exec = ExecConfig{}
               .backend("coo_host")
               .rank(12)
               .max_iters(4)
               .tol(0.0)
               .seed(21)
               .nonneg()
               .core_dims({2, 3, 4})
               .segments(5)
               .streams(2)
               .threads(3)
               .memory_budget(1 << 20);

  const JobSpec r = JobSpec::parse(s.to_json());
  EXPECT_EQ(r.tenant, s.tenant);
  EXPECT_EQ(r.weight, s.weight);
  EXPECT_EQ(r.kind, s.kind);
  EXPECT_EQ(r.tensor, s.tensor);
  EXPECT_DOUBLE_EQ(r.scale, s.scale);
  EXPECT_EQ(r.tensor_seed, s.tensor_seed);
  EXPECT_EQ(r.mode, s.mode);
  EXPECT_EQ(r.factor_seed, s.factor_seed);
  EXPECT_EQ(r.exec.backend_name, "coo_host");
  EXPECT_EQ(r.exec.decomp_rank, 12);
  EXPECT_EQ(r.exec.decomp_max_iters, 4);
  EXPECT_DOUBLE_EQ(r.exec.decomp_tol, 0.0);
  EXPECT_EQ(r.exec.decomp_seed, 21u);
  EXPECT_TRUE(r.exec.cpd_nonnegative);
  EXPECT_EQ(r.exec.tucker_core_dims, (std::vector<index_t>{2, 3, 4}));
  EXPECT_EQ(r.exec.num_segments, 5);
  EXPECT_EQ(r.exec.num_streams, 2);
  EXPECT_EQ(r.exec.host_exec.threads, 3u);
  EXPECT_EQ(r.exec.memory_budget_bytes, std::size_t{1} << 20);

  // Absent fields keep defaults; a tol left unset round-trips as the
  // "driver default" sentinel, not as a concrete tolerance.
  const JobSpec d = JobSpec::parse("{\"tensor\": \"nips\"}");
  EXPECT_EQ(d.tenant, "default");
  EXPECT_LT(d.exec.decomp_tol, 0.0);
}

TEST(ServiceJobSpec, ValidateRejectsStructuralErrors) {
  EXPECT_THROW(
      [] {
        JobSpec s;
        s.tenant = "";
        s.validate();
      }(),
      Error);
  EXPECT_THROW(
      [] {
        JobSpec s;
        s.weight = 0;
        s.validate();
      }(),
      Error);
  EXPECT_THROW(
      [] {
        JobSpec s;
        s.kind = JobKind::Tucker;  // no core dims
        s.validate();
      }(),
      Error);
  EXPECT_THROW(job_kind_from_name("hosvd"), Error);
}

// Smooth WRR with weights A=3, B=1 must interleave A A B A (nginx
// schedule), not burst A A A B — and stay FIFO within each tenant.
TEST(ServiceQueue, SmoothWrrInterleavesWeightedTenants) {
  JobQueue q;
  std::uint64_t id = 0;
  for (int i = 0; i < 6; ++i) {
    q.push({++id, mttkrp_spec("a", 3), 0});
  }
  for (int i = 0; i < 2; ++i) {
    q.push({++id, mttkrp_spec("b", 1), 0});
  }
  // Tenant ids: a = 1..6, b = 7..8.
  const std::vector<std::string> want_tenant = {"a", "a", "b", "a",
                                                "a", "a", "b", "a"};
  const std::vector<std::uint64_t> want_id = {1, 2, 7, 3, 4, 5, 8, 6};
  for (std::size_t i = 0; i < want_tenant.size(); ++i) {
    const auto job = q.pop_blocking();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->spec.tenant, want_tenant[i]) << "dispatch " << i;
    EXPECT_EQ(job->id, want_id[i]) << "dispatch " << i;
  }
  EXPECT_EQ(q.size(), 0u);
}

// Starvation-freedom: under any weights, a tenant with queued work is
// dispatched at least once per sum-of-active-weights pops.
TEST(ServiceQueue, HeavyWeightCannotStarveLightTenant) {
  JobQueue q;
  std::uint64_t id = 0;
  for (int i = 0; i < 20; ++i) {
    q.push({++id, mttkrp_spec("heavy", 10), 0});
  }
  q.push({++id, mttkrp_spec("light", 1), 0});
  // light must appear within the first 11 dispatches (10 + 1).
  bool seen_light = false;
  for (int i = 0; i < 11 && !seen_light; ++i) {
    const auto job = q.pop_blocking();
    ASSERT_TRUE(job.has_value());
    seen_light = job->spec.tenant == "light";
  }
  EXPECT_TRUE(seen_light);
}

TEST(ServiceQueue, CloseDrainsThenSignalsShutdown) {
  JobQueue q;
  q.push({1, mttkrp_spec("a", 1), 0});
  q.push({2, mttkrp_spec("a", 1), 0});
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_THROW(q.push({3, mttkrp_spec("a", 1), 0}), Error);
  EXPECT_TRUE(q.pop_blocking().has_value());
  EXPECT_TRUE(q.pop_blocking().has_value());
  EXPECT_FALSE(q.pop_blocking().has_value());
}

TEST(ServiceDeviceGroup, LeaseBookkeeping) {
  gpusim::DeviceGroup g(gpusim::DeviceSpec::rtx3090(), 2);
  EXPECT_EQ(g.try_lease(), 0);
  EXPECT_EQ(g.try_lease(), 1);
  EXPECT_EQ(g.try_lease(), -1);
  EXPECT_EQ(g.leased(), 2);
  g.release(0);
  EXPECT_EQ(g.try_lease(), 0);
  EXPECT_THROW(g.lease(0), Error);
  g.release(0);
  g.release(1);
  EXPECT_THROW(g.release(1), Error);
  EXPECT_EQ(g.leased(), 0);
}

TEST(ServiceAdmission, RejectsJobsOverTheMemoryBudget) {
  DecompositionService svc({.num_devices = 1});
  JobSpec s = mttkrp_spec("a", 1);
  s.exec.memory_budget(1024);  // nothing fits in 1 KiB
  const JobResult r = svc.wait(svc.submit(s));
  EXPECT_EQ(r.state, JobState::Rejected);
  EXPECT_EQ(r.budget_bytes, 1024u);
  EXPECT_GT(r.predicted_bytes, r.budget_bytes);
  EXPECT_NE(r.error.find("budget"), std::string::npos) << r.error;

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_GE(svc.metrics().snapshot().counter("service/admission_rejects"),
            1u);
}

TEST(ServiceAdmission, PerDeviceMemoryFallbackRoutesToFittingMember) {
  // Heterogeneous group, no explicit budget: admission falls back to
  // each member's own memory and the argmin only considers members the
  // job fits on — so a near-zero-memory member is skipped, not fatal.
  gpusim::DeviceSpec tiny = gpusim::DeviceSpec::rtx3090();
  tiny.name = "tiny";
  tiny.global_mem_bytes = 1024;
  ServiceOptions opts;
  opts.device_specs = {tiny, gpusim::DeviceSpec::rtx3090()};
  DecompositionService svc(opts);
  const JobResult r = svc.wait(svc.submit(mttkrp_spec("a", 1)));
  ASSERT_EQ(r.state, JobState::Completed) << r.error;
  EXPECT_EQ(r.device, 1);

  // When no member fits, the job is rejected outright.
  ServiceOptions none;
  none.device_specs = {tiny, tiny};
  DecompositionService cramped(none);
  const JobResult rej = cramped.wait(cramped.submit(mttkrp_spec("a", 1)));
  EXPECT_EQ(rej.state, JobState::Rejected);
  EXPECT_NE(rej.error.find("budget"), std::string::npos) << rej.error;
}

TEST(ServiceScheduling, ArgminWeighsCommittedWorkByThroughput) {
  // A member with a quarter of the cores accrues 4x the committed time
  // per identical job, so a stream of identical jobs splits toward the
  // fast device roughly in proportion to throughput.
  gpusim::DeviceSpec slow = gpusim::DeviceSpec::rtx3090();
  slow.name = "slow";
  slow.cuda_cores /= 4;
  ServiceOptions opts;
  opts.device_specs = {gpusim::DeviceSpec::rtx3090(), slow};
  DecompositionService svc(opts);
  std::vector<JobSpec> specs(10, mttkrp_spec("a", 1));
  const auto results = svc.run_batch(std::move(specs));
  int fast_n = 0;
  int slow_n = 0;
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::Completed) << r.error;
    (r.device == 0 ? fast_n : slow_n) += 1;
  }
  EXPECT_GT(fast_n, slow_n);
  EXPECT_GE(slow_n, 1);  // the slow member still shares the load
}

TEST(ServiceAdmission, RejectsPlanlessMttkrpBackends) {
  DecompositionService svc({.num_devices = 1});
  const JobResult r =
      svc.wait(svc.submit(mttkrp_spec("a", 1, "coo_host")));
  EXPECT_EQ(r.state, JobState::Rejected);
  EXPECT_NE(r.error.find("plan"), std::string::npos) << r.error;
}

// The tentpole property: a warm job skips generation, feature
// extraction, selection, and plan construction (prepare_seconds == 0)
// yet produces a bit-identical output, because it replays the very
// plan object the cold run built and executed through.
TEST(ServiceCache, PlanCacheHitIsBitIdenticalToColdRun) {
  DecompositionService svc({.num_devices = 1});
  const auto results =
      svc.run_batch({mttkrp_spec("a", 1), mttkrp_spec("a", 1)});
  ASSERT_EQ(results.size(), 2u);
  const JobResult& cold = results[0];
  const JobResult& warm = results[1];

  ASSERT_EQ(cold.state, JobState::Completed) << cold.error;
  ASSERT_EQ(warm.state, JobState::Completed) << warm.error;
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(warm.tensor_cache_hit);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_GT(cold.prepare_seconds, 0.0);
  EXPECT_EQ(warm.prepare_seconds, 0.0);

  ASSERT_EQ(cold.mttkrp_output.rows(), warm.mttkrp_output.rows());
  ASSERT_EQ(cold.mttkrp_output.cols(), warm.mttkrp_output.cols());
  EXPECT_EQ(std::memcmp(cold.mttkrp_output.data(), warm.mttkrp_output.data(),
                        cold.mttkrp_output.size() * sizeof(value_t)),
            0);
  // Same plan, same factors, same cost model: identical sim time too.
  EXPECT_EQ(cold.sim_cost_ns, warm.sim_cost_ns);

  const ServiceStats st = svc.stats();
  EXPECT_GE(st.cache_hits, 1u);
  EXPECT_GE(st.cache_misses, 1u);
  EXPECT_EQ(svc.cache().plan_entries(), 1u);
  EXPECT_EQ(svc.cache().tensor_entries(), 1u);
}

// Jobs that differ only in a field the plan bakes in (here the segment
// count) must each get their own plan, and replay it exactly as a
// standalone plan of their own config would.
TEST(ServiceCache, PlanKeyCoversBakedInConfig) {
  JobSpec two = mttkrp_spec("a", 1);
  two.exec.segments(2);
  JobSpec six = mttkrp_spec("a", 1);
  six.exec.segments(6);
  DecompositionService svc({.num_devices = 1});
  const auto results = svc.run_batch({two, six});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(svc.stats().cache_misses, 2u);
  EXPECT_EQ(svc.cache().plan_entries(), 2u);

  const CooTensor t = make_frostt_tensor("nips", kTinyScale, two.tensor_seed);
  FactorList f;
  for (order_t m = 0; m < t.order(); ++m) f.emplace_back(t.dim(m), 8);
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  const JobSpec* specs[] = {&two, &six};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(results[i].state, JobState::Completed) << results[i].error;
    EXPECT_FALSE(results[i].plan_cache_hit);
    const MttkrpPlan plan(t, 8, dev, nullptr, specs[i]->exec);
    EXPECT_EQ(results[i].sim_cost_ns, plan.run_on(dev, f, 0).total_ns);
  }
}

TEST(ServiceCache, AutoBackendResolvesOnceAndCachesTheChoice) {
  DecompositionService svc({.num_devices = 1});
  const auto results =
      svc.run_batch({mttkrp_spec("a", 1, "auto"), mttkrp_spec("a", 1, "auto")});
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::Completed) << r.error;
    EXPECT_TRUE(r.info.auto_selected);
    EXPECT_NE(r.info.backend, "auto");  // resolved to a concrete name
  }
  EXPECT_EQ(results[0].info.backend, results[1].info.backend);
  const auto snap = svc.metrics().snapshot();
  EXPECT_GE(snap.counter("service/choice_cache_hits"), 1u);
  EXPECT_GE(snap.counter("service/choice_cache_misses"), 1u);
}

// Going through the service (queue, admission, cache, lease, replay)
// must not change the numbers: a CPD job equals the direct driver call
// on the same recipe, bit for bit.
TEST(ServiceEquivalence, CpdJobMatchesDirectDriverBitForBit) {
  JobSpec s;
  s.tenant = "a";
  s.kind = JobKind::Cpd;
  s.tensor = "nips";
  s.scale = kTinyScale;
  s.exec = ExecConfig{}.backend("coo").rank(6).max_iters(3);

  DecompositionService svc({.num_devices = 1});
  const JobResult r = svc.wait(svc.submit(s));
  ASSERT_EQ(r.state, JobState::Completed) << r.error;
  ASSERT_TRUE(r.cpd.has_value());

  const CooTensor t = make_frostt_tensor("nips", kTinyScale, 42);
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  const CpdResult direct = cpd_als(t, s.exec, &dev);

  EXPECT_EQ(r.cpd->iterations, direct.iterations);
  EXPECT_DOUBLE_EQ(r.cpd->final_fit, direct.final_fit);
  ASSERT_EQ(r.cpd->factors.size(), direct.factors.size());
  for (std::size_t m = 0; m < direct.factors.size(); ++m) {
    EXPECT_EQ(std::memcmp(r.cpd->factors[m].data(),
                          direct.factors[m].data(),
                          direct.factors[m].size() * sizeof(value_t)),
              0)
        << "factor " << m;
  }
}

TEST(ServiceExecution, TuckerJobAccountsTimeOnTheSharedDevice) {
  JobSpec s;
  s.tenant = "a";
  s.kind = JobKind::Tucker;
  s.tensor = "nips";
  s.scale = kTinyScale;
  s.exec = ExecConfig{}.core_dims({2, 2, 2, 2}).max_iters(2);

  DecompositionService svc({.num_devices = 1});
  const JobResult r = svc.wait(svc.submit(s));
  ASSERT_EQ(r.state, JobState::Completed) << r.error;
  ASSERT_TRUE(r.tucker.has_value());
  EXPECT_GT(r.tucker->final_fit, 0.0);
  EXPECT_EQ(r.device, 0);
  // The shared-device fix: projections are cost-modeled on the leased
  // device instead of a silently-constructed private one.
  EXPECT_GT(r.sim_cost_ns, 0u);
  EXPECT_EQ(svc.stats().makespan_ns, r.sim_finish_ns);
}

// run_batch across two weighted tenants: dispatch order must follow
// the smooth-WRR schedule end to end (not just inside JobQueue), and
// nobody starves.
TEST(ServiceFairness, WeightedBatchDispatchesInWrrOrder) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back(mttkrp_spec("a", 3));
  for (int i = 0; i < 2; ++i) specs.push_back(mttkrp_spec("b", 1));

  DecompositionService svc({.num_devices = 1});
  const auto results = svc.run_batch(specs);
  ASSERT_EQ(results.size(), specs.size());

  // results are in submission order; recover the dispatch order.
  std::vector<std::string> by_dispatch(results.size());
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::Completed) << r.error;
    ASSERT_GE(r.dispatch_seq, 1u);
    ASSERT_LE(r.dispatch_seq, results.size());
    by_dispatch[r.dispatch_seq - 1] = r.spec.tenant;
  }
  const std::vector<std::string> want = {"a", "a", "b", "a",
                                         "a", "a", "b", "a"};
  EXPECT_EQ(by_dispatch, want);
}

TEST(ServiceLifecycle, ShutdownDrainsQueuedJobsGracefully) {
  DecompositionService svc({.num_devices = 2});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(svc.submit(mttkrp_spec(i % 2 == 0 ? "a" : "b", 1)));
  }
  svc.shutdown();  // graceful: everything queued still executes
  for (const std::uint64_t id : ids) {
    const JobResult r = svc.wait(id);
    EXPECT_TRUE(r.terminal());
    EXPECT_EQ(r.state, JobState::Completed) << r.error;
  }
  EXPECT_EQ(svc.stats().completed, 4u);
  EXPECT_THROW(svc.submit(mttkrp_spec("a", 1)), Error);
  svc.shutdown();  // idempotent
}

TEST(ServiceReport, JsonReportParsesAndCarriesTheSchema) {
  DecompositionService svc({.num_devices = 1});
  svc.run_batch({mttkrp_spec("a", 1)});
  const obs::JsonValue v = obs::JsonValue::parse(svc.report_json());
  EXPECT_EQ(v.at("schema").as_string(), "scalfrag-service");
  EXPECT_EQ(v.at("version").as_number(), 1.0);
  EXPECT_EQ(v.at("jobs").as_array().size(), 1u);
  const obs::JsonValue& job = v.at("jobs").as_array()[0];
  EXPECT_EQ(job.at("state").as_string(), "completed");
  EXPECT_EQ(job.at("spec").at("tenant").as_string(), "a");
  EXPECT_GT(v.at("stats").at("makespan_sim_ns").as_number(), 0.0);
}

}  // namespace
}  // namespace scalfrag::service
