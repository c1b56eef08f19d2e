#include "scalfrag/multi_pipeline.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/sim_metrics.hpp"
#include "scalfrag/kernel.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {

namespace {

/// Shared work-stealing scheduler. Scheduling *decisions* (issue the
/// next own segment, steal, or retire) are serialized in simulated-time
/// order: a device may decide only while its decision clock is the
/// unique minimum over all live devices (ties break toward the lowest
/// device id). Clocks advance from the simulators' deterministic
/// timelines, so the full decision sequence — including every steal —
/// is a deterministic function of the plan, independent of host thread
/// scheduling. The expensive functional kernel work runs *outside* the
/// scheduler lock, so device timelines still execute concurrently.
struct StealScheduler {
  explicit StealScheduler(int n)
      : queue(static_cast<std::size_t>(n)),
        remaining(static_cast<std::size_t>(n), 0.0),
        clock(static_cast<std::size_t>(n), 0),
        finish_est(static_cast<std::size_t>(n), 0.0),
        done(static_cast<std::size_t>(n), false) {}

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<int>> queue;  // unissued own segments, in order
  std::vector<double> remaining;       // owner-predicted ns left per queue
  std::vector<sim_ns> clock;           // per-device decision clock
  // Completion time of the device's latest issued kernel — its
  // projected timeline finish so far. The decision clock deliberately
  // lags behind it (the clock is the end of the kernel that freed a
  // staging slot, up to num_streams issues back), so steal decisions
  // use this instead: comparing lagging clocks would let a thief
  // ignore its own in-flight tail and rob peers that are on schedule.
  std::vector<double> finish_est;
  std::vector<bool> done;
  std::vector<StealRecord> steals;     // in decision order
  // Segment i may move to a thief only when its slice range is not
  // shared with a neighbouring segment: a stolen segment's rows then
  // receive contributions from that segment alone, so folding its
  // scratch back is `0 + x` per element — bitwise x, same as the
  // owner executing it in place. A segment whose boundary splits a
  // slice stays with its owner (re-associating a shared row's partial
  // sums would change the low bits).
  std::vector<char> stealable;
  // Scratch output per stolen segment; std::map keeps fold order
  // ascending by segment id regardless of steal timing.
  std::map<int, DenseMatrix> scratch;

  bool my_turn(int d) const {
    const auto du = static_cast<std::size_t>(d);
    for (std::size_t x = 0; x < clock.size(); ++x) {
      if (x == du || done[x]) continue;
      if (clock[x] < clock[du] ||
          (clock[x] == clock[du] && x < du)) {
        return false;
      }
    }
    return true;
  }
};

/// One device's pipeline driver: replays its shard (and any stolen
/// segments) on its own simulator. Sim ops are issued with null
/// functional bodies — pure timing — and the host kernel work runs
/// separately outside the scheduler lock, so the simulated timeline
/// is byte-for-byte the PR 4 one when no steal triggers.
class DeviceDriver {
 public:
  DeviceDriver(int d, gpusim::SimDevice& dev, const ShardPlan& sp,
               const CooSpan& t, const FactorList& factors,
               const ExecConfig& cfg,
               const HostExecParams& host_exec, DenseMatrix* partial,
               StealScheduler& sched)
      : d_(d),
        dev_(dev),
        sp_(sp),
        sh_(sp.shards[static_cast<std::size_t>(d)]),
        segs_(sp.plan.segments.segments),
        feats_(sp.plan.segments.features),
        t_(t),
        factors_(factors),
        mode_(sp.plan.mode()),
        rank_(sp.plan.rank),
        cfg_(cfg),
        host_exec_(host_exec),
        partial_(partial),
        sched_(sched) {}

  void run() {
    std::unique_lock<std::mutex> lk(sched_.mu);
    for (;;) {
      sched_.cv.wait(lk, [&] { return sched_.my_turn(d_); });
      int seg_id = -1;
      DenseMatrix* target = nullptr;
      auto& myq = sched_.queue[static_cast<std::size_t>(d_)];
      if (!myq.empty()) {
        seg_id = myq.front();
        myq.pop_front();
        sched_.remaining[static_cast<std::size_t>(d_)] -=
            static_cast<double>(owner_pred(sh_, seg_id));
        target = partial_;
      } else if (cfg_.work_stealing) {
        const int victim = pick_victim();
        if (victim < 0) break;
        auto& vq = sched_.queue[static_cast<std::size_t>(victim)];
        seg_id = vq.back();
        vq.pop_back();
        const DeviceShard& vsh =
            sp_.shards[static_cast<std::size_t>(victim)];
        sched_.remaining[static_cast<std::size_t>(victim)] -=
            static_cast<double>(owner_pred(vsh, seg_id));
        sched_.steals.push_back(
            {seg_id, victim, d_,
             sched_.clock[static_cast<std::size_t>(d_)]});
        auto it = sched_.scratch
                      .emplace(seg_id, DenseMatrix(t_.dim(mode_), rank_))
                      .first;
        target = &it->second;
        ++stolen_segments;
        stolen_nnz += segs_[static_cast<std::size_t>(seg_id)].nnz();
      } else {
        break;
      }
      const bool stolen = target != partial_;

      // Issue the sim ops and run the functional kernel outside the
      // lock; the decision clock is published as soon as the timing is
      // known, *before* the (slow) host kernel work, so peers with the
      // next-smallest clocks proceed concurrently.
      lk.unlock();
      const sim_ns next_clock = issue(seg_id, stolen);
      lk.lock();
      sched_.clock[static_cast<std::size_t>(d_)] = next_clock;
      sched_.finish_est[static_cast<std::size_t>(d_)] =
          static_cast<double>(kernel_end_.back());
      sched_.cv.notify_all();
      lk.unlock();
      exec(seg_id, *target);
      lk.lock();
    }
    sched_.done[static_cast<std::size_t>(d_)] = true;
    sched_.cv.notify_all();
    lk.unlock();
    finish();
  }

  sim_ns makespan() const noexcept { return makespan_; }
  bool executed() const noexcept { return primed_; }
  int stolen_segments = 0;
  nnz_t stolen_nnz = 0;

 private:
  static sim_ns owner_pred(const DeviceShard& sh, int seg_id) {
    return sh.seg_pred_ns[static_cast<std::size_t>(seg_id - sh.seg_begin)];
  }

  /// Predicted cost of executing global segment `seg_id` here under
  /// thief_launch, bottlenecked by the H2D copy.
  sim_ns my_cost(int seg_id) const {
    const Segment& seg = segs_[static_cast<std::size_t>(seg_id)];
    return predict_segment_ns(dev_, thief_launch(seg_id),
                              feats_[static_cast<std::size_t>(seg_id)], rank_,
                              cfg_.use_shared_mem,
                              t_.subspan(seg.begin, seg.end).bytes());
  }

  /// The launch rule without the selector, for this device's spec (the
  /// plan's launch was chosen for the victim).
  gpusim::LaunchConfig thief_launch(int seg_id) const {
    return choose_launch(dev_, feats_[static_cast<std::size_t>(seg_id)],
                         rank_, cfg_);
  }

  /// Deterministic victim rule: the live peer with the latest projected
  /// finish (issued tail + owner-predicted queue, ties toward the
  /// lowest id) among those whose tail segment is stealable, and only
  /// if finishing that segment here beats the victim's own projected
  /// finish — mispredicted stragglers get robbed, balanced peers don't.
  int pick_victim() const {
    int victim = -1;
    double best = 0.0;
    for (std::size_t x = 0; x < sched_.queue.size(); ++x) {
      if (static_cast<int>(x) == d_ || sched_.queue[x].empty()) continue;
      if (!sched_.stealable[static_cast<std::size_t>(
              sched_.queue[x].back())]) {
        continue;
      }
      const double load = sched_.finish_est[x] + sched_.remaining[x];
      if (victim < 0 || load > best) {
        victim = static_cast<int>(x);
        best = load;
      }
    }
    if (victim < 0) return -1;
    const int seg_id = sched_.queue[static_cast<std::size_t>(victim)].back();
    // The stolen kernel queues behind this device's issued tail (FIFO
    // compute engine), so its projected end is finish_est + my_cost.
    const double mine =
        sched_.finish_est[static_cast<std::size_t>(d_)] +
        static_cast<double>(my_cost(seg_id));
    return mine < best ? victim : -1;
  }

  /// First issue on this device: streams, staging buffers, and the
  /// replicated-factor H2D (AMPED data distribution: every device
  /// holds all factors, non-zeros are sharded). Lazy so a device that
  /// never executes anything leaves a pristine timeline.
  void prime() {
    if (primed_) return;
    primed_ = true;
    std::size_t factor_bytes = 0;
    for (const auto& f : factors_) factor_bytes += f.bytes();
    out_bytes_ = static_cast<std::size_t>(t_.dim(mode_)) *
                 static_cast<std::size_t>(rank_) * sizeof(value_t);
    d_factors_.emplace(dev_.allocator(), factor_bytes);
    d_out_.emplace(dev_.allocator(), out_bytes_);

    pool_.reserve(static_cast<std::size_t>(cfg_.num_streams));
    for (int i = 0; i < cfg_.num_streams; ++i) {
      pool_.push_back(dev_.create_stream());
    }
    // Per-stream segment staging. Stealing can route any global
    // segment here, so size the staging by the global maximum then;
    // otherwise by the shard's own maximum (the PR 4 footprint).
    nnz_t max_seg = 0;
    int candidates = 0;
    if (cfg_.work_stealing) {
      for (const auto& s : segs_) {
        max_seg = std::max(max_seg, s.nnz());
        if (s.nnz() > 0) ++candidates;
      }
    } else {
      for (int i = sh_.seg_begin; i < sh_.seg_end; ++i) {
        max_seg = std::max(max_seg, segs_[static_cast<std::size_t>(i)].nnz());
        ++candidates;
      }
    }
    const std::size_t seg_bytes_cap =
        max_seg * (t_.order() * sizeof(index_t) + sizeof(value_t));
    const int resident = std::min(cfg_.num_streams, candidates);
    d_segs_.reserve(static_cast<std::size_t>(std::max(resident, 0)));
    for (int i = 0; i < resident; ++i) {
      d_segs_.emplace_back(dev_.allocator(), seg_bytes_cap);
    }

    const gpusim::StreamId s0 = pool_[0];
    dev_.memcpy_h2d(s0, factor_bytes, nullptr, "H2D factors");
    const gpusim::EventId ev_factors = dev_.record_event(s0);
    for (int i = 1; i < cfg_.num_streams; ++i) {
      dev_.wait_event(pool_[static_cast<std::size_t>(i)], ev_factors);
    }
  }

  /// Issue the segment's sim ops (timing only) and return the decision
  /// clock for the next issue: immediate while a staging slot is free,
  /// else the completion of the kernel that frees one.
  sim_ns issue(int seg_id, bool stolen) {
    prime();
    const Segment& seg = segs_[static_cast<std::size_t>(seg_id)];
    const CooSpan segment = t_.subspan(seg.begin, seg.end);
    // Own segments keep the PR 4 stream rotation (local segment
    // index); stolen ones continue rotating after the owned range.
    const int slot = stolen ? sh_.num_segments() + stolen_issued_++
                            : seg_id - sh_.seg_begin;
    const gpusim::StreamId s =
        pool_[static_cast<std::size_t>(slot % cfg_.num_streams)];
    dev_.memcpy_h2d(s, segment.bytes(), nullptr,
                    "H2D segment " + std::to_string(seg_id));
    const gpusim::LaunchConfig launch =
        stolen ? thief_launch(seg_id)
               : sp_.plan.launches[static_cast<std::size_t>(seg_id)];
    const TensorFeatures& feat = feats_[static_cast<std::size_t>(seg_id)];
    const gpusim::KernelProfile prof =
        mttkrp_profile(feat, rank_, cfg_.use_shared_mem);
    dev_.launch_kernel(s, launch, prof, nullptr,
                       "ScalFrag kernel seg " + std::to_string(seg_id));
    // Kernel completions are monotone per device (FIFO compute
    // engine), so now() is this kernel's end time.
    kernel_end_.push_back(dev_.now());
    const std::size_t issued = kernel_end_.size();
    const auto window = static_cast<std::size_t>(cfg_.num_streams);
    if (issued < window) return sched_.clock[static_cast<std::size_t>(d_)];
    return kernel_end_[issued - window];
  }

  /// The functional kernel body for `seg_id`, accumulated into
  /// `target` — run outside the scheduler lock.
  void exec(int seg_id, DenseMatrix& target) {
    const Segment& seg = segs_[static_cast<std::size_t>(seg_id)];
    const CooSpan segment = t_.subspan(seg.begin, seg.end);
    HostExecParams kexec = host_exec_;
    kexec.features = &feats_[static_cast<std::size_t>(seg_id)];
    mttkrp_exec(segment, factors_, mode_, target, kexec);
  }

  void finish() {
    if (!primed_) return;
    const gpusim::StreamId s0 = pool_[0];
    for (int i = 1; i < cfg_.num_streams; ++i) {
      dev_.wait_event(s0,
                      dev_.record_event(pool_[static_cast<std::size_t>(i)]));
    }
    dev_.memcpy_d2h(s0, out_bytes_, nullptr, "D2H partial output");
    makespan_ = dev_.synchronize();
  }

  const int d_;
  gpusim::SimDevice& dev_;
  const ShardPlan& sp_;
  const DeviceShard& sh_;
  const std::vector<Segment>& segs_;
  const std::vector<TensorFeatures>& feats_;
  const CooSpan& t_;
  const FactorList& factors_;
  const order_t mode_;
  const index_t rank_;
  const ExecConfig& cfg_;
  const HostExecParams& host_exec_;
  DenseMatrix* partial_;
  StealScheduler& sched_;

  std::vector<gpusim::StreamId> pool_;
  std::optional<gpusim::DeviceBuffer<char>> d_factors_;
  std::optional<gpusim::DeviceBuffer<char>> d_out_;
  std::vector<gpusim::DeviceBuffer<char>> d_segs_;
  std::vector<sim_ns> kernel_end_;
  std::size_t out_bytes_ = 0;
  int stolen_issued_ = 0;
  bool primed_ = false;
  sim_ns makespan_ = 0;
};

}  // namespace

MultiPipelineResult run_shard_plan(gpusim::DeviceGroup& group,
                                   const ShardPlan& plan, const CooSpan& t,
                                   const FactorList& factors,
                                   const ExecConfig& cfg) {
  const order_t mode = plan.plan.mode();
  const index_t rank = check_factors(t, factors);
  SF_CHECK(t.is_sorted_by_mode(mode),
           "multi-device pipeline requires mode-sorted input");
  CooSpan view = t;
  view.assume_sorted_by(mode);
  cfg.validate();
  SF_CHECK(cfg.num_devices == group.size(),
           "ExecConfig::devices must match the DeviceGroup size");
  SF_CHECK(static_cast<int>(plan.shards.size()) == group.size() &&
               plan.plan.partition.gpu_whole &&
               plan.plan.fits(view.nnz(), rank),
           "shard plan does not match this replay: it needs one shard per "
           "device of the group and the view and rank it was built for");

  MultiPipelineResult res;
  res.output = DenseMatrix(t.dim(mode), rank);
  res.plan = plan;
  res.pred_imbalance = plan.pred_time_imbalance();
  obs::MetricsRegistry* const met = cfg.metrics_sink;
  const HostExecParams host_exec = cfg.host_for_run();
  const int n_dev = group.size();
  const std::vector<Segment>& segs = plan.plan.segments.segments;

  res.devices.resize(static_cast<std::size_t>(n_dev));
  group.reset_timelines();

  // --- per-device pipelines, one driver thread each --------------------
  // The SimDevice simulators are independent, so the shard timelines
  // advance truly concurrently; the host engine under each functional
  // kernel is safe to enter from several driver threads at once.
  StealScheduler sched(n_dev);
  sched.stealable.assign(segs.size(), 1);
  {
    // A shared slice between consecutive non-empty segments pins both
    // to their owners (see StealScheduler::stealable).
    std::size_t prev = 0;
    bool have_prev = false;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      if (s.nnz() == 0) continue;
      if (have_prev && segs[prev].last_slice == s.first_slice) {
        sched.stealable[prev] = 0;
        sched.stealable[i] = 0;
      }
      prev = i;
      have_prev = true;
    }
  }
  std::vector<DenseMatrix> partials(static_cast<std::size_t>(n_dev));
  std::vector<std::unique_ptr<DeviceDriver>> drivers(
      static_cast<std::size_t>(n_dev));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n_dev));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_dev));
  for (int d = 0; d < n_dev; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const DeviceShard& sh = plan.shards[du];
    res.devices[du].device = d;
    // Queue only real segments: zero-nnz ones are not worth issuing or
    // stealing (PR 4 skipped them too).
    for (int i = sh.seg_begin; i < sh.seg_end; ++i) {
      if (segs[static_cast<std::size_t>(i)].nnz() > 0) {
        sched.queue[du].push_back(i);
      }
    }
    sched.remaining[du] = static_cast<double>(sh.predicted_ns);
    if (sh.empty() && !cfg.work_stealing) {
      // Nothing to run and no way to acquire work — not a live player.
      sched.done[du] = true;
      continue;
    }
    if (!sh.empty()) partials[du] = DenseMatrix(t.dim(mode), rank);
    drivers[du] = std::make_unique<DeviceDriver>(
        d, group.device(d), plan, view, factors, cfg,
        host_exec, sh.empty() ? nullptr : &partials[du], sched);
  }
  for (int d = 0; d < n_dev; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (!drivers[du]) continue;
    threads.emplace_back([&, d, du] {
      try {
        drivers[du]->run();
      } catch (...) {
        errors[du] = std::current_exception();
        std::lock_guard<std::mutex> lock(sched.mu);
        sched.done[du] = true;
        sched.cv.notify_all();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  res.steals = std::move(sched.steals);
  for (int d = 0; d < n_dev; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (!drivers[du]) continue;
    DeviceRunStats& st = res.devices[du];
    st.total_ns = drivers[du]->makespan();
    st.stolen_segments = drivers[du]->stolen_segments;
    st.stolen_nnz = drivers[du]->stolen_nnz;
    if (drivers[du]->executed()) {
      st.breakdown = group.device(d).breakdown();
    }
  }

  // --- deterministic reduction -----------------------------------------
  // Functional: stolen-segment scratches fold into the *owner's*
  // partial in ascending segment order (the owner's original execution
  // order), then partials sum in device order — both independent of
  // thread scheduling and bit-identical to the no-stealing run.
  // Simulated: contiguous mode-sorted shards own disjoint slice
  // ranges, so a shard's rows gather via its own D2H; only slices
  // split across a shard boundary need the cross-device collective.
  const index_t out_cols = res.output.cols();
  std::size_t boundary_rows = 0;
  std::vector<std::pair<int, int>> boundaries;  // (left dev, right dev)
  {
    const DeviceShard* prev = nullptr;
    for (const auto& sh : plan.shards) {
      if (sh.empty()) continue;
      if (prev != nullptr) {
        const auto& first = segs[static_cast<std::size_t>(sh.seg_begin)];
        const auto& last = segs[static_cast<std::size_t>(prev->seg_end - 1)];
        if (first.first_slice == last.last_slice) {
          ++boundary_rows;
          boundaries.emplace_back(prev->device, sh.device);
        }
      }
      prev = &sh;
    }
  }
  int active = 0;
  for (int d = 0; d < n_dev; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const DeviceShard& sh = plan.shards[du];
    if (sh.empty()) continue;
    ++active;
    DenseMatrix& p = partials[du];
    for (const auto& [seg_id, m] : sched.scratch) {
      if (seg_id < sh.seg_begin || seg_id >= sh.seg_end) continue;
      value_t* dst = p.data();
      const value_t* src = m.data();
      for (std::size_t i = 0; i < p.size(); ++i) dst[i] += src[i];
    }
    value_t* out = res.output.data();
    const value_t* in = p.data();
    for (std::size_t i = 0; i < p.size(); ++i) out[i] += in[i];
  }

  // Per-shard data-ready times: a shard's rows are complete when every
  // device that executed one of its segments has drained its timeline.
  std::vector<sim_ns> ready;
  for (const auto& st : res.devices) ready.push_back(st.total_ns);
  for (const auto& s : res.steals) {
    auto& r = ready[static_cast<std::size_t>(s.victim)];
    r = std::max(r,
                 res.devices[static_cast<std::size_t>(s.thief)].total_ns);
  }

  const std::size_t reduce_bytes =
      boundary_rows * static_cast<std::size_t>(out_cols) * sizeof(value_t);
  res.reduce_schedule = cfg.reduce_schedule
                            ? *cfg.reduce_schedule
                            : group.pick_schedule(reduce_bytes);
  for (const auto& st : res.devices) {
    res.compute_ns = std::max(res.compute_ns, st.total_ns);
  }
  const sim_ns barrier_reduce =
      (active > 1 && reduce_bytes > 0)
          ? group.reduce_ns(reduce_bytes, res.reduce_schedule)
          : 0;
  if (!cfg.overlap_reduction || barrier_reduce == 0) {
    // Barrier mode: the PR 4 accounting, one collective after the
    // slowest device.
    res.reduce_ns = barrier_reduce;
    res.total_ns = res.compute_ns + res.reduce_ns;
  } else {
    // Overlapped mode: each boundary row-block is one pairwise
    // exchange between the two shards that share the slice, chunks
    // serialize on the peer link, and each starts as soon as both
    // neighbours' timelines drained — the reduction rides the compute
    // tail instead of waiting for the global barrier.
    const std::size_t chunk_bytes =
        static_cast<std::size_t>(out_cols) * sizeof(value_t);
    sim_ns link_free = 0;
    sim_ns end_max = 0;
    sim_ns work = 0;
    for (const auto& [left, right] : boundaries) {
      const sim_ns cost = group.hop_ns(chunk_bytes);
      const sim_ns start =
          std::max({ready[static_cast<std::size_t>(left)],
                    ready[static_cast<std::size_t>(right)], link_free});
      link_free = start + cost;
      end_max = std::max(end_max, link_free);
      work += cost;
    }
    res.reduce_ns = work;
    res.total_ns = std::max(res.compute_ns, end_max);
    res.overlap_saved_ns = res.compute_ns + res.reduce_ns - res.total_ns;
  }

  // --- merged report ----------------------------------------------------
  if (met != nullptr) {
    met->count("multidev/runs");
    met->set("multidev/devices", static_cast<double>(n_dev));
    met->set("multidev/segments", static_cast<double>(segs.size()));
    met->set("multidev/compute_ns", static_cast<double>(res.compute_ns));
    met->set("multidev/reduce_ns", static_cast<double>(res.reduce_ns));
    met->set("multidev/total_ns", static_cast<double>(res.total_ns));
    met->set("multidev/reduce_bytes", static_cast<double>(reduce_bytes));
    met->set("multidev/boundary_rows", static_cast<double>(boundary_rows));
    met->set("multidev/imbalance", res.pred_imbalance);
    met->set("multidev/overlap_ns",
             static_cast<double>(res.overlap_saved_ns));
    met->count("multidev/steals", res.steals.size());
    met->set("multidev/max_shard_pred_ns",
             static_cast<double>(plan.max_shard_pred_ns()));
    met->set(std::string("multidev/reduce_schedule_") +
                 gpusim::reduce_schedule_name(res.reduce_schedule),
             1.0);
    for (int d = 0; d < n_dev; ++d) {
      const auto du = static_cast<std::size_t>(d);
      const auto& st = res.devices[du];
      const std::string prefix = "gpu" + std::to_string(d);
      met->set("multidev/" + prefix + "/nnz",
               static_cast<double>(plan.shards[du].nnz));
      met->set("multidev/" + prefix + "/makespan_ns",
               static_cast<double>(st.total_ns));
      met->set("multidev/" + prefix + "/stolen_segments",
               static_cast<double>(st.stolen_segments));
      if (st.total_ns > 0) {
        gpusim::record_timeline(group.device(d), *met, prefix);
      }
    }
  }
  return res;
}

MultiPipelineResult run_multi_pipeline(gpusim::DeviceGroup& group,
                                       const CooSpan& t,
                                       const FactorList& factors, order_t mode,
                                       const ExecConfig& cfg,
                                       const LaunchSelector* selector) {
  const index_t rank = check_factors(t, factors);
  const ShardPlan plan = make_shard_plan(group, t, mode, rank, cfg, selector);
  return run_shard_plan(group, plan, t, factors, cfg);
}

}  // namespace scalfrag
