#pragma once
// Umbrella public header: everything an application needs to decompose
// sparse tensors with ScalFrag.
//
//   #include "scalfrag/scalfrag.hpp"
//
//   auto t = scalfrag::make_frostt_tensor("nips");
//   scalfrag::gpusim::SimDevice dev(scalfrag::gpusim::DeviceSpec::rtx3090());
//   scalfrag::AutoTuner tuner(dev.spec());
//   tuner.train();
//   auto selector = tuner.selector();
//   auto cfg = scalfrag::ExecConfig{}.backend("coo").rank(16);
//   auto model = scalfrag::cpd_als(t, cfg, &dev, &selector);
//
// The multi-tenant decomposition service (src/service/) is deliberately
// NOT pulled in here — include "service/service.hpp" explicitly and
// link sf_service when embedding the server.

#include "common/format.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_metrics.hpp"
#include "gpusim/trace.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/backend_registry.hpp"
#include "scalfrag/cpd.hpp"
#include "scalfrag/csf_plan.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/format_select.hpp"
#include "scalfrag/hybrid.hpp"
#include "scalfrag/kernel.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "scalfrag/pipeline.hpp"
#include "scalfrag/plan.hpp"
#include "scalfrag/segmenter.hpp"
#include "scalfrag/shard.hpp"
#include "scalfrag/streaming.hpp"
#include "scalfrag/tucker.hpp"
#include "gpusim/energy.hpp"
#include "tensor/csf.hpp"
#include "tensor/csf_tiled.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/external_sort.hpp"
#include "tensor/fcoo.hpp"
#include "tensor/features.hpp"
#include "tensor/generator.hpp"
#include "tensor/hicoo.hpp"
#include "tensor/io_stream.hpp"
#include "tensor/io_tns.hpp"
#include "tensor/linalg.hpp"
#include "tensor/mttkrp_ref.hpp"
#include "tensor/stats.hpp"
