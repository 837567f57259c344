// Layer replay for traced runs: the batches a traced training run stepped
// on are pushed again, one call at a time, through the sparse:: and tensor::
// kernels of an MLP training step and through the Model's forward,
// backward and apply calls, so each gets its own time per call.
#include <cstring>
#include <stdexcept>

#include "nn/evaluate.h"
#include "sparse/ops.h"
#include "sparse/sparse_gradient.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Accumulates wall time and call count for one kernel.
struct KernelTally {
  double us = 0.0;
  std::size_t calls = 0;

  template <typename F>
  void time(F&& f) {
    const auto t0 = Clock::now();
    f();
    us += seconds_since(t0) * 1e6;
    ++calls;
  }
  double per_call_us() const {
    return calls == 0 ? 0.0 : us / static_cast<double>(calls);
  }
};

tensor::Matrix matrix_from(std::span<const float> v, std::size_t rows,
                           std::size_t cols) {
  if (v.size() != rows * cols) {
    throw std::logic_error("replay: segment shape mismatch");
  }
  tensor::Matrix m(rows, cols);
  std::memcpy(m.data(), v.data(), v.size() * sizeof(float));
  return m;
}

}  // namespace

void replay_layers(const nn::Model& model,
                   const std::vector<CapturedBatch>& all,
                   const data::XmlDataset& dataset, std::size_t eval_samples,
                   Report& report) {
  const auto& info = model.info();
  if (info.hidden.size() != 1 || all.empty()) {
    throw std::logic_error("replay: expects a one-hidden-layer MLP and batches");
  }
  // At most kMaxBatches batches, evenly strided over the run: wide models
  // take tens of milliseconds per compute_gradients.
  constexpr std::size_t kMaxBatches = 160;
  const std::size_t stride = (all.size() + kMaxBatches - 1) / kMaxBatches;
  std::vector<const CapturedBatch*> batches;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    batches.push_back(&all[i]);
  }
  const std::size_t f = info.num_features;
  const std::size_t h = info.hidden.front();
  const std::size_t c = info.num_classes;

  // --- kernels: the MLP step's kernel sequence on the traced batches -------
  auto copy = model.clone();
  const auto segs = copy->segment_views();  // W1, b1, W2, b2
  const auto w1 = matrix_from(segs.at(0), f, h);
  const auto w2 = matrix_from(segs.at(2), h, c);
  const auto ctx = kernels::Context::serial();
  KernelTally spmm, spmm_t, gemm, gemm_a_bt, softmax, touched;
  double flops = 0.0, bytes = 0.0;
  tensor::Matrix hidden, logits, delta1;
  sparse::SparseGradient grad;
  std::vector<std::uint32_t> cols;
  for (const auto* bp : batches) {
    const auto& b = *bp;
    touched.time([&] { sparse::touched_columns(b.x, cols); });
    spmm.time([&] { sparse::spmm(b.x, w1, hidden, ctx); });
    gemm.time([&] { tensor::gemm(hidden, w2, logits, ctx); });
    softmax.time([&] { tensor::softmax_rows(logits); });
    gemm_a_bt.time([&] { tensor::gemm_a_bt(logits, w2, delta1, ctx); });
    grad.reset(b.x, h);
    spmm_t.time([&] { grad.accumulate_spmm_t(b.x, delta1, ctx); });
    flops += static_cast<double>(sparse::spmm_flops(b.x, h));
    bytes += static_cast<double>(sparse::spmm_bytes(b.x, h));
  }
  const std::pair<const char*, const KernelTally*> tallies[] = {
      {"spmm", &spmm},           {"spmm_t", &spmm_t},
      {"gemm", &gemm},           {"gemm_a_bt", &gemm_a_bt},
      {"softmax_rows", &softmax}, {"touched_columns", &touched}};
  for (const auto& [name, t] : tallies) {
    report.add(std::string("kernel.") + name + ".us", t->per_call_us(), "us");
    report.add(std::string("kernel.") + name + ".calls",
               static_cast<double>(t->calls), "count");
  }
  const double n = static_cast<double>(batches.size());
  report.add("kernel.spmm.flops", flops / n, "flop");
  report.add("kernel.spmm.bytes", bytes / n, "B");

  // --- nn: forward, backward and apply per step ----------------------------
  auto net = model.clone();
  auto ws = net->make_workspace();
  double fwd_us = 0.0, grad_us = 0.0, apply_us = 0.0;
  for (const auto* bp : batches) {
    const auto& b = *bp;
    auto t0 = Clock::now();
    net->forward_loss(b.x, b.y, *ws);
    fwd_us += seconds_since(t0) * 1e6;
    t0 = Clock::now();
    net->compute_gradients(b.x, b.y, *ws);
    grad_us += seconds_since(t0) * 1e6;
    t0 = Clock::now();
    net->apply_gradients(*ws, b.lr);
    apply_us += seconds_since(t0) * 1e6;
  }
  // compute_gradients runs its own forward pass; backward is the rest.
  report.add("nn.forward_us", fwd_us / n, "us");
  report.add("nn.backward_us", (grad_us - fwd_us) / n, "us");
  report.add("nn.apply_us", apply_us / n, "us");

  std::vector<double> eval_s;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    nn::evaluate(model, dataset.test, eval_samples);
    eval_s.push_back(seconds_since(t0));
  }
  report.add("nn.eval_s", median(eval_s), "s");
}

}  // namespace perfbench
