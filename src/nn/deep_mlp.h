// Sparse-input MLP of any depth: the framework's one model type. nn::Model
// (nn/model.h) names it for the runtime, trainers, merges, checkpoints and
// serving.
//
// sparse input (F) -> H1 -> ... -> Hk (ReLU) -> classes (C), softmax, with
// multi-label cross-entropy. With one hidden layer it is the paper's
// evaluation model, the SLIDE testbed's 3-layer MLP (Section V-A); the
// journal version trains deeper stacks on the same runtime. The math runs
// on the fast path: parallel kernels::Context-routed kernels, a
// touched-row SparseGradient for the sparse input layer, reused per-layer
// workspace buffers, and in-place segment_views for the sharded/delta
// merge.
//
// What the training stack relies on:
//   - segment_views() exposes the parameters as an ordered list of in-place
//     tensor views. Segment 0 is the sparse input layer, row-major
//     (info().input_rows() x info().input_cols()): the delta merge reduces
//     touched rows of that segment and applies the closed-form update to
//     the rest. Concatenating the segments defines the flat checkpoint /
//     all-reduce index space.
//   - compute_gradients/apply_gradients split so gradient-aggregating
//     trainers (sync SGD, CROSSBOW, parameter server) can stage gradients;
//     train_step fuses them for the replica-local trainers.
//   - The first-layer gradient is touched-row sparse: the workspace reports
//     the rows via touched_input_rows(), which is what feeds the
//     per-replica RowSet unions of the delta-aware merge.
//   - step_kernels/step_memory_bytes report the virtual-GPU cost of one
//     training step so the simulator charges depth- and nnz-dependent time.
//   - All math routes through the workspace's kernels::Context: serial by
//     default, n-way parallel when a ThreadPool is attached, bit-identical
//     either way (kernels partition output rows).
//
// The one-hidden-layer results (parameters, loss, gradients, virtual-GPU
// cost report) are pinned to golden values in tests/test_deep_mlp.cpp and
// tests/test_model_polymorphic.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sparse/csr.h"
#include "sparse/sparse_gradient.h"
#include "tensor/matrix.h"
#include "util/kernel_context.h"
#include "util/rng.h"

namespace hetero::nn {

struct DeepWorkspace;

struct StepStats {
  double loss = 0.0;           // mean cross-entropy over the batch
  std::size_t batch_size = 0;
  std::size_t batch_nnz = 0;
};

class DeepMlp {
 public:
  /// The architecture; info() and config() both return it.
  struct Config {
    std::size_t num_features = 0;            // input dimension (sparse rows)
    std::vector<std::size_t> hidden = {64};  // at least one hidden layer
    std::size_t num_classes = 0;

    std::size_t num_layers() const { return hidden.size() + 1; }
    std::size_t num_parameters() const;
    std::size_t num_bytes() const { return num_parameters() * sizeof(float); }
    /// Shape of the sparse input layer (segment 0 of segment_views()).
    std::size_t input_rows() const { return num_features; }
    std::size_t input_cols() const {
      return hidden.empty() ? 0 : hidden.front();
    }
    /// "FxH1x..xC".
    std::string shape() const;

    bool operator==(const Config&) const = default;
  };

  DeepMlp() = default;
  explicit DeepMlp(const Config& cfg);

  const Config& config() const { return cfg_; }
  const Config& info() const { return cfg_; }
  std::size_t num_parameters() const { return cfg_.num_parameters(); }
  std::size_t num_bytes() const { return cfg_.num_bytes(); }

  /// Weights ~ N(0, 1/sqrt(fan_in)), biases zero. All replicas start from
  /// one init + broadcast (paper methodology).
  void init(util::Rng& rng);

  /// Heap copy, for holders of std::unique_ptr<nn::Model> (perfbench,
  /// tests); the runtime copies by value.
  std::unique_ptr<DeepMlp> clone() const {
    return std::make_unique<DeepMlp>(*this);
  }

  /// Copies parameters from `other` in place, without reallocating: the
  /// broadcast primitive that refreshes replicas from the global model.
  /// Throws std::invalid_argument unless both have the same layer list.
  void copy_from(const DeepMlp& other);

  /// A fresh workspace on the heap; the first step sizes its buffers.
  std::unique_ptr<DeepWorkspace> make_workspace() const;

  /// Flat order: W0,b0,W1,b1,...,W_{L-1},b_{L-1} (layer 0 = sparse input).
  /// Checkpoints and diagnostics only; not on the training path.
  std::vector<float> to_flat() const;
  void from_flat(std::span<const float> flat);

  /// In-place parameter views: one [weights, biases] pair per layer, in
  /// flat order. Segment 0 is the sparse F x H1 input layer the delta
  /// merge reduces by touched rows. Views stay valid while the model lives.
  std::vector<std::span<float>> segment_views();

  /// L2 norm over all parameters / parameter count (Algorithm 2 gate).
  double l2_norm_per_parameter() const;

  /// Squared L2 distance to a model of the same architecture
  /// (test/diagnostic helper; allocates flats).
  double squared_distance(const DeepMlp& other) const;

  // --- training ------------------------------------------------------------

  /// Forward + backward + update with learning rate `lr`. The workspace
  /// keeps the step's gradients (and their touched_input_rows) until the
  /// next step.
  StepStats train_step(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                       float lr, DeepWorkspace& ws, float weight_decay = 0.0f);

  /// Forward + backward only: gradients stay in `ws`, the model is not
  /// touched.
  StepStats compute_gradients(const sparse::CsrMatrix& x,
                              const sparse::CsrMatrix& y,
                              DeepWorkspace& ws) const;

  /// Applies the gradients staged in `ws` with learning rate `lr`. Sparse
  /// first layer: only the touched rows carry gradient (and decay).
  void apply_gradients(const DeepWorkspace& ws, float lr,
                       float weight_decay = 0.0f);

  /// Forward + loss only (no gradients); probs are left in ws.probs.
  double forward_loss(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                      DeepWorkspace& ws) const;

  // --- virtual-GPU cost reporting ------------------------------------------

  /// Kernel sequence a GPU would launch for one train_step on this batch.
  std::vector<sim::KernelDesc> step_kernels(const sparse::CsrMatrix& x) const;

  /// Device memory footprint of one step's transient state (activations,
  /// deltas, gradients, batch CSR) for the given batch shape.
  std::size_t step_memory_bytes(std::size_t batch_size, double avg_nnz) const;

  /// Layer weight matrices / biases (layer 0 is the sparse input layer).
  const tensor::Matrix& weights(std::size_t layer) const {
    return weights_[layer];
  }
  const std::vector<float>& biases(std::size_t layer) const {
    return biases_[layer];
  }

 private:
  /// Forward into ws (probs end in ws.probs); returns mean CE loss.
  double forward_impl(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                      DeepWorkspace& ws) const;

  Config cfg_{0, {}, 0};  // no layers until constructed from a Config
  std::vector<tensor::Matrix> weights_;     // per layer
  std::vector<std::vector<float>> biases_;  // per layer
};

/// Per-replica scratch state for DeepMlp's training steps: per-layer
/// activation/delta buffers plus the per-layer gradients. The sparse input
/// layer's gradient is a touched-row SparseGradient keyed per batch (no
/// O(F x H1) dense buffer); dense-layer gradients are reused matrices. All
/// buffers persist across steps, so steady-state training does no
/// per-batch allocation.
struct DeepWorkspace {
  /// Softmax output of the last forward pass (batch x num_classes). Written
  /// by forward_loss/compute_gradients; read by evaluation.
  tensor::Matrix probs;

  /// Kernel execution backend: serial by default; point at a ThreadPool
  /// (kernels::Context{&pool, n}) for n-way parallel kernels. Threaded
  /// results are bit-identical to serial.
  kernels::Context ctx;

  // Indexed by hidden layer (0 .. num_hidden-1); the output layer's
  // activations live in `probs`.
  std::vector<tensor::Matrix> pre;     // batch x H_l, pre-activation
  std::vector<tensor::Matrix> acts;    // batch x H_l, post-ReLU
  // Indexed by layer (0 .. num_layers-1); deltas.back() is batch x C.
  std::vector<tensor::Matrix> deltas;

  sparse::SparseGradient grad_w1;      // touched rows of F x H1
  std::vector<tensor::Matrix> grad_w;  // dense layers 1..L-1 (index l-1)
  std::vector<std::vector<float>> grad_b;  // all layers

  void ensure(const DeepMlp::Config& cfg);

  /// Sorted logical rows of the sparse input layer touched by the gradient
  /// currently held here (valid until the next compute_gradients). Feeds
  /// the delta-merge RowSet unions.
  std::span<const std::uint32_t> touched_input_rows() const {
    return grad_w1.rows();
  }

  /// Swaps the gradient tensors with `other`. Gradient-aggregating
  /// trainers stage per-batch gradients this way without copying, leaving
  /// both workspaces reusable.
  void swap_gradients(DeepWorkspace& other);

  /// Read-only views of the gradients staged by the last compute_gradients,
  /// aligned with DeepMlp::segment_views(): `input` is the touched-row
  /// sparse gradient of segment 0, `dense` holds one flat span per
  /// remaining segment, in segment order [b0, W1, b1, ...]. The optimizers
  /// walk these like parameter segments.
  struct GradientViews {
    const sparse::SparseGradient* input = nullptr;
    std::vector<std::span<const float>> dense;
  };
  GradientViews gradient_views() const;
};

}  // namespace hetero::nn
