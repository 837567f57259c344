#include "nn/optimizer.h"

#include <cassert>

#include "nn/optimizer_state.h"

namespace hetero::nn {

std::string to_string(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return "sgd";
    case OptimizerKind::kAdam:
      return "adam";
    case OptimizerKind::kAdamW:
      return "adamw";
    case OptimizerKind::kAdagrad:
      return "adagrad";
  }
  return "unknown";
}

std::optional<OptimizerKind> parse_optimizer_kind(const std::string& text) {
  if (text == "sgd") return OptimizerKind::kSgd;
  if (text == "adam") return OptimizerKind::kAdam;
  if (text == "adamw") return OptimizerKind::kAdamW;
  if (text == "adagrad") return OptimizerKind::kAdagrad;
  return std::nullopt;
}

std::optional<OptimizerKind> optimizer_kind_from_byte(std::uint8_t b) {
  if (b > static_cast<std::uint8_t>(OptimizerKind::kAdagrad)) {
    return std::nullopt;
  }
  return static_cast<OptimizerKind>(b);
}

namespace {

/// The fused SGD path: Model::apply_gradients IS the train_step update
/// (train_step == compute_gradients + apply_gradients), so routing through
/// this class is bit-identical to the fused step by construction.
/// Stateless; the step counter only feeds diagnostics and checkpoint
/// round-trips.
class SgdOptimizer final : public Optimizer {
 public:
  OptimizerKind kind() const override { return OptimizerKind::kSgd; }

  void apply(Model& model, const DeepWorkspace& ws, float lr,
             float weight_decay) override {
    model.apply_gradients(ws, lr, weight_decay);
    ++step_;
  }

  std::size_t num_slots() const override { return 0; }
  std::vector<std::span<float>> slot_views(std::size_t) override {
    assert(false && "sgd has no state slots");
    return {};
  }
  std::span<std::uint32_t> row_steps() override { return {}; }
  std::uint64_t step() const override { return step_; }
  void set_step(std::uint64_t step) override { step_ = step; }
  void reset_state() override { step_ = 0; }

 private:
  std::uint64_t step_ = 0;
};

}  // namespace

std::unique_ptr<Optimizer> Optimizer::make(const OptimizerConfig& cfg,
                                           Model& model) {
  switch (cfg.kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdOptimizer>();
    case OptimizerKind::kAdam:
      return detail::make_adam_optimizer(cfg, model, /*decoupled=*/false);
    case OptimizerKind::kAdamW:
      return detail::make_adam_optimizer(cfg, model, /*decoupled=*/true);
    case OptimizerKind::kAdagrad:
      return detail::make_adagrad_optimizer(cfg, model);
  }
  assert(false && "unknown optimizer kind");
  return std::make_unique<SgdOptimizer>();
}

}  // namespace hetero::nn
