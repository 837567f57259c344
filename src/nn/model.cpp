#include "nn/model.h"

#include <stdexcept>

namespace hetero::nn {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMlp:
      return "mlp";
    case ModelKind::kDeep:
      return "deep";
  }
  return "unknown";
}

std::unique_ptr<DeepMlp> make_model(ModelKind kind, std::size_t num_features,
                                    std::span<const std::size_t> hidden,
                                    std::size_t num_classes) {
  if (hidden.empty()) {
    throw std::invalid_argument("model requires at least one hidden layer");
  }
  for (std::size_t h : hidden) {
    if (h == 0) {
      throw std::invalid_argument("hidden layer sizes must be positive");
    }
  }
  if (kind == ModelKind::kMlp && hidden.size() != 1) {
    throw std::invalid_argument(
        "--model mlp takes exactly one hidden width (use --model deep "
        "for multi-layer architectures)");
  }
  DeepMlp::Config cfg;
  cfg.num_features = num_features;
  cfg.hidden.assign(hidden.begin(), hidden.end());
  cfg.num_classes = num_classes;
  return std::make_unique<DeepMlp>(cfg);
}

}  // namespace hetero::nn
