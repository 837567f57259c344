// The model type the training stack is written against.
//
// HeteroGPU trains one model family, the sparse-input MLP of the paper's
// Section V-A, at any depth: nn::DeepMlp (nn/deep_mlp.h), paired with its
// nn::DeepWorkspace. The runtime, the trainers, the fused merge kernels in
// core/merging, the sharded all-reduce, checkpointing, serving and the CLI
// name it nn::Model; every call on it is a direct call.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "nn/deep_mlp.h"

namespace hetero::nn {

using Model = DeepMlp;

/// Model families the runtime/CLI can instantiate (--model mlp|deep); both
/// build a DeepMlp.
enum class ModelKind { kMlp, kDeep };

std::string to_string(ModelKind kind);

/// Factory: builds a DeepMlp over the given architecture. kMlp requires
/// exactly one hidden width; kDeep accepts one or more. Throws
/// std::invalid_argument on an empty hidden list or a zero width.
std::unique_ptr<DeepMlp> make_model(ModelKind kind, std::size_t num_features,
                                    std::span<const std::size_t> hidden,
                                    std::size_t num_classes);

}  // namespace hetero::nn
