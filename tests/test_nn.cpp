// The training step and evaluation of nn::DeepMlp on small shapes: the
// Model API's train/compute/apply split, weight decay, the virtual-GPU
// cost report, and the top-k evaluator. Parameter layout, gradient checks
// and golden pins live in test_deep_mlp.cpp and test_model_polymorphic.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/deep_mlp.h"
#include "nn/evaluate.h"
#include "sparse/csr.h"
#include "util/rng.h"

namespace hetero::nn {
namespace {

constexpr std::size_t kFeatures = 12;
constexpr std::size_t kHidden = 5;
constexpr std::size_t kClasses = 7;

DeepMlp::Config small_config(std::vector<std::size_t> hidden = {kHidden}) {
  DeepMlp::Config cfg;
  cfg.num_features = kFeatures;
  cfg.hidden = std::move(hidden);
  cfg.num_classes = kClasses;
  return cfg;
}

// The paper's model (one hidden layer) and a deeper stack.
const std::vector<std::vector<std::size_t>> kDepths = {{kHidden},
                                                       {kHidden, 4}};

// A one-hidden-layer model whose W1 maps feature f to hidden unit f and
// whose W2 lets hidden unit h vote for class vote(h) with weight 5.
template <typename Vote>
DeepMlp voting_model(std::size_t features, std::size_t classes, Vote vote) {
  DeepMlp::Config cfg;
  cfg.num_features = features;
  cfg.hidden = {features};
  cfg.num_classes = classes;
  DeepMlp model(cfg);
  const auto segs = model.segment_views();  // W1, b1, W2, b2
  for (std::size_t f = 0; f < features; ++f) segs[0][f * features + f] = 1.0f;
  for (std::size_t h = 0; h < features; ++h) {
    segs[2][h * classes + vote(h)] = 5.0f;
  }
  return model;
}

sparse::CsrMatrix make_batch_x(std::size_t rows, std::size_t cols,
                               util::Rng& rng, double density = 0.3) {
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        entries.push_back({static_cast<std::uint32_t>(c),
                           static_cast<float>(rng.uniform(0.1, 1.0))});
      }
    }
    if (entries.empty()) entries.push_back({0, 1.0f});
    b.add_row(std::move(entries));
  }
  return b.build();
}

sparse::CsrMatrix make_batch_y(std::size_t rows, std::size_t classes,
                               util::Rng& rng, std::size_t labels_per_row = 2) {
  sparse::CsrBuilder b(classes);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::uint32_t> labels;
    while (labels.size() < labels_per_row) {
      const auto c = static_cast<std::uint32_t>(rng.next_below(classes));
      if (std::find(labels.begin(), labels.end(), c) == labels.end()) {
        labels.push_back(c);
      }
    }
    b.add_indicator_row(std::move(labels));
  }
  return b.build();
}

TEST(TrainStep, TrainStepEqualsComputePlusApply) {
  for (const auto& hidden : kDepths) {
    util::Rng rng(5);
    DeepMlp a(small_config(hidden)), b(small_config(hidden));
    a.init(rng);
    b.from_flat(a.to_flat());
    const auto x = make_batch_x(4, kFeatures, rng);
    const auto y = make_batch_y(4, kClasses, rng);
    const auto wa = a.make_workspace();
    const auto wb = b.make_workspace();
    a.train_step(x, y, 0.1f, *wa);
    b.compute_gradients(x, y, *wb);
    b.apply_gradients(*wb, 0.1f);
    EXPECT_EQ(a.to_flat(), b.to_flat()) << "depth " << hidden.size();
  }
}

TEST(TrainStep, ComputeGradientsDoesNotTouchModel) {
  for (const auto& hidden : kDepths) {
    util::Rng rng(6);
    DeepMlp model(small_config(hidden));
    model.init(rng);
    const auto before = model.to_flat();
    const auto x = make_batch_x(4, kFeatures, rng);
    const auto y = make_batch_y(4, kClasses, rng);
    const auto ws = model.make_workspace();
    model.compute_gradients(x, y, *ws);
    EXPECT_EQ(model.to_flat(), before) << "depth " << hidden.size();
  }
}

TEST(TrainStep, StatsReportBatchShape) {
  util::Rng rng(8);
  DeepMlp model(small_config());
  model.init(rng);
  const auto x = make_batch_x(6, kFeatures, rng);
  const auto y = make_batch_y(6, kClasses, rng);
  const auto ws = model.make_workspace();
  const auto stats = model.train_step(x, y, 0.1f, *ws);
  EXPECT_EQ(stats.batch_size, 6u);
  EXPECT_EQ(stats.batch_nnz, x.nnz());
  EXPECT_GT(stats.loss, 0.0);
}

TEST(TrainStep, KernelDescriptorsCoverPipeline) {
  util::Rng rng(9);
  const auto x = make_batch_x(4, kFeatures, rng);
  for (const auto& hidden : kDepths) {
    const auto kernels = DeepMlp(small_config(hidden)).step_kernels(x);
    EXPECT_GE(kernels.size(), 10u);
    double total_flops = 0.0;
    int sparse_count = 0;
    for (const auto& k : kernels) {
      EXPECT_GE(k.flops, 0.0);
      EXPECT_GE(k.bytes, 0.0);
      total_flops += k.flops;
      sparse_count += k.sparse;
    }
    EXPECT_GT(total_flops, 0.0);
    EXPECT_EQ(sparse_count, 3);  // spmm fwd, spmm_t bwd, sparse update
  }
}

TEST(TrainStep, KernelFlopsScaleWithNnz) {
  const DeepMlp model(small_config());
  sparse::CsrBuilder b1(kFeatures), b2(kFeatures);
  b1.add_row({{0, 1.0f}});
  b2.add_row({{0, 1.0f}, {1, 1.0f}, {2, 1.0f}, {3, 1.0f}});
  const auto sparse_flops = [&](const sparse::CsrMatrix& x) {
    double f = 0.0;
    for (const auto& k : model.step_kernels(x)) {
      if (k.sparse) f += k.flops;
    }
    return f;
  };
  EXPECT_GT(sparse_flops(b2.build()), 2 * sparse_flops(b1.build()));
}

TEST(TrainStep, MemoryEstimateMonotoneInBatch) {
  for (const auto& hidden : kDepths) {
    const DeepMlp model(small_config(hidden));
    EXPECT_LT(model.step_memory_bytes(16, 10.0),
              model.step_memory_bytes(64, 10.0));
    EXPECT_LT(model.step_memory_bytes(16, 10.0),
              model.step_memory_bytes(16, 40.0));
  }
}

TEST(TrainStep, WeightDecayShrinksParameters) {
  util::Rng rng(21);
  DeepMlp with_decay(small_config()), without(small_config());
  with_decay.init(rng);
  without.from_flat(with_decay.to_flat());
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  const auto wa = with_decay.make_workspace();
  const auto wb = without.make_workspace();
  for (int i = 0; i < 10; ++i) {
    with_decay.train_step(x, y, 0.1f, *wa, /*weight_decay=*/0.1f);
    without.train_step(x, y, 0.1f, *wb);
  }
  EXPECT_LT(with_decay.l2_norm_per_parameter(),
            without.l2_norm_per_parameter());
}

TEST(TrainStep, ZeroWeightDecayIsNoOp) {
  util::Rng rng(22);
  DeepMlp a(small_config()), b(small_config());
  a.init(rng);
  b.from_flat(a.to_flat());
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  const auto wa = a.make_workspace();
  const auto wb = b.make_workspace();
  a.train_step(x, y, 0.1f, *wa, 0.0f);
  b.train_step(x, y, 0.1f, *wb);
  EXPECT_EQ(a.to_flat(), b.to_flat());
}

TEST(TrainStep, WeightDecayOnlyTouchedW1Rows) {
  for (const auto& hidden : kDepths) {
    util::Rng rng(23);
    DeepMlp model(small_config(hidden));
    model.init(rng);
    sparse::CsrBuilder bx(kFeatures);
    bx.add_row({{2, 1.0f}});
    const auto x = bx.build();
    const auto y = make_batch_y(1, kClasses, rng);
    const auto before = model.weights(0);
    const auto ws = model.make_workspace();
    model.train_step(x, y, 0.1f, *ws, 0.5f);
    // Untouched rows keep their exact values even with decay enabled.
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f == 2) continue;
      for (std::size_t h = 0; h < kHidden; ++h) {
        EXPECT_EQ(model.weights(0)(f, h), before(f, h)) << "row " << f;
      }
    }
  }
}

TEST(Evaluate, PerfectModelScoresFullAccuracy) {
  // Construct a model that maps feature f deterministically to class
  // f % classes, and a test set consistent with it.
  // Hidden h votes for class h % 4.
  const auto model = voting_model(8, 4, [](std::size_t h) { return h % 4; });

  sparse::CsrBuilder fx(8);
  sparse::CsrBuilder fy(4);
  for (std::uint32_t f = 0; f < 8; ++f) {
    fx.add_row({{f, 1.0f}});
    fy.add_indicator_row({f % 4});
  }
  sparse::LabeledDataset test{fx.build(), fy.build()};
  const auto result = evaluate(model, test);
  EXPECT_EQ(result.samples, 8u);
  EXPECT_DOUBLE_EQ(result.top1, 1.0);
  EXPECT_DOUBLE_EQ(result.top5, 1.0);
}

TEST(Evaluate, PrecisionAtKConsistency) {
  util::Rng rng(24);
  DeepMlp model(small_config());
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(60, kFeatures, rng),
                              make_batch_y(60, kClasses, rng, 3)};
  const auto r = evaluate(model, test);
  // P@1 == top1 by definition; precision can only dilute as k grows past
  // the number of true labels (3 here), so P@5 <= P@3 * (3/5)... at least
  // the weak bounds must hold.
  EXPECT_GE(r.p_at_3, 0.0);
  EXPECT_LE(r.p_at_3, 1.0);
  EXPECT_LE(r.p_at_5, r.p_at_3 + 1e-12);  // 3 labels cannot fill 5 slots
  EXPECT_GE(3.0 * r.p_at_3, r.top1 - 1e-12);  // top1 hit counts in p@3
}

TEST(Evaluate, PerfectModelPrecisionAtK) {
  // One true label per sample, perfectly ranked: P@1 = 1, P@3 = 1/3,
  // P@5 = 1/5.
  const auto model = voting_model(4, 8, [](std::size_t h) { return h; });
  sparse::CsrBuilder fx(4);
  sparse::CsrBuilder fy(8);
  for (std::uint32_t f = 0; f < 4; ++f) {
    fx.add_row({{f, 1.0f}});
    fy.add_indicator_row({f});
  }
  sparse::LabeledDataset test{fx.build(), fy.build()};
  const auto r = evaluate(model, test);
  EXPECT_DOUBLE_EQ(r.top1, 1.0);
  EXPECT_NEAR(r.p_at_3, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.p_at_5, 1.0 / 5.0, 1e-12);
}

TEST(Evaluate, Top5AtLeastTop1) {
  util::Rng rng(10);
  DeepMlp model(small_config());
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(50, kFeatures, rng),
                              make_batch_y(50, kClasses, rng)};
  const auto result = evaluate(model, test);
  EXPECT_GE(result.top5, result.top1);
  EXPECT_LE(result.top5, 1.0);
}

// Differential test: the partial-selection top-5 evaluator against a naive
// full-sort reference, over random models and datasets.
TEST(Evaluate, MatchesFullSortReference) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    util::Rng rng(seed);
    DeepMlp model(small_config());
    model.init(rng);
    sparse::LabeledDataset test{make_batch_x(40, kFeatures, rng),
                                make_batch_y(40, kClasses, rng, 2)};
    const auto fast = evaluate(model, test);

    // Reference: full forward + full sort per row.
    const auto ws = model.make_workspace();
    std::size_t top1 = 0, top5 = 0, p3 = 0, p5 = 0;
    for (std::size_t r = 0; r < 40; ++r) {
      const auto x = test.features.slice_rows(r, r + 1);
      const auto y = test.labels.slice_rows(r, r + 1);
      model.forward_loss(x, y, *ws);
      std::vector<std::pair<float, std::size_t>> scored;
      for (std::size_t c = 0; c < kClasses; ++c) {
        scored.push_back({ws->probs(0, c), c});
      }
      std::stable_sort(scored.begin(), scored.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      const auto is_true = [&](std::size_t c) {
        return test.labels.row_contains(r, static_cast<std::uint32_t>(c));
      };
      if (is_true(scored[0].second)) ++top1;
      bool any5 = false;
      for (std::size_t k = 0; k < 5; ++k) {
        if (is_true(scored[k].second)) {
          any5 = true;
          if (k < 3) ++p3;
          ++p5;
        }
      }
      if (any5) ++top5;
    }
    EXPECT_NEAR(fast.top1, top1 / 40.0, 1e-12) << seed;
    EXPECT_NEAR(fast.top5, top5 / 40.0, 1e-12) << seed;
    EXPECT_NEAR(fast.p_at_3, p3 / (3.0 * 40.0), 1e-12) << seed;
    EXPECT_NEAR(fast.p_at_5, p5 / (5.0 * 40.0), 1e-12) << seed;
  }
}

TEST(Evaluate, MaxSamplesLimits) {
  util::Rng rng(11);
  DeepMlp model(small_config());
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(50, kFeatures, rng),
                              make_batch_y(50, kClasses, rng)};
  EXPECT_EQ(evaluate(model, test, 10).samples, 10u);
  EXPECT_EQ(evaluate(model, test, 0).samples, 50u);
  EXPECT_EQ(evaluate(model, test, 500).samples, 50u);
}

}  // namespace
}  // namespace hetero::nn
