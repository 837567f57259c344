#include "nn/evaluate.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/ops.h"

namespace hetero::nn {

EvalResult evaluate(const Model& model, const sparse::LabeledDataset& test,
                    std::size_t max_samples, std::size_t eval_batch) {
  EvalResult result;
  const std::size_t n =
      max_samples == 0 ? test.num_samples()
                       : std::min(max_samples, test.num_samples());
  if (n == 0) return result;

  DeepWorkspace ws;
  const std::size_t c = model.info().num_classes;
  std::size_t top1_hits = 0, top5_hits = 0;
  std::size_t p3_hits = 0, p5_hits = 0;  // summed |top-k ∩ true|
  double loss = 0.0;

  for (std::size_t begin = 0; begin < n; begin += eval_batch) {
    const std::size_t end = std::min(begin + eval_batch, n);
    const auto x = test.features.slice_rows(begin, end);
    const auto y = test.labels.slice_rows(begin, end);
    loss += model.forward_loss(x, y, ws) * static_cast<double>(end - begin);

    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto labels = y.row_cols(r);
      if (labels.empty()) continue;
      const float* p = ws.probs.data() + r * c;

      // Top-5 by partial selection.
      std::size_t top_idx[5];
      float top_val[5];
      std::size_t filled = 0;
      for (std::size_t j = 0; j < c; ++j) {
        if (filled < 5) {
          top_idx[filled] = j;
          top_val[filled] = p[j];
          ++filled;
          // Keep the smallest at the end.
          for (std::size_t k = filled; k-- > 1;) {
            if (top_val[k] > top_val[k - 1]) {
              std::swap(top_val[k], top_val[k - 1]);
              std::swap(top_idx[k], top_idx[k - 1]);
            }
          }
        } else if (p[j] > top_val[4]) {
          top_val[4] = p[j];
          top_idx[4] = j;
          for (std::size_t k = 4; k-- > 0;) {
            if (top_val[k + 1] > top_val[k]) {
              std::swap(top_val[k + 1], top_val[k]);
              std::swap(top_idx[k + 1], top_idx[k]);
            } else {
              break;
            }
          }
        }
      }

      const auto is_true = [&](std::size_t cls) {
        return std::binary_search(labels.begin(), labels.end(),
                                  static_cast<std::uint32_t>(cls));
      };
      if (is_true(top_idx[0])) ++top1_hits;
      bool any_in_top5 = false;
      for (std::size_t k = 0; k < std::min<std::size_t>(5, filled); ++k) {
        if (is_true(top_idx[k])) {
          any_in_top5 = true;
          if (k < 3) ++p3_hits;
          ++p5_hits;
        }
      }
      if (any_in_top5) ++top5_hits;
    }
  }

  result.samples = n;
  result.top1 = static_cast<double>(top1_hits) / static_cast<double>(n);
  result.top5 = static_cast<double>(top5_hits) / static_cast<double>(n);
  result.p_at_3 = static_cast<double>(p3_hits) / (3.0 * static_cast<double>(n));
  result.p_at_5 = static_cast<double>(p5_hits) / (5.0 * static_cast<double>(n));
  result.loss = loss / static_cast<double>(n);
  return result;
}

}  // namespace hetero::nn
