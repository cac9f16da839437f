#include "lp/pricing.h"

#include <algorithm>
#include <cmath>

namespace vpart {

void DevexPricing::Reset(int num_cols) {
  weights_.assign(num_cols, 1.0);
}

void DevexPricing::UpdateOnPivot(
    const std::vector<std::pair<int, double>>& alpha_row, int entering,
    double alpha_q, int leaving) {
  if (alpha_q == 0.0) return;
  const double wq = weights_[entering];
  const double inv_sq = 1.0 / (alpha_q * alpha_q);
  double max_weight = 0.0;
  for (const auto& [j, a] : alpha_row) {
    const double candidate = a * a * inv_sq * wq;
    if (candidate > weights_[j]) weights_[j] = candidate;
    max_weight = std::max(max_weight, weights_[j]);
  }
  weights_[leaving] = std::max(wq * inv_sq, 1.0);
  if (std::max(max_weight, weights_[leaving]) > kResetThreshold) {
    ++resets_;
    std::fill(weights_.begin(), weights_.end(), 1.0);
  }
}

void DualSteepestEdgePricing::Reset(int num_rows) {
  weights_.assign(num_rows, 1.0);
}

void DualSteepestEdgePricing::UpdateOnPivot(const std::vector<double>& w,
                                            const std::vector<int>& nonzeros,
                                            int r, double alpha_r) {
  if (alpha_r == 0.0) return;
  const double gr = weights_[r];
  const double inv_sq = 1.0 / (alpha_r * alpha_r);
  double max_weight = 0.0;
  for (const int i : nonzeros) {
    if (i == r) continue;
    const double candidate = w[i] * w[i] * inv_sq * gr;
    if (candidate > weights_[i]) weights_[i] = candidate;
    max_weight = std::max(max_weight, weights_[i]);
  }
  weights_[r] = std::max(gr * inv_sq, 1.0);
  if (std::max(max_weight, weights_[r]) > kResetThreshold) {
    ++resets_;
    std::fill(weights_.begin(), weights_.end(), 1.0);
  }
}

}  // namespace vpart
