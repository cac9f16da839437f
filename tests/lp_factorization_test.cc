// Unit suite for the sparse LU basis factorization (lp/factorization.h):
// FTRAN/BTRAN parity against a dense inverse on randomized bases,
// singular/ill-conditioned rejection and recovery, Forrest–Tomlin update
// correctness under forced growth, and the refactorization triggers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/factorization.h"
#include "util/rng.h"

namespace vpart {
namespace {

/// Column-major sparse matrix builder producing the CSC triplet the
/// factorization consumes (mirrors SimplexSolver's layout).
struct Csc {
  std::vector<int> col_start{0};
  std::vector<int> row_index;
  std::vector<double> value;

  void AddColumn(const std::vector<std::pair<int, double>>& entries) {
    for (const auto& [i, v] : entries) {
      row_index.push_back(i);
      value.push_back(v);
    }
    col_start.push_back(static_cast<int>(row_index.size()));
  }
  int num_cols() const { return static_cast<int>(col_start.size()) - 1; }
};

/// Dense Gaussian elimination with partial pivoting; the ground truth the
/// sparse factorization is checked against.
class DenseSolver {
 public:
  /// Builds the dense m x m basis matrix from CSC columns. Returns false
  /// when dense elimination meets a pivot below `min_pivot` (singular, or
  /// too ill-conditioned for the caller's tolerance).
  bool Factorize(const Csc& csc, const std::vector<int>& basis, int m,
                 double min_pivot = 1e-12) {
    m_ = m;
    a_.assign(m * m, 0.0);
    perm_.resize(m);
    for (int k = 0; k < m; ++k) {
      const int j = basis[k];
      for (int idx = csc.col_start[j]; idx < csc.col_start[j + 1]; ++idx) {
        a_[csc.row_index[idx] * m + k] = csc.value[idx];
      }
    }
    for (int i = 0; i < m; ++i) perm_[i] = i;
    for (int col = 0; col < m; ++col) {
      int pivot = col;
      for (int i = col + 1; i < m; ++i) {
        if (std::abs(a_[perm_[i] * m_ + col]) >
            std::abs(a_[perm_[pivot] * m_ + col])) {
          pivot = i;
        }
      }
      std::swap(perm_[col], perm_[pivot]);
      const double p = a_[perm_[col] * m_ + col];
      if (std::abs(p) < min_pivot) return false;
      for (int i = col + 1; i < m; ++i) {
        const double f = a_[perm_[i] * m_ + col] / p;
        a_[perm_[i] * m_ + col] = f;  // store the multiplier in place
        for (int j = col + 1; j < m; ++j) {
          a_[perm_[i] * m_ + j] -= f * a_[perm_[col] * m_ + j];
        }
      }
    }
    return true;
  }

  /// x := A^{-1} b (row-space input, position-space output).
  std::vector<double> Solve(const std::vector<double>& b) const {
    std::vector<double> y(m_);
    for (int i = 0; i < m_; ++i) {
      double acc = b[perm_[i]];
      for (int j = 0; j < i; ++j) acc -= a_[perm_[i] * m_ + j] * y[j];
      y[i] = acc;
    }
    std::vector<double> x(m_);
    for (int i = m_ - 1; i >= 0; --i) {
      double acc = y[i];
      for (int j = i + 1; j < m_; ++j) acc -= a_[perm_[i] * m_ + j] * x[j];
      x[i] = acc / a_[perm_[i] * m_ + i];
    }
    return x;
  }

  /// x := A^{-T} c (position-space input, row-space output), via solving
  /// with the explicit transpose (rebuilt densely — test-only code).
  std::vector<double> SolveTranspose(const Csc& csc,
                                     const std::vector<int>& basis,
                                     const std::vector<double>& c) const {
    // Build B^T densely and eliminate it from scratch.
    DenseSolver t;
    t.m_ = m_;
    t.a_.assign(m_ * m_, 0.0);
    t.perm_.resize(m_);
    for (int k = 0; k < m_; ++k) {
      const int j = basis[k];
      for (int idx = csc.col_start[j]; idx < csc.col_start[j + 1]; ++idx) {
        t.a_[k * m_ + csc.row_index[idx]] = csc.value[idx];
      }
    }
    for (int i = 0; i < m_; ++i) t.perm_[i] = i;
    for (int col = 0; col < m_; ++col) {
      int pivot = col;
      for (int i = col + 1; i < m_; ++i) {
        if (std::abs(t.a_[t.perm_[i] * m_ + col]) >
            std::abs(t.a_[t.perm_[pivot] * m_ + col])) {
          pivot = i;
        }
      }
      std::swap(t.perm_[col], t.perm_[pivot]);
      const double p = t.a_[t.perm_[col] * m_ + col];
      for (int i = col + 1; i < m_; ++i) {
        const double f = t.a_[t.perm_[i] * m_ + col] / p;
        t.a_[t.perm_[i] * m_ + col] = f;
        for (int j = col + 1; j < m_; ++j) {
          t.a_[t.perm_[i] * m_ + j] -= f * t.a_[t.perm_[col] * m_ + j];
        }
      }
    }
    return t.Solve(c);
  }

 private:
  int m_ = 0;
  std::vector<double> a_;
  std::vector<int> perm_;
};

/// Random sparse m x m-ish CSC pool with `cols` columns; diagonal-ish
/// structure plus noise keeps random bases mostly nonsingular.
Csc RandomPool(Rng& rng, int m, int cols) {
  Csc csc;
  for (int j = 0; j < cols; ++j) {
    std::vector<std::pair<int, double>> entries;
    const int anchor = static_cast<int>(rng.NextBounded(m));
    entries.emplace_back(anchor, 1.0 + rng.NextDouble() * 3);
    for (int i = 0; i < m; ++i) {
      if (i != anchor && rng.NextBool(0.25)) {
        entries.emplace_back(i, rng.NextDouble() * 4 - 2);
      }
    }
    csc.AddColumn(entries);
  }
  return csc;
}

std::vector<double> RandomVector(Rng& rng, int m) {
  std::vector<double> v(m);
  for (double& x : v) x = rng.NextDouble() * 10 - 5;
  return v;
}

void ExpectVectorNear(const std::vector<double>& got,
                      const std::vector<double>& want, double tol,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol * (1.0 + std::abs(want[i])))
        << where << " [" << i << "]";
  }
}

TEST(LuFactorizationTest, FtranBtranMatchDenseInverseOnRandomBases) {
  Rng rng(4242);
  int factored = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(30));
    Csc csc = RandomPool(rng, m, m);
    std::vector<int> basis(m);
    for (int k = 0; k < m; ++k) basis[k] = k;

    DenseSolver dense;
    if (!dense.Factorize(csc, basis, m)) continue;  // singular draw
    LuFactorization lu;
    ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value, basis,
                             m))
        << "trial " << trial;
    ++factored;

    for (int probe = 0; probe < 3; ++probe) {
      std::vector<double> b = RandomVector(rng, m);
      std::vector<double> x = b;
      lu.Ftran(x);
      ExpectVectorNear(x, dense.Solve(b), 1e-8,
                       "ftran trial " + std::to_string(trial));

      std::vector<double> c = RandomVector(rng, m);
      std::vector<double> pi = c;
      lu.Btran(pi);
      ExpectVectorNear(pi, dense.SolveTranspose(csc, basis, c), 1e-8,
                       "btran trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(factored, 40);  // singular draws must stay the exception
}

TEST(LuFactorizationTest, SingularBasisIsRejected) {
  // Two identical columns: structurally singular.
  Csc csc;
  csc.AddColumn({{0, 1.0}, {1, 2.0}});
  csc.AddColumn({{0, 1.0}, {1, 2.0}});
  LuFactorization lu;
  EXPECT_FALSE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, {0, 1}, 2));
  EXPECT_FALSE(lu.valid());

  // An empty column is structurally singular too.
  Csc empty_col;
  empty_col.AddColumn({{0, 1.0}});
  empty_col.AddColumn({});
  EXPECT_FALSE(lu.Factorize(empty_col.col_start, empty_col.row_index,
                            empty_col.value, {0, 1}, 2));
}

TEST(LuFactorizationTest, NearSingularBasisIsRejectedNotGarbage) {
  // Second column nearly parallel to the first: the elimination leaves a
  // residual below pivot_tol, which must be reported as singular rather
  // than divided by.
  Csc csc;
  csc.AddColumn({{0, 1.0}, {1, 1.0}});
  csc.AddColumn({{0, 1.0}, {1, 1.0 + 1e-12}});
  LuFactorization lu;
  EXPECT_FALSE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, {0, 1}, 2));
  EXPECT_FALSE(lu.valid());

  // Recovery: the same object factorizes a well-conditioned basis next.
  Csc good;
  good.AddColumn({{0, 1.0}});
  good.AddColumn({{1, 1.0}});
  EXPECT_TRUE(
      lu.Factorize(good.col_start, good.row_index, good.value, {0, 1}, 2));
  EXPECT_TRUE(lu.valid());
}

// Forrest–Tomlin updates against a freshly factorized (and dense) ground
// truth after every column replacement, across enough updates to force
// row-eta growth and pivot-order churn.
TEST(LuFactorizationTest, ForrestTomlinUpdatesTrackColumnReplacements) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 4 + static_cast<int>(rng.NextBounded(20));
    Csc csc = RandomPool(rng, m, 3 * m);
    std::vector<int> basis(m);
    for (int k = 0; k < m; ++k) basis[k] = k;

    DenseSolver dense;
    if (!dense.Factorize(csc, basis, m)) continue;
    LuFactorization::Options options;
    options.refactor_interval = 1 << 20;  // never trigger on count here
    options.fill_ratio = 1e9;
    LuFactorization lu(options);
    ASSERT_TRUE(
        lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));

    int applied = 0;
    for (int change = 0; change < 2 * m; ++change) {
      const int pos = static_cast<int>(rng.NextBounded(m));
      const int entering =
          m + static_cast<int>(rng.NextBounded(csc.num_cols() - m));
      std::vector<int> new_basis = basis;
      new_basis[pos] = entering;
      DenseSolver new_dense;
      if (!new_dense.Factorize(csc, new_basis, m)) continue;  // singular
      if (!lu.Update(csc.col_start, csc.row_index, csc.value, entering,
                     pos)) {
        // Stability rejection: refactorize and continue, like the solver.
        ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                                 new_basis, m));
      } else {
        ++applied;
      }
      basis = new_basis;
      dense = new_dense;

      std::vector<double> b = RandomVector(rng, m);
      std::vector<double> x = b;
      lu.Ftran(x);
      ExpectVectorNear(x, dense.Solve(b), 1e-6,
                       "ftran t" + std::to_string(trial) + " c" +
                           std::to_string(change));
      std::vector<double> c = RandomVector(rng, m);
      std::vector<double> pi = c;
      lu.Btran(pi);
      ExpectVectorNear(pi, dense.SolveTranspose(csc, basis, c), 1e-6,
                       "btran t" + std::to_string(trial) + " c" +
                           std::to_string(change));
    }
    EXPECT_GT(applied, 0) << "trial " << trial;
    EXPECT_EQ(lu.stats().ft_updates, applied) << "trial " << trial;
  }
}

TEST(LuFactorizationTest, RefactorizationTriggersFireAndAreCounted) {
  Rng rng(31);
  const int m = 12;
  Csc csc = RandomPool(rng, m, 4 * m);
  std::vector<int> basis(m);
  for (int k = 0; k < m; ++k) basis[k] = k;
  DenseSolver dense;
  ASSERT_TRUE(dense.Factorize(csc, basis, m));

  LuFactorization::Options options;
  options.refactor_interval = 4;
  LuFactorization lu(options);
  ASSERT_TRUE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  EXPECT_FALSE(lu.NeedsRefactorization());

  int applied = 0;
  for (int change = 0; applied < 4 && change < 200; ++change) {
    const int pos = static_cast<int>(rng.NextBounded(m));
    const int entering =
        m + static_cast<int>(rng.NextBounded(csc.num_cols() - m));
    std::vector<int> new_basis = basis;
    new_basis[pos] = entering;
    DenseSolver probe;
    if (!probe.Factorize(csc, new_basis, m)) continue;
    if (lu.Update(csc.col_start, csc.row_index, csc.value, entering, pos)) {
      basis = new_basis;
      ++applied;
    } else {
      ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                               basis, m));
    }
  }
  ASSERT_EQ(applied, 4);
  EXPECT_TRUE(lu.NeedsRefactorization());
  EXPECT_GE(lu.stats().refactor_updates, 1);
  ASSERT_TRUE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  EXPECT_EQ(lu.updates_since_factorize(), 0);
  EXPECT_FALSE(lu.NeedsRefactorization());
}

/// Pool of the m unit slack columns e_0..e_{m-1} (entry exactly 1.0, as
/// the simplex's logicals), followed by `structurals` random sparse
/// columns with a mix of ±1 and general entries, as in the eq.-(7) models.
Csc SlackHeavyPool(Rng& rng, int m, int structurals) {
  Csc csc;
  for (int i = 0; i < m; ++i) csc.AddColumn({{i, 1.0}});
  for (int j = 0; j < structurals; ++j) {
    std::vector<std::pair<int, double>> entries;
    const int anchor = static_cast<int>(rng.NextBounded(m));
    entries.emplace_back(anchor, rng.NextBool(0.5) ? 1.0
                                                   : 1.0 + rng.NextDouble());
    for (int i = 0; i < m; ++i) {
      if (i != anchor && rng.NextBool(0.15)) {
        entries.emplace_back(i, rng.NextBool(0.5) ? -1.0
                                                  : rng.NextDouble() * 2 - 1);
      }
    }
    csc.AddColumn(entries);
  }
  return csc;
}

void ExpectSolvesMatchDense(Rng& rng, const LuFactorization& lu,
                            const DenseSolver& dense, const Csc& csc,
                            const std::vector<int>& basis,
                            const std::string& where) {
  const int m = static_cast<int>(basis.size());
  std::vector<double> b = RandomVector(rng, m);
  std::vector<double> x = b;
  lu.Ftran(x);
  ExpectVectorNear(x, dense.Solve(b), 1e-7, "ftran " + where);
  std::vector<double> c = RandomVector(rng, m);
  std::vector<double> pi = c;
  lu.Btran(pi);
  ExpectVectorNear(pi, dense.SolveTranspose(csc, basis, c), 1e-7,
                   "btran " + where);
}

// Most positions hold unit slack columns, so most elimination steps record
// identity etas (which the factorization counts but does not store) and
// most U columns stay empty. Forrest–Tomlin updates then swap structural
// columns in for slacks and slacks back in for structurals.
TEST(LuFactorizationTest, SlackHeavyBasesMatchDenseAcrossSlackSwaps) {
  Rng rng(2718);
  int slack_out = 0, slack_in = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int m = 6 + static_cast<int>(rng.NextBounded(40));
    const Csc csc = SlackHeavyPool(rng, m, m);
    std::vector<int> basis(m);
    std::vector<uint8_t> basic(csc.num_cols(), 0);
    for (int k = 0; k < m; ++k) basis[k] = k;
    // About a quarter of the positions start structural.
    for (int k = 0; k < m; ++k) {
      if (!rng.NextBool(0.25)) continue;
      const int j = m + static_cast<int>(rng.NextBounded(m));
      if (!basic[j]) {
        std::vector<int> trial_basis = basis;
        trial_basis[k] = j;
        DenseSolver probe;
        if (probe.Factorize(csc, trial_basis, m, 0.05)) {
          basis = trial_basis;
          basic[j] = 1;
        }
      }
    }
    for (int j : basis) basic[j] = 1;

    DenseSolver dense;
    ASSERT_TRUE(dense.Factorize(csc, basis, m)) << "trial " << trial;
    LuFactorization::Options options;
    options.refactor_interval = 1 << 20;
    options.fill_ratio = 1e9;
    LuFactorization lu(options);
    ASSERT_TRUE(
        lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
    ExpectSolvesMatchDense(rng, lu, dense, csc, basis,
                           "fresh t" + std::to_string(trial));

    for (int change = 0; change < 3 * m; ++change) {
      const int pos = static_cast<int>(rng.NextBounded(m));
      const bool pos_is_slack = basis[pos] < m;
      // Slack position: bring a structural in. Structural position: bring
      // a slack back (any nonbasic one).
      const int entering =
          pos_is_slack ? m + static_cast<int>(rng.NextBounded(m))
                       : static_cast<int>(rng.NextBounded(m));
      if (basic[entering]) continue;
      std::vector<int> new_basis = basis;
      new_basis[pos] = entering;
      // Swaps into (near-)singular bases are skipped: they test the
      // dense reference's conditioning, not the factorization.
      DenseSolver new_dense;
      if (!new_dense.Factorize(csc, new_basis, m, 0.05)) continue;
      if (!lu.Update(csc.col_start, csc.row_index, csc.value, entering,
                     pos)) {
        ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                                 new_basis, m));
      } else {
        ++(pos_is_slack ? slack_out : slack_in);
      }
      basic[basis[pos]] = 0;
      basic[entering] = 1;
      basis = new_basis;
      dense = new_dense;
      ExpectSolvesMatchDense(rng, lu, dense, csc, basis,
                             "t" + std::to_string(trial) + " c" +
                                 std::to_string(change));
    }
  }
  EXPECT_GT(slack_out, 100);
  EXPECT_GT(slack_in, 100);
}

// factor_nonzeros() = m diagonals + every L and row eta's entries plus one
// (identity etas included, though they are not stored) + U's off-diagonal
// entries. Worked by hand on a 6-row slack basis: a structural column
// enters, a second one forces a row eta, and a slack swaps back in.
TEST(LuFactorizationTest, FactorNonzerosCountIdentityEtasAndTrackUpdates) {
  const int m = 6;
  Csc csc;
  for (int i = 0; i < m; ++i) csc.AddColumn({{i, 1.0}});
  csc.AddColumn({{1, 2.0}, {3, 1.0}, {4, -1.0}});  // column 6
  csc.AddColumn({{1, 1.0}, {3, 3.0}, {5, 1.0}});   // column 7
  std::vector<int> basis = {0, 1, 2, 3, 4, 5};
  LuFactorization lu;
  ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  // Six diagonals and six identity etas (0 entries + 1 each); U is empty.
  EXPECT_EQ(lu.factor_nonzeros(), 2 * m);

  Rng rng(5);
  DenseSolver dense;
  // Column 6 replaces slack 1: the spike is the column itself; its two
  // off-diagonal entries join U. No row eta (row 1 of U is empty).
  ASSERT_TRUE(lu.Update(csc.col_start, csc.row_index, csc.value, 6, 1));
  basis[1] = 6;
  EXPECT_EQ(lu.factor_nonzeros(), 2 * m + 2);
  ASSERT_TRUE(dense.Factorize(csc, basis, m));
  ExpectSolvesMatchDense(rng, lu, dense, csc, basis, "structural in");

  // Column 7 replaces slack 3: U's row 3 entry (in column 6) is detached
  // (-1) and eliminated into a one-entry row eta (+2); the spike adds two
  // entries (+2).
  ASSERT_TRUE(lu.Update(csc.col_start, csc.row_index, csc.value, 7, 3));
  basis[3] = 7;
  EXPECT_EQ(lu.factor_nonzeros(), 2 * m + 5);
  ASSERT_TRUE(dense.Factorize(csc, basis, m));
  ExpectSolvesMatchDense(rng, lu, dense, csc, basis, "row eta");

  // Slack 1 swaps back in for column 6: the leaving column's remaining
  // entry (-1) and U's row 1 entry (-1) go, a one-entry row eta comes
  // (+2), and the spike L⁻¹e_1 has one off-diagonal entry (+1).
  ASSERT_TRUE(lu.Update(csc.col_start, csc.row_index, csc.value, 1, 1));
  basis[1] = 1;
  EXPECT_EQ(lu.factor_nonzeros(), 2 * m + 6);
  ASSERT_TRUE(dense.Factorize(csc, basis, m));
  ExpectSolvesMatchDense(rng, lu, dense, csc, basis, "slack in");
  EXPECT_EQ(lu.stats().ft_updates, 3);
}

// The fill trigger compares against the fresh factorization's count, which
// includes the identity etas: on a 24-row slack basis with fill_ratio 1.5 it
// must fire on the 10th update (each adds 5 U entries: 48 + 5k > 1.5·48 +
// 24), not the 8th it would reach if identity etas went uncounted.
TEST(LuFactorizationTest, FillTriggerCountsIdentityEtas) {
  const int m = 24;
  const int replaceable = 16;  // rows 16..23 only ever hold U entries
  Csc csc;
  for (int i = 0; i < m; ++i) csc.AddColumn({{i, 1.0}});
  for (int p = 0; p < replaceable; ++p) {
    std::vector<std::pair<int, double>> entries = {{p, 2.0}};
    for (int e = 0; e < 5; ++e) {
      entries.emplace_back(replaceable + (p + e) % (m - replaceable),
                           e % 2 == 0 ? 1.0 : -0.5);
    }
    csc.AddColumn(entries);
  }
  std::vector<int> basis(m);
  for (int k = 0; k < m; ++k) basis[k] = k;

  LuFactorization::Options options;
  options.fill_ratio = 1.5;
  options.refactor_interval = 1 << 20;
  LuFactorization lu(options);
  ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  ASSERT_EQ(lu.factor_nonzeros(), 2 * m);
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(lu.Update(csc.col_start, csc.row_index, csc.value,
                          m + k - 1, k - 1));
    EXPECT_EQ(lu.factor_nonzeros(), 2 * m + 5 * k) << "update " << k;
    EXPECT_EQ(lu.NeedsRefactorization(), k == 10) << "update " << k;
  }
  EXPECT_EQ(lu.stats().refactor_fill, 1);
  EXPECT_EQ(lu.stats().refactor_updates, 0);

  // The update-count trigger on the same structure.
  options.fill_ratio = 1e9;
  options.refactor_interval = 4;
  lu.set_options(options);
  ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  for (int k = 1; k <= 4; ++k) {
    ASSERT_TRUE(lu.Update(csc.col_start, csc.row_index, csc.value,
                          m + k - 1, k - 1));
    EXPECT_EQ(lu.NeedsRefactorization(), k == 4) << "update " << k;
  }
  EXPECT_EQ(lu.stats().refactor_updates, 1);
}

}  // namespace
}  // namespace vpart
