#include "lp/factorization.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

namespace vpart {

namespace {

/// Entries whose magnitude falls below this after an elimination update are
/// treated as exact cancellations and dropped from the sparse structures.
constexpr double kDropTol = 1e-14;

}  // namespace

void LuFactorization::Clear() {
  valid_ = false;
  updates_ = 0;
  nonzeros_ = num_rows_;  // diagonals
  etas_.clear();
  eta_index_.clear();
  eta_value_.clear();
  order_.clear();
  unit_.clear();
  pos_of_.assign(num_rows_, -1);
  unit_slot_.assign(num_rows_, -1);
  pivot_row_.assign(num_rows_, -1);
  diag_.assign(num_rows_, 0.0);
  // Inner vectors are cleared, not destroyed, so their capacity carries
  // over to the next factorization.
  ucols_.resize(num_rows_);
  urows_.resize(num_rows_);
  for (auto& col : ucols_) col.clear();
  for (auto& row : urows_) row.clear();
  workspace_.assign(num_rows_, 0.0);
  solve_.assign(num_rows_, 0.0);
  rowwork_.assign(num_rows_, 0.0);
}

void LuFactorization::EliminationBuffers::Reset(int m) {
  acols.resize(m);
  row_cols.resize(m);
  buckets.resize(m + 1);
  for (auto& col : acols) col.clear();
  for (auto& positions : row_cols) positions.clear();
  for (auto& bucket : buckets) bucket.clear();
  col_count.assign(m, 0);
  row_count.assign(m, 0);
  filed_count.assign(m, -1);
  pivoted_row.assign(m, 0);
  pivoted_col.assign(m, 0);
  present.assign(m, 0);
  touched.clear();
}

void LuFactorization::PushEta(EtaOp::Kind kind, int row, double pivot,
                              int begin) {
  const int end = static_cast<int>(eta_index_.size());
  // Every eta counts its entries plus one (its pivot), stored or not.
  nonzeros_ += end - begin + 1;
  // An identity column eta (pivot 1.0, no entries) leaves every vector
  // unchanged in FTRAN, BTRAN and the partial FTRAN: x/1.0 == x and
  // (x - 0.0)/1.0 == x bit for bit. It is counted but not stored.
  if (kind == EtaOp::Kind::kColumn && pivot == 1.0 && begin == end) return;
  etas_.push_back({kind, row, pivot, begin, end});
}

void LuFactorization::PlacePosition(int pos) {
  if (ucols_[pos].empty() && diag_[pos] == 1.0) {
    pos_of_[pos] = -1;
    unit_slot_[pos] = static_cast<int>(unit_.size());
    unit_.push_back(pos);
  } else {
    pos_of_[pos] = static_cast<int>(order_.size());
    order_.push_back(pos);
  }
}

bool LuFactorization::Factorize(const std::vector<int>& col_start,
                                const std::vector<int>& row_index,
                                const std::vector<double>& value,
                                const std::vector<int>& basis, int num_rows) {
  num_rows_ = num_rows;
  Clear();
  const int m = num_rows;
  if (static_cast<int>(basis.size()) != m) return false;

  // Active submatrix, column-wise over basis positions. Entries only ever
  // reference active (unpivoted) rows: a pivoted row's entries are removed
  // from every affected column during its elimination step. row_cols is a
  // superset of the positions whose column touches each row (append-only;
  // entries are validated against acols on use).
  elim_.Reset(m);
  auto& acols = elim_.acols;
  auto& row_cols = elim_.row_cols;
  auto& col_count = elim_.col_count;
  auto& row_count = elim_.row_count;
  for (int k = 0; k < m; ++k) {
    const int j = basis[k];
    if (j < 0) return false;
    for (int idx = col_start[j]; idx < col_start[j + 1]; ++idx) {
      const double v = value[idx];
      if (v == 0.0) continue;
      const int i = row_index[idx];
      acols[k].emplace_back(i, v);
      row_cols[i].push_back(k);
      ++row_count[i];
    }
    col_count[k] = static_cast<int>(acols[k].size());
    if (col_count[k] == 0) return false;  // structurally singular
  }

  auto& pivoted_row = elim_.pivoted_row;
  auto& pivoted_col = elim_.pivoted_col;
  // Markowitz candidate buckets keyed by active column count. Entries can
  // be stale (the count moved on); they are validated and refiled on scan.
  auto& buckets = elim_.buckets;
  auto& filed_count = elim_.filed_count;
  auto refile = [&](int k) {
    if (pivoted_col[k]) return;
    const int c = col_count[k];
    if (c >= 0 && c <= m && filed_count[k] != c) {
      buckets[c].push_back(k);
      filed_count[k] = c;
    }
  };
  for (int k = 0; k < m; ++k) refile(k);

  // Presence map for the scatter/gather column updates.
  auto& present = elim_.present;
  auto& touched = elim_.touched;

  for (int step = 0; step < m; ++step) {
    // --- pivot selection: threshold partial pivoting within the sparsest
    // candidate columns, best Markowitz score (r-1)(c-1) among them.
    int best_row = -1, best_col = -1;
    long best_score = -1;
    double best_abs = 0.0;
    int examined = 0;
    for (int c = 1; c <= m && best_score != 0; ++c) {
      auto& bucket = buckets[c];
      for (size_t idx = bucket.size(); idx-- > 0;) {
        const int k = bucket[idx];
        if (pivoted_col[k] || col_count[k] != c) {
          bucket[idx] = bucket.back();
          bucket.pop_back();
          refile(k);
          continue;
        }
        double colmax = 0.0;
        for (const auto& [i, v] : acols[k]) colmax = std::max(colmax, std::abs(v));
        if (colmax < options_.pivot_tol) continue;  // revisit once updated
        const double eligible = std::max(options_.pivot_tol,
                                         options_.markowitz_threshold * colmax);
        int krow = -1;
        double kabs = 0.0;
        long kscore = -1;
        for (const auto& [i, v] : acols[k]) {
          const double a = std::abs(v);
          if (a + 1e-300 < eligible) continue;
          const long score = static_cast<long>(row_count[i] - 1) * (c - 1);
          if (kscore < 0 || score < kscore ||
              (score == kscore && a > kabs)) {
            kscore = score;
            krow = i;
            kabs = a;
          }
        }
        if (krow < 0) continue;
        if (best_score < 0 || kscore < best_score ||
            (kscore == best_score && kabs > best_abs)) {
          best_score = kscore;
          best_row = krow;
          best_col = k;
          best_abs = kabs;
        }
        if (++examined >= options_.candidate_limit || best_score == 0) break;
      }
      if (best_col >= 0 &&
          (examined >= options_.candidate_limit || best_score == 0)) {
        break;
      }
    }
    if (best_col < 0) {
      // No bucket produced a candidate above pivot_tol: numerically
      // singular basis.
      Clear();
      return false;
    }

    const int pr = best_row;
    const int pk = best_col;
    double piv = 0.0;
    for (const auto& [i, v] : acols[pk]) {
      if (i == pr) piv = v;
    }
    assert(piv != 0.0);

    // L eta: the pivot column's other active entries.
    const int eta_begin = static_cast<int>(eta_index_.size());
    for (const auto& [i, v] : acols[pk]) {
      if (i != pr) {
        eta_index_.push_back(i);
        eta_value_.push_back(v);
        --row_count[i];  // column pk leaves the active matrix
      }
    }
    const int eta_end = static_cast<int>(eta_index_.size());

    pivoted_row[pr] = 1;
    pivoted_col[pk] = 1;
    pivot_row_[pk] = pr;
    diag_[pk] = 1.0;
    // Row pr is eliminated from the later columns below, so pk's U column
    // is already complete.
    PlacePosition(pk);

    // Eliminate row pr from every active column it touches, recording the
    // U row (values divided by the pivot) as it freezes. present[] tags
    // each touched row: 1 = existing member of the column, 2 = fill.
    for (int k : row_cols[pr]) {
      if (pivoted_col[k]) continue;
      double v = 0.0;
      bool found = false;
      for (const auto& [i, val] : acols[k]) {
        if (i == pr) {
          v = val;
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale membership
      const double mult = v / piv;
      ucols_[k].emplace_back(pr, mult);
      urows_[pr].emplace_back(k, mult);
      ++nonzeros_;

      auto& col = acols[k];
      if (eta_begin == eta_end) {
        // Empty pivot column (a slack singleton, mostly): no fill, so the
        // update below reduces to dropping row pr and any entry at or
        // under kDropTol, in place and in the same order.
        size_t kept = 0;
        for (const auto& entry : col) {
          if (entry.first == pr) continue;
          if (std::abs(entry.second) > kDropTol) {
            col[kept++] = entry;
          } else {
            --row_count[entry.first];  // exact cancellation
          }
        }
        col.resize(kept);
        col_count[k] = static_cast<int>(kept);
        refile(k);
        continue;
      }

      // Column update: drop row pr, subtract mult * pivot column.
      touched.clear();
      for (const auto& [i, val] : acols[k]) {
        if (i == pr) continue;
        workspace_[i] = val;
        present[i] = 1;
        touched.push_back(i);
      }
      for (int e = eta_begin; e < eta_end; ++e) {
        const int i = eta_index_[e];
        if (!present[i]) {
          present[i] = 2;  // fill candidate
          touched.push_back(i);
          workspace_[i] = 0.0;
        }
        workspace_[i] -= eta_value_[e] * mult;
      }
      col.clear();
      for (int i : touched) {
        const double w = workspace_[i];
        if (std::abs(w) > kDropTol) {
          col.emplace_back(i, w);
          if (present[i] == 2) {  // realized fill
            ++row_count[i];
            row_cols[i].push_back(k);
          }
        } else if (present[i] == 1) {  // exact cancellation
          --row_count[i];
        }
        workspace_[i] = 0.0;
        present[i] = 0;
      }
      col_count[k] = static_cast<int>(col.size());
      refile(k);
    }

    PushEta(EtaOp::Kind::kColumn, pr, piv, eta_begin);
  }

  fresh_nonzeros_ = nonzeros_;
  valid_ = true;
  ++stats_.factorizations;
  return true;
}

void LuFactorization::Ftran(std::vector<double>& w) const {
  if (!valid_) return;
  for (const EtaOp& eta : etas_) {
    if (eta.kind == EtaOp::Kind::kColumn) {
      const double wr = w[eta.row];
      if (wr == 0.0) continue;
      const double piv = eta.pivot == 1.0 ? wr : wr / eta.pivot;
      w[eta.row] = piv;
      for (int e = eta.begin; e < eta.end; ++e) {
        w[eta_index_[e]] -= eta_value_[e] * piv;
      }
    } else {
      double dot = 0.0;
      for (int e = eta.begin; e < eta.end; ++e) {
        dot += eta_value_[e] * w[eta_index_[e]];
      }
      w[eta.row] -= dot;
    }
  }
  // Back substitution on U (unit or explicit diagonals), reverse pivot
  // order; the solution is indexed by basis position. A unit position
  // reads its row only after every later column has updated it, so the
  // gather below sees the same value it would in order.
  for (size_t s = order_.size(); s-- > 0;) {
    const int k = order_[s];
    if (k < 0) continue;
    const double wr = w[pivot_row_[k]];
    const double xk = diag_[k] == 1.0 ? wr : wr / diag_[k];
    solve_[k] = xk;
    if (xk != 0.0) {
      for (const auto& [i, v] : ucols_[k]) w[i] -= v * xk;
    }
  }
  for (int k : unit_) solve_[k] = w[pivot_row_[k]];
  w.swap(solve_);
}

void LuFactorization::Btran(std::vector<double>& v) const {
  if (!valid_) return;
  // Forward substitution on Uᵀ in pivot order; z lives in row space. Unit
  // positions depend on nothing but their own input and go first.
  for (int k : unit_) solve_[pivot_row_[k]] = v[k];
  for (const int k : order_) {
    if (k < 0) continue;
    double acc = v[k];
    for (const auto& [i, val] : ucols_[k]) acc -= val * solve_[i];
    solve_[pivot_row_[k]] = diag_[k] == 1.0 ? acc : acc / diag_[k];
  }
  // Transposed left factor, reverse order.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    if (it->kind == EtaOp::Kind::kColumn) {
      double dot = 0.0;
      for (int e = it->begin; e < it->end; ++e) {
        dot += eta_value_[e] * solve_[eta_index_[e]];
      }
      const double acc = solve_[it->row] - dot;
      solve_[it->row] = it->pivot == 1.0 ? acc : acc / it->pivot;
    } else {
      const double vr = solve_[it->row];
      if (vr != 0.0) {
        for (int e = it->begin; e < it->end; ++e) {
          solve_[eta_index_[e]] -= eta_value_[e] * vr;
        }
      }
    }
  }
  v.swap(solve_);
}

void LuFactorization::PartialFtran(const std::vector<int>& col_start,
                                   const std::vector<int>& row_index,
                                   const std::vector<double>& value, int j,
                                   std::vector<int>& support) const {
  support.clear();
  for (int idx = col_start[j]; idx < col_start[j + 1]; ++idx) {
    if (value[idx] == 0.0) continue;
    if (workspace_[row_index[idx]] == 0.0) support.push_back(row_index[idx]);
    workspace_[row_index[idx]] += value[idx];
  }
  for (const EtaOp& eta : etas_) {
    if (eta.kind == EtaOp::Kind::kColumn) {
      const double wr = workspace_[eta.row];
      if (wr == 0.0) continue;
      const double piv = eta.pivot == 1.0 ? wr : wr / eta.pivot;
      workspace_[eta.row] = piv;
      for (int e = eta.begin; e < eta.end; ++e) {
        const int i = eta_index_[e];
        const double v = eta_value_[e];
        if (workspace_[i] == 0.0 && v * piv != 0.0) support.push_back(i);
        workspace_[i] -= v * piv;
      }
    } else {
      double dot = 0.0;
      for (int e = eta.begin; e < eta.end; ++e) {
        dot += eta_value_[e] * workspace_[eta_index_[e]];
      }
      if (dot != 0.0 && workspace_[eta.row] == 0.0) {
        support.push_back(eta.row);
      }
      workspace_[eta.row] -= dot;
    }
  }
}

void LuFactorization::RemoveRowEntry(int row, int pos) {
  auto& entries = urows_[row];
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    if (entries[idx].first == pos) {
      entries[idx] = entries.back();
      entries.pop_back();
      return;
    }
  }
}

void LuFactorization::RemoveColEntry(int pos, int row) {
  auto& entries = ucols_[pos];
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    if (entries[idx].first == row) {
      entries[idx] = entries.back();
      entries.pop_back();
      return;
    }
  }
}

bool LuFactorization::Update(const std::vector<int>& col_start,
                             const std::vector<int>& row_index,
                             const std::vector<double>& value, int entering,
                             int pos) {
  if (!valid_) return false;
  const int r0 = pivot_row_[pos];

  // Spike = L⁻¹ a_entering (partial FTRAN through the left factor only).
  std::vector<int>& support = spike_support_;
  PartialFtran(col_start, row_index, value, entering, support);
  double spike_max = 0.0;
  for (int i : support) spike_max = std::max(spike_max, std::abs(workspace_[i]));

  // Remove the leaving column of U.
  for (const auto& [i, v] : ucols_[pos]) {
    (void)v;
    RemoveRowEntry(i, pos);
  }
  nonzeros_ -= static_cast<long>(ucols_[pos].size());
  ucols_[pos].clear();
  diag_[pos] = 0.0;

  // Detach row r0's off-diagonal entries (all at later pivot positions);
  // they seed the Forrest–Tomlin row elimination.
  detached_row_.clear();
  detached_row_.swap(urows_[r0]);
  for (const auto& [k, v] : detached_row_) {
    (void)v;
    RemoveColEntry(k, r0);
  }
  nonzeros_ -= static_cast<long>(detached_row_.size());

  // Eliminate row r0 against the later pivot rows, in pivot order (a
  // min-heap on order slots); fill lands at still-later positions and is
  // eliminated in turn. rowwork_ is the dense row workspace
  // (position-indexed). Every position reached has a nonempty U column, so
  // it holds an order slot.
  const auto later = std::greater<std::pair<int, int>>();
  heap_.clear();
  for (const auto& [k, v] : detached_row_) {
    rowwork_[k] = v;
    heap_.emplace_back(pos_of_[k], k);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  double dval = workspace_[r0];  // spike's diagonal seed
  const int eta_begin = static_cast<int>(eta_index_.size());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const int k = heap_.back().second;
    heap_.pop_back();
    const double val = rowwork_[k];
    rowwork_[k] = 0.0;
    if (std::abs(val) <= kDropTol) continue;
    const int rj = pivot_row_[k];
    const double mu = diag_[k] == 1.0 ? val : val / diag_[k];
    eta_index_.push_back(rj);
    eta_value_.push_back(mu);
    for (const auto& [k2, v2] : urows_[rj]) {
      if (rowwork_[k2] == 0.0) {
        heap_.emplace_back(pos_of_[k2], k2);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
      rowwork_[k2] -= mu * v2;
    }
    // The row operation also folds the spike's rj entry into the diagonal.
    dval -= mu * workspace_[rj];
  }

  // Stability gate: a vanishing new diagonal means the update cannot be
  // trusted — reject and force a refactorization.
  if (std::abs(dval) <
      std::max(options_.pivot_tol, options_.stability_tol * spike_max)) {
    for (int i : support) workspace_[i] = 0.0;
    eta_index_.resize(eta_begin);
    eta_value_.resize(eta_begin);
    ++stats_.refactor_stability;
    valid_ = false;
    return false;
  }

  // Install the spike as column `pos`, diagonal dval at row r0. Entries
  // are zeroed as they are consumed so a row that appears twice in
  // `support` (cancelled and refilled during the partial FTRAN) cannot be
  // installed twice.
  diag_[pos] = dval;
  for (int i : support) {
    const double v = workspace_[i];
    workspace_[i] = 0.0;
    if (i == r0 || std::abs(v) <= kDropTol) continue;
    ucols_[pos].emplace_back(i, v);
    urows_[i].emplace_back(pos, v);
    ++nonzeros_;
  }

  // Move `pos` to the end of the pivot order: vacate its slot (or its unit
  // entry) and place it again. No other position moves.
  if (pos_of_[pos] >= 0) {
    order_[pos_of_[pos]] = -1;
  } else {
    const int slot = unit_slot_[pos];
    unit_[slot] = unit_.back();
    unit_slot_[unit_[slot]] = slot;
    unit_.pop_back();
    unit_slot_[pos] = -1;
  }
  PlacePosition(pos);

  if (static_cast<int>(eta_index_.size()) > eta_begin) {
    PushEta(EtaOp::Kind::kRow, r0, 1.0, eta_begin);
  }

  ++updates_;
  ++stats_.ft_updates;
  return true;
}

bool LuFactorization::NeedsRefactorization() {
  if (!valid_) return true;
  if (updates_ >= options_.refactor_interval) {
    ++stats_.refactor_updates;
    return true;
  }
  if (updates_ > 0 &&
      nonzeros_ >
          static_cast<long>(options_.fill_ratio *
                            static_cast<double>(fresh_nonzeros_)) +
              num_rows_) {
    ++stats_.refactor_fill;
    return true;
  }
  return false;
}

}  // namespace vpart
