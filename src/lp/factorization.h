#ifndef VPART_LP_FACTORIZATION_H_
#define VPART_LP_FACTORIZATION_H_

#include <cstdint>
#include <vector>

namespace vpart {

/// Sparse LU factorization of a simplex basis with Forrest–Tomlin updates.
///
/// `Factorize()` computes B = L·U by right-looking Gaussian elimination with
/// Markowitz pivoting (pick the entry minimizing the fill bound
/// (row_count-1)·(col_count-1)) under threshold partial pivoting (only
/// entries within `markowitz_threshold` of their column's largest active
/// entry are pivot-eligible, so sparsity never buys instability). The basis
/// is addressed as columns of the caller's CSC matrix; basis *positions*
/// (indices into the caller's row -> column map) are preserved — unlike a
/// product-form rebuild, factorizing never permutes the caller's basis
/// order, which keeps Basis snapshots and steepest-edge weights stable.
///
/// `Update()` applies a Forrest–Tomlin modification when one basis column
/// is replaced: the spike L⁻¹a_q substitutes the leaving column of U, the
/// leaving pivot row is eliminated against the later pivot rows (recorded
/// as one row-transformation eta), and the pivot moves to the end of the
/// elimination order. U stays triangular in the pivot order, so FTRAN and
/// BTRAN keep their two-triangular-solve shape; cost per update is
/// proportional to the entries touched rather than to the pivot count
/// since the last rebuild (the failure mode of the old eta file).
///
/// `NeedsRefactorization()` reports when the accumulated updates should be
/// collapsed into a fresh factorization: after `refactor_interval` updates,
/// or when fill (L + row etas + U) outgrows `fill_ratio` times the fresh
/// factorization's nonzeros. A FALSE return from Update() is the stability
/// trigger: the new diagonal came out too small to trust and the caller
/// must refactorize instead. The three triggers are counted separately
/// (see Stats) and surface in telemetry.mip as refactor_updates /
/// refactor_fill / refactor_stability.
///
/// Index spaces (matching SimplexSolver): FTRAN maps a row-space vector b
/// to the position-space solution x of Bx = b (x[k] belongs to the basic
/// variable at position k); BTRAN maps a position-space cost vector to the
/// row-space multipliers pi of Bᵀpi = c. See src/lp/README.md for a worked
/// example.
///
/// Not thread-safe; one instance per SimplexSolver.
class LuFactorization {
 public:
  struct Options {
    /// Entries below this absolute magnitude are never pivots.
    double pivot_tol = 1e-8;
    /// Threshold partial pivoting: a pivot candidate must satisfy
    /// |a_ij| >= markowitz_threshold * max_i'|a_i'j| within its column.
    double markowitz_threshold = 0.1;
    /// Forrest–Tomlin updates accepted before NeedsRefactorization().
    int refactor_interval = 100;
    /// Refactorize when factor nonzeros exceed this multiple of the fresh
    /// factorization's nonzeros.
    double fill_ratio = 6.0;
    /// An update whose new diagonal is below
    /// max(pivot_tol, stability_tol * |spike|_inf) is rejected.
    double stability_tol = 1e-10;
    /// Markowitz candidate columns inspected per pivot beyond the first
    /// eligible one (more = sparser factors, slower factorize).
    int candidate_limit = 4;
  };

  struct Stats {
    long factorizations = 0;       ///< Fresh Factorize() calls that succeeded.
    long ft_updates = 0;           ///< Forrest–Tomlin updates applied.
    long refactor_updates = 0;     ///< Triggers: update-count cap reached.
    long refactor_fill = 0;        ///< Triggers: fill-ratio cap exceeded.
    long refactor_stability = 0;   ///< Triggers: rejected (unstable) update.
    void Reset() { *this = Stats(); }
  };

  LuFactorization() = default;
  explicit LuFactorization(const Options& options) : options_(options) {}

  const Options& options() const { return options_; }
  void set_options(const Options& options) { options_ = options; }

  /// Factorizes the basis given as columns of a CSC matrix:
  /// column j spans row_index/value[col_start[j] .. col_start[j+1]).
  /// `basis[k]` is the CSC column at basis position k; `num_rows` is m.
  /// Returns false (leaving the factorization invalid) on a singular or
  /// numerically unusable basis.
  bool Factorize(const std::vector<int>& col_start,
                 const std::vector<int>& row_index,
                 const std::vector<double>& value,
                 const std::vector<int>& basis, int num_rows);

  /// Forrest–Tomlin update after the basis change "column `entering` (a CSC
  /// column index) replaces the basic variable at position `pos`". Returns
  /// false when the update would be unstable — the factorization is then
  /// stale and the caller must Refactorize before the next solve.
  bool Update(const std::vector<int>& col_start,
              const std::vector<int>& row_index,
              const std::vector<double>& value, int entering, int pos);

  /// w (row space, size m) := B⁻¹w (position space). No-op when !valid().
  void Ftran(std::vector<double>& w) const;

  /// v (position space, size m) := B⁻ᵀv (row space). No-op when !valid().
  void Btran(std::vector<double>& v) const;

  /// True between a successful Factorize() and the first rejected Update().
  bool valid() const { return valid_; }

  /// Caller-observed numerical distrust (e.g. an FTRAN/BTRAN disagreement
  /// on a pivot): invalidates the factorization and counts a stability
  /// trigger, so the forced rebuild shows up in telemetry like a rejected
  /// update would.
  void MarkUnstable() {
    valid_ = false;
    ++stats_.refactor_stability;
  }

  /// Update-count / fill triggers (stability is signalled by Update()
  /// returning false). Also counts the firing trigger into stats().
  bool NeedsRefactorization();

  int num_rows() const { return num_rows_; }
  /// Nonzeros currently held across L, the update etas, and U. Identity
  /// column etas are not stored but each still counts one, so the fill
  /// trigger sees every eta; the count is kept incrementally.
  long factor_nonzeros() const { return nonzeros_; }
  int updates_since_factorize() const { return updates_; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  /// One elementary transformation of the left factor, applied to row-space
  /// vectors during FTRAN (and transposed, in reverse, during BTRAN). Its
  /// entries are eta_index_/eta_value_[begin, end).
  ///  * kColumn (from Factorize): w[row] /= pivot; w[i] -= v_i * w[row] —
  ///    the classic Gauss column elimination, pivot kept explicit. Identity
  ///    etas (pivot 1.0, no entries) are never stored.
  ///  * kRow (from Update): w[row] -= sum_i v_i * w[i] — the Forrest–Tomlin
  ///    row elimination folded into the left factor.
  struct EtaOp {
    enum class Kind : uint8_t { kColumn, kRow };
    Kind kind = Kind::kColumn;
    int row = -1;
    double pivot = 1.0;  // kColumn only
    int begin = 0;
    int end = 0;
  };

  /// Elimination buffers of Factorize(), owned by the factorization and
  /// reused across calls so a rebuild does not reallocate them.
  struct EliminationBuffers {
    // Active submatrix column-wise over basis positions, and a superset of
    // the positions whose column touches each row.
    std::vector<std::vector<std::pair<int, double>>> acols;
    std::vector<std::vector<int>> row_cols;
    // Markowitz candidate buckets keyed by active column count.
    std::vector<std::vector<int>> buckets;
    std::vector<int> col_count, row_count, filed_count;
    std::vector<uint8_t> pivoted_row, pivoted_col, present;
    std::vector<int> touched;

    /// Empties every buffer for an m-row factorization, keeping capacity.
    void Reset(int m);
  };

  void Clear();
  void PushEta(EtaOp::Kind kind, int row, double pivot, int begin);
  /// Appends `pos` to the elimination order, or to the unit positions when
  /// its U column is empty and its diagonal exactly 1.0.
  void PlacePosition(int pos);
  /// Scatters CSC column `j` into workspace_ and applies the left factor
  /// (partial FTRAN); the result is the spike L⁻¹a_j. Returns its support.
  void PartialFtran(const std::vector<int>& col_start,
                    const std::vector<int>& row_index,
                    const std::vector<double>& value, int j,
                    std::vector<int>& support) const;
  void RemoveRowEntry(int row, int pos);
  void RemoveColEntry(int pos, int row);

  Options options_;
  int num_rows_ = 0;
  bool valid_ = false;
  int updates_ = 0;
  long nonzeros_ = 0;        // factor_nonzeros()
  long fresh_nonzeros_ = 0;  // L + U nnz right after Factorize()
  Stats stats_;

  // Left factor: column etas from Factorize, then row etas from updates.
  std::vector<EtaOp> etas_;
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;

  // U, triangular in the elimination order:
  //  order_[s]   = basis position at slot s, or -1 for a slot vacated by an
  //                update; an update appends its position, so slots are
  //                order stamps and never renumbered
  //  pos_of_[k]  = slot of position k, or -1 for a unit position
  //  unit_       = unit positions (empty U column, diagonal exactly 1.0),
  //                in any order; unit_slot_[k] = index in unit_, or -1
  //  pivot_row_[k] = pivot row of position k
  //  diag_[k]    = diagonal value of column k (1.0 from Factorize; real
  //                values after FT updates)
  //  ucols_[k]   = off-diagonal entries (row, value) of U column k
  //  urows_[r]   = off-diagonal entries (position k, value) of U row r
  // A unit position only copies one value in FTRAN and BTRAN, so the
  // solves handle all of them as one permutation pass (after the ordered
  // positions in FTRAN, before them in BTRAN).
  std::vector<int> order_;
  std::vector<int> pos_of_;
  std::vector<int> unit_;
  std::vector<int> unit_slot_;
  std::vector<int> pivot_row_;
  std::vector<double> diag_;
  std::vector<std::vector<std::pair<int, double>>> ucols_;
  std::vector<std::vector<std::pair<int, double>>> urows_;

  // Scratch, sized to num_rows_. workspace_ (row space) and rowwork_
  // (position space) are kept all-zero between uses; solve_ holds the
  // previous FTRAN/BTRAN input after the swap and must never be assumed
  // clean.
  mutable std::vector<double> workspace_;
  mutable std::vector<double> solve_;
  std::vector<double> rowwork_;
  EliminationBuffers elim_;
  std::vector<int> spike_support_;
  std::vector<std::pair<int, double>> detached_row_;
  std::vector<std::pair<int, int>> heap_;  // (order slot, position)
};

}  // namespace vpart

#endif  // VPART_LP_FACTORIZATION_H_
