#ifndef VPART_COST_COST_COEFFICIENTS_H_
#define VPART_COST_COST_COEFFICIENTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cost/partitioning.h"
#include "util/bitset.h"
#include "workload/instance.h"

namespace vpart {

/// Family-wide tunables shared by every cost-model backend (§2, §5).
struct CostParams {
  /// Network penalty factor p: bytes transferred between sites cost p times
  /// a local storage-layer byte. The paper estimates p ∈ [3, 128] and uses
  /// p = 8 (10-gigabit network). p = 0 simulates local partition placement
  /// (Table 6).
  double p = 8.0;

  /// Load-balancing weight λ ∈ [0, 1]: minimize (1−λ)·cost + λ·max-load.
  /// λ = 0 disables load balancing entirely. The paper's experiments use
  /// λ = 0.1 ("we mainly focus on minimizing the total costs and therefore
  /// set λ low"; "the model will choose the more load balanced layout if
  /// there is a cost draw"). Note: the paper's printed eq. (6) swaps the
  /// two weights, contradicting that §5 text and its own results; we follow
  /// the text (see DESIGN.md's typo list).
  double lambda = 0.1;
};

/// Objective (4) split into its physical components.
struct CostBreakdown {
  double read_access = 0.0;   // A_R: storage-layer units read
  double write_access = 0.0;  // A_W: storage-layer units written
  double transfer = 0.0;      // B: units shipped between sites (unweighted)
  /// A_R + A_W + p·B = Objective().
  double total = 0.0;
};

/// Non-owning instance handle for scoped call sites (stack instances in
/// tests, benches, and synchronous solves): an aliasing shared_ptr whose
/// control block owns nothing. The caller must keep `instance` alive for
/// the handle's lifetime — anything crossing a thread or session boundary
/// should hold a genuinely owning std::shared_ptr<const Instance> instead.
std::shared_ptr<const Instance> BorrowInstance(const Instance& instance);

/// The cost-model contract every solver consumes: precomputed objective
/// coefficients c1..c4 in the shape of the paper's eq. (4)/(5) plus the
/// evaluation surface (Objective/Breakdown/ScalarizedObjective, SiteLoad
/// and the marginal helper the heuristics use), all driven by the tables.
/// Backends differ only in the *physics* behind the coefficients — how
/// many storage-layer units query q pays per touched attribute a, and how
/// many units a remote replica costs on the wire — which they supply
/// through the AccessWeight/TransferWeight hooks; the coefficient assembly
/// and the default evaluation are shared, so a backend is typically a
/// constructor plus two small overrides (see cost/cost_model.h for the
/// paper backend and cost/cost_backends.h for the hardware-scenario ones).
///
/// The hot-path accessors c1..c4 are non-virtual reads of the precomputed
/// tables, so handing a solver the interface instead of a concrete class
/// costs nothing in the SA/B&B inner loops. The instance is held by
/// std::shared_ptr<const Instance>, so a model (and every solver borrowing
/// it) keeps its instance alive across session and portfolio threads.
class CostCoefficients {
 public:
  virtual ~CostCoefficients() = default;

  const Instance& instance() const { return *instance_; }
  const std::shared_ptr<const Instance>& shared_instance() const {
    return instance_;
  }
  const CostParams& params() const { return params_; }
  /// Name of the backend that produced these coefficients ("paper",
  /// "cacheline", "disk_page").
  const std::string& backend() const { return backend_; }

  /// c1(a,t) = Σ_q W·γ·(β(1−δ) − p·α·δ): per-(attribute, transaction)
  /// objective coefficient of x_{t,s}·y_{a,s}.
  double c1(int a, int t) const { return c1_[IdxTA(t, a)]; }
  /// c2(a) = Σ_q W·δ·(β + p·α): per-attribute coefficient of y_{a,s}.
  double c2(int a) const { return c2_[a]; }
  /// c3(a,t) = Σ_q W·γ·β·(1−δ): read-load coefficient (eq. 5).
  double c3(int a, int t) const { return c3_[IdxTA(t, a)]; }
  /// c4(a) = Σ_q W·β·δ: write-load coefficient (eq. 5).
  double c4(int a) const { return c4_[a]; }

  /// Objective (4): Σ c1·x·y + Σ c2·y — the "actual cost" the paper reports
  /// in every table. Requires all transactions assigned.
  double Objective(const Partitioning& partitioning) const;

  /// Objective (4) recomputed from first principles (A_R + A_W + p·B);
  /// `total` must equal Objective() up to rounding — unit tested for every
  /// backend.
  CostBreakdown Breakdown(const Partitioning& partitioning) const;

  /// Eq. (5): work of site s.
  double SiteLoad(const Partitioning& partitioning, int s) const;

  /// max_s SiteLoad(s) — the m of the load-balanced model.
  double MaxLoad(const Partitioning& partitioning) const;

  /// Eq. (6) as intended: (1−λ)·Objective + λ·MaxLoad. This is what the
  /// solvers minimize; Objective() is what gets reported. It scores the
  /// objective and every site's load in one pass over the transactions,
  /// each accumulator taking the same terms in the same order as
  /// Objective() and SiteLoad(), so it equals
  /// (1−λ)·Objective() + λ·MaxLoad() bit for bit.
  double ScalarizedObjective(const Partitioning& partitioning) const;

  /// Σ_a c1(a,t)·y[a][s]: cost contribution of placing transaction t on s
  /// given the attribute placement in `partitioning`. Used by the SA solver
  /// and the incremental solver's greedy fold-in. Walks the set bits of
  /// t's touched attributes on s in ascending order, so it adds the
  /// terms a loop over TouchedAttributesOfTransaction(t) would, in its
  /// order.
  double TransactionOnSiteCost(const Partitioning& partitioning, int t,
                               int s) const {
    const double* c1 = c1_.data() + IdxTA(t, 0);
    double cost = 0.0;
    ForEachCommonBit(TouchedBits(t), partitioning.SiteWords(s),
                     attribute_words_, [&](int a) { cost += c1[a]; });
    return cost;
  }

  /// Transaction t's TouchedAttributesOfTransaction and
  /// ReadSetOfTransaction as attribute bitsets of attribute_words() words,
  /// laid out as one site of Partitioning's y (bit a % 64 of word a / 64).
  /// Built with the coefficients, so they live as long as the model.
  int attribute_words() const { return attribute_words_; }
  const uint64_t* TouchedBits(int t) const {
    return touched_bits_.data() + static_cast<size_t>(t) * attribute_words_;
  }
  const uint64_t* ReadBits(int t) const {
    return read_bits_.data() + static_cast<size_t>(t) * attribute_words_;
  }

  /// Units shipped per remote replica when write query q updates its
  /// referenced attribute a — the α-side physics. Only the cold paths use
  /// it (Breakdown's transfer component; the hot coefficients are
  /// precomputed), so it is virtual: backends override it consistently
  /// with the transfer functor they precompute with. The default is the
  /// paper's W_{a,q}.
  virtual double TransferWeight(int a, int q) const {
    return instance_->W(a, q);
  }

  /// Rebuilds these coefficients (same backend, same knobs) for another
  /// instance — the incremental solver's growing prefix instances and the
  /// batch advisor's per-table subinstances carve sub-problems out of the
  /// original and need the same physics priced on them.
  virtual std::unique_ptr<CostCoefficients> Rebind(
      std::shared_ptr<const Instance> instance) const = 0;

 protected:
  /// Subclass constructors must call Precompute(...) once their weight
  /// state is ready.
  CostCoefficients(std::shared_ptr<const Instance> instance,
                   CostParams params, std::string backend);

  /// Copies another model's tables (sharing its instance) under `backend`
  /// without re-running Precompute(), for a wrapper that overrides only
  /// Rebind().
  CostCoefficients(const CostCoefficients& other, std::string backend);

  /// Assembles c1..c4 from two weight functors, which inline into the
  /// shared loop, so the pluggable path costs the same as a hand-written
  /// constructor (perfbench's cost.build_ms times it):
  ///
  ///   access(a, q)   storage-layer units query q pays for attribute a
  ///                  (the β side; a ranges over all attributes of tables
  ///                  q accesses),
  ///   transfer(a, q) units shipped per remote replica when write query q
  ///                  updates attribute a (the α side).
  ///
  /// noinline is load-bearing: inlined into a constructor, the loop
  /// shares register allocation with the ctor's string/shared_ptr/EH
  /// state and GCC spills the hot index values; in its own frame the
  /// codegen matches the pre-interface constructor.
  ///
  /// The float operations and their order match the original concrete
  /// CostModel exactly, so a backend whose functors return the paper's
  /// W_{a,q} produces bit-for-bit identical coefficients
  /// (PaperBackendParityTest.CoefficientsMatchDirectPathBitForBit).
  template <typename AccessFn, typename TransferFn>
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  void Precompute(AccessFn access, TransferFn transfer) {
    const int num_a = instance_->num_attributes();
    const int num_t = instance_->num_transactions();
    BuildAttributeBitsets();
    c1_.assign(static_cast<size_t>(num_t) * num_a, 0.0);
    c2_.assign(num_a, 0.0);
    c3_.assign(static_cast<size_t>(num_t) * num_a, 0.0);
    c4_.assign(num_a, 0.0);

    // Member-style accesses on purpose: everything rematerializes from
    // `this`, which keeps register pressure low — hoisting the table
    // pointers into locals makes GCC spill them to the stack in the
    // inner loop.
    const Workload& workload = instance_->workload();
    for (int q = 0; q < instance_->num_queries(); ++q) {
      const Query& query = workload.query(q);
      // The c1/c3 row of this query's transaction (t is fixed per q, so
      // the IdxTA multiply hoists out of the attribute loops).
      const size_t row =
          static_cast<size_t>(query.transaction_id) * num_a;
      const double delta = query.is_write() ? 1.0 : 0.0;
      // β support of q: all attributes of accessed tables.
      for (const auto& [tbl, rows] : query.table_rows) {
        (void)rows;
        for (int a : instance_->schema().table(tbl).attribute_ids) {
          const double w = access(a, q);
          c1_[row + a] += w * (1.0 - delta);  // β(1−δ) part
          c2_[a] += w * delta;                // β·δ part
          c3_[row + a] += w * (1.0 - delta);
          c4_[a] += w * delta;
        }
      }
      // α support of q (referenced attributes): the transfer terms.
      if (query.is_write()) {
        for (int a : query.attributes) {
          const double w = transfer(a, q);
          c1_[row + a] -= params_.p * w;  // −p·α·δ part
          c2_[a] += params_.p * w;        // +p·α·δ part
        }
      }
    }
  }

  /// Precompute with the paper's physics: W_{a,q} = w_a·f_q·n_{r,q} bytes
  /// on both the access and the transfer side. The functor reads through
  /// the same `instance_` member the assembly loop uses — a separately
  /// captured pointer would be a second pointer chain the compiler cannot
  /// prove equal, costing registers and common-subexpression reuse.
  void Precompute() {
    const auto paper_w = [this](int a, int q) { return instance_->W(a, q); };
    Precompute(paper_w, paper_w);
  }

  size_t IdxTA(int t, int a) const {
    return static_cast<size_t>(t) * instance_->num_attributes() + a;
  }

 private:
  /// Fills touched_bits_ and read_bits_ from the instance's sets.
  void BuildAttributeBitsets();

  std::shared_ptr<const Instance> instance_;
  CostParams params_;
  std::string backend_;
  std::vector<double> c1_;  // |T| x |A|
  std::vector<double> c2_;  // |A|
  std::vector<double> c3_;  // |T| x |A|
  std::vector<double> c4_;  // |A|
  int attribute_words_ = 0;              // ⌈|A| / 64⌉
  std::vector<uint64_t> touched_bits_;  // |T| x attribute_words_
  std::vector<uint64_t> read_bits_;     // |T| x attribute_words_
};

}  // namespace vpart

#endif  // VPART_COST_COST_COEFFICIENTS_H_
