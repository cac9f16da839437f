#ifndef VPART_COST_PARTITIONING_H_
#define VPART_COST_PARTITIONING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/status.h"
#include "workload/instance.h"

namespace vpart {

/// A candidate solution: a disjoint assignment of transactions to sites
/// (the paper's x_{t,s}) and a possibly replicated placement of attributes
/// (y_{a,s}). Plain data with O(1) accessors; cost evaluation lives in
/// CostModel, feasibility checking in ValidatePartitioning.
///
/// y is one attribute bitset per site: site s owns ⌈|A| / 64⌉ words
/// (SiteWords(s)), and y_{a,s} is bit a % 64 of its word a / 64. Bits
/// past |A| stay zero. The cost kernels walk the set bits of a site's
/// words against a transaction's attribute bitsets in ascending attribute
/// order (see CostCoefficients).
class Partitioning {
 public:
  Partitioning() = default;
  Partitioning(int num_transactions, int num_attributes, int num_sites);

  int num_transactions() const { return num_transactions_; }
  int num_attributes() const { return num_attributes_; }
  int num_sites() const { return num_sites_; }

  /// x accessors. A transaction not yet assigned reports site -1.
  int SiteOfTransaction(int t) const { return x_[t]; }
  void AssignTransaction(int t, int s) { x_[t] = s; }

  /// y accessors.
  bool HasAttribute(int a, int s) const {
    return (y_[Word(a, s)] >> (a % 64)) & 1;
  }
  void PlaceAttribute(int a, int s) { y_[Word(a, s)] |= Bit(a); }
  void RemoveAttribute(int a, int s) { y_[Word(a, s)] &= ~Bit(a); }
  void ClearAttribute(int a) {
    for (int s = 0; s < num_sites_; ++s) RemoveAttribute(a, s);
  }
  /// Removes every attribute from every site.
  void ClearPlacement() { std::fill(y_.begin(), y_.end(), 0); }

  /// Site s's attribute bitset, ⌈|A| / 64⌉ words (read-only).
  const uint64_t* SiteWords(int s) const {
    return y_.data() + static_cast<size_t>(s) * site_words_;
  }

  /// Number of replicas of attribute a (Σ_s y_{a,s}).
  int ReplicaCount(int a) const;

  /// Sites hosting attribute a, ascending.
  std::vector<int> SitesOfAttribute(int a) const;

  /// Transactions assigned to site s, ascending.
  std::vector<int> TransactionsOnSite(int s) const;

  /// Attributes present on site s, ascending.
  std::vector<int> AttributesOnSite(int s) const;

  /// Bit-packed copies of the two halves, for callers that key or store
  /// many layouts compactly (the SA solver's findSolution memo). x takes
  /// `site_bits` ≥ 1 bits per transaction (2^site_bits ≥ |S|), 64 /
  /// site_bits transactions to a word; y takes bit s·|A| + a, the site
  /// bitsets laid end to end. Every transaction must be assigned.
  /// Unpacking overwrites the whole half.
  static int AssignmentWords(int num_transactions, int site_bits);
  static int PlacementWords(int num_attributes, int num_sites);
  void PackAssignment(int site_bits, uint64_t* out) const;
  void UnpackAssignment(int site_bits, const uint64_t* in);
  void PackPlacement(uint64_t* out) const;
  void UnpackPlacement(const uint64_t* in);

  friend bool operator==(const Partitioning& a, const Partitioning& b) {
    return a.num_sites_ == b.num_sites_ &&
           a.num_attributes_ == b.num_attributes_ && a.x_ == b.x_ &&
           a.y_ == b.y_;
  }

 private:
  size_t Word(int a, int s) const {
    return static_cast<size_t>(s) * site_words_ + a / 64;
  }
  static uint64_t Bit(int a) { return uint64_t{1} << (a % 64); }

  int num_transactions_ = 0;
  int num_attributes_ = 0;
  int num_sites_ = 0;
  int site_words_ = 0;
  std::vector<int> x_;       // transaction -> site (-1 = unassigned)
  std::vector<uint64_t> y_;  // site-major attribute bitsets
};

/// Checks the paper's feasibility conditions:
///  * every transaction is assigned to exactly one site in range,
///  * every attribute is placed on at least one site,
///  * single-sitedness of reads: φ_{a,t} = 1 implies y[a][x_t] = 1,
///  * if `require_disjoint`, every attribute has exactly one replica.
Status ValidatePartitioning(const Instance& instance,
                            const Partitioning& partitioning,
                            bool require_disjoint = false);

/// The trivial baseline used throughout the paper's tables as "|S| = 1":
/// everything on one site (site 0 of `num_sites`).
Partitioning SingleSiteBaseline(const Instance& instance, int num_sites = 1);

}  // namespace vpart

#endif  // VPART_COST_PARTITIONING_H_
