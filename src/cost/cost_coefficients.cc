#include "cost/cost_coefficients.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace vpart {

std::shared_ptr<const Instance> BorrowInstance(const Instance& instance) {
  // Aliasing constructor with an empty owner: no control block, no
  // ownership — a shared_ptr-shaped raw pointer for scoped lifetimes.
  return std::shared_ptr<const Instance>(std::shared_ptr<const Instance>(),
                                         &instance);
}

CostCoefficients::CostCoefficients(std::shared_ptr<const Instance> instance,
                                   CostParams params, std::string backend)
    : instance_(std::move(instance)),
      params_(params),
      backend_(std::move(backend)) {
  assert(instance_ != nullptr);
}

CostCoefficients::CostCoefficients(const CostCoefficients& other,
                                   std::string backend)
    : instance_(other.instance_),
      params_(other.params_),
      backend_(std::move(backend)),
      c1_(other.c1_),
      c2_(other.c2_),
      c3_(other.c3_),
      c4_(other.c4_),
      attribute_words_(other.attribute_words_),
      touched_bits_(other.touched_bits_),
      read_bits_(other.read_bits_) {}

void CostCoefficients::BuildAttributeBitsets() {
  const int num_t = instance_->num_transactions();
  attribute_words_ = (instance_->num_attributes() + 63) / 64;
  touched_bits_.assign(static_cast<size_t>(num_t) * attribute_words_, 0);
  read_bits_.assign(static_cast<size_t>(num_t) * attribute_words_, 0);
  for (int t = 0; t < num_t; ++t) {
    const size_t row = static_cast<size_t>(t) * attribute_words_;
    for (int a : instance_->TouchedAttributesOfTransaction(t)) {
      touched_bits_[row + a / 64] |= uint64_t{1} << (a % 64);
    }
    for (int a : instance_->ReadSetOfTransaction(t)) {
      read_bits_[row + a / 64] |= uint64_t{1} << (a % 64);
    }
  }
}

// The kernels below walk the set bits of TouchedBits(t) ∩ the site's y in
// ascending attribute order: the terms a loop over the sorted
// TouchedAttributesOfTransaction(t) testing HasAttribute would add, in its
// order, with the absent attributes skipped.

double CostCoefficients::Objective(const Partitioning& partitioning) const {
  const int num_a = instance_->num_attributes();
  const int num_t = instance_->num_transactions();
  double objective = 0.0;
  for (int t = 0; t < num_t; ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    assert(s >= 0 && s < partitioning.num_sites());
    const double* c1 = c1_.data() + IdxTA(t, 0);
    ForEachCommonBit(TouchedBits(t), partitioning.SiteWords(s),
                     attribute_words_, [&](int a) { objective += c1[a]; });
  }
  for (int a = 0; a < num_a; ++a) {
    if (c2_[a] != 0.0) objective += c2_[a] * partitioning.ReplicaCount(a);
  }
  return objective;
}

CostBreakdown CostCoefficients::Breakdown(
    const Partitioning& partitioning) const {
  CostBreakdown breakdown;
  const Workload& workload = instance_->workload();
  // A_R: for each read query, all attributes of accessed tables found on the
  // transaction's site (single-sitedness guarantees the referenced ones are
  // there; β-siblings are charged when co-located, matching the model).
  for (int t = 0; t < instance_->num_transactions(); ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    for (int a : instance_->TouchedAttributesOfTransaction(t)) {
      if (partitioning.HasAttribute(a, s)) {
        breakdown.read_access += c3_[IdxTA(t, a)];
      }
    }
  }
  // A_W: write queries write to every site holding a fraction of an accessed
  // table ("access all attributes" accounting).
  for (int a = 0; a < instance_->num_attributes(); ++a) {
    breakdown.write_access += c4_[a] * partitioning.ReplicaCount(a);
  }
  // B: write queries ship each written attribute to every replica site other
  // than their own transaction's site.
  for (int q = 0; q < instance_->num_queries(); ++q) {
    const Query& query = workload.query(q);
    if (!query.is_write()) continue;
    const int s = partitioning.SiteOfTransaction(query.transaction_id);
    for (int a : query.attributes) {
      int remote = partitioning.ReplicaCount(a) -
                   (partitioning.HasAttribute(a, s) ? 1 : 0);
      breakdown.transfer += TransferWeight(a, q) * remote;
    }
  }
  breakdown.total = breakdown.read_access + breakdown.write_access +
                    params_.p * breakdown.transfer;
  return breakdown;
}

double CostCoefficients::SiteLoad(const Partitioning& partitioning,
                                  int s) const {
  const uint64_t* placed = partitioning.SiteWords(s);
  double load = 0.0;
  for (int t = 0; t < instance_->num_transactions(); ++t) {
    if (partitioning.SiteOfTransaction(t) != s) continue;
    const double* c3 = c3_.data() + IdxTA(t, 0);
    ForEachCommonBit(TouchedBits(t), placed, attribute_words_,
                     [&](int a) { load += c3[a]; });
  }
  // Adding +0.0 where a is absent (or c4 is zero) leaves the load exact:
  // it starts at +0.0, so it is never −0.0.
  for (int a = 0; a < instance_->num_attributes(); ++a) {
    load += partitioning.HasAttribute(a, s) ? c4_[a] : 0.0;
  }
  return load;
}

double CostCoefficients::MaxLoad(const Partitioning& partitioning) const {
  double max_load = 0.0;
  for (int s = 0; s < partitioning.num_sites(); ++s) {
    max_load = std::max(max_load, SiteLoad(partitioning, s));
  }
  return max_load;
}

double CostCoefficients::ScalarizedObjective(
    const Partitioning& partitioning) const {
  const int num_a = instance_->num_attributes();
  const int num_t = instance_->num_transactions();
  const int num_s = partitioning.num_sites();
  // One load accumulator per site; the stack buffer covers the usual site
  // counts, so the SA inner loop allocates nothing here.
  constexpr int kInlineSites = 8;
  double inline_loads[kInlineSites];
  std::vector<double> heap_loads;
  double* loads = inline_loads;
  if (num_s > kInlineSites) {
    heap_loads.resize(num_s);
    loads = heap_loads.data();
  }
  std::fill(loads, loads + num_s, 0.0);

  // Objective()'s terms in Objective()'s order; site s's load takes
  // SiteLoad(s)'s terms in SiteLoad(s)'s order.
  double objective = 0.0;
  for (int t = 0; t < num_t; ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    assert(s >= 0 && s < num_s);
    const double* c1 = c1_.data() + IdxTA(t, 0);
    const double* c3 = c3_.data() + IdxTA(t, 0);
    double load = loads[s];
    ForEachCommonBit(TouchedBits(t), partitioning.SiteWords(s),
                     attribute_words_, [&](int a) {
                       objective += c1[a];
                       load += c3[a];
                     });
    loads[s] = load;
  }
  for (int a = 0; a < num_a; ++a) {
    const double c4 = c4_[a];
    int replicas = 0;
    for (int s = 0; s < num_s; ++s) {
      const bool placed = partitioning.HasAttribute(a, s);
      replicas += placed;
      loads[s] += placed ? c4 : 0.0;  // +0.0 is exact, as in SiteLoad()
    }
    if (c2_[a] != 0.0) objective += c2_[a] * replicas;
  }
  double max_load = 0.0;
  for (int s = 0; s < num_s; ++s) max_load = std::max(max_load, loads[s]);
  return (1.0 - params_.lambda) * objective + params_.lambda * max_load;
}

}  // namespace vpart
