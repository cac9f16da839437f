#include "cost/partitioning.h"

#include <algorithm>

#include "util/string_util.h"

namespace vpart {

Partitioning::Partitioning(int num_transactions, int num_attributes,
                           int num_sites)
    : num_transactions_(num_transactions),
      num_attributes_(num_attributes),
      num_sites_(num_sites),
      site_words_((num_attributes + 63) / 64),
      x_(num_transactions, -1),
      y_(static_cast<size_t>(num_sites) * site_words_, 0) {}

int Partitioning::ReplicaCount(int a) const {
  int count = 0;
  for (int s = 0; s < num_sites_; ++s) count += HasAttribute(a, s);
  return count;
}

std::vector<int> Partitioning::SitesOfAttribute(int a) const {
  std::vector<int> sites;
  for (int s = 0; s < num_sites_; ++s) {
    if (HasAttribute(a, s)) sites.push_back(s);
  }
  return sites;
}

std::vector<int> Partitioning::TransactionsOnSite(int s) const {
  std::vector<int> txns;
  for (int t = 0; t < num_transactions_; ++t) {
    if (x_[t] == s) txns.push_back(t);
  }
  return txns;
}

std::vector<int> Partitioning::AttributesOnSite(int s) const {
  std::vector<int> attrs;
  for (int a = 0; a < num_attributes_; ++a) {
    if (HasAttribute(a, s)) attrs.push_back(a);
  }
  return attrs;
}

int Partitioning::AssignmentWords(int num_transactions, int site_bits) {
  const int per_word = 64 / site_bits;
  return (num_transactions + per_word - 1) / per_word;
}

int Partitioning::PlacementWords(int num_attributes, int num_sites) {
  return static_cast<int>((static_cast<int64_t>(num_attributes) * num_sites +
                           63) / 64);
}

void Partitioning::PackAssignment(int site_bits, uint64_t* out) const {
  const int per_word = 64 / site_bits;
  const int* x = x_.data();
  for (int t = 0; t < num_transactions_; t += per_word) {
    const int end = std::min(num_transactions_, t + per_word);
    uint64_t word = 0;
    for (int i = t; i < end; ++i) {
      word |= static_cast<uint64_t>(x[i]) << ((i - t) * site_bits);
    }
    *out++ = word;
  }
}

void Partitioning::UnpackAssignment(int site_bits, const uint64_t* in) {
  const int per_word = 64 / site_bits;
  const uint64_t mask = (uint64_t{1} << site_bits) - 1;
  int* x = x_.data();
  for (int t = 0; t < num_transactions_; t += per_word) {
    const int end = std::min(num_transactions_, t + per_word);
    const uint64_t word = *in++;
    for (int i = t; i < end; ++i) {
      x[i] = static_cast<int>((word >> ((i - t) * site_bits)) & mask);
    }
  }
}

// Site s's bitset packs from bit s·|A| on, so all its words share one
// shift; a word that straddles two packed words spills its high bits into
// the next one, and past the last packed word those bits are the zero
// padding.

void Partitioning::PackPlacement(uint64_t* out) const {
  const size_t words = PlacementWords(num_attributes_, num_sites_);
  std::fill(out, out + words, 0);
  const uint64_t* y = y_.data();
  size_t first = 0;  // s·|A|
  for (int s = 0; s < num_sites_; ++s, first += num_attributes_) {
    const size_t shift = first % 64;
    size_t at = first / 64;
    for (int w = 0; w < site_words_; ++w, ++at) {
      const uint64_t word = *y++;
      out[at] |= word << shift;
      if (shift != 0 && at + 1 < words) out[at + 1] |= word >> (64 - shift);
    }
  }
}

void Partitioning::UnpackPlacement(const uint64_t* in) {
  const size_t words = PlacementWords(num_attributes_, num_sites_);
  uint64_t* y = y_.data();
  size_t first = 0;  // s·|A|
  for (int s = 0; s < num_sites_; ++s, first += num_attributes_) {
    const size_t shift = first % 64;
    size_t at = first / 64;
    for (int w = 0; w < site_words_; ++w, ++at) {
      uint64_t word = in[at] >> shift;
      if (shift != 0 && at + 1 < words) word |= in[at + 1] << (64 - shift);
      const int valid = num_attributes_ - w * 64;
      if (valid < 64) word &= (uint64_t{1} << valid) - 1;
      *y++ = word;
    }
  }
}

Status ValidatePartitioning(const Instance& instance,
                            const Partitioning& partitioning,
                            bool require_disjoint) {
  if (partitioning.num_transactions() != instance.num_transactions() ||
      partitioning.num_attributes() != instance.num_attributes()) {
    return InvalidArgumentError("partitioning dimensions do not match instance");
  }
  if (partitioning.num_sites() <= 0) {
    return InvalidArgumentError("partitioning must have at least one site");
  }
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    if (s < 0 || s >= partitioning.num_sites()) {
      return InfeasibleError(StrFormat(
          "transaction %d is not assigned to a site in range (got %d)", t, s));
    }
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    const int replicas = partitioning.ReplicaCount(a);
    if (replicas < 1) {
      return InfeasibleError(StrFormat(
          "attribute %s is not placed on any site",
          instance.schema().QualifiedName(a).c_str()));
    }
    if (require_disjoint && replicas != 1) {
      return InfeasibleError(StrFormat(
          "attribute %s has %d replicas but disjointness is required",
          instance.schema().QualifiedName(a).c_str(), replicas));
    }
  }
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    for (int a : instance.ReadSetOfTransaction(t)) {
      if (!partitioning.HasAttribute(a, s)) {
        return InfeasibleError(StrFormat(
            "single-sitedness violated: transaction %s reads %s which is "
            "missing on its site %d",
            instance.workload().transaction(t).name.c_str(),
            instance.schema().QualifiedName(a).c_str(), s));
      }
    }
  }
  return Status::Ok();
}

Partitioning SingleSiteBaseline(const Instance& instance, int num_sites) {
  Partitioning partitioning(instance.num_transactions(),
                            instance.num_attributes(), num_sites);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    partitioning.AssignTransaction(t, 0);
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    partitioning.PlaceAttribute(a, 0);
  }
  return partitioning;
}

}  // namespace vpart
