#include "check/certifier.h"

#include <cmath>
#include <memory>
#include <utility>

#include "cost/cost_model_registry.h"
#include "solver/latency.h"
#include "util/string_util.h"

namespace vpart {
namespace {

/// One site's transactions, indexed once so the long-double objective loop
/// is O(|A|·|T|) overall instead of O(|S|·|A|·|T|).
std::vector<std::vector<int>> TransactionsBySite(const Partitioning& p) {
  std::vector<std::vector<int>> by_site(p.num_sites());
  for (int t = 0; t < p.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    if (s >= 0 && s < p.num_sites()) by_site[s].push_back(t);
  }
  return by_site;
}

/// Objective (4) re-accumulated in long double, site-major: for every
/// placed replica (a, s), c2(a) plus c1(a, t) for each transaction homed on
/// s. Deliberately a different summation order (and precision) than
/// CostCoefficients::Objective's transaction-major double loop.
long double RecomputeObjective(const CostCoefficients& model,
                               const Partitioning& p) {
  const std::vector<std::vector<int>> by_site = TransactionsBySite(p);
  long double total = 0.0L;
  for (int s = 0; s < p.num_sites(); ++s) {
    for (int a = 0; a < p.num_attributes(); ++a) {
      if (!p.HasAttribute(a, s)) continue;
      total += static_cast<long double>(model.c2(a));
      for (int t : by_site[s]) {
        total += static_cast<long double>(model.c1(a, t));
      }
    }
  }
  return total;
}

/// Eq. (5) site load in long double: read work of the transactions homed on
/// s over the attributes present there, plus the write work of every
/// replica on s.
long double RecomputeSiteLoad(const CostCoefficients& model,
                              const Partitioning& p,
                              const std::vector<int>& site_transactions,
                              int s) {
  long double load = 0.0L;
  for (int a = 0; a < p.num_attributes(); ++a) {
    if (!p.HasAttribute(a, s)) continue;
    load += static_cast<long double>(model.c4(a));
    for (int t : site_transactions) {
      load += static_cast<long double>(model.c3(a, t));
    }
  }
  return load;
}

}  // namespace

std::string CertificationReport::Summary() const {
  if (certified) {
    return StrFormat("certified (%ld checks)", checks_run);
  }
  std::string out = "REJECTED: ";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += "; ";
    out += failures[i];
  }
  return out;
}

SolutionCertifier::SolutionCertifier(CertifierOptions options)
    : options_(options) {}

CertificationReport SolutionCertifier::Certify(
    const Instance& instance, const AdviseRequest& request,
    const AdviseResponse& response) const {
  CertificationReport report;
  const Partitioning& p = response.result.partitioning;
  auto check = [&report](bool ok, std::string what) {
    ++report.checks_run;
    if (!ok) report.failures.push_back(std::move(what));
  };

  // --- shape -------------------------------------------------------------
  const bool shape_ok = p.num_transactions() == instance.num_transactions() &&
                        p.num_attributes() == instance.num_attributes() &&
                        p.num_sites() == request.num_sites;
  check(shape_ok,
        StrFormat("partitioning shape %dx%dx%d does not match instance "
                  "%dx%d over %d sites",
                  p.num_transactions(), p.num_attributes(), p.num_sites(),
                  instance.num_transactions(), instance.num_attributes(),
                  request.num_sites));
  if (!shape_ok) {
    // Every later check indexes through the shape; stop here.
    report.certified = false;
    return report;
  }

  // --- eq. (2): every transaction on exactly one site in range -----------
  int unassigned = 0;
  for (int t = 0; t < p.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    if (s < 0 || s >= p.num_sites()) ++unassigned;
  }
  check(unassigned == 0,
        StrFormat("%d transactions are not assigned to a site in range",
                  unassigned));

  // --- eq. (3): every attribute placed; exactly once when disjoint -------
  int unplaced = 0;
  int duplicated = 0;
  for (int a = 0; a < p.num_attributes(); ++a) {
    const int replicas = p.ReplicaCount(a);
    if (replicas < 1) ++unplaced;
    if (!request.allow_replication && replicas > 1) ++duplicated;
  }
  check(unplaced == 0,
        StrFormat("%d attributes are not placed on any site", unplaced));
  check(duplicated == 0,
        StrFormat("%d attributes appear in more than one fragment but "
                  "replication is disabled",
                  duplicated));

  // --- eq. (7) linking structure: reads are servable locally -------------
  int remote_reads = 0;
  for (int t = 0; t < p.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    if (s < 0 || s >= p.num_sites()) continue;  // counted above
    for (int a : instance.ReadSetOfTransaction(t)) {
      if (!p.HasAttribute(a, s)) ++remote_reads;
    }
  }
  check(remote_reads == 0,
        StrFormat("%d read attributes are missing from their transaction's "
                  "site (single-sitedness violated)",
                  remote_reads));
  if (!report.failures.empty()) {
    // An infeasible layout makes the cost and bound audits meaningless.
    report.certified = false;
    return report;
  }

  // --- independent cost model --------------------------------------------
  StatusOr<std::shared_ptr<const CostCoefficients>> model =
      CostModelRegistry::Global().Build(BorrowInstance(instance),
                                        request.cost, request.cost_model);
  ++report.checks_run;
  if (!model.ok()) {
    report.failures.push_back("could not rebuild cost model '" +
                              request.cost_model.backend +
                              "': " + model.status().message());
    report.certified = false;
    return report;
  }

  // --- objective (4), recomputed in long double --------------------------
  const long double recomputed = RecomputeObjective(**model, p);
  report.recomputed_cost = static_cast<double>(recomputed);
  const double cost_tol =
      options_.cost_abs_tol +
      options_.cost_rel_tol * std::abs(report.recomputed_cost);
  check(std::abs(response.result.cost - report.recomputed_cost) <= cost_tol,
        StrFormat("reported cost %.9g disagrees with the long-double "
                  "recomputation %.9g (tolerance %.3g)",
                  response.result.cost, report.recomputed_cost, cost_tol));

  // --- first-principles breakdown (A_R + A_W + p·B) ----------------------
  const CostBreakdown breakdown = (*model)->Breakdown(p);
  const double physics_tol =
      options_.physics_rel_tol * (1.0 + std::abs(report.recomputed_cost));
  check(std::abs(breakdown.total - report.recomputed_cost) <= physics_tol,
        StrFormat("first-principles breakdown %.9g disagrees with the "
                  "coefficient recomputation %.9g",
                  breakdown.total, report.recomputed_cost));
  check(std::abs(response.result.breakdown.total - breakdown.total) <=
            physics_tol,
        StrFormat("reported breakdown total %.9g disagrees with the "
                  "recomputed breakdown %.9g",
                  response.result.breakdown.total, breakdown.total));

  // --- eq. (5) load rows --------------------------------------------------
  const std::vector<std::vector<int>> by_site = TransactionsBySite(p);
  for (int s = 0; s < p.num_sites(); ++s) {
    const double recomputed_load =
        static_cast<double>(RecomputeSiteLoad(**model, p, by_site[s], s));
    const double reported_load = (*model)->SiteLoad(p, s);
    check(std::abs(reported_load - recomputed_load) <=
              options_.physics_rel_tol * (1.0 + std::abs(recomputed_load)),
          StrFormat("site %d load %.9g disagrees with the long-double "
                    "recomputation %.9g",
                    s, reported_load, recomputed_load));
  }

  // --- baseline and headline metric --------------------------------------
  const Partitioning baseline = SingleSiteBaseline(instance, /*num_sites=*/1);
  report.recomputed_single_site_cost =
      static_cast<double>(RecomputeObjective(**model, baseline));
  const double baseline_tol =
      options_.cost_abs_tol +
      options_.cost_rel_tol * std::abs(report.recomputed_single_site_cost);
  check(std::abs(response.result.single_site_cost -
                 report.recomputed_single_site_cost) <= baseline_tol,
        StrFormat("reported single-site cost %.9g disagrees with the "
                  "recomputation %.9g",
                  response.result.single_site_cost,
                  report.recomputed_single_site_cost));
  if (report.recomputed_single_site_cost > 0) {
    const double reduction =
        100.0 * (1.0 - report.recomputed_cost /
                           report.recomputed_single_site_cost);
    check(std::abs(response.result.reduction_percent - reduction) <= 1e-6 +
              options_.physics_rel_tol * (1.0 + std::abs(reduction)),
          StrFormat("reported reduction %.6g%% disagrees with the "
                    "recomputed %.6g%%",
                    response.result.reduction_percent, reduction));
  }

  // --- Appendix-A latency exposure ---------------------------------------
  if (request.latency_penalty > 0) {
    const double latency =
        LatencyCost(instance, p, request.latency_penalty);
    check(std::abs(response.result.latency_cost - latency) <=
              options_.physics_rel_tol * (1.0 + std::abs(latency)),
          StrFormat("reported latency cost %.9g disagrees with the "
                    "recomputed %.9g",
                    response.result.latency_cost, latency));
  }

  // --- bound audit: does the claimed certificate hold up? ----------------
  if (response.result.proven_optimal) {
    // What the branch & bound minimized: eq. (6), which attribute grouping
    // preserves exactly (it only runs for additive backends), so the
    // solve-space and original-space incumbents agree — except when the
    // Appendix-A latency term is priced. The latency MIP rows let the
    // solver raise read-linearization u variables above x·y (paying extra
    // c1) to relax the psi links, so the MIP objective sits above the
    // re-evaluated cost + LatencyCost of the extracted layout and its
    // bound is not comparable here. Latency-priced proofs therefore skip
    // the numeric bound comparisons (the structural no-tree check below
    // still applies).
    const bool incumbent_exact = request.latency_penalty <= 0;
    const double incumbent = (*model)->ScalarizedObjective(p);
    const double bound_tol = options_.bound_abs_tol +
                             options_.bound_rel_tol * std::abs(incumbent);
    if (response.bnb_nodes > 0 && incumbent_exact) {
      // A dual bound above the incumbent cannot exist for a minimization:
      // the certificate is forged (or the search is numerically broken).
      check(response.best_bound <= incumbent + bound_tol,
            StrFormat("optimality certificate rejected: dual bound %.9g "
                      "exceeds the incumbent %.9g",
                      response.best_bound, incumbent));
      // Without an exhausted tree the proof must be gap-based: the bound
      // has to close to within the requested gap of the incumbent.
      if (!response.search_exhausted) {
        const double gap_room =
            request.ilp.mip_gap * std::abs(incumbent) + bound_tol;
        check(incumbent - response.best_bound <= gap_room,
              StrFormat("optimality claimed but the search was not "
                        "exhausted and the bound %.9g leaves a gap beyond "
                        "%.3g%% of the incumbent %.9g",
                        response.best_bound, 100.0 * request.ilp.mip_gap,
                        incumbent));
      }
    } else if (response.bnb_nodes == 0) {
      // No tree ran: the only valid proof is complete enumeration.
      check(response.search_exhausted,
            "optimality claimed without a branch & bound tree or an "
            "exhausted enumeration");
    }
  }

  // Audit failures recorded by the LP core invalidate the certificate too:
  // a drifted factorization taints every bound the tree computed.
  check(response.lp_stats.audit_failures == 0,
        StrFormat("%ld LP invariant audits failed during the solve",
                  response.lp_stats.audit_failures));

  report.certified = report.failures.empty();
  return report;
}

Status CertifyResponse(const Instance& instance, const AdviseRequest& request,
                       const AdviseResponse& response) {
  const SolutionCertifier certifier;
  const CertificationReport report =
      certifier.Certify(instance, request, response);
  if (report.certified) return Status::Ok();
  return InternalError("solution failed certification: " + report.Summary());
}

}  // namespace vpart
