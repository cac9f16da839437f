#include "solver/sa_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/deadline.h"
#include "util/stopwatch.h"

namespace vpart {

bool ComputeOptimalY(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication) {
  OptimalYWorkspace workspace;
  return ComputeOptimalY(cost_model, p, allow_replication, workspace);
}

bool ComputeOptimalY(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication, OptimalYWorkspace& workspace) {
  const Instance& instance = cost_model.instance();
  const int num_a = instance.num_attributes();
  const int num_s = p.num_sites();
  const int num_t = instance.num_transactions();

  // κ(a,s) = c2(a) + Σ_{t on s} c1(a,t).
  std::vector<double>& kappa = workspace.kappa;
  kappa.resize(static_cast<size_t>(num_a) * num_s);
  for (int a = 0; a < num_a; ++a) {
    const double c2 = cost_model.c2(a);
    for (int s = 0; s < num_s; ++s) kappa[a * num_s + s] = c2;
  }
  std::vector<uint8_t>& forced = workspace.forced;
  forced.assign(static_cast<size_t>(num_a) * num_s, 0);
  for (int t = 0; t < num_t; ++t) {
    const int s = p.SiteOfTransaction(t);
    assert(s >= 0 && s < num_s);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      kappa[a * num_s + s] += cost_model.c1(a, t);
    }
    for (int a : instance.ReadSetOfTransaction(t)) {
      forced[a * num_s + s] = 1;
    }
  }

  for (int a = 0; a < num_a; ++a) {
    p.ClearAttribute(a);
    int placed = 0;
    int forced_count = 0;
    for (int s = 0; s < num_s; ++s) {
      if (forced[a * num_s + s]) {
        p.PlaceAttribute(a, s);
        ++placed;
        ++forced_count;
      }
    }
    if (!allow_replication) {
      if (forced_count > 1) return false;  // readers span sites
      if (forced_count == 0) {
        int best_s = 0;
        for (int s = 1; s < num_s; ++s) {
          if (kappa[a * num_s + s] < kappa[a * num_s + best_s]) best_s = s;
        }
        p.PlaceAttribute(a, best_s);
      }
      continue;
    }
    // Replication pays for itself wherever κ < 0.
    for (int s = 0; s < num_s; ++s) {
      if (!forced[a * num_s + s] && kappa[a * num_s + s] < 0.0) {
        p.PlaceAttribute(a, s);
        ++placed;
      }
    }
    if (placed == 0) {
      int best_s = 0;
      for (int s = 1; s < num_s; ++s) {
        if (kappa[a * num_s + s] < kappa[a * num_s + best_s]) best_s = s;
      }
      p.PlaceAttribute(a, best_s);
    }
  }
  return true;
}

bool ComputeOptimalX(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication) {
  const Instance& instance = cost_model.instance();
  const int num_s = p.num_sites();

  for (int t = 0; t < instance.num_transactions(); ++t) {
    const std::vector<int>& reads = instance.ReadSetOfTransaction(t);
    int best_site = -1;
    double best_cost = 0.0;
    for (int s = 0; s < num_s; ++s) {
      bool covered = true;
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      const double cost = cost_model.TransactionOnSiteCost(p, t, s);
      if (best_site < 0 || cost < best_cost) {
        best_site = s;
        best_cost = cost;
      }
    }
    if (best_site >= 0) {
      p.AssignTransaction(t, best_site);
      continue;
    }
    // No covering site. Repair by extending y on the cheapest site.
    if (!allow_replication) return false;
    int repair_site = 0;
    double repair_cost = 1e300;
    for (int s = 0; s < num_s; ++s) {
      double cost = cost_model.TransactionOnSiteCost(p, t, s);
      // Adding the missing replicas costs their κ — approximate with c2.
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) cost += cost_model.c2(a);
      }
      if (cost < repair_cost) {
        repair_cost = cost;
        repair_site = s;
      }
    }
    for (int a : reads) {
      if (!p.HasAttribute(a, repair_site)) p.PlaceAttribute(a, repair_site);
    }
    p.AssignTransaction(t, repair_site);
  }
  return true;
}

namespace {

/// Deadline-or-cancel stop test shared by the anneal loops.
bool ShouldStop(const SaOptions& options, const Deadline& deadline) {
  if (deadline.Expired()) return true;
  return options.cancel_flag != nullptr &&
         options.cancel_flag->load(std::memory_order_relaxed);
}

/// Scratch of one SolveWithSa call, reused by all of its anneals so the
/// inner loop allocates nothing once the buffers have grown. Owned by the
/// call, never static or shared: concurrent solves stay independent.
struct AnnealWorkspace {
  OptimalYWorkspace optimal_y;
  Partitioning candidate;
  std::vector<int> sample;  // neighbourhood indices
  std::vector<int> absent;  // sites lacking a sampled attribute
};

/// One full anneal (Algorithm 1) from the given start. Appends iteration
/// and acceptance counts into `result` and updates the global best.
void AnnealOnce(const CostCoefficients& cost_model, int num_sites,
                const SaOptions& options, const Partitioning* start,
                const Deadline& deadline, Rng& rng, AnnealWorkspace& ws,
                SaResult& result, Partitioning& global_best,
                double& global_best_obj) {
  const Instance& instance = cost_model.instance();
  const int num_t = instance.num_transactions();
  const int num_a = instance.num_attributes();

  // Initial solution: random x, derived y (Algorithm 1 lines 3-5). In
  // disjoint mode a random x is typically infeasible, so start single-sited
  // (always feasible) instead. A caller-provided start wins over both.
  Partitioning current(num_t, num_a, num_sites);
  if (start != nullptr) {
    assert(start->num_transactions() == num_t &&
           start->num_attributes() == num_a &&
           start->num_sites() == num_sites);
    current = *start;
  } else {
    for (int t = 0; t < num_t; ++t) {
      const int s = options.allow_replication
                        ? static_cast<int>(rng.NextBounded(num_sites))
                        : 0;
      current.AssignTransaction(t, s);
    }
    bool feasible = ComputeOptimalY(cost_model, current,
                                    options.allow_replication, ws.optimal_y);
    if (!feasible) {
      // Retry single-sited; always feasible.
      for (int t = 0; t < num_t; ++t) current.AssignTransaction(t, 0);
      ComputeOptimalY(cost_model, current, options.allow_replication,
                      ws.optimal_y);
    }
  }

  double current_obj = cost_model.ScalarizedObjective(current);
  Partitioning best = current;
  double best_obj = current_obj;

  // §5.1 initial temperature: accept a `worsening`-worse solution with the
  // configured probability in the first round.
  const double tau0 =
      -options.worsening_fraction * std::max(best_obj, 1e-12) /
      std::log(options.initial_acceptance);
  double tau = tau0;
  if (result.initial_temperature == 0.0) result.initial_temperature = tau0;

  const int txn_moves =
      std::max(1, static_cast<int>(std::ceil(options.move_fraction * num_t)));
  const int attr_moves =
      std::max(1, static_cast<int>(std::ceil(options.move_fraction * num_a)));

  bool fix_x = true;  // Algorithm 1 line 4: fix <- "x"
  int stale_rounds = 0;
  Partitioning& candidate = ws.candidate;
  while (tau > tau0 * options.min_temperature_ratio &&
         stale_rounds < options.stale_rounds_limit &&
         !ShouldStop(options, deadline)) {
    bool improved_this_round = false;
    for (int i = 0; i < options.inner_iterations; ++i) {
      if (ShouldStop(options, deadline)) break;
      candidate = current;  // copy-assign: reuses the candidate's buffers

      // Neighborhood of x: move ~10% of transactions to random sites.
      if (num_sites > 1) {
        rng.SampleWithoutReplacement(num_t, txn_moves, ws.sample);
        for (int idx : ws.sample) {
          candidate.AssignTransaction(
              idx, static_cast<int>(rng.NextBounded(num_sites)));
        }
      }
      // Neighborhood of y: extend replication of ~10% of attributes.
      if (options.allow_replication && num_sites > 1) {
        rng.SampleWithoutReplacement(num_a, attr_moves, ws.sample);
        for (int idx : ws.sample) {
          ws.absent.clear();
          for (int s = 0; s < num_sites; ++s) {
            if (!candidate.HasAttribute(idx, s)) ws.absent.push_back(s);
          }
          if (!ws.absent.empty()) {
            candidate.PlaceAttribute(
                idx, ws.absent[rng.NextBounded(ws.absent.size())]);
          }
        }
      }

      // findSolution(fix): re-optimize the non-fixed side.
      const bool ok =
          fix_x ? ComputeOptimalY(cost_model, candidate,
                                  options.allow_replication, ws.optimal_y)
                : ComputeOptimalX(cost_model, candidate,
                                  options.allow_replication);
      fix_x = !fix_x;  // Algorithm 1 line 16
      ++result.iterations;
      if (!ok) continue;  // infeasible neighborhood (disjoint mode)

      const double candidate_obj = cost_model.ScalarizedObjective(candidate);
      const double delta = candidate_obj - current_obj;
      if (delta <= 0 ||
          rng.NextDouble() < std::exp(-delta / std::max(tau, 1e-300))) {
        std::swap(current, candidate);
        current_obj = candidate_obj;
        ++result.accepted;
        if (current_obj < best_obj - 1e-12) {
          best = current;
          best_obj = current_obj;
          improved_this_round = true;
        }
      }
    }
    tau *= options.cooling;
    stale_rounds = improved_this_round ? 0 : stale_rounds + 1;
  }

  if (global_best.num_transactions() == 0 || best_obj < global_best_obj) {
    global_best = std::move(best);
    global_best_obj = best_obj;
  }
}

}  // namespace

SaResult SolveWithSa(const CostCoefficients& cost_model, int num_sites,
                     const SaOptions& options) {
  assert(num_sites >= 1);
  Stopwatch watch;
  Deadline deadline(options.time_limit_seconds);
  Rng rng(options.seed);

  SaResult result;
  AnnealWorkspace workspace;
  Partitioning global_best;
  double global_best_obj = 0.0;

  int anneals = 0;
  auto emit_progress = [&]() {
    if (!options.progress) return;
    SaProgress snapshot;
    snapshot.restart = anneals++;
    snapshot.best_scalarized = global_best_obj;
    snapshot.best_cost = cost_model.Objective(global_best);
    snapshot.best = &global_best;
    snapshot.seconds = watch.ElapsedSeconds();
    options.progress(snapshot);
  };

  // First anneal per Algorithm 1 (caller-provided start if any).
  AnnealOnce(cost_model, num_sites, options, options.initial, deadline, rng,
             workspace, result, global_best, global_best_obj);
  emit_progress();

  // Restarts, up to max_restarts and while any time budget lasts:
  // annealing is cheap, so we re-run from diverse starts and keep the
  // best. The first restart begins from the trivial single-site layout —
  // when partitioning does not pay (the paper's rndB…x100 rows) the best
  // answer IS that layout, and a random multi-site start rarely walks back
  // to it.
  if (num_sites > 1 && !ShouldStop(options, deadline)) {
    const Instance& instance = cost_model.instance();
    Partitioning single_site(instance.num_transactions(),
                             instance.num_attributes(), num_sites);
    for (int t = 0; t < instance.num_transactions(); ++t) {
      single_site.AssignTransaction(t, 0);
    }
    ComputeOptimalY(cost_model, single_site, options.allow_replication,
                    workspace.optimal_y);
    AnnealOnce(cost_model, num_sites, options, &single_site, deadline, rng,
               workspace, result, global_best, global_best_obj);
    emit_progress();
    for (int restart = 0;
         restart < options.max_restarts && !ShouldStop(options, deadline);
         ++restart) {
      AnnealOnce(cost_model, num_sites, options, nullptr, deadline, rng,
                 workspace, result, global_best, global_best_obj);
      emit_progress();
    }
  }

  result.partitioning = std::move(global_best);
  result.cost = cost_model.Objective(result.partitioning);
  result.scalarized = global_best_obj;
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace vpart
