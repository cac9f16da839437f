#include "solver/sa_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/deadline.h"
#include "util/rng.h"
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
  const int words = cost_model.attribute_words();

  // κ(a,s) = c2(a) + Σ_{t on s} c1(a,t), and site s's forced set, the
  // union of the read sets of the transactions on s.
  std::vector<double>& kappa = workspace.kappa;
  kappa.resize(static_cast<size_t>(num_a) * num_s);
  for (int a = 0; a < num_a; ++a) {
    const double c2 = cost_model.c2(a);
    for (int s = 0; s < num_s; ++s) kappa[a * num_s + s] = c2;
  }
  std::vector<uint64_t>& forced = workspace.forced;
  forced.assign(static_cast<size_t>(num_s) * words, 0);
  for (int t = 0; t < num_t; ++t) {
    const int s = p.SiteOfTransaction(t);
    assert(s >= 0 && s < num_s);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      kappa[a * num_s + s] += cost_model.c1(a, t);
    }
    const uint64_t* reads = cost_model.ReadBits(t);
    uint64_t* site_forced = &forced[static_cast<size_t>(s) * words];
    for (int w = 0; w < words; ++w) site_forced[w] |= reads[w];
  }
  const auto is_forced = [&](int a, int s) {
    return (forced[static_cast<size_t>(s) * words + a / 64] >> (a % 64)) & 1;
  };

  p.ClearPlacement();
  for (int a = 0; a < num_a; ++a) {
    int placed = 0;
    int forced_count = 0;
    for (int s = 0; s < num_s; ++s) {
      if (is_forced(a, s)) {
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
      if (!is_forced(a, s) && kappa[a * num_s + s] < 0.0) {
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
  const int words = cost_model.attribute_words();

  for (int t = 0; t < instance.num_transactions(); ++t) {
    const std::vector<int>& reads = instance.ReadSetOfTransaction(t);
    const uint64_t* read_bits = cost_model.ReadBits(t);
    int best_site = -1;
    double best_cost = 0.0;
    for (int s = 0; s < num_s; ++s) {
      if (!IsSubset(read_bits, p.SiteWords(s), words)) continue;  // uncovered
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

/// The inner loop polls ShouldStop every this many iterations, as RunDual
/// polls its deadline: a clock read costs 5–10% of an iteration on a small
/// table.
constexpr long kStopPollIterations = 64;

/// Bits per transaction in a packed x: enough for every site index.
int SiteBits(int num_sites) {
  int bits = 1;
  while ((1 << bits) < num_sites) ++bits;
  return bits;
}

/// One side of findSolution's memo: a fixed half, packed into one 64-bit
/// key, maps to whether findSolution found it feasible, the scalarized
/// objective and the derived half (`words` packed words). Lookups compare
/// whole keys through an open-addressing index. The memo takes its whole
/// capacity of kMaxEntries when it engages, so adding an entry allocates
/// nothing and one call's memo stays bounded however long it anneals. A
/// full memo starts over, keeping what the anneal met most recently.
class FindSolutionMemo {
 public:
  static constexpr int kMaxEntries = 1024;

  /// Engages the memo with `words` packed words of derived half per entry.
  void Engage(int words) {
    words_ = words;
    slots_.assign(kSlots, -1);
    keys_.reserve(kMaxEntries);
    feasible_.reserve(kMaxEntries);
    objectives_.reserve(kMaxEntries);
    halves_.reserve(static_cast<size_t>(kMaxEntries) * words);
  }
  bool engaged() const { return words_ > 0; }

  /// The entry holding `key`, or -1.
  int Find(uint64_t key) const {
    for (size_t i = Home(key);; i = (i + 1) % kSlots) {
      const int entry = slots_[i];
      if (entry < 0 || keys_[entry] == key) return entry;
    }
  }

  /// Adds `key`, which Find() did not hold, and returns the entry's half
  /// for the caller to fill.
  uint64_t* Add(uint64_t key, bool feasible, double objective) {
    if (keys_.size() == kMaxEntries) {
      std::fill(slots_.begin(), slots_.end(), -1);
      keys_.clear();
      feasible_.clear();
      objectives_.clear();
      halves_.clear();
    }
    const int entry = static_cast<int>(keys_.size());
    size_t i = Home(key);
    while (slots_[i] >= 0) i = (i + 1) % kSlots;
    slots_[i] = entry;
    keys_.push_back(key);
    feasible_.push_back(feasible);
    objectives_.push_back(objective);
    halves_.resize(halves_.size() + words_);
    return &halves_[static_cast<size_t>(entry) * words_];
  }

  bool feasible(int entry) const { return feasible_[entry] != 0; }
  double objective(int entry) const { return objectives_[entry]; }
  const uint64_t* half(int entry) const {
    return &halves_[static_cast<size_t>(entry) * words_];
  }

 private:
  /// Twice kMaxEntries, so the index is at most half full.
  static constexpr int kSlotBits = 11;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxEntries);

  /// Fibonacci hashing: the top kSlotBits bits of key · 2^64/φ.
  static size_t Home(uint64_t key) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                               (64 - kSlotBits));
  }

  int words_ = 0;
  std::vector<int> slots_;  // entry, or -1 when free
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> feasible_;
  std::vector<double> objectives_;
  std::vector<uint64_t> halves_;  // words_ per entry
};

/// Scratch of one SolveWithSa call, reused by all of its anneals so the
/// inner loop allocates nothing once the buffers have grown. Owned by the
/// call, never static or shared: concurrent solves stay independent.
///
/// It also memoizes findSolution for the call. With x fixed, ComputeOptimalY reads only
/// x; with y fixed, ComputeOptimalX reads only y; the cost model and
/// allow_replication are fixed for the call. So the fixed half determines
/// the derived half, its feasibility and its objective, and a fixed half
/// the call has already solved is answered by copying them. A side engages
/// when its fixed half packs into one 64-bit key: |T| ≤ 64 / SiteBits(|S|)
/// for x, |A|·|S| ≤ 64 for y.
struct AnnealWorkspace {
  AnnealWorkspace(int num_t, int num_a, int num_sites)
      : sample(std::max(num_t, num_a)),
        site_bits(SiteBits(num_sites)),
        x_words(Partitioning::AssignmentWords(num_t, site_bits)) {
    const int y_words = Partitioning::PlacementWords(num_a, num_sites);
    if (x_words == 1) x_memo.Engage(y_words);
    if (y_words == 1) y_memo.Engage(x_words + y_words);
  }

  OptimalYWorkspace optimal_y;
  Partitioning candidate;
  std::vector<int> sample;  // neighbourhood draws: max(|T|, |A|) ints
  std::vector<int> absent;  // sites lacking a sampled attribute
  int site_bits;  // packed x: bits per transaction
  int x_words;    // packed x: words
  FindSolutionMemo x_memo;  // x → y*(x)
  FindSolutionMemo y_memo;  // y → (x*(y), repaired y)
};

/// findSolution(fix) on `candidate`: re-optimizes the side that `fix_x`
/// leaves free and scores the result into `objective` (set only when it
/// returns true, i.e. feasible). A fixed half met before in this call is
/// answered from the memo; every other one counts in `reoptimizations`.
bool FindSolution(const CostCoefficients& cost_model, bool allow_replication,
                  bool fix_x, AnnealWorkspace& ws, Partitioning& candidate,
                  double& objective, long& reoptimizations) {
  FindSolutionMemo& memo = fix_x ? ws.x_memo : ws.y_memo;
  uint64_t key = 0;
  if (memo.engaged()) {
    if (fix_x) {
      candidate.PackAssignment(ws.site_bits, &key);
    } else {
      candidate.PackPlacement(&key);
    }
    const int entry = memo.Find(key);
    if (entry >= 0) {
      if (!memo.feasible(entry)) return false;
      const uint64_t* half = memo.half(entry);
      if (!fix_x) {
        candidate.UnpackAssignment(ws.site_bits, half);
        half += ws.x_words;
      }
      candidate.UnpackPlacement(half);
      objective = memo.objective(entry);
      return true;
    }
  }
  ++reoptimizations;
  const bool ok =
      fix_x ? ComputeOptimalY(cost_model, candidate, allow_replication,
                              ws.optimal_y)
            : ComputeOptimalX(cost_model, candidate, allow_replication);
  if (ok) objective = cost_model.ScalarizedObjective(candidate);
  if (memo.engaged()) {
    uint64_t* half = memo.Add(key, ok, ok ? objective : 0.0);
    if (ok) {
      if (!fix_x) {
        candidate.PackAssignment(ws.site_bits, half);
        half += ws.x_words;
      }
      candidate.PackPlacement(half);
    }
  }
  return ok;
}

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
      if (result.iterations % kStopPollIterations == 0 &&
          ShouldStop(options, deadline)) {
        break;
      }
      candidate = current;  // copy-assign: reuses the candidate's buffers
      int* sample = ws.sample.data();

      // Neighborhood of x: move ~10% of transactions to random sites.
      if (num_sites > 1) {
        rng.SampleWithoutReplacement(num_t, txn_moves, sample);
        for (int m = 0; m < txn_moves; ++m) {
          candidate.AssignTransaction(
              sample[m], static_cast<int>(rng.NextBounded(num_sites)));
        }
      }
      // Neighborhood of y: extend replication of ~10% of attributes.
      if (options.allow_replication && num_sites > 1) {
        rng.SampleWithoutReplacement(num_a, attr_moves, sample);
        for (int m = 0; m < attr_moves; ++m) {
          const int idx = sample[m];
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
      double candidate_obj = 0.0;
      const bool ok =
          FindSolution(cost_model, options.allow_replication, fix_x, ws,
                       candidate, candidate_obj, result.reoptimizations);
      fix_x = !fix_x;  // Algorithm 1 line 16
      ++result.iterations;
      if (!ok) continue;  // infeasible neighborhood (disjoint mode)

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
  const Instance& instance = cost_model.instance();
  AnnealWorkspace workspace(instance.num_transactions(),
                            instance.num_attributes(), num_sites);
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
