#ifndef VPART_API_SOLVER_REGISTRY_H_
#define VPART_API_SOLVER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/advise.h"
#include "api/events.h"
#include "cost/cost_coefficients.h"
#include "mip/branch_and_bound.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

/// What a registered solver can do; the "auto" policy is a query over these
/// instead of a hard-coded switch (e.g. the latency-penalty carve-out that
/// used to live inside the advisor).
struct SolverCapabilities {
  /// Can prove optimality (within a gap) when given enough time.
  bool exact = false;
  /// Prices the Appendix-A latency term in its objective. Solvers without
  /// it still run under latency_penalty > 0 but optimize the base
  /// objective and only report the exposure of their result.
  bool latency_penalty = false;
  /// Exploits AdviseRequest::num_threads > 1.
  bool multi_threaded = false;
  /// Returns its best incumbent (rather than nothing) on cancel/deadline.
  bool anytime = true;
  /// Same result for a fixed seed and thread count.
  bool deterministic = true;
};

/// Everything a solver needs from its caller beyond the request: unified
/// cancellation/deadline plumbing and the event stream. All fields may be
/// default (never-cancelled token, null callbacks).
struct SolveContext {
  /// Shared cancel flag + deadline. Solvers must poll it (directly or via
  /// flag()) and return their best incumbent promptly once it fires.
  CancellationToken token;
  ProgressCallback progress;
  IncumbentCallback incumbent;
};

/// Raw solver output in the solve (possibly attribute-grouped) space; the
/// advise orchestrator expands, validates, and prices it.
struct SolverRun {
  Partitioning partitioning;
  /// Detail label for AdvisorResult::algorithm_used ("ilp(timeout)->sa",
  /// "portfolio(sa)", ...). Defaults to the registry name when empty.
  std::string algorithm;
  bool proven_optimal = false;
  /// Proof record of the branch & bound behind a proven_optimal claim (the
  /// ilp solver, the portfolio's ILP lane). Its
  /// best_bound is in scalarized (eq. 6) space of the solve instance and
  /// stays -inf for solvers that prove optimality without a bound
  /// (exhaustive enumeration only sets search_exhausted) or don't prove it
  /// at all. AdviseResponse flattens it; the SolutionCertifier's bound
  /// audit cross-checks it against the incumbent, and the serve layer
  /// caches its root basis.
  SearchProof proof;
};

/// Interface every registered solver implements. Solve() is called with the
/// cost model of the (already reduced) instance; implementations read their
/// own option block from the request and must honor ctx.token.
class Solver {
 public:
  virtual ~Solver() = default;
  virtual StatusOr<SolverRun> Solve(const CostCoefficients& cost_model,
                                    const AdviseRequest& request,
                                    const SolveContext& ctx) = 0;
};

using SolverFactory = std::function<std::unique_ptr<Solver>()>;

/// Name -> (capabilities, factory) registry behind the advise API. The
/// global instance self-registers the five built-in solvers (ilp, sa,
/// exhaustive, incremental, portfolio) on first use; embedders may add
/// their own backends, which "auto" then considers by capability.
/// All methods are thread-safe.
class SolverRegistry {
 public:
  /// The process-wide registry (built-ins pre-registered).
  static SolverRegistry& Global();

  /// Registers a solver; fails with kAlreadyExists on a duplicate name.
  Status Register(const std::string& name, SolverCapabilities capabilities,
                  SolverFactory factory);

  /// Removes a registered solver (primarily for tests).
  Status Unregister(const std::string& name);

  bool Contains(const std::string& name) const;
  StatusOr<SolverCapabilities> Capabilities(const std::string& name) const;
  StatusOr<std::unique_ptr<Solver>> Create(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Resolves request.solver to a concrete registered name. Non-"auto"
  /// names are validated against the registry. "auto" is a policy over
  /// capabilities: a multi_threaded solver when the request grants threads
  /// and the objective allows it (latency_penalty needs the capability —
  /// the downgrade is surfaced via `warnings`, never silent), exact
  /// enumeration for tiny instances, the ILP while its linearization stays
  /// small, SA otherwise. `instance` is the instance that will actually be
  /// solved (after any attribute grouping).
  StatusOr<std::string> Resolve(const Instance& instance,
                                const AdviseRequest& request,
                                std::vector<std::string>* warnings) const;

 private:
  struct Entry {
    SolverCapabilities capabilities;
    SolverFactory factory;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> solvers_;
};

/// Built-in registry names.
inline constexpr const char* kSolverAuto = "auto";
inline constexpr const char* kSolverIlp = "ilp";
inline constexpr const char* kSolverSa = "sa";
inline constexpr const char* kSolverExhaustive = "exhaustive";
inline constexpr const char* kSolverIncremental = "incremental";
inline constexpr const char* kSolverPortfolio = "portfolio";

}  // namespace vpart

#endif  // VPART_API_SOLVER_REGISTRY_H_
