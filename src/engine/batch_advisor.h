#ifndef VPART_ENGINE_BATCH_ADVISOR_H_
#define VPART_ENGINE_BATCH_ADVISOR_H_

#include <string>
#include <vector>

#include "api/advise.h"
#include "solver/advisor.h"
#include "util/status.h"
#include "workload/instance.h"

namespace vpart {

/// One table's standalone problem carved out of a whole-schema instance.
/// The paper solves one program per table (§5: every experiment partitions
/// a table at a time), which makes whole-schema advice embarrassingly
/// parallel: the per-table objectives are independent because every cost
/// term c1..c4 is a sum over (attribute, query) pairs of a single table.
///
/// Semantics note: solving tables independently assigns a transaction a
/// site *per table* (the site its queries against that table execute on).
/// The summed per-table objective therefore prices a multi-table
/// transaction as running each table's queries at that table's chosen
/// site — the natural model once tables are placed independently.
struct TableSubinstance {
  int table_id = -1;
  Instance instance;
  /// Subinstance attribute id -> whole-schema attribute id.
  std::vector<int> attribute_map;
  /// Subinstance transaction id -> whole-schema transaction id.
  std::vector<int> transaction_map;
};

/// Splits `instance` into one subinstance per table that any query touches.
/// Tables no query accesses are omitted (they have no workload to advise).
StatusOr<std::vector<TableSubinstance>> SplitInstanceByTable(
    const Instance& instance);

/// Whole-schema advice options: the per-table solve is an AdviseRequest
/// template (request.time_limit_seconds is the per-table budget;
/// request.num_threads stays per-solve, so leave it 1 unless tables are few
/// and huge).
struct BatchAdviseRequest {
  AdviseRequest request;
  /// Tables advised concurrently; 0 = ThreadPool::DefaultThreadCount().
  int table_threads = 0;
};

struct TableAdvice {
  int table_id = -1;
  std::string table_name;
  AdvisorResult result;
};

/// Whole-schema advice: per-table recommendations plus a merged view.
struct BatchAdvisorResult {
  /// One entry per advised table, ascending table id.
  std::vector<TableAdvice> tables;
  /// Schema-wide merge: `cost`/`single_site_cost`/`breakdown` are sums over
  /// the tables, `partitioning.y` is the union of the per-table placements
  /// (attributes of untouched tables land on site 0), and
  /// `partitioning.x` projects each transaction to the site it serves the
  /// most workload weight on (its exact per-table sites live in `tables`).
  AdvisorResult combined;
  int threads_used = 1;
  double seconds = 0.0;
};

/// Merges per-table results (results[i] answers subs[i]) into the combined
/// whole-schema view documented on BatchAdvisorResult. This is the single
/// merge implementation: AdviseSchema calls it after its in-process pool
/// solves, and DistCoordinator calls it with results shipped back from
/// worker processes — so distributed table-mode advice is byte-identical to
/// a local batch over the same per-table answers. `threads_used`/`seconds`
/// are the caller's to fill (the merge cannot know the wall clock of the
/// solves that produced its inputs).
StatusOr<BatchAdvisorResult> MergeTableAdvice(
    const Instance& instance, const std::vector<TableSubinstance>& subs,
    std::vector<AdvisorResult> results, int num_sites);

/// Decomposes `instance` per table and advises all tables concurrently on a
/// work-stealing pool, each through the service API (api/advise.h). Results
/// are identical for any thread count (the per-table solves are independent
/// and seeded); only the wall clock changes. Fails if any per-table solve
/// fails.
StatusOr<BatchAdvisorResult> AdviseSchema(const Instance& instance,
                                          const BatchAdviseRequest& batch);

}  // namespace vpart

#endif  // VPART_ENGINE_BATCH_ADVISOR_H_
