// Cost-model API: backend lookup, bit-for-bit parity of the "paper"
// backend with the historical direct path, the hardware-scenario backends'
// invariants, and the JSON/API round trip of CostModelSpec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "cost/cost_backends.h"
#include "cost/cost_model.h"
#include "cost/cost_model_registry.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "solver/sa_solver.h"
#include "util/rng.h"

namespace vpart {
namespace {

// Golden TPC-C objective values (see tpcc_golden_test.cc); the new
// interface path must reproduce them exactly.
constexpr double kSingleSiteCost = 50163.0;

Partitioning RandomPartitioning(const Instance& instance, int sites,
                                Rng& rng) {
  Partitioning p(instance.num_transactions(), instance.num_attributes(),
                 sites);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
    if (rng.NextBool(0.3)) {
      p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
    }
  }
  return p;
}

std::shared_ptr<const CostCoefficients> Build(const Instance& instance,
                                              const std::string& backend,
                                              CostParams params = {}) {
  CostModelSpec spec;
  spec.backend = backend;
  auto built = CostModelRegistry::Global().Build(BorrowInstance(instance),
                                                 params, spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *built;
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(CostModelRegistryTest, BuiltinsAreRegistered) {
  const CostModelRegistry& registry = CostModelRegistry::Global();
  EXPECT_TRUE(registry.Contains(kCostModelPaper));
  EXPECT_TRUE(registry.Contains(kCostModelCacheline));
  EXPECT_TRUE(registry.Contains(kCostModelDiskPage));
  auto paper = registry.Capabilities(kCostModelPaper);
  ASSERT_TRUE(paper.ok());
  EXPECT_TRUE(paper->network_transfer);
  auto disk = registry.Capabilities(kCostModelDiskPage);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE(disk->network_transfer);
}

TEST(CostModelRegistryTest, UnknownBackendListsRegisteredOnes) {
  Instance tpcc = MakeTpccInstance();
  CostModelSpec spec;
  spec.backend = "warp_drive";
  auto built = CostModelRegistry::Global().Build(BorrowInstance(tpcc),
                                                 CostParams{}, spec);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("warp_drive"), std::string::npos);
  EXPECT_NE(built.status().message().find("cacheline"), std::string::npos);
  EXPECT_NE(built.status().message().find("disk_page"), std::string::npos);
  EXPECT_NE(built.status().message().find("paper"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Paper-backend parity: the pluggable path must be bit-for-bit the old one
// ---------------------------------------------------------------------------

TEST(PaperBackendParityTest, CoefficientsMatchDirectPathBitForBit) {
  Instance tpcc = MakeTpccInstance();
  const CostParams params{.p = 8, .lambda = 0.1};
  CostModel direct(&tpcc, params);
  std::shared_ptr<const CostCoefficients> via_registry =
      Build(tpcc, kCostModelPaper, params);
  for (int t = 0; t < tpcc.num_transactions(); ++t) {
    for (int a = 0; a < tpcc.num_attributes(); ++a) {
      EXPECT_EQ(direct.c1(a, t), via_registry->c1(a, t));
      EXPECT_EQ(direct.c3(a, t), via_registry->c3(a, t));
    }
  }
  for (int a = 0; a < tpcc.num_attributes(); ++a) {
    EXPECT_EQ(direct.c2(a), via_registry->c2(a));
    EXPECT_EQ(direct.c4(a), via_registry->c4(a));
  }
}

TEST(PaperBackendParityTest, GoldenSingleSiteObjectiveThroughInterface) {
  Instance tpcc = MakeTpccInstance();
  std::shared_ptr<const CostCoefficients> model =
      Build(tpcc, kCostModelPaper, {.p = 8, .lambda = 0.0});
  EXPECT_DOUBLE_EQ(model->Objective(SingleSiteBaseline(tpcc, 1)),
                   kSingleSiteCost);
}

TEST(PaperBackendParityTest, ObjectivesMatchOnRandomPartitionings) {
  Instance tpcc = MakeTpccInstance();
  const CostParams params{.p = 8, .lambda = 0.1};
  CostModel direct(&tpcc, params);
  std::shared_ptr<const CostCoefficients> via_registry =
      Build(tpcc, kCostModelPaper, params);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    Partitioning p = RandomPartitioning(tpcc, 3, rng);
    EXPECT_EQ(direct.Objective(p), via_registry->Objective(p));
    EXPECT_EQ(direct.ScalarizedObjective(p),
              via_registry->ScalarizedObjective(p));
    EXPECT_EQ(direct.Breakdown(p).total, via_registry->Breakdown(p).total);
  }
}

// ---------------------------------------------------------------------------
// Backend property: Breakdown().total == Objective() for every backend
// ---------------------------------------------------------------------------

TEST(CostBackendPropertyTest, ObjectiveEqualsBreakdownForEveryBackend) {
  Rng rng(23);
  for (int trial = 0; trial < 12; ++trial) {
    RandomInstanceParams rip;
    rip.num_transactions = 6;
    rip.num_tables = 4;
    rip.update_percent = 30;
    rip.seed = 4000 + trial;
    Instance instance = MakeRandomInstance(rip);
    const int sites = 1 + trial % 3;
    Partitioning p = RandomPartitioning(instance, sites, rng);
    for (const std::string& backend :
         CostModelRegistry::Global().Names()) {
      std::shared_ptr<const CostCoefficients> model =
          Build(instance, backend, {.p = 8, .lambda = 0.1});
      const double objective = model->Objective(p);
      EXPECT_NEAR(objective, model->Breakdown(p).total,
                  1e-9 * (1 + std::abs(objective)))
          << backend << " trial " << trial;
    }
  }
}

// ScalarizedObjective scores the objective and every site's load in one
// pass; it must equal the two-pass definition (1−λ)·Objective + λ·MaxLoad
// bit for bit, for every backend and site count (9 sites overflows the
// pass's stack buffer of site loads). Non-dyadic widths make the
// coefficients inexact, so a sum taken in another order shows.
TEST(CostBackendPropertyTest, OnePassScalarizedObjectiveIsExact) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstanceParams rip;
    rip.num_transactions = 8;
    rip.num_tables = 4;
    rip.update_percent = 30;
    rip.allowed_widths = {0.3, 1.7, 2.9, 5.1};
    rip.seed = 5000 + trial;
    Instance instance = MakeRandomInstance(rip);
    for (const char* backend :
         {kCostModelPaper, kCostModelCacheline, kCostModelDiskPage}) {
      for (double lambda : {0.1, 0.7}) {
        std::shared_ptr<const CostCoefficients> model =
            Build(instance, backend, {.p = 8, .lambda = lambda});
        for (int sites : {1, 2, 3, 9}) {
          Partitioning p(instance.num_transactions(),
                         instance.num_attributes(), sites);
          for (int t = 0; t < instance.num_transactions(); ++t) {
            p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
          }
          ASSERT_TRUE(ComputeOptimalY(*model, p));
          EXPECT_EQ(model->ScalarizedObjective(p),
                    (1.0 - lambda) * model->Objective(p) +
                        lambda * model->MaxLoad(p))
              << backend << " λ " << lambda << " sites " << sites
              << " trial " << trial;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Set-bit kernels against the attribute loops they replaced
// ---------------------------------------------------------------------------

// The per-attribute kernels as they were before y became per-site
// bitsets: each tests HasAttribute for every touched (or read) attribute
// in ascending order. The set-bit walks must add the same terms in the
// same order, so they match these bit for bit.
namespace attribute_loop {

double TransactionOnSiteCost(const CostCoefficients& m, const Partitioning& p,
                             int t, int s) {
  double cost = 0.0;
  for (int a : m.instance().TouchedAttributesOfTransaction(t)) {
    if (p.HasAttribute(a, s)) cost += m.c1(a, t);
  }
  return cost;
}

double Objective(const CostCoefficients& m, const Partitioning& p) {
  const Instance& instance = m.instance();
  double objective = 0.0;
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      if (p.HasAttribute(a, s)) objective += m.c1(a, t);
    }
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    if (m.c2(a) != 0.0) objective += m.c2(a) * p.ReplicaCount(a);
  }
  return objective;
}

double ScalarizedObjective(const CostCoefficients& m, const Partitioning& p) {
  const Instance& instance = m.instance();
  std::vector<double> loads(p.num_sites(), 0.0);
  double objective = 0.0;
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      if (p.HasAttribute(a, s)) {
        objective += m.c1(a, t);
        loads[s] += m.c3(a, t);
      }
    }
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    int replicas = 0;
    for (int s = 0; s < p.num_sites(); ++s) {
      if (!p.HasAttribute(a, s)) continue;
      ++replicas;
      if (m.c4(a) != 0.0) loads[s] += m.c4(a);
    }
    if (m.c2(a) != 0.0) objective += m.c2(a) * replicas;
  }
  double max_load = 0.0;
  for (double load : loads) max_load = std::max(max_load, load);
  const double lambda = m.params().lambda;
  return (1.0 - lambda) * objective + lambda * max_load;
}

bool ComputeOptimalY(const CostCoefficients& m, Partitioning& p,
                     bool allow_replication) {
  const Instance& instance = m.instance();
  const int num_a = instance.num_attributes();
  const int num_s = p.num_sites();
  std::vector<double> kappa(static_cast<size_t>(num_a) * num_s);
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_s; ++s) kappa[a * num_s + s] = m.c2(a);
  }
  std::vector<uint8_t> forced(static_cast<size_t>(num_a) * num_s, 0);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      kappa[a * num_s + s] += m.c1(a, t);
    }
    for (int a : instance.ReadSetOfTransaction(t)) forced[a * num_s + s] = 1;
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
      if (forced_count > 1) return false;
      if (forced_count == 0) {
        int best_s = 0;
        for (int s = 1; s < num_s; ++s) {
          if (kappa[a * num_s + s] < kappa[a * num_s + best_s]) best_s = s;
        }
        p.PlaceAttribute(a, best_s);
      }
      continue;
    }
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

bool ComputeOptimalX(const CostCoefficients& m, Partitioning& p,
                     bool allow_replication) {
  const Instance& instance = m.instance();
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const std::vector<int>& reads = instance.ReadSetOfTransaction(t);
    int best_site = -1;
    double best_cost = 0.0;
    for (int s = 0; s < p.num_sites(); ++s) {
      bool covered = true;
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      const double cost = TransactionOnSiteCost(m, p, t, s);
      if (best_site < 0 || cost < best_cost) {
        best_site = s;
        best_cost = cost;
      }
    }
    if (best_site >= 0) {
      p.AssignTransaction(t, best_site);
      continue;
    }
    if (!allow_replication) return false;
    int repair_site = 0;
    double repair_cost = 1e300;
    for (int s = 0; s < p.num_sites(); ++s) {
      double cost = TransactionOnSiteCost(m, p, t, s);
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) cost += m.c2(a);
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

}  // namespace attribute_loop

// An instance with exactly `num_attributes` attributes dealt round-robin
// over four tables, so each table's attributes spread over every word of a
// multi-word bitset; non-dyadic widths and frequencies make the
// coefficients inexact, so a term added out of order shows.
Instance InstanceWithAttributes(int num_attributes, uint64_t seed) {
  constexpr int kTables = 4;
  const double widths[] = {0.3, 1.7, 2.9, 5.1};
  Rng rng(seed);
  InstanceBuilder builder("bits" + std::to_string(num_attributes));
  std::vector<int> tables;
  std::vector<std::vector<int>> columns(kTables);
  for (int i = 0; i < kTables; ++i) {
    tables.push_back(builder.AddTable("R" + std::to_string(i)));
  }
  for (int a = 0; a < num_attributes; ++a) {
    columns[a % kTables].push_back(builder.AddAttribute(
        tables[a % kTables], "a" + std::to_string(a),
        widths[rng.NextBounded(4)]));
  }
  for (int t = 0; t < 8; ++t) {
    const int txn = builder.AddTransaction("T" + std::to_string(t));
    const int queries = 1 + static_cast<int>(rng.NextBounded(3));
    for (int q = 0; q < queries; ++q) {
      const int tbl = static_cast<int>(rng.NextBounded(kTables));
      std::vector<int> refs;
      for (int a : columns[tbl]) {
        if (rng.NextBool(0.3)) refs.push_back(a);
      }
      if (refs.empty()) refs.push_back(columns[tbl].back());
      const std::string name = "q" + std::to_string(t) + "_" +
                               std::to_string(q);
      const double frequency = 0.7 + rng.NextDouble();
      const double rows = 1.0 + static_cast<double>(rng.NextBounded(5));
      if (rng.NextBool(0.3)) {
        builder.AddUpdateQuery(txn, name, frequency, refs, {refs.front()},
                               rows);
      } else {
        builder.AddQuery(txn, name, QueryKind::kRead, frequency, refs,
                         {{tables[tbl], rows}});
      }
    }
  }
  StatusOr<Instance> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

// The set-bit kernels equal the attribute loops bit for bit, on one-word
// (|A| < 64 and = 64) and three-word (|A| = 130) bitsets, at 1, 2, 3 and 9
// sites (9 overflows ScalarizedObjective's stack buffer of site loads).
// ComputeOptimalX starts from sparse random placements, so some
// transactions have no covering site and take the repair path.
TEST(CostBackendPropertyTest, SetBitKernelsMatchTheAttributeLoop) {
  Rng rng(41);
  for (int num_attributes : {37, 64, 130}) {
    Instance instance = InstanceWithAttributes(num_attributes, 700 +
                                               num_attributes);
    ASSERT_EQ(instance.num_attributes(), num_attributes);
    for (const char* backend :
         {kCostModelPaper, kCostModelCacheline, kCostModelDiskPage}) {
      std::shared_ptr<const CostCoefficients> model =
          Build(instance, backend, {.p = 8, .lambda = 0.7});
      for (int sites : {1, 2, 3, 9}) {
        const std::string where = std::string(backend) + " |A| " +
                                  std::to_string(num_attributes) +
                                  " sites " + std::to_string(sites);
        for (int trial = 0; trial < 4; ++trial) {
          Partitioning p = RandomPartitioning(instance, sites, rng);
          EXPECT_EQ(model->Objective(p), attribute_loop::Objective(*model, p))
              << where;
          EXPECT_EQ(model->ScalarizedObjective(p),
                    attribute_loop::ScalarizedObjective(*model, p))
              << where;
          for (int t = 0; t < instance.num_transactions(); ++t) {
            for (int s = 0; s < sites; ++s) {
              EXPECT_EQ(model->TransactionOnSiteCost(p, t, s),
                        attribute_loop::TransactionOnSiteCost(*model, p, t, s))
                  << where << " t " << t << " s " << s;
            }
          }
          for (bool replicate : {true, false}) {
            // An infeasible x leaves y unspecified, so only a derived y
            // is compared.
            Partitioning y_bits = p, y_loop = p;
            const bool y_ok = ComputeOptimalY(*model, y_bits, replicate);
            EXPECT_EQ(y_ok, attribute_loop::ComputeOptimalY(*model, y_loop,
                                                            replicate))
                << where;
            if (y_ok) {
              EXPECT_EQ(y_bits, y_loop) << where;
            }

            Partitioning x_bits(instance.num_transactions(), num_attributes,
                                sites);
            for (int a = 0; a < num_attributes; ++a) {
              if (rng.NextBool(0.6)) {
                x_bits.PlaceAttribute(
                    a, static_cast<int>(rng.NextBounded(sites)));
              }
            }
            Partitioning x_loop = x_bits;
            EXPECT_EQ(ComputeOptimalX(*model, x_bits, replicate),
                      attribute_loop::ComputeOptimalX(*model, x_loop,
                                                      replicate))
                << where;
            EXPECT_EQ(x_bits, x_loop) << where;
          }
        }
      }
    }
  }
}

TEST(CostBackendTest, CachelineRoundsNarrowAttributesUp) {
  // One narrow attribute read n times: the paper charges w bytes per row,
  // the cacheline backend a whole line.
  InstanceBuilder builder("narrow");
  const int r = builder.AddTable("R");
  const int x = builder.AddAttribute(r, "x", 2.0);  // 2-byte column
  const int t = builder.AddTransaction("T");
  builder.AddQuery(t, "q", QueryKind::kRead, 1.0, {x}, {{r, 10.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  std::shared_ptr<const CostCoefficients> paper =
      Build(*instance, kCostModelPaper, {.p = 8, .lambda = 0.0});
  CostModelSpec spec;
  spec.backend = kCostModelCacheline;
  spec.cacheline.line_bytes = 64;
  spec.cacheline.row_header_bytes = 0;
  auto cacheline = CostModelRegistry::Global().Build(
      BorrowInstance(*instance), {.p = 8, .lambda = 0.0}, spec);
  ASSERT_TRUE(cacheline.ok());

  Partitioning p(1, 1, 1);
  p.AssignTransaction(0, 0);
  p.PlaceAttribute(0, 0);
  EXPECT_DOUBLE_EQ(paper->Objective(p), 2.0 * 10.0);     // w * rows
  EXPECT_DOUBLE_EQ((*cacheline)->Objective(p), 64.0 * 10.0);  // line * rows
}

TEST(CostBackendTest, DiskPageChargesSeekPerAccess) {
  // 100-byte rows, 10 rows, 8 KiB pages: 1 data page + 1 seek page.
  InstanceBuilder builder("paged");
  const int r = builder.AddTable("R");
  const int x = builder.AddAttribute(r, "x", 100.0);
  const int t = builder.AddTransaction("T");
  builder.AddQuery(t, "q", QueryKind::kRead, 1.0, {x}, {{r, 10.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  std::shared_ptr<const CostCoefficients> model =
      Build(*instance, kCostModelDiskPage, {.p = 0, .lambda = 0.0});
  Partitioning p(1, 1, 1);
  p.AssignTransaction(0, 0);
  p.PlaceAttribute(0, 0);
  EXPECT_DOUBLE_EQ(model->Objective(p), (1.0 + 1.0) * 8192.0);
}

TEST(CostBackendTest, BackendsRebindToSubinstances) {
  Instance tpcc = MakeTpccInstance();
  for (const std::string& backend : CostModelRegistry::Global().Names()) {
    std::shared_ptr<const CostCoefficients> model =
        Build(tpcc, backend, {.p = 8, .lambda = 0.1});
    auto shared = std::make_shared<const Instance>(MakeTpccInstance());
    std::unique_ptr<CostCoefficients> rebound = model->Rebind(shared);
    ASSERT_NE(rebound, nullptr);
    EXPECT_EQ(rebound->backend(), model->backend());
    const Partitioning baseline = SingleSiteBaseline(tpcc, 1);
    EXPECT_EQ(rebound->Objective(baseline), model->Objective(baseline));
  }
}

TEST(CostBackendTest, InvalidOptionsAreRejected) {
  Instance tpcc = MakeTpccInstance();
  CostModelSpec spec;
  spec.backend = kCostModelCacheline;
  spec.cacheline.line_bytes = 0;
  auto built = CostModelRegistry::Global().Build(BorrowInstance(tpcc),
                                                 CostParams{}, spec);
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);

  spec.backend = kCostModelDiskPage;
  spec.cacheline.line_bytes = 64;
  spec.disk_page.page_bytes = -1;
  built = CostModelRegistry::Global().Build(BorrowInstance(tpcc),
                                            CostParams{}, spec);
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end: AdviseRequest selects a backend
// ---------------------------------------------------------------------------

TEST(CostModelAdviseTest, CachelineAndDiskPageAdviseEndToEnd) {
  Instance tpcc = MakeTpccInstance();
  for (const std::string backend : {kCostModelCacheline, kCostModelDiskPage}) {
    AdviseRequest request;
    request.solver = "sa";
    request.num_sites = 3;
    request.time_limit_seconds = 1.0;
    request.cost_model.backend = backend;
    if (backend == kCostModelDiskPage) request.cost.p = 0;
    StatusOr<AdviseResponse> response = Advise(tpcc, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->cost_model_used, backend);
    EXPECT_GT(response->result.single_site_cost, 0);
    EXPECT_NEAR(response->result.breakdown.total, response->result.cost,
                1e-9 * (1 + std::abs(response->result.cost)));
    EXPECT_TRUE(ValidatePartitioning(tpcc, response->result.partitioning,
                                     false)
                    .ok());
  }
}

TEST(CostModelAdviseTest, NonAdditiveBackendSkipsGroupingWithWarning) {
  // Merging identically-accessed attributes by summing widths is only
  // exact when weights are additive in width; line/page rounding is not.
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = "sa";
  request.num_sites = 2;
  request.time_limit_seconds = 0.5;
  request.use_attribute_grouping = true;
  request.cost_model.backend = kCostModelCacheline;
  StatusOr<AdviseResponse> response = Advise(tpcc, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->result.algorithm_used.find("+groups"),
            std::string::npos);
  bool warned = false;
  for (const std::string& warning : response->warnings) {
    if (warning.find("attribute grouping") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(CostModelAdviseTest, UnknownBackendFailsBeforeSolving) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.cost_model.backend = "warp_drive";
  StatusOr<AdviseResponse> response = Advise(tpcc, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_NE(response.status().message().find("paper"), std::string::npos);
}

TEST(CostModelAdviseTest, NetworkWeightUnderLocalBackendWarns) {
  // disk_page models no network; the p = 8 network default leaking in
  // must be called out (the layout would minimize phantom traffic).
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = "sa";
  request.num_sites = 2;
  request.time_limit_seconds = 0.5;
  request.cost_model.backend = kCostModelDiskPage;  // cost.p stays 8
  StatusOr<AdviseResponse> response = Advise(tpcc, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  bool warned = false;
  for (const std::string& warning : response->warnings) {
    if (warning.find("cost.p") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);

  // With p = 0 (the documented local setting) the warning disappears.
  request.cost.p = 0;
  response = Advise(tpcc, request);
  ASSERT_TRUE(response.ok());
  for (const std::string& warning : response->warnings) {
    EXPECT_EQ(warning.find("cost.p"), std::string::npos) << warning;
  }
}

TEST(CostModelAdviseTest, LatencyPenaltyRejectsNonNetworkBackend) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = "sa";
  request.latency_penalty = 3.0;
  request.cost_model.backend = kCostModelDiskPage;
  StatusOr<AdviseResponse> response = Advise(tpcc, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("disk_page"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON round trip of the cost_model block
// ---------------------------------------------------------------------------

TEST(CostModelJsonTest, ParsesCostModelBlock) {
  const std::string request_text = R"({
    "instance": {"builtin": "tpcc"},
    "solver": "sa",
    "cost_model": {
      "backend": "cacheline",
      "cacheline": {"line_bytes": 128, "row_header_bytes": 8,
                    "read_factor": 1, "write_factor": 3,
                    "transfer_header_bytes": 16},
      "disk_page": {"page_bytes": 4096, "seek_pages": 2, "write_factor": 2}
    }
  })";
  StatusOr<CliRequest> cli = ParseCliRequest(request_text);
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->request.cost_model.backend, kCostModelCacheline);
  EXPECT_DOUBLE_EQ(cli->request.cost_model.cacheline.line_bytes, 128);
  EXPECT_DOUBLE_EQ(cli->request.cost_model.cacheline.write_factor, 3);
  EXPECT_DOUBLE_EQ(cli->request.cost_model.cacheline.transfer_header_bytes,
                   16);
  EXPECT_DOUBLE_EQ(cli->request.cost_model.disk_page.page_bytes, 4096);
  EXPECT_DOUBLE_EQ(cli->request.cost_model.disk_page.seek_pages, 2);
}

TEST(CostModelJsonTest, UnknownBackendErrorListsRegisteredBackends) {
  const std::string request_text = R"({
    "instance": {"builtin": "tpcc"},
    "cost_model": {"backend": "warp_drive"}
  })";
  StatusOr<CliRequest> cli = ParseCliRequest(request_text);
  ASSERT_FALSE(cli.ok());
  EXPECT_EQ(cli.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cli.status().message().find("warp_drive"), std::string::npos);
  EXPECT_NE(cli.status().message().find("paper"), std::string::npos);
  EXPECT_NE(cli.status().message().find("cacheline"), std::string::npos);
  EXPECT_NE(cli.status().message().find("disk_page"), std::string::npos);
}

TEST(CostModelJsonTest, UnrelatedBackendBlocksAreIgnored) {
  // Only the selected backend's block applies: a nonsense disk_page block
  // must not reject a paper request...
  const std::string paper_request = R"({
    "instance": {"builtin": "tpcc"},
    "cost_model": {"backend": "paper", "disk_page": {"page_bytes": 0}}
  })";
  EXPECT_TRUE(ParseCliRequest(paper_request).ok());
  // ...but the same block does reject a disk_page request.
  const std::string disk_request = R"({
    "instance": {"builtin": "tpcc"},
    "cost_model": {"backend": "disk_page", "disk_page": {"page_bytes": 0}}
  })";
  EXPECT_FALSE(ParseCliRequest(disk_request).ok());
}

TEST(CostModelJsonTest, UnknownKeysInCostModelBlocksAreRejected) {
  const std::string request_text = R"({
    "instance": {"builtin": "tpcc"},
    "cost_model": {"backend": "paper", "warp": 1}
  })";
  EXPECT_FALSE(ParseCliRequest(request_text).ok());
  const std::string nested = R"({
    "instance": {"builtin": "tpcc"},
    "cost_model": {"backend": "cacheline", "cacheline": {"lien_bytes": 64}}
  })";
  EXPECT_FALSE(ParseCliRequest(nested).ok());
}

TEST(CostModelJsonTest, ResponseCarriesCostModelName) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = "sa";
  request.num_sites = 2;
  request.time_limit_seconds = 0.5;
  request.cost_model.backend = kCostModelCacheline;
  StatusOr<AdviseResponse> response = Advise(tpcc, request);
  ASSERT_TRUE(response.ok());
  JsonValue json = AdviseResponseToJson(tpcc, *response, false, {});
  const JsonValue* name = json.Find("cost_model");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), kCostModelCacheline);
}

}  // namespace
}  // namespace vpart
