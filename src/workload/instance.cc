#include "workload/instance.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "util/string_util.h"

namespace vpart {

StatusOr<Instance> Instance::Create(std::string name, Schema schema,
                                    Workload workload) {
  Instance instance;
  instance.name_ = std::move(name);
  instance.schema_ = std::move(schema);
  instance.workload_ = std::move(workload);
  VPART_RETURN_IF_ERROR(instance.BuildDerived());
  return instance;
}

Status Instance::BuildDerived() {
  const int num_a = num_attributes();
  const int num_q = num_queries();
  const int num_t = num_transactions();
  if (num_a == 0) return InvalidArgumentError("instance has no attributes");
  if (num_t == 0) return InvalidArgumentError("instance has no transactions");

  alpha_.assign(static_cast<size_t>(num_a) * num_q, 0);
  beta_.assign(static_cast<size_t>(num_a) * num_q, 0);
  weight_.assign(static_cast<size_t>(num_a) * num_q, 0.0);
  phi_.assign(static_cast<size_t>(num_a) * num_t, 0);
  read_set_.assign(num_t, {});
  touched_.assign(num_t, {});
  total_weight_ = 0.0;

  for (int q = 0; q < num_q; ++q) {
    const Query& query = workload_.query(q);
    // Check that every referenced attribute's table is listed.
    for (int a : query.attributes) {
      if (a < 0 || a >= num_a) {
        return OutOfRangeError(StrFormat(
            "query %s references attribute id %d out of range",
            query.name.c_str(), a));
      }
      const int tbl = schema_.attribute(a).table_id;
      if (query.RowsInTable(tbl) <= 0) {
        return InvalidArgumentError(StrFormat(
            "query %s references %s but lists no row count for table %s",
            query.name.c_str(), schema_.QualifiedName(a).c_str(),
            schema_.table(tbl).name.c_str()));
      }
      alpha_[Idx(a, q)] = 1;
    }
    // β and W: every attribute of every accessed table.
    std::set<int> seen_tables;
    for (const auto& [tbl, rows] : query.table_rows) {
      if (tbl < 0 || tbl >= schema_.num_tables()) {
        return OutOfRangeError(StrFormat("query %s accesses table id %d out of range",
                                         query.name.c_str(), tbl));
      }
      if (!seen_tables.insert(tbl).second) {
        return InvalidArgumentError(StrFormat(
            "query %s lists table %s twice", query.name.c_str(),
            schema_.table(tbl).name.c_str()));
      }
      for (int a : schema_.table(tbl).attribute_ids) {
        beta_[Idx(a, q)] = 1;
        weight_[Idx(a, q)] =
            schema_.attribute(a).width * query.frequency * rows;
        total_weight_ += weight_[Idx(a, q)];
      }
    }
    // φ and read sets.
    if (!query.is_write()) {
      const int t = query.transaction_id;
      for (int a : query.attributes) {
        phi_[static_cast<size_t>(a) * num_t + t] = 1;
      }
    }
  }

  // Finite widths, frequencies and row counts can still multiply past the
  // largest double; an infinite weight would price every layout at inf.
  if (!std::isfinite(total_weight_)) {
    return InvalidArgumentError(
        "instance weights overflow: width x frequency x rows must stay "
        "finite");
  }

  for (int t = 0; t < num_t; ++t) {
    std::set<int> touched;
    for (int q : workload_.transaction(t).query_ids) {
      const Query& query = workload_.query(q);
      for (const auto& [tbl, rows] : query.table_rows) {
        (void)rows;
        for (int a : schema_.table(tbl).attribute_ids) touched.insert(a);
      }
    }
    touched_[t].assign(touched.begin(), touched.end());
    for (int a = 0; a < num_a; ++a) {
      if (phi(a, t)) read_set_[t].push_back(a);
    }
  }
  return Status::Ok();
}

int InstanceBuilder::AddTable(const std::string& name) {
  auto result = schema_.AddTable(name);
  assert(result.ok());
  return result.value();
}

int InstanceBuilder::AddAttribute(int table_id, const std::string& name,
                                  double width) {
  auto result = schema_.AddAttribute(table_id, name, width);
  assert(result.ok());
  return result.value();
}

int InstanceBuilder::AddTransaction(const std::string& name) {
  auto result = workload_.AddTransaction(name);
  assert(result.ok());
  return result.value();
}

int InstanceBuilder::AddQuery(int transaction_id, const std::string& name,
                              QueryKind kind, double frequency,
                              std::vector<int> attributes,
                              std::vector<std::pair<int, double>> table_rows,
                              double default_rows) {
  Query query;
  query.name = name;
  query.kind = kind;
  query.frequency = frequency;
  query.attributes = std::move(attributes);
  query.table_rows = std::move(table_rows);
  // Auto-add tables owning referenced attributes.
  for (int a : query.attributes) {
    assert(a >= 0 && a < schema_.num_attributes());
    const int tbl = schema_.attribute(a).table_id;
    if (query.RowsInTable(tbl) <= 0) {
      query.table_rows.emplace_back(tbl, default_rows);
    }
  }
  auto result = workload_.AddQuery(transaction_id, std::move(query));
  assert(result.ok());
  return result.value();
}

std::pair<int, int> InstanceBuilder::AddUpdateQuery(
    int transaction_id, const std::string& name, double frequency,
    std::vector<int> read_attributes, std::vector<int> written_attributes,
    double rows) {
  // Read sub-query references everything the UPDATE touches (predicate
  // columns and written columns alike).
  std::vector<int> all = read_attributes;
  all.insert(all.end(), written_attributes.begin(), written_attributes.end());
  int read_id = AddQuery(transaction_id, name + ".r", QueryKind::kRead,
                         frequency, std::move(all), {}, rows);
  int write_id = AddQuery(transaction_id, name + ".w", QueryKind::kWrite,
                          frequency, std::move(written_attributes), {}, rows);
  return {read_id, write_id};
}

StatusOr<Instance> InstanceBuilder::Build() {
  return Instance::Create(std::move(name_), std::move(schema_),
                          std::move(workload_));
}

}  // namespace vpart
