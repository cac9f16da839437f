#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace vpart {

double Query::RowsInTable(int table_id) const {
  for (const auto& [tbl, rows] : table_rows) {
    if (tbl == table_id) return rows;
  }
  return 0.0;
}

StatusOr<int> Workload::AddTransaction(const std::string& name) {
  if (name.empty()) {
    return InvalidArgumentError("transaction name must not be empty");
  }
  if (transaction_by_name_.count(name) > 0) {
    return AlreadyExistsError("duplicate transaction name: " + name);
  }
  Transaction txn;
  txn.id = static_cast<int>(transactions_.size());
  txn.name = name;
  transaction_by_name_[name] = txn.id;
  transactions_.push_back(std::move(txn));
  return transactions_.back().id;
}

StatusOr<int> Workload::AddQuery(int transaction_id, Query query) {
  if (transaction_id < 0 || transaction_id >= num_transactions()) {
    return OutOfRangeError(
        StrFormat("transaction id %d out of range", transaction_id));
  }
  if (!std::isfinite(query.frequency) || query.frequency <= 0) {
    return InvalidArgumentError(
        "query frequency must be positive and finite: " + query.name);
  }
  for (const auto& [tbl, rows] : query.table_rows) {
    (void)tbl;
    if (!std::isfinite(rows) || rows <= 0) {
      return InvalidArgumentError(
          "query table rows must be positive and finite: " + query.name);
    }
  }
  std::sort(query.attributes.begin(), query.attributes.end());
  query.attributes.erase(
      std::unique(query.attributes.begin(), query.attributes.end()),
      query.attributes.end());
  query.id = static_cast<int>(queries_.size());
  query.transaction_id = transaction_id;
  if (query.name.empty()) {
    query.name = StrFormat("q%d", query.id);
  }
  transactions_[transaction_id].query_ids.push_back(query.id);
  queries_.push_back(std::move(query));
  return queries_.back().id;
}

StatusOr<int> Workload::FindTransaction(const std::string& name) const {
  auto it = transaction_by_name_.find(name);
  if (it == transaction_by_name_.end()) {
    return NotFoundError("no such transaction: " + name);
  }
  return it->second;
}

}  // namespace vpart
