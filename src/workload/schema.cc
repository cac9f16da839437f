#include "workload/schema.h"

#include <cmath>

#include "util/string_util.h"

namespace vpart {

StatusOr<int> Schema::AddTable(const std::string& name) {
  if (name.empty()) return InvalidArgumentError("table name must not be empty");
  if (table_by_name_.count(name) > 0) {
    return AlreadyExistsError("duplicate table name: " + name);
  }
  Table table;
  table.id = static_cast<int>(tables_.size());
  table.name = name;
  table_by_name_[name] = table.id;
  tables_.push_back(std::move(table));
  return tables_.back().id;
}

StatusOr<int> Schema::AddAttribute(int table_id, const std::string& name,
                                   double width) {
  if (table_id < 0 || table_id >= num_tables()) {
    return OutOfRangeError(StrFormat("table id %d out of range", table_id));
  }
  if (name.empty()) {
    return InvalidArgumentError("attribute name must not be empty");
  }
  if (!std::isfinite(width) || width <= 0) {
    return InvalidArgumentError(StrFormat(
        "attribute %s must have a positive finite width", name.c_str()));
  }
  const std::string qualified = tables_[table_id].name + "." + name;
  if (attribute_by_qualified_name_.count(qualified) > 0) {
    return AlreadyExistsError("duplicate attribute: " + qualified);
  }
  Attribute attr;
  attr.id = static_cast<int>(attributes_.size());
  attr.table_id = table_id;
  attr.name = name;
  attr.width = width;
  attribute_by_qualified_name_[qualified] = attr.id;
  tables_[table_id].attribute_ids.push_back(attr.id);
  attributes_.push_back(std::move(attr));
  return attributes_.back().id;
}

StatusOr<int> Schema::FindTable(const std::string& name) const {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) {
    return NotFoundError("no such table: " + name);
  }
  return it->second;
}

StatusOr<int> Schema::FindAttribute(const std::string& qualified_name) const {
  auto it = attribute_by_qualified_name_.find(qualified_name);
  if (it == attribute_by_qualified_name_.end()) {
    return NotFoundError("no such attribute: " + qualified_name);
  }
  return it->second;
}

std::string Schema::QualifiedName(int attribute_id) const {
  const Attribute& attr = attributes_[attribute_id];
  return tables_[attr.table_id].name + "." + attr.name;
}

}  // namespace vpart
