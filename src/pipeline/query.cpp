#include "pipeline/query.hpp"

#include <stdexcept>

namespace oda::pipeline {

void QueryConfig::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("QueryConfig: name must not be empty");
  }
  if (max_records_per_batch == 0) {
    throw std::invalid_argument("QueryConfig: max_records_per_batch must be >= 1");
  }
  if (time_column.empty()) {
    throw std::invalid_argument("QueryConfig: time_column must not be empty");
  }
}

}  // namespace oda::pipeline
