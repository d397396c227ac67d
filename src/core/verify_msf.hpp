#pragma once

#include <string>

#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "graph/types.hpp"

namespace smp::core {

/// Full MSF verification in O(m + n log n): structural checks (membership,
/// acyclicity, maximality — via graph::validate_spanning_forest) plus the
/// cycle property for every non-forest edge: a spanning forest F is minimum
/// iff every non-forest edge e = (u,v) is heavier under WeightOrder than the
/// heaviest edge on F's u–v path, which a ForestArrangement answers in
/// O(1).  Unlike graph::verify_cut_property (O(m · t), test-sized inputs
/// only), this runs comfortably at the paper's 1M/20M scale.
bool verify_msf(const graph::EdgeList& g, const graph::MsfResult& msf,
                std::string* error = nullptr);

}  // namespace smp::core
