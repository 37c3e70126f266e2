// Reference answers computed apart from the engine: plain loops and hash
// maps over the generated relations, read straight from the Catalog. The
// benchmark checks every engine answer against these.

#ifndef HTQO_E2EBENCH_REFERENCE_H_
#define HTQO_E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/relation.h"

namespace e2e {

// TPC-H Q5: (n_name, revenue), revenue descending.
std::vector<std::pair<std::string, double>> ReferenceQ5(
    const htqo::Catalog& db, const std::string& region,
    const std::string& date);

// TPC-H Q8 (flat and nested): (o_orderyear, volume), year ascending.
std::vector<std::pair<int64_t, double>> ReferenceQ8(const htqo::Catalog& db,
                                                    const std::string& region,
                                                    const std::string& type);

// SELECT DISTINCT r1.a of the line query over r1..rn, by backward
// reachability; ascending.
std::vector<int64_t> ReferenceLine(const htqo::Catalog& db, std::size_t n);

// SELECT DISTINCT r1.a of the chain (cycle) query over r1..rn: the r1.a
// values that start a closed walk r1 -> ... -> rn -> back; ascending.
std::vector<int64_t> ReferenceChain(const htqo::Catalog& db, std::size_t n);

// A query shape: variables 0..num_vars-1, binary atoms (u, v) over
// relation `relations[edge_relation[e]]` columns (a, b).
struct Shape {
  std::string name;
  std::size_t num_vars = 0;
  std::vector<std::pair<int, int>> edges;
  std::vector<int> edge_relation;
};

// Values of variable 0 that extend to a satisfying assignment of every
// atom, by backtracking; ascending.
std::vector<int64_t> ReferenceShape(
    const Shape& shape, const std::vector<const htqo::Relation*>& relations);

// Relative closeness of two sums.
bool CloseTo(double a, double b);

}  // namespace e2e

#endif  // HTQO_E2EBENCH_REFERENCE_H_
