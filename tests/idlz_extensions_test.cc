// Tests for the printed listing.
#include <algorithm>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "idlz/listing.h"
#include "scenarios/scenarios.h"

namespace feio::idlz {
namespace {

TEST(ListingTest, ContainsAllNodesAndElements) {
  const IdlzResult r = run(scenarios::fig02_rectangle());
  const std::string listing = print_listing(r);
  EXPECT_NE(listing.find("STRUCTURAL IDEALIZATION"), std::string::npos);
  EXPECT_NE(listing.find("RECTANGULAR SUBDIVISION"), std::string::npos);
  EXPECT_NE(listing.find("NODAL POINT DATA"), std::string::npos);
  EXPECT_NE(listing.find("ELEMENT DATA"), std::string::npos);
  // 1-based last node and element numbers appear.
  EXPECT_NE(listing.find(std::to_string(r.mesh.num_nodes())),
            std::string::npos);
  // Count table rows: one line per node and per element at least.
  const auto lines = static_cast<int>(
      std::count(listing.begin(), listing.end(), '\n'));
  EXPECT_GT(lines, r.mesh.num_nodes() + r.mesh.num_elements());
}

TEST(ListingTest, TablesCanBeDisabled) {
  const IdlzResult r = run(scenarios::fig02_rectangle());
  ListingOptions opts;
  opts.node_table = false;
  opts.element_table = false;
  opts.subdivision_index = false;
  const std::string listing = print_listing(r, opts);
  EXPECT_EQ(listing.find("NODAL POINT DATA"), std::string::npos);
  EXPECT_EQ(listing.find("ELEMENT DATA"), std::string::npos);
  EXPECT_NE(listing.find("STRUCTURAL IDEALIZATION"), std::string::npos);
}

TEST(ListingTest, SubdivisionIndexCountsMatch) {
  const IdlzCase c = scenarios::fig01_glass_joint();
  const IdlzResult r = run(c);
  const std::string listing = print_listing(r);
  EXPECT_NE(listing.find("SUBDIVISION INDEX"), std::string::npos);
  EXPECT_NE(listing.find("SUBDIVISION 5"), std::string::npos);
}

}  // namespace
}  // namespace feio::idlz
