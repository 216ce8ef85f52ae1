// dynamic::IncidenceList: the per-vertex store-id lists the piece search
// reads, checked against a brute-force scan of the store's slots after a
// build on teams of 1, 2 and 4, after appends to the chunked tails, after
// the rebuild that tails outgrowing the CSR trigger, and after clear().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "dynamic/incidence_list.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;
using namespace smp::dynamic;
using graph::EdgeId;
using graph::VertexId;

void insert_random(EdgeStore& s, Rng& rng, int k) {
  const VertexId n = s.num_vertices();
  for (int i = 0; i < k; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    s.insert(u, v, rng.next_double());
  }
}

/// Every vertex lists exactly the slots below `end` it is an endpoint of.
void expect_lists(const IncidenceList& l, const EdgeStore& s, EdgeId end) {
  ASSERT_EQ(l.covered(), end);
  std::vector<std::vector<EdgeId>> want(s.num_vertices());
  for (EdgeId id = 0; id < end; ++id) {
    want[s.edge(id).u].push_back(id);
    want[s.edge(id).v].push_back(id);
  }
  for (VertexId x = 0; x < s.num_vertices(); ++x) {
    std::vector<EdgeId> got;
    IncidenceList::Cursor c = l.arcs(x);
    for (std::uint32_t id = 0; l.next(c, id);) got.push_back(id);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want[x]) << "vertex " << x;
  }
}

class IncidenceLists : public ::testing::TestWithParam<int> {};

TEST_P(IncidenceLists, MatchTheStoreThroughAppendsRebuildsAndClear) {
  ThreadTeam team(GetParam());
  Rng rng(5 + static_cast<std::uint64_t>(GetParam()));
  EdgeStore s(300);
  insert_random(s, rng, 20000);
  for (EdgeId id = 0; id < s.size(); id += 7) s.erase(id);  // dead slots stay
  IncidenceList l;
  l.sync(team, s, s.size());
  expect_lists(l, s, s.size());

  // Appends into the tails, a few slots at a time, with a slot the lists
  // must not cover yet past each bound.
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("append " + std::to_string(round));
    insert_random(s, rng, 300);
    l.sync(team, s, s.size() - 1);
    expect_lists(l, s, s.size() - 1);
  }
  // More arcs than the CSR holds: the lists are built again.
  insert_random(s, rng, 30000);
  l.sync(team, s, s.size());
  expect_lists(l, s, s.size());

  l.clear();
  EXPECT_EQ(l.covered(), 0u);
  l.sync(team, s, s.size());
  expect_lists(l, s, s.size());
}

INSTANTIATE_TEST_SUITE_P(Team, IncidenceLists, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "p";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
