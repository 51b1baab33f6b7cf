// Unit tests for Comm's world <-> comm rank maps: the O(1) path for
// members that form one ascending run of world ranks, and the indexed path
// for every other order.
#include "mpi/comm.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gbc::mpi {
namespace {

// Checks comm_rank/contains against the member list over world ranks
// [-2, hi): every member maps back to its index, everything else to -1.
void expect_inverse(const Comm& c, int hi) {
  for (int w = -2; w < hi; ++w) {
    int expected = -1;
    for (int i = 0; i < c.size(); ++i) {
      if (c.members()[i] == w) expected = i;
    }
    EXPECT_EQ(c.comm_rank(w), expected) << "world rank " << w;
    EXPECT_EQ(c.contains(w), expected >= 0) << "world rank " << w;
  }
  for (int i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.comm_rank(c.world_rank(i)), i);
  }
}

TEST(Comm, ContiguousRangeMapsByOffset) {
  const Comm world(0, {0, 1, 2, 3, 4, 5, 6, 7});
  expect_inverse(world, 12);
  const Comm block(1, {8, 9, 10, 11});  // a block split of a larger world
  expect_inverse(block, 16);
  EXPECT_EQ(block.comm_rank(8), 0);
  EXPECT_EQ(block.comm_rank(11), 3);
  EXPECT_EQ(block.comm_rank(7), -1);
  EXPECT_EQ(block.comm_rank(12), -1);
}

TEST(Comm, StridedMembersUseTheIndex) {
  const Comm column(2, {1, 5, 9, 13});  // an HPL process column
  expect_inverse(column, 16);
  EXPECT_EQ(column.comm_rank(9), 2);
  EXPECT_EQ(column.comm_rank(2), -1);
  // A run with one gap is not contiguous either.
  const Comm gap(3, {3, 4, 6, 7});
  expect_inverse(gap, 10);
  EXPECT_EQ(gap.comm_rank(5), -1);
}

TEST(Comm, ReversedMembersMapToTheirOwnOrder) {
  const Comm reversed(4, {7, 6, 5, 4});
  expect_inverse(reversed, 10);
  EXPECT_EQ(reversed.comm_rank(7), 0);
  EXPECT_EQ(reversed.comm_rank(4), 3);
  const Comm shuffled(5, {2, 0, 3, 1});
  expect_inverse(shuffled, 6);
}

TEST(Comm, SingletonAndEmptyComms) {
  const Comm one(6, {9});
  expect_inverse(one, 12);
  const Comm none(7, {});
  EXPECT_EQ(none.size(), 0);
  expect_inverse(none, 4);
}

}  // namespace
}  // namespace gbc::mpi
