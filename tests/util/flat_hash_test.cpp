#include "util/flat_hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/rng.h"

namespace ct::util {
namespace {

TEST(FlatIdSet, MatchesStdSetThroughGrowth) {
  Rng rng(11);
  FlatIdSet set;
  std::set<std::int32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    // Dense small ids with repeats, plus the odd id near INT32_MAX.
    const auto id = rng.bernoulli(0.01) ? static_cast<std::int32_t>(0x7fffff00 + rng.index(200))
                                        : static_cast<std::int32_t>(rng.index(6000));
    ASSERT_EQ(set.insert(id), reference.insert(id).second);
    if (i % 97 == 0) {
      const auto probe = static_cast<std::int32_t>(rng.index(7000));
      EXPECT_EQ(set.contains(probe), reference.count(probe) == 1);
    }
  }
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_EQ(set.sorted(), std::vector<std::int32_t>(reference.begin(), reference.end()));
  EXPECT_FALSE(FlatIdSet{}.contains(0));
}

TEST(FlatIndex, EmplaceKeepsFirstValueLikeStdMap) {
  Rng rng(12);
  FlatIndex index;
  std::map<std::uint64_t, std::int32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    // Packed pairs, negative halves included.
    const auto hi = static_cast<std::int32_t>(rng.uniform_int(-3, 60));
    const auto lo = static_cast<std::int32_t>(rng.uniform_int(-3, 90));
    const std::uint64_t key = pack_ids(hi, lo);
    const auto value = static_cast<std::int32_t>(rng.index(1000));
    ASSERT_EQ(index.emplace(key, value), reference.emplace(key, value).first->second);
    const std::uint64_t probe = pack_ids(static_cast<std::int32_t>(rng.uniform_int(-3, 70)), 1);
    const auto it = reference.find(probe);
    EXPECT_EQ(index.find(probe), it == reference.end() ? FlatIndex::kAbsent : it->second);
  }
  EXPECT_EQ(index.size(), reference.size());
  std::map<std::uint64_t, std::int32_t> seen;
  index.for_each([&](std::uint64_t key, std::int32_t value) { seen.emplace(key, value); });
  EXPECT_EQ(seen, reference);

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(pack_ids(1, 1)), FlatIndex::kAbsent);
}

TEST(FlatIndex, PackIdsIsInjectiveOnSignedPairs) {
  EXPECT_NE(pack_ids(-1, 0), pack_ids(0, -1));
  EXPECT_NE(pack_ids(1, 0), pack_ids(0, 1));
  EXPECT_EQ(pack_ids(-1, -1), ~std::uint64_t{0});
}

}  // namespace
}  // namespace ct::util
