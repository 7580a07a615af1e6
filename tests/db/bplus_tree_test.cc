#include "db/bplus_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace clouddb::db {
namespace {

using Tree = BPlusTree<int, int>;

TEST(BPlusTreeTest, EmptyTree) {
  Tree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Find(5), nullptr);
  EXPECT_EQ(tree.Height(), 1u);
  std::string err;
  EXPECT_TRUE(tree.Validate(&err)) << err;
}

TEST(BPlusTreeTest, InsertAndFind) {
  Tree tree;
  EXPECT_TRUE(tree.Insert(5, 50));
  EXPECT_TRUE(tree.Insert(3, 30));
  EXPECT_TRUE(tree.Insert(7, 70));
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Find(5), nullptr);
  EXPECT_EQ(*tree.Find(5), 50);
  EXPECT_EQ(*tree.Find(3), 30);
  EXPECT_EQ(*tree.Find(7), 70);
  EXPECT_EQ(tree.Find(4), nullptr);
}

TEST(BPlusTreeTest, DuplicateInsertFails) {
  Tree tree;
  EXPECT_TRUE(tree.Insert(1, 10));
  EXPECT_FALSE(tree.Insert(1, 99));
  EXPECT_EQ(*tree.Find(1), 10);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, GrowsThroughSplits) {
  Tree tree;
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(tree.Insert(i, i));
  EXPECT_GT(tree.Height(), 2u);
  EXPECT_EQ(tree.size(), static_cast<size_t>(kN));
  std::string err;
  ASSERT_TRUE(tree.Validate(&err)) << err;
  for (int i = 0; i < kN; ++i) ASSERT_EQ(*tree.Find(i), i);
}

TEST(BPlusTreeTest, ReverseOrderInsertionValid) {
  Tree tree;
  for (int i = 2000; i >= 0; --i) ASSERT_TRUE(tree.Insert(i, i));
  std::string err;
  ASSERT_TRUE(tree.Validate(&err)) << err;
  int expected = 0;
  tree.Scan(nullptr, true, nullptr, true, [&](const int& k, const int&) {
    EXPECT_EQ(k, expected++);
    return true;
  });
  EXPECT_EQ(expected, 2001);
}

TEST(BPlusTreeTest, ScanAllInOrder) {
  Tree tree;
  for (int i : {5, 1, 9, 3, 7}) tree.Insert(i, i);
  std::vector<int> keys;
  tree.Scan(nullptr, true, nullptr, true, [&](const int& k, const int&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(BPlusTreeTest, ScanRangeBounds) {
  Tree tree;
  for (int i = 0; i < 100; ++i) tree.Insert(i, i);
  auto collect = [&](const int* lo, bool li, const int* hi, bool hi_inc) {
    std::vector<int> keys;
    tree.Scan(lo, li, hi, hi_inc, [&](const int& k, const int&) {
      keys.push_back(k);
      return true;
    });
    return keys;
  };
  int lo = 10, hi = 13;
  EXPECT_EQ(collect(&lo, true, &hi, true), (std::vector<int>{10, 11, 12, 13}));
  EXPECT_EQ(collect(&lo, false, &hi, true), (std::vector<int>{11, 12, 13}));
  EXPECT_EQ(collect(&lo, true, &hi, false), (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(collect(&lo, false, &hi, false), (std::vector<int>{11, 12}));
  // Open-ended scans.
  int lo2 = 97;
  EXPECT_EQ(collect(&lo2, true, nullptr, true), (std::vector<int>{97, 98, 99}));
  int hi2 = 2;
  EXPECT_EQ(collect(nullptr, true, &hi2, true), (std::vector<int>{0, 1, 2}));
}

TEST(BPlusTreeTest, ScanEarlyStop) {
  Tree tree;
  for (int i = 0; i < 100; ++i) tree.Insert(i, i);
  int visited = 0;
  tree.Scan(nullptr, true, nullptr, true,
            [&](const int&, const int&) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
}

TEST(BPlusTreeTest, ScanEmptyRange) {
  Tree tree;
  for (int i = 0; i < 10; ++i) tree.Insert(i * 10, i);
  int lo = 11, hi = 19;
  int visited = 0;
  tree.Scan(&lo, true, &hi, true, [&](const int&, const int&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0);
}

TEST(BPlusTreeTest, StringKeys) {
  BPlusTree<std::string, int> tree;
  tree.Insert("banana", 1);
  tree.Insert("apple", 2);
  tree.Insert("cherry", 3);
  std::vector<std::string> keys;
  tree.Scan(nullptr, true, nullptr, true,
            [&](const std::string& k, const int&) {
              keys.push_back(k);
              return true;
            });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
}

// ---- Property-based testing against a std::map reference model ----------

class BPlusTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreePropertyTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(GetParam());
  BPlusTree<int, int, std::less<int>, 8> tree;  // small fan-out: deep trees
  std::map<int, int> model;
  std::string err;
  for (int step = 0; step < 4000; ++step) {
    // Keys from a range wider than the inserts can fill, so inserts of new
    // and of present keys (rejected) both keep happening.
    int key = static_cast<int>(rng.UniformInt(0, 3000));
    if (rng.NextDouble() < 0.6) {
      int value = static_cast<int>(rng.UniformInt(0, 1 << 30));
      bool inserted_tree = tree.Insert(key, value);
      bool inserted_model = model.emplace(key, value).second;
      ASSERT_EQ(inserted_tree, inserted_model);
    } else {
      const int* found = tree.Find(key);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(*found, it->second);
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(tree.Validate(&err)) << "step " << step << ": " << err;
    }
  }
  ASSERT_TRUE(tree.Validate(&err)) << err;
  ASSERT_EQ(tree.size(), model.size());
  auto it = model.begin();
  tree.Scan(nullptr, true, nullptr, true, [&](const int& k, const int& v) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BPlusTreePropertyTest, RangeScansMatchModelAfterChurn) {
  Rng rng(99);
  BPlusTree<int, int, std::less<int>, 6> tree;
  std::map<int, int> model;
  // Random-order inserts, about a third of them of keys already present.
  for (int step = 0; step < 3000; ++step) {
    int key = static_cast<int>(rng.UniformInt(0, 5000));
    ASSERT_EQ(tree.Insert(key, key), model.emplace(key, key).second);
  }
  for (int trial = 0; trial < 50; ++trial) {
    int lo = static_cast<int>(rng.UniformInt(0, 5000));
    int hi = lo + static_cast<int>(rng.UniformInt(0, 1000));
    std::vector<int> tree_keys;
    tree.Scan(&lo, true, &hi, true, [&](const int& k, const int&) {
      tree_keys.push_back(k);
      return true;
    });
    std::vector<int> model_keys;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it) {
      model_keys.push_back(it->first);
    }
    ASSERT_EQ(tree_keys, model_keys) << "range [" << lo << "," << hi << "]";
  }
}

// ---------------------------------------------------------------------------
// Copy constructor: a deep copy, node for node (Table::Clone copies every
// index this way). The copy must be indistinguishable from its source
// (Find, Scan order, Validate) and change independently of it.

/// Every (key, value) pair in scan order, through the leaf chain.
std::vector<std::pair<int, int>> Entries(const Tree& tree) {
  std::vector<std::pair<int, int>> out;
  tree.Scan(nullptr, true, nullptr, true, [&](const int& k, const int& v) {
    out.emplace_back(k, v);
    return true;
  });
  return out;
}

TEST(BPlusTreeCopy, NodeBoundarySizesValidateAndFind) {
  // Sizes straddling the 32-key node boundaries: empty, one leaf, leaf
  // exactly full, the first split, one internal level, and the sizes where
  // the internal level fills and splits.
  for (int n : {0, 1, 15, 16, 17, 31, 32, 33, 48, 49, 63, 64, 65, 100, 1024,
                1056, 1057, 5000}) {
    Tree source;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(source.Insert(i * 2, i));
    Tree copy(source);
    ASSERT_EQ(copy.size(), static_cast<size_t>(n)) << "n=" << n;
    EXPECT_EQ(copy.Height(), source.Height()) << "n=" << n;
    std::string err;
    ASSERT_TRUE(copy.Validate(&err)) << "n=" << n << ": " << err;
    EXPECT_EQ(Entries(copy), Entries(source)) << "n=" << n;
    for (int i = 0; i < n; ++i) {
      const int* v = copy.Find(i * 2);
      ASSERT_NE(v, nullptr) << "n=" << n << " key " << i * 2;
      EXPECT_EQ(*v, i);
    }
    EXPECT_EQ(copy.Find(-1), nullptr);
    EXPECT_EQ(copy.Find(2 * n + 1), nullptr);
  }
}

TEST(BPlusTreeCopy, MatchesSourceAndChangesIndependently) {
  Rng rng(77);
  auto source = std::make_unique<Tree>();
  std::map<int, int> source_model;
  // Random-order inserts, so the copied tree has been through splits at
  // every level.
  for (int i = 0; i < 2000; ++i) {
    int k = static_cast<int>(rng.UniformInt(0, 5000));
    if (source->Insert(k, i)) source_model.emplace(k, i);
  }
  Tree copy(*source);
  std::map<int, int> copy_model = source_model;
  std::string err;
  ASSERT_TRUE(copy.Validate(&err)) << err;
  EXPECT_EQ(Entries(copy), Entries(*source));
  // Different inserts on each side: neither may see the other's changes.
  for (int i = 0; i < 600; ++i) {
    for (auto [tree, model] : {std::make_pair(source.get(), &source_model),
                               std::make_pair(&copy, &copy_model)}) {
      int k = static_cast<int>(rng.UniformInt(0, 10000));
      if (tree->Insert(k, -i)) model->emplace(k, -i);
    }
  }
  ASSERT_TRUE(source->Validate(&err)) << err;
  ASSERT_TRUE(copy.Validate(&err)) << err;
  auto as_vector = [](const std::map<int, int>& m) {
    return std::vector<std::pair<int, int>>(m.begin(), m.end());
  };
  EXPECT_EQ(Entries(*source), as_vector(source_model));
  EXPECT_EQ(Entries(copy), as_vector(copy_model));
  EXPECT_NE(source_model, copy_model);
  // The copy owns every node it reaches: it outlives its source.
  source.reset();
  ASSERT_TRUE(copy.Validate(&err)) << err;
  EXPECT_EQ(Entries(copy), as_vector(copy_model));
}

}  // namespace
}  // namespace clouddb::db
