#ifndef CLOUDDB_DB_BPLUS_TREE_H_
#define CLOUDDB_DB_BPLUS_TREE_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clouddb::db {

/// In-memory, insert-only B+Tree: the engine's index structure. Tables are
/// append-only, so an index only ever gains keys; it has no erase.
///
/// - Unique keys (composite keys are used for non-unique secondary indexes).
/// - Leaves are linked for ordered range scans.
/// - Copies are deep, node for node (`Table::Clone` copies each index so).
/// - `Validate()` checks all structural invariants; the property-based tests
///   run it against a std::map reference model after every mutation batch.
///
/// `MaxKeys` is the fan-out (max keys per node); splits leave every node
/// other than the root at least MaxKeys/2 keys.
template <typename K, typename V, typename Less = std::less<K>,
          int MaxKeys = 32>
class BPlusTree {
  static_assert(MaxKeys >= 3, "MaxKeys must be at least 3");

 public:
  BPlusTree() : root_(std::make_unique<Node>(/*leaf=*/true)) {}

  /// Deep copy, node for node: the copy has the source's shape and its own
  /// leaf chain, and changes independently of the source.
  BPlusTree(const BPlusTree& other) : less_(other.less_), size_(other.size_) {
    Node* last_leaf = nullptr;
    root_ = CopyNode(*other.root_, &last_leaf);
  }
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept = default;
  BPlusTree& operator=(BPlusTree&&) noexcept = default;

  /// Inserts; returns false (and leaves the tree unchanged) if `key` exists.
  bool Insert(const K& key, V value) {
    bool inserted = false;
    auto split = InsertRecurse(root_.get(), key, std::move(value), &inserted);
    if (split.has_value()) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      new_root->keys.push_back(std::move(split->separator));
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split->right));
      root_ = std::move(new_root);
    }
    if (inserted) ++size_;
    return inserted;
  }

  /// Pointer to the value for `key`, or nullptr.
  const V* Find(const K& key) const {
    const Node* leaf = DescendToLeaf(key);
    int i = LowerBound(leaf->keys, key);
    if (i < static_cast<int>(leaf->keys.size()) && Equal(leaf->keys[i], key)) {
      return &leaf->values[static_cast<size_t>(i)];
    }
    return nullptr;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits entries with lo <= key <= hi in key order (bounds optional via
  /// nullptr; `*_inclusive` ignored for absent bounds). The visitor returns
  /// false to stop early. Visitor signature: bool(const K&, const V&).
  template <typename Visitor>
  void Scan(const K* lo, bool lo_inclusive, const K* hi, bool hi_inclusive,
            Visitor&& visit) const {
    const Node* leaf;
    int i;
    if (lo != nullptr) {
      leaf = DescendToLeaf(*lo);
      i = LowerBound(leaf->keys, *lo);
      if (!lo_inclusive) {
        while (i < static_cast<int>(leaf->keys.size()) &&
               Equal(leaf->keys[static_cast<size_t>(i)], *lo)) {
          ++i;
        }
      }
    } else {
      leaf = LeftmostLeaf();
      i = 0;
    }
    while (leaf != nullptr) {
      for (; i < static_cast<int>(leaf->keys.size()); ++i) {
        const K& k = leaf->keys[static_cast<size_t>(i)];
        if (hi != nullptr) {
          if (less_(*hi, k)) return;                      // k > hi
          if (!hi_inclusive && !less_(k, *hi)) return;    // k == hi, exclusive
        }
        if (!visit(k, leaf->values[static_cast<size_t>(i)])) return;
      }
      leaf = leaf->next;
      i = 0;
    }
  }

  /// Tree height (1 = just a leaf root).
  size_t Height() const {
    size_t h = 1;
    const Node* n = root_.get();
    while (!n->leaf) {
      n = n->children[0].get();
      ++h;
    }
    return h;
  }

  /// Verifies all invariants: key ordering, node occupancy, child/key arity,
  /// uniform leaf depth, leaf-link consistency, separator correctness, and
  /// size bookkeeping. On failure returns false and describes the problem.
  bool Validate(std::string* error) const {
    size_t counted = 0;
    const K* min_seen = nullptr;
    int depth = -1;
    if (!ValidateNode(root_.get(), /*is_root=*/true, nullptr, nullptr, 0,
                      &depth, &counted, error)) {
      return false;
    }
    if (counted != size_) {
      if (error) *error = "size mismatch";
      return false;
    }
    // Leaf chain must enumerate exactly `size_` strictly increasing keys.
    const Node* leaf = LeftmostLeaf();
    size_t chain = 0;
    while (leaf != nullptr) {
      for (const K& k : leaf->keys) {
        if (min_seen != nullptr && !less_(*min_seen, k)) {
          if (error) *error = "leaf chain keys not strictly increasing";
          return false;
        }
        min_seen = &k;
        ++chain;
      }
      leaf = leaf->next;
    }
    if (chain != size_) {
      if (error) *error = "leaf chain size mismatch";
      return false;
    }
    return true;
  }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}

    bool leaf;
    std::vector<K> keys;
    // Internal nodes: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaves only:
    std::vector<V> values;
    Node* next = nullptr;
  };

  static constexpr int kMinKeys = MaxKeys / 2;

  bool Equal(const K& a, const K& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  /// First index i such that keys[i] >= key.
  int LowerBound(const std::vector<K>& keys, const K& key) const {
    int lo = 0;
    int hi = static_cast<int>(keys.size());
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (less_(keys[static_cast<size_t>(mid)], key)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child slot to descend into for `key` in internal node `n`:
  /// first i such that key < keys[i], children index i.
  int ChildIndex(const Node* n, const K& key) const {
    int i = LowerBound(n->keys, key);
    // Separator convention: child i holds keys < keys[i]; keys equal to the
    // separator go right, so advance past equal separators.
    if (i < static_cast<int>(n->keys.size()) &&
        Equal(n->keys[static_cast<size_t>(i)], key)) {
      ++i;
    }
    return i;
  }

  const Node* DescendToLeaf(const K& key) const {
    const Node* n = root_.get();
    while (!n->leaf) {
      n = n->children[static_cast<size_t>(ChildIndex(n, key))].get();
    }
    return n;
  }

  const Node* LeftmostLeaf() const {
    const Node* n = root_.get();
    while (!n->leaf) n = n->children[0].get();
    return n;
  }

  /// Copies the subtree under `from`, appending its leaves, left to right,
  /// to the chain that ends at `*last_leaf`.
  static std::unique_ptr<Node> CopyNode(const Node& from, Node** last_leaf) {
    auto to = std::make_unique<Node>(from.leaf);
    to->keys = from.keys;
    if (from.leaf) {
      to->values = from.values;
      if (*last_leaf != nullptr) (*last_leaf)->next = to.get();
      *last_leaf = to.get();
      return to;
    }
    to->children.reserve(from.children.size());
    for (const auto& child : from.children) {
      to->children.push_back(CopyNode(*child, last_leaf));
    }
    return to;
  }

  struct SplitResult {
    K separator;
    std::unique_ptr<Node> right;
  };

  std::optional<SplitResult> InsertRecurse(Node* n, const K& key, V value,
                                           bool* inserted) {
    if (n->leaf) {
      int i = LowerBound(n->keys, key);
      if (i < static_cast<int>(n->keys.size()) &&
          Equal(n->keys[static_cast<size_t>(i)], key)) {
        *inserted = false;
        return std::nullopt;
      }
      n->keys.insert(n->keys.begin() + i, key);
      n->values.insert(n->values.begin() + i, std::move(value));
      *inserted = true;
      if (static_cast<int>(n->keys.size()) <= MaxKeys) return std::nullopt;
      return SplitLeaf(n);
    }
    int ci = ChildIndex(n, key);
    auto split = InsertRecurse(n->children[static_cast<size_t>(ci)].get(), key,
                               std::move(value), inserted);
    if (!split.has_value()) return std::nullopt;
    n->keys.insert(n->keys.begin() + ci, std::move(split->separator));
    n->children.insert(n->children.begin() + ci + 1, std::move(split->right));
    if (static_cast<int>(n->keys.size()) <= MaxKeys) return std::nullopt;
    return SplitInternal(n);
  }

  SplitResult SplitLeaf(Node* n) {
    int mid = static_cast<int>(n->keys.size()) / 2;
    auto right = std::make_unique<Node>(/*leaf=*/true);
    right->keys.assign(std::make_move_iterator(n->keys.begin() + mid),
                       std::make_move_iterator(n->keys.end()));
    right->values.assign(std::make_move_iterator(n->values.begin() + mid),
                         std::make_move_iterator(n->values.end()));
    n->keys.resize(static_cast<size_t>(mid));
    n->values.resize(static_cast<size_t>(mid));
    right->next = n->next;
    n->next = right.get();
    // Leaf split: the separator is a *copy* of the right node's first key.
    return SplitResult{right->keys.front(), std::move(right)};
  }

  SplitResult SplitInternal(Node* n) {
    assert(!n->keys.empty());  // only overfull nodes split
    int mid = static_cast<int>(n->keys.size()) / 2;
    auto right = std::make_unique<Node>(/*leaf=*/false);
    K separator = std::move(n->keys[static_cast<size_t>(mid)]);
    right->keys.assign(std::make_move_iterator(n->keys.begin() + mid + 1),
                       std::make_move_iterator(n->keys.end()));
    right->children.assign(
        std::make_move_iterator(n->children.begin() + mid + 1),
        std::make_move_iterator(n->children.end()));
    n->keys.resize(static_cast<size_t>(mid));
    n->children.resize(static_cast<size_t>(mid) + 1);
    return SplitResult{std::move(separator), std::move(right)};
  }

  bool ValidateNode(const Node* n, bool is_root, const K* lower, const K* upper,
                    int depth, int* leaf_depth, size_t* counted,
                    std::string* error) const {
    auto fail = [&](const char* msg) {
      if (error) *error = msg;
      return false;
    };
    // Key ordering within the node, and bounds from ancestors.
    for (size_t i = 0; i < n->keys.size(); ++i) {
      if (i > 0 && !less_(n->keys[i - 1], n->keys[i])) {
        return fail("keys not strictly increasing within node");
      }
      if (lower != nullptr && less_(n->keys[i], *lower)) {
        return fail("key below subtree lower bound");
      }
      if (upper != nullptr && !less_(n->keys[i], *upper) && n->leaf == false) {
        return fail("separator above subtree upper bound");
      }
      if (upper != nullptr && n->leaf && !less_(n->keys[i], *upper)) {
        return fail("leaf key above subtree upper bound");
      }
    }
    if (n->leaf) {
      if (n->keys.size() != n->values.size()) {
        return fail("leaf keys/values arity mismatch");
      }
      if (!is_root && static_cast<int>(n->keys.size()) < kMinKeys) {
        return fail("leaf underflow");
      }
      if (static_cast<int>(n->keys.size()) > MaxKeys) {
        return fail("leaf overflow");
      }
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) return fail("leaves at different depths");
      *counted += n->keys.size();
      return true;
    }
    if (n->children.size() != n->keys.size() + 1) {
      return fail("internal node arity mismatch");
    }
    if (!is_root && static_cast<int>(n->keys.size()) < kMinKeys) {
      return fail("internal underflow");
    }
    if (static_cast<int>(n->keys.size()) > MaxKeys) {
      return fail("internal overflow");
    }
    if (is_root && n->keys.empty()) {
      return fail("empty internal root");
    }
    for (size_t i = 0; i < n->children.size(); ++i) {
      const K* lo = i == 0 ? lower : &n->keys[i - 1];
      const K* hi = i == n->keys.size() ? upper : &n->keys[i];
      if (!ValidateNode(n->children[i].get(), false, lo, hi, depth + 1,
                        leaf_depth, counted, error)) {
        return false;
      }
    }
    return true;
  }

  Less less_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_BPLUS_TREE_H_
