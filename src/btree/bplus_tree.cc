#include "btree/bplus_tree.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace incdb {

struct BPlusTree::Node {
  bool is_leaf = true;
  // Leaf: keys_ and records_ are parallel, sorted by key (stable on ties).
  // Internal: children_.size() == keys_.size() + 1; subtree children_[i]
  // holds keys < keys_[i] (<=, ties go left of the separator copy), subtree
  // children_[i+1] holds keys >= keys_[i].
  std::vector<int32_t> keys;
  std::vector<uint32_t> records;               // leaf only
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Node* next_leaf = nullptr;                    // leaf chain
};

struct BPlusTree::SplitResult {
  bool split = false;
  int32_t separator = 0;
  std::unique_ptr<Node> right;
};

BPlusTree::BPlusTree(int fanout) : fanout_(std::max(fanout, 4)) {
  root_ = std::make_unique<Node>();
  num_nodes_ = 1;
}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

void BPlusTree::Insert(int32_t key, uint32_t record) {
  SplitResult result = InsertInto(root_.get(), key, record);
  if (result.split) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->keys.push_back(result.separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(result.right));
    root_ = std::move(new_root);
    ++num_nodes_;
  }
  ++size_;
}

BPlusTree::SplitResult BPlusTree::InsertInto(Node* node, int32_t key,
                                             uint32_t record) {
  const size_t max_entries = static_cast<size_t>(fanout_) - 1;
  if (node->is_leaf) {
    const auto it =
        std::upper_bound(node->keys.begin(), node->keys.end(), key);
    const size_t pos = static_cast<size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->records.insert(node->records.begin() + static_cast<long>(pos),
                         record);
    if (node->keys.size() <= max_entries) return {};

    // Split the leaf in half; the separator is the first key of the right
    // half (B+-tree leaves keep all keys).
    const size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>();
    right->is_leaf = true;
    right->keys.assign(node->keys.begin() + static_cast<long>(mid),
                       node->keys.end());
    right->records.assign(node->records.begin() + static_cast<long>(mid),
                          node->records.end());
    node->keys.resize(mid);
    node->records.resize(mid);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right.get();
    ++num_nodes_;
    return {true, right->keys.front(), std::move(right)};
  }

  // Internal node: descend into the child covering `key`.
  const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  const size_t child_idx = static_cast<size_t>(it - node->keys.begin());
  SplitResult child_split =
      InsertInto(node->children[child_idx].get(), key, record);
  if (!child_split.split) return {};

  node->keys.insert(node->keys.begin() + static_cast<long>(child_idx),
                    child_split.separator);
  node->children.insert(
      node->children.begin() + static_cast<long>(child_idx) + 1,
      std::move(child_split.right));
  if (node->keys.size() <= max_entries) return {};

  // Split the internal node; the middle separator moves up.
  const size_t mid = node->keys.size() / 2;
  auto right = std::make_unique<Node>();
  right->is_leaf = false;
  const int32_t up_key = node->keys[mid];
  right->keys.assign(node->keys.begin() + static_cast<long>(mid) + 1,
                     node->keys.end());
  right->children.reserve(node->children.size() - mid - 1);
  for (size_t i = mid + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  ++num_nodes_;
  return {true, up_key, std::move(right)};
}

uint64_t BPlusTree::RangeScan(int32_t lo, int32_t hi,
                              std::vector<uint32_t>* out) const {
  if (lo > hi) return 0;
  uint64_t nodes_visited = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    // Descend to the leftmost leaf that can contain `lo`. Ties go left in
    // the key layout above (separator equals first key of right sibling),
    // so lower_bound with `<` semantics needs upper-bound-style handling:
    // child i covers keys < keys[i]; keys == keys[i] live in child i+1.
    const auto it =
        std::upper_bound(node->keys.begin(), node->keys.end(), lo - 1);
    node = node->children[static_cast<size_t>(it - node->keys.begin())].get();
    ++nodes_visited;
  }
  while (node != nullptr) {
    const auto begin =
        std::lower_bound(node->keys.begin(), node->keys.end(), lo);
    for (auto it = begin; it != node->keys.end(); ++it) {
      if (*it > hi) return nodes_visited;
      out->push_back(
          node->records[static_cast<size_t>(it - node->keys.begin())]);
    }
    node = node->next_leaf;
    if (node != nullptr) ++nodes_visited;
  }
  return nodes_visited;
}

int BPlusTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

int BPlusTree::LeafDepth() const { return height(); }

uint64_t BPlusTree::SizeInBytes() const {
  // Count the payload arrays; traverse iteratively to avoid recursion.
  uint64_t bytes = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    bytes += node->keys.size() * sizeof(int32_t) +
             node->records.size() * sizeof(uint32_t) +
             node->children.size() * sizeof(void*) + sizeof(Node);
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return bytes;
}

Status BPlusTree::CheckInvariants() const {
  return CheckNode(root_.get(), 1, LeafDepth(),
                   std::numeric_limits<int32_t>::min(),
                   std::numeric_limits<int32_t>::max(), /*is_root=*/true);
}

Status BPlusTree::CheckNode(const Node* node, int depth, int leaf_depth,
                            int32_t lo, int32_t hi, bool is_root) const {
  if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
    return Status::Internal("node keys not sorted");
  }
  for (int32_t key : node->keys) {
    if (key < lo || key > hi) return Status::Internal("key outside bounds");
  }
  const size_t max_entries = static_cast<size_t>(fanout_) - 1;
  if (node->keys.size() > max_entries) {
    return Status::Internal("node overfull");
  }
  if (node->is_leaf) {
    if (depth != leaf_depth) return Status::Internal("leaves at uneven depth");
    if (node->keys.size() != node->records.size()) {
      return Status::Internal("leaf keys/records size mismatch");
    }
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  if (!is_root && node->keys.empty()) {
    return Status::Internal("non-root internal node has no keys");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    // Duplicate keys may straddle a separator: a left subtree may contain
    // keys equal to the separator (the separator is the first key of the
    // right sibling at leaf level), so both bounds are inclusive.
    const int32_t child_lo = (i == 0) ? lo : node->keys[i - 1];
    const int32_t child_hi = (i == node->keys.size()) ? hi : node->keys[i];
    INCDB_RETURN_IF_ERROR(CheckNode(node->children[i].get(), depth + 1,
                                    leaf_depth, child_lo, child_hi,
                                    /*is_root=*/false));
  }
  return Status::OK();
}

}  // namespace incdb
