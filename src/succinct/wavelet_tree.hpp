// Balanced wavelet tree (paper, Sec. III-B, Fig. 1-2).
//
// The tree stores a sequence over a small integer alphabet as one bit-vector
// per node: at each node, symbols in the lower half of the node's alphabet
// emit a 0, symbols in the upper half a 1, and are routed to the
// corresponding child. rank_c(p) then costs log2(|alphabet|) binary ranks.
//
// The node bit-vector representation is a template parameter so the same
// tree runs over the paper's RRR encoding (`RrrVector`) or the uncompressed
// two-level rank baseline (`PlainRankBitVector`); both expose
// size()/access()/rank0()/rank1()/size_in_bytes().
//
// Mirroring the paper's struct layout, every node carries its two child
// alphabets; with the contiguous integer alphabets we use, those are the
// sub-ranges [lo, mid) and [mid, hi).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/byte_io.hpp"
#include "succinct/bitvector.hpp"
#include "util/bits.hpp"

namespace bwaver {

template <typename BV>
class WaveletTree {
 public:
  /// Builds the node representation from a construction-time plain
  /// bit-vector (e.g. attaches rank structures or RRR-encodes it).
  using Builder = std::function<BV(const BitVector&)>;

  WaveletTree() = default;

  /// Builds the tree over `symbols`, each in [0, alphabet_size).
  /// alphabet_size must be >= 2. The paper optimizes for power-of-two
  /// alphabets (DNA: 4); other sizes yield a slightly unbalanced last level.
  WaveletTree(std::span<const std::uint8_t> symbols, unsigned alphabet_size,
              Builder builder)
      : size_(symbols.size()), alphabet_size_(alphabet_size) {
    if (alphabet_size < 2 || alphabet_size > 256) {
      throw std::invalid_argument("WaveletTree: alphabet size must be in [2, 256]");
    }
    for (std::uint8_t s : symbols) {
      if (s >= alphabet_size) {
        throw std::invalid_argument("WaveletTree: symbol out of alphabet range");
      }
    }
    root_ = build_node(symbols, 0, alphabet_size, builder);
  }

  std::size_t size() const noexcept { return size_; }
  unsigned alphabet_size() const noexcept { return alphabet_size_; }

  /// Tree depth in levels of bit-vectors: ceil(log2(alphabet size)).
  unsigned levels() const noexcept { return ceil_log2(alphabet_size_); }

  /// Occurrences of symbol `c` in positions [0, p), p <= size().
  std::size_t rank(std::uint8_t c, std::size_t p) const noexcept {
    const Node* node = root_.get();
    while (node) {
      if (c >= node->mid) {
        p = node->bits.rank1(p);
        node = node->child1.get();
      } else {
        p = node->bits.rank0(p);
        node = node->child0.get();
      }
    }
    return p;
  }

  /// rank(c, p1) and rank(c, p2) in one descent, p1 <= p2. At every node
  /// both positions take the same branch (the branch depends only on `c`),
  /// so a single walk serves both bounds of an SA interval; node
  /// bit-vectors exposing rank1_pair additionally share their superblock
  /// scan between the two positions.
  std::pair<std::size_t, std::size_t> rank_pair(std::uint8_t c, std::size_t p1,
                                                std::size_t p2) const noexcept {
    const Node* node = root_.get();
    while (node) {
      std::size_t r1, r2;
      if constexpr (requires(const BV& bv) { bv.rank1_pair(p1, p2); }) {
        const auto ranks = node->bits.rank1_pair(p1, p2);
        r1 = ranks.first;
        r2 = ranks.second;
      } else {
        r1 = node->bits.rank1(p1);
        r2 = node->bits.rank1(p2);
      }
      if (c >= node->mid) {
        p1 = r1;
        p2 = r2;
        node = node->child1.get();
      } else {
        p1 -= r1;
        p2 -= r2;
        node = node->child0.get();
      }
    }
    return {p1, p2};
  }

  /// Symbol at position i.
  std::uint8_t access(std::size_t i) const noexcept {
    const Node* node = root_.get();
    std::uint8_t lo = 0, hi = static_cast<std::uint8_t>(alphabet_size_ - 1);
    while (node) {
      if (node->bits.access(i)) {
        i = node->bits.rank1(i);
        lo = node->mid;
        if (!node->child1) return lo;
        node = node->child1.get();
      } else {
        i = node->bits.rank0(i);
        hi = static_cast<std::uint8_t>(node->mid - 1);
        if (!node->child0) return node->lo_value;
        node = node->child0.get();
      }
    }
    return lo <= hi ? lo : hi;  // unreachable for well-formed trees
  }

  /// Position of the (k+1)-th occurrence of symbol c (0-based k); the
  /// inverse of rank. Requires select1/select0 on the node bit-vectors.
  /// Throws std::out_of_range when k >= rank(c, size()).
  std::size_t select(std::uint8_t c, std::size_t k) const {
    return select_walk(root_.get(), c, k);
  }

  std::size_t num_nodes() const noexcept { return count_nodes(root_.get()); }

  /// Payload bytes of all node bit-vectors plus node bookkeeping. Shared
  /// RRR tables are NOT counted here (they are shared across nodes; callers
  /// add GlobalRankTable::device_size_in_bytes() once).
  std::size_t size_in_bytes() const noexcept { return node_bytes(root_.get()); }

  /// Bytes actually on the heap: node bookkeeping always lives there, but
  /// bit-vector payloads adopted from a mapped archive do not.
  std::size_t heap_size_in_bytes() const noexcept {
    return node_heap_bytes(root_.get());
  }

  /// Binary (de)serialization; requires BV::save / BV::load.
  void save(ByteWriter& writer) const {
    writer.u64(size_);
    writer.u32(alphabet_size_);
    save_node(root_.get(), writer);
  }
  static WaveletTree load(ByteReader& reader) {
    WaveletTree tree;
    tree.size_ = reader.u64();
    tree.alphabet_size_ = reader.u32();
    if (tree.alphabet_size_ < 2 || tree.alphabet_size_ > 256) {
      throw IoError("WaveletTree::load: corrupt alphabet size");
    }
    tree.root_ = load_node(reader);
    return tree;
  }

  /// Flat 64-byte-aligned layout (archive format v3); requires
  /// BV::save_flat / BV::load_flat. adopt=true borrows node payloads from
  /// the reader's backing buffer.
  void save_flat(ByteWriter& writer) const {
    writer.u64(size_);
    writer.u32(alphabet_size_);
    save_node_flat(root_.get(), writer);
  }
  static WaveletTree load_flat(ByteReader& reader, bool adopt) {
    WaveletTree tree;
    tree.size_ = reader.u64();
    tree.alphabet_size_ = reader.u32();
    if (tree.alphabet_size_ < 2 || tree.alphabet_size_ > 256) {
      throw IoError("WaveletTree::load_flat: corrupt alphabet size");
    }
    tree.root_ = load_node_flat(reader, adopt);
    return tree;
  }

 private:
  struct Node {
    BV bits;
    std::unique_ptr<Node> child0;
    std::unique_ptr<Node> child1;
    std::uint8_t lo_value = 0;  // first symbol of child0's alphabet
    std::uint8_t mid = 0;       // first symbol of child1's alphabet
  };

  /// Builds the node over `symbols` (all in [lo, hi)). Each child's
  /// symbols are gathered only while that child is built, so a build holds
  /// one partition per level, never a copy of the input beside both halves.
  static std::unique_ptr<Node> build_node(std::span<const std::uint8_t> symbols,
                                          unsigned lo, unsigned hi,
                                          const Builder& builder) {
    if (hi - lo <= 1) return nullptr;  // leaf range: no node needed
    const unsigned mid = lo + (hi - lo + 1) / 2;

    auto node = std::make_unique<Node>();
    node->lo_value = static_cast<std::uint8_t>(lo);
    node->mid = static_cast<std::uint8_t>(mid);
    {
      BitVector bits;
      for (std::uint8_t s : symbols) bits.push_back(s >= mid);
      node->bits = builder(bits);
    }
    const auto child = [&](unsigned child_lo, unsigned child_hi) -> std::unique_ptr<Node> {
      if (child_hi - child_lo <= 1) return nullptr;
      const auto inside = [&](std::uint8_t s) -> std::size_t {
        return static_cast<std::size_t>(s >= child_lo) & static_cast<std::size_t>(s < child_hi);
      };
      std::size_t count = 0;
      for (std::uint8_t s : symbols) count += inside(s);
      // A branch-free gather (DNA symbols are unpredictable): every symbol
      // is stored, and only those inside advance, so one slot of slack.
      std::vector<std::uint8_t> part(count + 1);
      std::size_t next = 0;
      for (std::uint8_t s : symbols) {
        part[next] = s;
        next += inside(s);
      }
      return build_node(std::span<const std::uint8_t>(part).first(count), child_lo, child_hi,
                        builder);
    };
    node->child0 = child(lo, mid);
    node->child1 = child(mid, hi);
    return node;
  }

  /// Recursive select: find the occurrence index inside the child, then map
  /// it back up through this node's bit-vector.
  static std::size_t select_walk(const Node* node, std::uint8_t c, std::size_t k) {
    if (!node) return k;  // leaf: the k-th occurrence is at local index k
    if (c >= node->mid) {
      const std::size_t below = select_walk(node->child1.get(), c, k);
      return node->bits.select1(below);
    }
    const std::size_t below = select_walk(node->child0.get(), c, k);
    return node->bits.select0(below);
  }

  static void save_node(const Node* node, ByteWriter& writer) {
    writer.u8(node ? 1 : 0);
    if (!node) return;
    writer.u8(node->lo_value);
    writer.u8(node->mid);
    node->bits.save(writer);
    save_node(node->child0.get(), writer);
    save_node(node->child1.get(), writer);
  }

  static std::unique_ptr<Node> load_node(ByteReader& reader) {
    if (reader.u8() == 0) return nullptr;
    auto node = std::make_unique<Node>();
    node->lo_value = reader.u8();
    node->mid = reader.u8();
    node->bits = BV::load(reader);
    node->child0 = load_node(reader);
    node->child1 = load_node(reader);
    return node;
  }

  static void save_node_flat(const Node* node, ByteWriter& writer) {
    writer.u8(node ? 1 : 0);
    if (!node) return;
    writer.u8(node->lo_value);
    writer.u8(node->mid);
    node->bits.save_flat(writer);
    save_node_flat(node->child0.get(), writer);
    save_node_flat(node->child1.get(), writer);
  }

  static std::unique_ptr<Node> load_node_flat(ByteReader& reader, bool adopt) {
    if (reader.u8() == 0) return nullptr;
    auto node = std::make_unique<Node>();
    node->lo_value = reader.u8();
    node->mid = reader.u8();
    node->bits = BV::load_flat(reader, adopt);
    node->child0 = load_node_flat(reader, adopt);
    node->child1 = load_node_flat(reader, adopt);
    return node;
  }

  static std::size_t count_nodes(const Node* node) noexcept {
    if (!node) return 0;
    return 1 + count_nodes(node->child0.get()) + count_nodes(node->child1.get());
  }

  static std::size_t node_bytes(const Node* node) noexcept {
    if (!node) return 0;
    return sizeof(Node) + node->bits.size_in_bytes() +
           node_bytes(node->child0.get()) + node_bytes(node->child1.get());
  }

  static std::size_t node_heap_bytes(const Node* node) noexcept {
    if (!node) return 0;
    std::size_t payload;
    if constexpr (requires(const BV& bv) { bv.heap_size_in_bytes(); }) {
      payload = node->bits.heap_size_in_bytes();
    } else {
      payload = node->bits.size_in_bytes();
    }
    return sizeof(Node) + payload + node_heap_bytes(node->child0.get()) +
           node_heap_bytes(node->child1.get());
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  unsigned alphabet_size_ = 0;
};

}  // namespace bwaver
