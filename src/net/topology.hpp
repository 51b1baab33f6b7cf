#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gbc::net {

/// Interconnect shape. The seed model (`kFlat`) is a full crossbar: every
/// pair one wire_latency apart, contention only at the sender NIC. The
/// fat-tree hangs ranks off leaf switches of a given radix, so latency is
/// hop-counted: one switch hop more for a pair that crosses the spine.
/// Parsed from the CLI as `flat` or `fat-tree:<radix>`.
struct TopologySpec {
  enum class Kind : std::uint8_t { kFlat, kFatTree };

  Kind kind = Kind::kFlat;
  int radix = 16;  ///< ranks per leaf switch (fat-tree only)

  bool flat() const noexcept { return kind == Kind::kFlat; }
  /// Minimum switch hops between two distinct ranks: 0 on a crossbar,
  /// 2 on a fat-tree (rank -> leaf -> rank, same leaf).
  int min_hops() const noexcept { return flat() ? 0 : 2; }
};

/// Parses `flat` or `fat-tree:<radix>` (e.g. `fat-tree:32`). Returns
/// nullopt on malformed input, unknown kind or radix < 2.
std::optional<TopologySpec> parse_topology(std::string_view s);

/// Inverse of parse_topology, for --help text and bench metadata.
std::string topology_to_string(const TopologySpec& spec);

/// Two-tier fat-tree: leaf membership and hop counts. Pure arithmetic;
/// net::Fabric turns hops into latency.
class FatTree {
 public:
  explicit FatTree(const TopologySpec& spec) : spec_(spec) {}

  int leaf_of(int rank) const noexcept { return rank / spec_.radix; }
  bool same_leaf(int a, int b) const noexcept {
    return leaf_of(a) == leaf_of(b);
  }

  /// Switch hops between two ranks: 2 within a leaf, 4 across leaves.
  int hops(int a, int b) const noexcept { return same_leaf(a, b) ? 2 : 4; }

 private:
  TopologySpec spec_;
};

}  // namespace gbc::net
