// Seeded op streams, generated entirely inside the benchmark so that no
// change to the library can change the traffic it is measured on.
//
// The key draw mirrors the scrambled bounded-Zipf construction YCSB uses
// (Gray et al.'s inversion over a precomputed zeta, with the rank
// scrambled through FNV-1a so the popular keys spread over the keyspace
// and hence over the shards). Every draw happens in a pinned order, so a
// stream depends only on its parameters and its seed.
//
// Op kinds come in shuffled blocks of kKindBlock that hold each kind's
// exact share, so that every stretch of a stream carries the workload's
// mix. With an independent draw per op, the puts among 600 ops of a
// read-cached client ranged from 81 to 107 over ten seeds, and the cost
// of a run moved with them: each put makes the other clients fetch the
// writer's whole partition again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, and fixed here forever.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t next_below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed from (seed, lane).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane);

struct StreamParams {
  std::uint64_t keys = 100'000;
  double zipf = 0.99;
  // Shares of all ops, in multiples of 1 / kKindBlock; the rest are puts.
  double get_share = 0.5;
  double erase_share = 0.025;
  std::size_t value_min = 8;
  std::size_t value_max = 64;
};

enum class Kind : std::uint8_t { kPut = 0, kGet = 1, kErase = 2 };

/// Ops per block of kinds (see above).
inline constexpr std::size_t kKindBlock = 40;

struct Op {
  Kind kind = Kind::kGet;
  std::uint64_t key = 0;
  std::string value;  // kPut only
};

/// The printable key of a key id.
std::string key_name(std::uint64_t key);

/// One independent stream of ops (one per issuing client, or one for a
/// batch issuer).
class OpStream {
 public:
  OpStream(const StreamParams& params, std::uint64_t seed);
  Op next();
  /// A value of the stream's size distribution (the keyspace load uses it).
  std::string value();

 private:
  std::uint64_t zipf_rank_to_key();

  StreamParams p_;
  Rng rng_;
  std::vector<Kind> block_;  // the current block of kinds
  std::size_t next_kind_ = 0;
  double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
};

/// Canonical bytes of an op (the self-test compares streams with them).
void append_op(std::string& out, const Op& op);

}  // namespace perfbench
