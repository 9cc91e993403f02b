#include "stream.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::uint64_t fnv1a_scramble(std::uint64_t rank) {
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (rank >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

double zeta(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane) {
  Rng r(seed ^ (lane * 0xd1b54a32d192ed03ull));
  r.next();
  return r.next();
}

std::string key_name(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%016llx", static_cast<unsigned long long>(key));
  return buf;
}

OpStream::OpStream(const StreamParams& params, std::uint64_t seed) : p_(params), rng_(seed) {
  if (p_.keys < 2 || !(p_.zipf > 0 && p_.zipf < 1) || p_.value_min > p_.value_max) {
    throw std::invalid_argument("bad stream parameters");
  }
  const auto gets = static_cast<std::size_t>(std::lround(p_.get_share * kKindBlock));
  const auto erases = static_cast<std::size_t>(std::lround(p_.erase_share * kKindBlock));
  if (gets + erases > kKindBlock) throw std::invalid_argument("bad stream parameters");
  block_.assign(gets, Kind::kGet);
  block_.insert(block_.end(), erases, Kind::kErase);
  block_.resize(kKindBlock, Kind::kPut);
  next_kind_ = kKindBlock;
  zetan_ = zeta(p_.keys, p_.zipf);
  zeta2_ = zeta(2, p_.zipf);
  alpha_ = 1.0 / (1.0 - p_.zipf);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(p_.keys), 1.0 - p_.zipf)) /
         (1.0 - zeta2_ / zetan_);
}

std::uint64_t OpStream::zipf_rank_to_key() {
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, p_.zipf)) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(static_cast<double>(p_.keys) *
                                      std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= p_.keys) rank = p_.keys - 1;
  }
  return fnv1a_scramble(rank) % p_.keys;
}

std::string OpStream::value() {
  const std::size_t len =
      p_.value_min + static_cast<std::size_t>(rng_.next_below(p_.value_max - p_.value_min + 1));
  std::string v(len, 'a');
  for (auto& ch : v) ch = static_cast<char>('a' + rng_.next_below(26));
  return v;
}

Op OpStream::next() {
  if (next_kind_ == kKindBlock) {
    for (std::size_t i = kKindBlock - 1; i > 0; --i) {
      std::swap(block_[i], block_[static_cast<std::size_t>(rng_.next_below(i + 1))]);
    }
    next_kind_ = 0;
  }
  Op op;
  op.kind = block_[next_kind_++];
  op.key = zipf_rank_to_key();
  if (op.kind == Kind::kPut) op.value = value();
  return op;
}

void append_op(std::string& out, const Op& op) {
  out.push_back(static_cast<char>(op.kind));
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((op.key >> (8 * i)) & 0xff));
  const auto len = static_cast<std::uint32_t>(op.value.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  out += op.value;
}

}  // namespace perfbench
