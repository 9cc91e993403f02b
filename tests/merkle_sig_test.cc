// Tests for the hash-based Merkle signature scheme, including running the
// full USTOR protocol over it (no protocol change — decision D4).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "crypto/merkle_sig.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "ustor/client.h"
#include "ustor/server.h"

namespace faust::crypto {
namespace {

std::shared_ptr<MerkleSignatureScheme> make_scheme(int n, int height = 3) {
  const Bytes seed = to_bytes("mss-test-seed");
  return std::make_shared<MerkleSignatureScheme>(n, seed, height);
}

TEST(MerkleSig, SignVerifyRoundtrip) {
  auto scheme = make_scheme(2);
  const Bytes msg = to_bytes("attack at dawn");
  const Bytes sig = scheme->sign(1, msg);
  EXPECT_EQ(sig.size(), scheme->signature_size());
  EXPECT_TRUE(scheme->verify(1, msg, sig));
}

TEST(MerkleSig, EachSignatureUsesAFreshLeaf) {
  auto scheme = make_scheme(1, /*height=*/3);
  EXPECT_EQ(scheme->signatures_remaining(1), 8u);
  std::set<Bytes> sigs;
  for (int k = 0; k < 8; ++k) {
    const Bytes msg = to_bytes("same message");
    const Bytes sig = scheme->sign(1, msg);
    EXPECT_TRUE(scheme->verify(1, msg, sig));
    EXPECT_TRUE(sigs.insert(sig).second) << "leaf reuse!";
  }
  EXPECT_EQ(scheme->signatures_remaining(1), 0u);
}

TEST(MerkleSig, WrongMessageRejected) {
  auto scheme = make_scheme(2);
  const Bytes sig = scheme->sign(1, to_bytes("m1"));
  EXPECT_FALSE(scheme->verify(1, to_bytes("m2"), sig));
}

TEST(MerkleSig, WrongSignerRejected) {
  auto scheme = make_scheme(3);
  const Bytes msg = to_bytes("m");
  const Bytes sig = scheme->sign(1, msg);
  EXPECT_FALSE(scheme->verify(2, msg, sig));
  EXPECT_FALSE(scheme->verify(3, msg, sig));
  EXPECT_FALSE(scheme->verify(0, msg, sig));
  EXPECT_FALSE(scheme->verify(4, msg, sig));
}

TEST(MerkleSig, TamperedSignatureRejectedEverywhere) {
  auto scheme = make_scheme(1);
  const Bytes msg = to_bytes("m");
  const Bytes sig = scheme->sign(1, msg);
  // Flip one bit in each region of the signature: leaf index, revealed
  // secrets, complement hashes, auth path.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{20}, std::size_t{100}, sig.size() - 5}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(scheme->verify(1, msg, bad)) << "byte " << pos;
  }
  Bytes truncated = sig;
  truncated.pop_back();
  EXPECT_FALSE(scheme->verify(1, msg, truncated));
  EXPECT_FALSE(scheme->verify(1, msg, Bytes{}));
}

TEST(MerkleSig, PublicKeysDifferPerClientAndSeed) {
  auto a = make_scheme(2);
  EXPECT_NE(a->public_key(1), a->public_key(2));
  MerkleSignatureScheme b(2, to_bytes("other seed"), 3);
  EXPECT_NE(a->public_key(1), b.public_key(1));
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(b.verify(1, msg, a->sign(1, msg)));
}

TEST(MerkleSig, DeterministicKeysFromSeed) {
  auto a = make_scheme(1);
  auto b = make_scheme(1);
  EXPECT_EQ(a->public_key(1), b->public_key(1));
  // Same leaf, same message => identical signature (fully deterministic).
  EXPECT_EQ(a->sign(1, to_bytes("m")), b->sign(1, to_bytes("m")));
}

TEST(MerkleSig, RandomBitFuzzNeverVerifies) {
  auto scheme = make_scheme(1);
  const Bytes msg = to_bytes("fuzz target");
  const Bytes sig = scheme->sign(1, msg);
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes bad = sig;
    bad[rng.next_below(bad.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    EXPECT_FALSE(scheme->verify(1, msg, bad));
  }
}

TEST(MerkleSig, UstorRunsUnchangedOverMss) {
  // The whole point of the SignatureScheme interface: USTOR with true
  // hash-based digital signatures, zero protocol changes.
  constexpr int kN = 2;
  sim::Scheduler sched;
  net::Network net(sched, Rng(5), net::DelayModel{2, 6});
  auto scheme = make_scheme(kN, /*height=*/5);  // 32 sigs per client
  ustor::Server server(kN, net);
  ustor::Client c1(1, kN, scheme, net);
  ustor::Client c2(2, kN, scheme, net);

  const auto drive = [&](auto fn) {
    bool done = false;
    fn(done);
    while (!done && sched.step()) {
    }
    return done;
  };
  ASSERT_TRUE(drive([&](bool& done) {
    c1.writex(to_bytes("signed with MSS"), [&](const ustor::WriteResult&) { done = true; });
  }));
  ustor::Value got;
  ASSERT_TRUE(drive([&](bool& done) {
    c2.readx(1, [&](const ustor::ReadResult& r) {
      got = ustor::to_owned(r.value);
      done = true;
    });
  }));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "signed with MSS");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

}  // namespace
}  // namespace faust::crypto
