// Deterministic concurrency tests for USTOR: fixed network delays let us
// pin the exact interleavings that exercise the concurrent-operations
// list L with multiple clients, the PROOF-signature verification path
// (line 41, non-⊥ branch), and COMMIT reordering across clients.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "ustor/client.h"
#include "ustor/server.h"

namespace faust::ustor {
namespace {

constexpr int kN = 4;

struct ConcurrencyFixture : ::testing::Test {
  sim::Scheduler sched;
  // Fixed 5-tick delay: SUBMITs sent in the same tick arrive in send
  // order; a COMMIT sent at completion arrives 5 ticks later.
  net::Network net{sched, Rng(3), net::DelayModel{5, 5}};
  std::shared_ptr<const crypto::SignatureScheme> sigs = crypto::make_hmac_scheme(kN);
  Server server{kN, net};
  std::vector<std::unique_ptr<Client>> clients;

  void SetUp() override {
    for (ClientId i = 1; i <= kN; ++i) {
      clients.push_back(std::make_unique<Client>(i, kN, sigs, net));
    }
  }

  Client& c(ClientId i) { return *clients[static_cast<std::size_t>(i - 1)]; }

  void settle() { sched.run(); }

  WriteResult write_sync(ClientId i, std::string_view v) {
    WriteResult out;
    bool done = false;
    c(i).writex(to_bytes(v), [&](const WriteResult& r) {
      out = r;
      done = true;
    });
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    return out;
  }
};

TEST_F(ConcurrencyFixture, ThreeWaySimultaneousSubmissions) {
  // C1, C2, C3 submit in the same tick. The schedule is their send order;
  // C2 sees L=[C1], C3 sees L=[C1, C2] — a two-entry concurrency list
  // whose digest chain must line up for everyone.
  WriteResult r1, r2, r3;
  int done = 0;
  c(1).writex(to_bytes("a"), [&](const WriteResult& r) { r1 = r; ++done; });
  c(2).writex(to_bytes("b"), [&](const WriteResult& r) { r2 = r; ++done; });
  c(3).writex(to_bytes("c"), [&](const WriteResult& r) { r3 = r; ++done; });
  settle();
  ASSERT_EQ(done, 3);

  // Versions are totally ordered along the schedule.
  EXPECT_TRUE(version_leq(r1.own.version, r2.own.version));
  EXPECT_TRUE(version_leq(r2.own.version, r3.own.version));
  EXPECT_EQ(r3.own.version.v(1), 1u);
  EXPECT_EQ(r3.own.version.v(2), 1u);
  EXPECT_EQ(r3.own.version.v(3), 1u);
  // C1's view does not include the later-scheduled concurrent ops.
  EXPECT_EQ(r1.own.version.v(2), 0u);
  EXPECT_EQ(r1.own.version.v(3), 0u);
  for (ClientId i = 1; i <= 3; ++i) EXPECT_FALSE(c(i).failed());
}

TEST_F(ConcurrencyFixture, ProofSignaturePathWithCommittedPredecessor) {
  // C1 commits an op first (M[1] becomes non-⊥ in every later version),
  // then C1 and C2 run concurrently: C2 must verify C1's PROOF signature
  // for the chained digest (line 41, the non-trivial branch).
  write_sync(1, "first");
  settle();

  bool w_done = false, r_done = false;
  ReadResult rr;
  c(1).writex(to_bytes("second"), [&](const WriteResult&) { w_done = true; });
  c(2).readx(1, [&](const ReadResult& r) {
    rr = r;
    r_done = true;
  });
  settle();
  ASSERT_TRUE(w_done && r_done);
  EXPECT_FALSE(c(2).failed()) << "PROOF verification must succeed";
  // C2's read was scheduled after C1's second write: it sees "second".
  ASSERT_TRUE(rr.value.has_value());
  EXPECT_EQ(to_string(rr.value->view()), "second");
  EXPECT_EQ(rr.own.version.v(1), 2u);
}

TEST_F(ConcurrencyFixture, ChainedConcurrencyAcrossFourClients) {
  // A wave of writes, then a wave where everyone reads everyone: all 16
  // combinations complete and agree on the final values.
  for (ClientId i = 1; i <= kN; ++i) write_sync(i, "v" + std::to_string(i));
  settle();

  int done = 0;
  std::vector<Value> got(kN * kN);
  // One outstanding op per client: chain the reads per client. The chain
  // objects must outlive every in-flight callback, i.e. the settle().
  struct Chain {
    ConcurrencyFixture* fix;
    ClientId reader;
    ClientId next = 1;
    int* done;
    std::vector<Value>* got;
    void step() {
      if (next > kN) return;
      const ClientId j = next++;
      fix->c(reader).readx(j, [this, j](const ReadResult& r) {
        (*got)[static_cast<std::size_t>((reader - 1) * kN + (j - 1))] = ustor::to_owned(r.value);
        ++*done;
        step();
      });
    }
  };
  std::vector<std::unique_ptr<Chain>> chains;
  for (ClientId i = 1; i <= kN; ++i) {
    chains.push_back(std::make_unique<Chain>(Chain{this, i, 1, &done, &got}));
    chains.back()->step();
  }
  settle();
  ASSERT_EQ(done, kN * kN);
  for (ClientId i = 1; i <= kN; ++i) {
    for (ClientId j = 1; j <= kN; ++j) {
      const Value& v = got[static_cast<std::size_t>((i - 1) * kN + (j - 1))];
      ASSERT_TRUE(v.has_value()) << "reader " << i << " register " << j;
      EXPECT_EQ(to_string(*v), "v" + std::to_string(j));
    }
  }
  for (ClientId i = 1; i <= kN; ++i) EXPECT_FALSE(c(i).failed());
}

TEST_F(ConcurrencyFixture, ReadersRacingOneWriterSeeMonotoneValues) {
  // C1 streams writes while C2 streams reads of X1; every read returns
  // some prefix-consistent value and timestamps never regress.
  struct WriterChain {
    ConcurrencyFixture* fix;
    int remaining;
    int counter = 0;
    void step() {
      if (remaining-- <= 0) return;
      fix->c(1).writex(to_bytes("w" + std::to_string(++counter)),
                       [this](const WriteResult&) { step(); });
    }
  } writer{this, 8};
  struct ReaderChain {
    ConcurrencyFixture* fix;
    int remaining;
    int last_seen = 0;
    bool violation = false;
    void step() {
      if (remaining-- <= 0) return;
      fix->c(2).readx(1, [this](const ReadResult& r) {
        int seen = 0;
        if (r.value.has_value()) {
          seen = std::stoi(to_string(r.value->view()).substr(1));
        }
        if (seen < last_seen) violation = true;  // new-old inversion
        last_seen = seen;
        step();
      });
    }
  } reader{this, 8};
  writer.step();
  reader.step();
  settle();
  EXPECT_FALSE(reader.violation);
  EXPECT_FALSE(c(1).failed());
  EXPECT_FALSE(c(2).failed());
}

TEST_F(ConcurrencyFixture, LateCommitsStillPruneL) {
  // Three concurrent submissions, then quiescence: every COMMIT arrives
  // eventually and L drains completely.
  c(1).writex(to_bytes("a"), [](const WriteResult&) {});
  c(2).writex(to_bytes("b"), [](const WriteResult&) {});
  c(3).readx(2, [](const ReadResult&) {});
  EXPECT_EQ(server.core().pending_list_size(), 0u);  // nothing arrived yet
  settle();
  EXPECT_EQ(server.core().pending_list_size(), 0u);  // all pruned again
  EXPECT_EQ(server.core().schedule().size(), 3u);
}

TEST_F(ConcurrencyFixture, VersionsOfConcurrentOpsNeverIncomparable) {
  // With a correct server, any two committed versions are ≼-comparable no
  // matter how operations interleave — sweep a few waves.
  std::vector<Version> committed;
  for (int wave = 0; wave < 4; ++wave) {
    int done = 0;
    for (ClientId i = 1; i <= kN; ++i) {
      c(i).writex(to_bytes("w" + std::to_string(wave) + "-" + std::to_string(i)),
                  [&, i](const WriteResult& r) {
                    committed.push_back(r.own.version);
                    ++done;
                  });
    }
    settle();
    ASSERT_EQ(done, kN);
  }
  for (std::size_t a = 0; a < committed.size(); ++a) {
    for (std::size_t b = a + 1; b < committed.size(); ++b) {
      EXPECT_TRUE(versions_comparable(committed[a], committed[b]))
          << "versions " << a << " and " << b;
    }
  }
}

}  // namespace
}  // namespace faust::ustor
