// USTOR protocol tests with a correct server (Algorithms 1+2): happy-path
// semantics, timestamps, versions, concurrency, wait-freedom.
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

constexpr int kN = 3;

struct UstorFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, Rng(7), net::DelayModel{5, 5}};
  std::shared_ptr<const crypto::SignatureScheme> sigs = crypto::make_hmac_scheme(kN);
  Server server{kN, net};
  std::vector<std::unique_ptr<Client>> clients;

  void SetUp() override {
    for (ClientId i = 1; i <= kN; ++i) {
      clients.push_back(std::make_unique<Client>(i, kN, sigs, net));
    }
  }

  Client& c(ClientId i) { return *clients[static_cast<std::size_t>(i - 1)]; }

  WriteResult write(ClientId i, std::string_view v) {
    WriteResult out;
    bool done = false;
    c(i).writex(to_bytes(v), [&](const WriteResult& r) {
      out = r;
      done = true;
    });
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done) << "write by C" << i << " did not complete";
    return out;
  }

  ReadResult read(ClientId i, ClientId j) {
    ReadResult out;
    bool done = false;
    c(i).readx(j, [&](const ReadResult& r) {
      out = r;
      done = true;
    });
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done) << "read by C" << i << " did not complete";
    return out;
  }
};

TEST_F(UstorFixture, WriteReturnsTimestampAndVersion) {
  const WriteResult r = write(1, "hello");
  EXPECT_EQ(r.t, 1u);
  EXPECT_EQ(r.own.version.v(1), 1u);
  EXPECT_EQ(r.own.version.v(2), 0u);
  EXPECT_FALSE(r.own.commit_sig.empty());
}

TEST_F(UstorFixture, ReadSeesPrecedingWrite) {
  write(1, "hello");
  const ReadResult r = read(2, 1);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(to_string(r.value->view()), "hello");
  EXPECT_EQ(r.writer, 1);
  EXPECT_EQ(r.writer_version.version.v(1), 1u);
}

TEST_F(UstorFixture, ReadOfUnwrittenRegisterReturnsBottom) {
  const ReadResult r = read(2, 3);
  EXPECT_FALSE(r.value.has_value());
}

TEST_F(UstorFixture, ReadOfRegisterWhoseOwnerOnlyReadReturnsBottom) {
  read(3, 1);  // C3 performs a read; its own register stays ⊥
  const ReadResult r = read(2, 3);
  EXPECT_FALSE(r.value.has_value());
}

TEST_F(UstorFixture, SelfReadReturnsOwnValue) {
  write(1, "mine");
  const ReadResult r = read(1, 1);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(to_string(r.value->view()), "mine");
}

TEST_F(UstorFixture, OverwriteIsVisible) {
  write(1, "v1");
  write(1, "v2");
  const ReadResult r = read(2, 1);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(to_string(r.value->view()), "v2");
}

TEST_F(UstorFixture, TimestampsStrictlyIncreasePerClient) {
  EXPECT_EQ(write(1, "a").t, 1u);
  EXPECT_EQ(read(1, 2).t, 2u);
  EXPECT_EQ(write(1, "b").t, 3u);
  EXPECT_EQ(read(1, 1).t, 4u);
}

TEST_F(UstorFixture, VersionsGrowMonotonically) {
  Version prev = c(2).version();
  for (int k = 0; k < 5; ++k) {
    read(2, 1);
    const Version& cur = c(2).version();
    EXPECT_TRUE(version_leq(prev, cur));
    EXPECT_FALSE(version_leq(cur, prev));
    prev = cur;
  }
}

TEST_F(UstorFixture, VersionCountsAllScheduledOps) {
  write(1, "a");
  write(2, "b");
  const ReadResult r = read(3, 1);
  EXPECT_EQ(r.own.version.v(1), 1u);
  EXPECT_EQ(r.own.version.v(2), 1u);
  EXPECT_EQ(r.own.version.v(3), 1u);
}

TEST_F(UstorFixture, ServerLogsScheduleInOrder) {
  write(1, "a");
  read(2, 1);
  write(3, "c");
  const auto& sched_log = server.core().schedule();
  ASSERT_EQ(sched_log.size(), 3u);
  EXPECT_EQ(sched_log[0], (ScheduledOp{1, OpCode::kWrite, 1, 1}));
  EXPECT_EQ(sched_log[1], (ScheduledOp{2, OpCode::kRead, 1, 1}));
  EXPECT_EQ(sched_log[2], (ScheduledOp{3, OpCode::kWrite, 3, 1}));
}

TEST_F(UstorFixture, PendingListDrainsAfterCommits) {
  write(1, "a");
  write(2, "b");
  read(3, 2);
  sched.run();  // let trailing COMMITs arrive
  EXPECT_EQ(server.core().pending_list_size(), 0u);
}

TEST_F(UstorFixture, ConcurrentSubmissionsBothComplete) {
  // Both clients submit in the same tick; the second scheduled sees the
  // first in L and must handle the in-flight operation.
  bool done1 = false, done2 = false;
  WriteResult r1;
  ReadResult r2;
  c(1).writex(to_bytes("w"), [&](const WriteResult& r) {
    r1 = r;
    done1 = true;
  });
  c(2).readx(1, [&](const ReadResult& r) {
    r2 = r;
    done2 = true;
  });
  sched.run();
  ASSERT_TRUE(done1 && done2);
  // C2's read was scheduled after C1's write; it must see the value even
  // though the write's COMMIT was still in flight (no blocking, no miss).
  ASSERT_TRUE(r2.value.has_value());
  EXPECT_EQ(to_string(r2.value->view()), "w");
  EXPECT_EQ(r2.own.version.v(1), 1u);
  EXPECT_TRUE(versions_comparable(r1.own.version, r2.own.version));
}

TEST_F(UstorFixture, ManyInterleavedOpsStayConsistent) {
  for (int round = 0; round < 10; ++round) {
    write(1, "x" + std::to_string(round));
    const ReadResult r2 = read(2, 1);
    ASSERT_TRUE(r2.value.has_value());
    EXPECT_EQ(to_string(r2.value->view()), "x" + std::to_string(round));
    const ReadResult r3 = read(3, 1);
    EXPECT_EQ(to_string(r3.value->view()), "x" + std::to_string(round));
  }
  EXPECT_FALSE(c(1).failed());
  EXPECT_FALSE(c(2).failed());
  EXPECT_FALSE(c(3).failed());
}

TEST_F(UstorFixture, WaitFreedomDespiteCrashedPeer) {
  // C1 submits and crashes before committing: its COMMIT never arrives.
  c(1).writex(to_bytes("doomed"), [](const WriteResult&) {});
  sched.run_until(sched.now() + 5);  // SUBMIT reaches the server
  net.crash(1);

  // Every other client keeps completing operations — wait-freedom with a
  // correct server does not depend on peers (C1's op stays in L forever).
  for (int k = 0; k < 5; ++k) {
    const ReadResult r = read(2, 1);
    EXPECT_FALSE(c(2).failed());
    // C1's submitted-but-uncommitted write is visible (scheduled first).
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(to_string(r.value->view()), "doomed");
  }
  write(3, "alive");
  EXPECT_FALSE(c(3).failed());
  EXPECT_GT(server.core().pending_list_size(), 0u);  // C1's tuple remains
}

TEST_F(UstorFixture, CompletedOpsCounterAndBusyFlag) {
  EXPECT_FALSE(c(1).busy());
  bool done = false;
  c(1).writex(to_bytes("v"), [&](const WriteResult&) { done = true; });
  EXPECT_TRUE(c(1).busy());
  while (!done && sched.step()) {
  }
  EXPECT_FALSE(c(1).busy());
  EXPECT_EQ(c(1).completed_ops(), 1u);
}

TEST_F(UstorFixture, CommitSignatureVerifies) {
  const WriteResult r = write(1, "v");
  EXPECT_TRUE(sigs->verify(1, commit_payload(r.own.version), r.own.commit_sig));
  EXPECT_EQ(c(1).commit_signature(), r.own.commit_sig);
}

TEST_F(UstorFixture, NoFailuresUnderCorrectServer) {
  for (int k = 0; k < 20; ++k) {
    write((k % 3) + 1, "v" + std::to_string(k));
    read(((k + 1) % 3) + 1, (k % 3) + 1);
  }
  for (ClientId i = 1; i <= kN; ++i) {
    EXPECT_FALSE(c(i).failed());
    EXPECT_EQ(c(i).fail_cause(), FailCause::kNone);
  }
}

}  // namespace
}  // namespace faust::ustor
