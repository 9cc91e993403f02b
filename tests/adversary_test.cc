// Forking attacks against bare USTOR clients: the attacks succeed
// silently at the protocol layer (that is exactly what forking semantics
// permit), the resulting histories satisfy weak fork-linearizability
// (Def. 6), and the Figure 3 history separates weak fork-linearizability
// from fork-linearizability.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/forking_server.h"
#include "baseline/naive.h"
#include "checker/history.h"
#include "checker/linearizability.h"
#include "checker/causal.h"
#include "checker/weak_fork.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "ustor/client.h"

namespace faust {
namespace {

using adversary::ForkingServer;
using checker::HistoryRecorder;
using checker::OpRecord;
using checker::ViewMap;

struct ForkFixture : ::testing::Test {
  static constexpr int kN = 4;
  sim::Scheduler sched;
  net::Network net{sched, Rng(21), net::DelayModel{2, 6}};
  std::shared_ptr<const crypto::SignatureScheme> sigs = crypto::make_hmac_scheme(kN);
  ForkingServer server{kN, net};
  std::vector<std::unique_ptr<ustor::Client>> clients;
  HistoryRecorder rec;

  void SetUp() override {
    for (ClientId i = 1; i <= kN; ++i) {
      clients.push_back(std::make_unique<ustor::Client>(i, kN, sigs, net));
    }
  }

  ustor::Client& c(ClientId i) { return *clients[static_cast<std::size_t>(i - 1)]; }

  ustor::WriteResult write(ClientId i, std::string_view v) {
    const int id = rec.begin(i, ustor::OpCode::kWrite, i, to_bytes(v), sched.now());
    ustor::WriteResult out;
    bool done = false;
    c(i).writex(to_bytes(v), [&](const ustor::WriteResult& r) {
      out = r;
      done = true;
    });
    while (!done && !c(i).failed() && sched.step()) {
    }
    EXPECT_TRUE(done);
    rec.end(id, sched.now(), out.t);
    sched.run();  // drain the trailing COMMIT so fork copies are complete
    return out;
  }

  ustor::ReadResult read(ClientId i, ClientId j) {
    const int id = rec.begin(i, ustor::OpCode::kRead, j, std::nullopt, sched.now());
    ustor::ReadResult out;
    bool done = false;
    c(i).readx(j, [&](const ustor::ReadResult& r) {
      out = r;
      done = true;
    });
    while (!done && !c(i).failed() && sched.step()) {
    }
    EXPECT_TRUE(done);
    rec.end(id, sched.now(), out.t, ustor::to_owned(out.value));
    sched.run();
    return out;
  }

  /// Maps a fork's schedule log to a view (sequence of recorded op ids) by
  /// matching (client, timestamp) pairs.
  std::vector<int> view_of_fork(int fork) const {
    std::vector<int> out;
    for (const ustor::ScheduledOp& s : server.core(fork).schedule()) {
      for (const OpRecord& op : rec.history()) {
        if (op.client == s.client && op.t == s.t) {
          out.push_back(op.id);
          break;
        }
      }
    }
    return out;
  }
};

TEST_F(ForkFixture, Figure3Scenario) {
  // The exact history of Figure 3: C1 writes u; the server hides it from
  // C2's first read, then reveals the *submitted* operation (not its
  // commit) for the second read.
  const auto w = write(1, "u");
  EXPECT_EQ(w.t, 1u);

  server.isolate(2);  // C2 now lives in a world where C1 never existed
  const auto r1 = read(2, 1);
  EXPECT_FALSE(r1.value.has_value()) << "first read must return ⊥";

  ASSERT_NE(server.last_submit(1), nullptr);
  server.leak_submit(server.fork_of(2), *server.last_submit(1));
  const auto r2 = read(2, 1);
  ASSERT_TRUE(r2.value.has_value());
  EXPECT_EQ(to_string(r2.value->view()), "u") << "second read must return u";

  // USTOR alone cannot see anything wrong — that is the forking game.
  EXPECT_FALSE(c(1).failed());
  EXPECT_FALSE(c(2).failed());

  // The history is NOT linearizable (r1 skipped a completed write) ...
  const auto& h = rec.history();
  EXPECT_FALSE(checker::check_linearizable(h).ok);
  // ... and not even fork-linearizable: no views of this history satisfy
  // full real-time order plus no-join (the paper's separation argument).
  EXPECT_FALSE(checker::exists_fork_linearizable_views(h));

  // But it IS weak fork-linearizable with the views the server produced,
  // and causally consistent.
  ViewMap views;
  views[1] = view_of_fork(0);                 // [w1]
  views[2] = view_of_fork(server.fork_of(2)); // [r1, w1(leaked), r2]
  ASSERT_EQ(views[1].size(), 1u);
  ASSERT_EQ(views[2].size(), 3u);
  const auto res = checker::validate_weak_fork_linearizable(h, views);
  EXPECT_TRUE(res.ok) << res.violation;
  EXPECT_FALSE(checker::validate_fork_linearizable(h, views).ok);
  EXPECT_TRUE(checker::check_causal(h).ok);
}

TEST_F(ForkFixture, SplitWorldForkIsInvisibleToUstor) {
  // Classic fork: {C1,C2} vs {C3,C4} from the start.
  server.isolate(3);
  server.assign(4, server.fork_of(3));

  write(1, "a1");
  write(3, "b1");
  const auto r2 = read(2, 1);
  const auto r4 = read(4, 3);
  ASSERT_TRUE(r2.value.has_value());
  EXPECT_EQ(to_string(r2.value->view()), "a1");
  ASSERT_TRUE(r4.value.has_value());
  EXPECT_EQ(to_string(r4.value->view()), "b1");

  // Cross-fork blindness: C2 sees nothing of C3.
  EXPECT_FALSE(read(2, 3).value.has_value());

  for (ClientId i = 1; i <= kN; ++i) EXPECT_FALSE(c(i).failed());

  // Versions across forks are ≼-incomparable — the evidence FAUST uses.
  EXPECT_FALSE(ustor::versions_comparable(c(1).version(), c(3).version()));
  EXPECT_TRUE(ustor::versions_comparable(c(1).version(), c(2).version()));

  // The forked history satisfies Def. 6 with the per-fork schedules.
  ViewMap views;
  views[1] = view_of_fork(0);
  views[2] = view_of_fork(0);
  views[3] = view_of_fork(server.fork_of(3));
  views[4] = view_of_fork(server.fork_of(4));
  const auto res = checker::validate_weak_fork_linearizable(rec.history(), views);
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST_F(ForkFixture, MidExecutionSplitServesStaleWorldForever) {
  write(1, "v1");
  read(2, 1);

  // Fork C2 off with a state copy: from now on it reads a frozen world.
  server.split(2);
  write(1, "v2");
  write(1, "v3");

  const auto r = read(2, 1);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(to_string(r.value->view()), "v1") << "victim sees the stale snapshot";
  EXPECT_FALSE(c(2).failed()) << "a consistent replay fork is invisible to USTOR";

  // Victim's own writes still work inside its fork.
  write(2, "mine");
  const auto r2 = read(2, 2);
  EXPECT_EQ(to_string(r2.value->view()), "mine");

  EXPECT_FALSE(ustor::versions_comparable(c(1).version(), c(2).version()));
}

TEST_F(ForkFixture, RejoinAttemptAfterForkIsDetected) {
  // The no-join flavour USTOR does enforce: once C2's view diverged, the
  // server cannot simply put C2 back on the main fork — C2's version is
  // no longer a predecessor of the main fork's versions.
  write(1, "v1");
  read(2, 1);
  server.split(2);
  write(2, "diverged");  // advances C2 inside its fork only
  write(1, "v2");        // advances the main fork

  server.assign(2, 0);   // naive rejoin attempt
  bool done = false;
  c(2).readx(1, [&](const ustor::ReadResult&) { done = true; });
  sched.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(c(2).failed());
  EXPECT_EQ(c(2).fail_cause(), ustor::FailCause::kVersionRegression);
}

TEST(NaiveBaseline, ForgedValuesPassSilently) {
  // The same lie against the unprotected baseline goes unnoticed — the
  // motivation for the whole paper (§1).
  sim::Scheduler sched;
  net::Network net(sched, Rng(5), net::DelayModel{1, 3});
  baseline::NaiveServer server(2, net);
  baseline::NaiveClient c1(1, 2, net);
  baseline::NaiveClient c2(2, 2, net);

  bool wrote = false;
  c1.write(to_bytes("honest"), [&] { wrote = true; });
  sched.run();
  ASSERT_TRUE(wrote);

  server.lie_about(1, to_bytes("forged"));
  ustor::Value got;
  c2.read(1, [&](const ustor::Value& v) { got = v; });
  sched.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "forged") << "no detection, forged value accepted";
}

}  // namespace
}  // namespace faust
