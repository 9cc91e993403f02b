// Randomized forking executions, machine-checked against Definition 6:
// for ANY schedule of split/isolate attacks (no rejoin), the history that
// USTOR clients observe must be weak fork-linearizable with the views the
// forking server actually produced, and causally consistent — the paper's
// safety guarantee under a Byzantine server.  Also re-checks the version
// algebra: versions within a fork stay comparable, and clients whose
// forks diverged commit incomparable versions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "adversary/forking_server.h"
#include "checker/causal.h"
#include "checker/history.h"
#include "checker/linearizability.h"
#include "checker/weak_fork.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "ustor/client.h"

namespace faust {
namespace {

using checker::OpRecord;
using checker::ViewMap;

class RandomForkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomForkTest, AnyForkScheduleSatisfiesDefinition6) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);

  const int n = 3 + static_cast<int>(rng.next_below(2));  // 3..4 clients
  sim::Scheduler sched;
  net::Network net(sched, Rng(seed), net::DelayModel{1, 6});
  auto sigs = crypto::make_hmac_scheme(n);
  adversary::ForkingServer server(n, net);
  std::vector<std::unique_ptr<ustor::Client>> clients;
  for (ClientId i = 1; i <= n; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(i, n, sigs, net));
  }
  checker::HistoryRecorder rec;

  int value_counter = 0;
  const auto run_op = [&](ClientId i) {
    ustor::Client& c = *clients[static_cast<std::size_t>(i - 1)];
    if (c.failed()) return;
    bool done = false;
    if (rng.chance(0.5)) {
      const std::string v = "s" + std::to_string(seed) + "-" + std::to_string(++value_counter);
      const int id = rec.begin(i, ustor::OpCode::kWrite, i, to_bytes(v), sched.now());
      Timestamp t = 0;
      c.writex(to_bytes(v), [&](const ustor::WriteResult& r) {
        t = r.t;
        done = true;
      });
      while (!done && !c.failed() && sched.step()) {
      }
      ASSERT_TRUE(done) << "wait-freedom inside a fork";
      rec.end(id, sched.now(), t);
    } else {
      const ClientId j = 1 + static_cast<ClientId>(rng.next_below(n));
      const int id = rec.begin(i, ustor::OpCode::kRead, j, std::nullopt, sched.now());
      Timestamp t = 0;
      ustor::Value v;
      c.readx(j, [&](const ustor::ReadResult& r) {
        t = r.t;
        v = ustor::to_owned(r.value);
        done = true;
      });
      while (!done && !c.failed() && sched.step()) {
      }
      ASSERT_TRUE(done);
      rec.end(id, sched.now(), t, v);
    }
    sched.run();  // drain the COMMIT so fork snapshots are complete
  };

  // Random interleaving of operations and fork attacks.
  const int total_ops = 12 + static_cast<int>(rng.next_below(10));
  int forks_done = 0;
  for (int k = 0; k < total_ops; ++k) {
    const ClientId actor = 1 + static_cast<ClientId>(rng.next_below(n));
    run_op(actor);
    if (forks_done < 2 && rng.chance(0.25)) {
      const ClientId victim = 1 + static_cast<ClientId>(rng.next_below(n));
      // A consistent fork must preserve the victim's own history: split()
      // (state copy) always does; isolate() (empty world) is consistent
      // only for a victim that has not completed any operation yet — the
      // Figure 3 situation. An inconsistent fork would be detected
      // immediately (see adversary_test RejoinAttemptAfterForkIsDetected),
      // which is not what this test probes.
      if (clients[static_cast<std::size_t>(victim - 1)]->completed_ops() == 0 &&
          rng.chance(0.5)) {
        server.isolate(victim);
      } else {
        server.split(victim);
      }
      ++forks_done;
    }
  }

  // USTOR alone never detects a consistent fork.
  for (const auto& c : clients) EXPECT_FALSE(c->failed()) << "seed " << seed;

  // Build each client's view from its fork's schedule log.
  const auto view_of_fork = [&](int fork) {
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
  };
  ViewMap views;
  for (ClientId i = 1; i <= n; ++i) views[i] = view_of_fork(server.fork_of(i));

  const auto res = checker::validate_weak_fork_linearizable(rec.history(), views);
  EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.violation;
  const auto causal = checker::check_causal(rec.history());
  EXPECT_TRUE(causal.ok) << "seed " << seed << ": " << causal.violation;

  // Version algebra: same-fork versions comparable; clients whose version
  // vectors were committed in different forks after divergence need not
  // be — and at least the ≼ relation must agree with fork structure.
  for (ClientId a = 1; a <= n; ++a) {
    for (ClientId b = a + 1; b <= n; ++b) {
      const ustor::Version& va = clients[static_cast<std::size_t>(a - 1)]->version();
      const ustor::Version& vb = clients[static_cast<std::size_t>(b - 1)]->version();
      if (va.is_zero() || vb.is_zero()) continue;
      if (server.fork_of(a) == server.fork_of(b)) {
        EXPECT_TRUE(ustor::versions_comparable(va, vb))
            << "seed " << seed << ": same-fork clients C" << a << "/C" << b;
      }
    }
  }

  // Sanity: with no forks the history must even be linearizable.
  if (forks_done == 0) {
    const auto lin = checker::check_linearizable(rec.history());
    EXPECT_TRUE(lin.ok) << "seed " << seed << ": " << lin.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomForkTest, ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace faust
