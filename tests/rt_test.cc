// Multi-threaded runtime tests: the same USTOR protocol objects that run
// under the simulator run under real preemptive concurrency on
// rt::ThreadBus, and the resulting histories are still linearizable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "checker/history.h"
#include "checker/linearizability.h"
#include "crypto/signature.h"
#include "rt/thread_bus.h"
#include "ustor/client.h"
#include "ustor/server.h"

namespace faust::rt {
namespace {

/// Simple echo node for bus-level tests.
class Echo : public net::Node {
 public:
  explicit Echo(ThreadBus& bus) : bus_(bus) {}
  void on_message(NodeId from, BytesView msg) override {
    ++received;
    if (!msg.empty() && msg[0] == 'p') {  // ping -> pong
      bus_.send(2, from, to_bytes("q"));
    }
  }
  ThreadBus& bus_;
  std::atomic<int> received{0};
};

TEST(ThreadBus, DeliversAndEchoes) {
  ThreadBus bus;
  Echo a(bus), b(bus);
  bus.attach(1, a);
  bus.attach(2, b);
  for (int k = 0; k < 100; ++k) bus.send(1, 2, to_bytes("p"));
  bus.drain();
  EXPECT_EQ(b.received.load(), 100);
  EXPECT_EQ(a.received.load(), 100);  // 100 pongs
  bus.stop();
}

TEST(ThreadBus, FifoPerSenderReceiverPair) {
  ThreadBus bus;
  class Collector : public net::Node {
   public:
    void on_message(NodeId, BytesView msg) override {
      std::lock_guard lock(mu);
      got.push_back(msg[0]);
    }
    std::mutex mu;
    std::vector<std::uint8_t> got;
  } sink;
  class Dummy : public net::Node {
    void on_message(NodeId, BytesView) override {}
  } src;
  bus.attach(1, src);
  bus.attach(2, sink);
  for (int k = 0; k < 200; ++k) bus.send(1, 2, Bytes{static_cast<std::uint8_t>(k)});
  bus.drain();
  ASSERT_EQ(sink.got.size(), 200u);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(sink.got[static_cast<std::size_t>(k)], k % 256);
  bus.stop();
}

TEST(ThreadBus, SendToUnknownNodeIsDropped) {
  ThreadBus bus;
  bus.send(1, 99, to_bytes("void"));
  bus.drain();
  EXPECT_EQ(bus.delivered(), 0u);
  EXPECT_EQ(bus.channel(1, 99).messages, 0u)
      << "a message no channel accepted is not counted";
}

TEST(ThreadBus, PerChannelCountersMirrorNetworkAccounting) {
  // The (from,to)×type counters net::Network keeps must behave
  // identically on the threaded fabric — byte accounting (cache-on vs
  // cache-off comparisons, per-hop traffic attribution) cannot depend on
  // the execution mode.
  ThreadBus bus;
  class Sink : public net::Node {
    void on_message(NodeId, BytesView) override {}
  } a, b;
  bus.attach(1, a);
  bus.attach(2, b);

  // Tag 3 messages of 5 bytes 1->2; tag 7 messages of 9 bytes 2->1.
  for (int k = 0; k < 4; ++k) bus.send(1, 2, Bytes{3, 0, 0, 0, 0});
  for (int k = 0; k < 2; ++k) bus.send(2, 1, Bytes{7, 0, 0, 0, 0, 0, 0, 0, 0});
  bus.drain();

  const net::ChannelStats fwd = bus.channel(1, 2);
  EXPECT_EQ(fwd.messages, 4u);
  EXPECT_EQ(fwd.bytes, 20u);
  const net::ChannelStats rev = bus.channel(2, 1);
  EXPECT_EQ(rev.messages, 2u);
  EXPECT_EQ(rev.bytes, 18u);
  EXPECT_EQ(bus.channel(2, 2).messages, 0u) << "untouched channels read zero";

  // Type bucketing per channel, and its consistency with the aggregates.
  EXPECT_EQ(bus.channel_for(1, 2, 3).messages, 4u);
  EXPECT_EQ(bus.channel_for(1, 2, 7).messages, 0u);
  EXPECT_EQ(bus.channel_for(2, 1, 7).bytes, 18u);
  EXPECT_EQ(bus.total().messages, 6u);
  EXPECT_EQ(bus.total().bytes, 38u);
  EXPECT_EQ(bus.total_for(3).messages, 4u);
  EXPECT_EQ(bus.total_for(7).messages, 2u);
  bus.stop();
}

TEST(ThreadBus, AttachAfterTrafficHasStartedIsSafe) {
  // Regression for the historical attach-vs-send contract ("attach
  // everything first"): attaching a node while other threads are already
  // hammering the bus must be safe. Messages sent before the attach are
  // dropped like any unknown-destination send; everything sent after the
  // attach returns must be delivered.
  ThreadBus bus;
  class Counter : public net::Node {
   public:
    void on_message(NodeId, BytesView) override { ++received; }
    std::atomic<int> received{0};
  } early, late;
  bus.attach(1, early);

  std::atomic<bool> stop_producers{false};
  std::atomic<int> sent_to_2_after_attach{0};
  std::atomic<bool> attached_2{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&] {
      while (!stop_producers.load(std::memory_order_acquire)) {
        bus.send(1, 1, to_bytes("x"));
        // Sample the flag BEFORE sending: only a send that *began* after
        // the attach completed is guaranteed delivery.
        const bool counted = attached_2.load(std::memory_order_acquire);
        bus.send(1, 2, to_bytes("y"));  // unknown at first, then live
        if (counted) sent_to_2_after_attach.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let traffic flow, then attach node 2 mid-fire.
  while (early.received.load() < 200) std::this_thread::yield();
  bus.attach(2, late);
  attached_2.store(true, std::memory_order_release);
  while (sent_to_2_after_attach.load() < 200) std::this_thread::yield();
  stop_producers.store(true, std::memory_order_release);
  for (auto& p : producers) p.join();
  bus.drain();
  bus.stop();

  // Every send that *began* after the attach returned must have landed;
  // racing sends may add more on top, never fewer.
  EXPECT_GE(late.received.load(), sent_to_2_after_attach.load());
  EXPECT_GT(early.received.load(), 0);
}

TEST(ThreadBus, DetachUnderFireDropsButNeverCrashes) {
  // The other half of the hardening: a sender that resolved the box keeps
  // it alive (shared ownership), so detach while sends are in flight
  // drops messages instead of freeing state under the sender.
  for (int round = 0; round < 20; ++round) {
    ThreadBus bus;
    class Sink : public net::Node {
     public:
      void on_message(NodeId, BytesView) override { ++received; }
      std::atomic<int> received{0};
    } sink;
    bus.attach(7, sink);
    std::atomic<bool> stop{false};
    std::thread producer([&] {
      while (!stop.load(std::memory_order_acquire)) bus.send(1, 7, to_bytes("m"));
    });
    while (sink.received.load() == 0) std::this_thread::yield();
    bus.detach(7);  // mid-fire
    stop.store(true, std::memory_order_release);
    producer.join();
    bus.stop();
  }
  SUCCEED();
}

TEST(ThreadBus, StopIsIdempotentAndJoins) {
  ThreadBus bus;
  Echo a(bus);
  bus.attach(1, a);
  bus.stop();
  bus.stop();
  SUCCEED();
}

/// Drives one client's sequential op stream from completion callbacks
/// (each client's protocol code runs on its own delivery thread).
struct ThreadedClientDriver {
  ustor::Client* client;
  int remaining = 0;
  std::atomic<int>* done_counter;
  std::condition_variable* done_cv;
  std::mutex* done_mu;
  checker::HistoryRecorder* recorder;
  std::mutex* recorder_mu;
  int n = 0;
  int op_index = 0;

  static sim::Time now_ns() {
    return static_cast<sim::Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void next() {
    if (remaining == 0) {
      std::lock_guard lock(*done_mu);
      done_counter->fetch_add(1);
      done_cv->notify_all();
      return;
    }
    --remaining;
    const int k = op_index++;
    if (k % 2 == 0) {
      const std::string v =
          "c" + std::to_string(client->id()) + "-" + std::to_string(k);
      int rec;
      {
        std::lock_guard lock(*recorder_mu);
        rec = recorder->begin(client->id(), ustor::OpCode::kWrite, client->id(),
                              to_bytes(v), now_ns());
      }
      client->writex(to_bytes(v), [this, rec](const ustor::WriteResult& r) {
        {
          std::lock_guard lock(*recorder_mu);
          recorder->end(rec, now_ns(), r.t);
        }
        next();
      });
    } else {
      const ClientId j = (k % n) + 1;
      int rec;
      {
        std::lock_guard lock(*recorder_mu);
        rec = recorder->begin(client->id(), ustor::OpCode::kRead, j, std::nullopt, now_ns());
      }
      client->readx(j, [this, rec](const ustor::ReadResult& r) {
        {
          std::lock_guard lock(*recorder_mu);
          recorder->end(rec, now_ns(), r.t, ustor::to_owned(r.value));
        }
        next();
      });
    }
  }
};

TEST(ThreadedUstor, ConcurrentClientsStayLinearizable) {
  constexpr int kN = 4;
  constexpr int kOpsPerClient = 25;

  ThreadBus bus;
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Server server(kN, bus);
  std::vector<std::unique_ptr<ustor::Client>> clients;
  for (ClientId i = 1; i <= kN; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(i, kN, sigs, bus));
  }

  checker::HistoryRecorder recorder;
  std::mutex recorder_mu, done_mu;
  std::condition_variable done_cv;
  std::atomic<int> done_count{0};

  std::vector<ThreadedClientDriver> drivers(kN);
  for (int i = 0; i < kN; ++i) {
    drivers[static_cast<std::size_t>(i)] =
        ThreadedClientDriver{clients[static_cast<std::size_t>(i)].get(), kOpsPerClient,
                             &done_count, &done_cv, &done_mu, &recorder, &recorder_mu, kN, 0};
  }
  // Kick off all clients; everything after the first op runs on the
  // clients' delivery threads, genuinely concurrently.
  for (auto& d : drivers) d.next();

  {
    std::unique_lock lock(done_mu);
    const bool finished = done_cv.wait_for(lock, std::chrono::seconds(30),
                                           [&] { return done_count.load() == kN; });
    ASSERT_TRUE(finished) << "threaded workload timed out";
  }
  bus.drain();
  bus.stop();

  for (const auto& c : clients) {
    EXPECT_FALSE(c->failed());
    EXPECT_EQ(c->completed_ops(), kOpsPerClient);
  }
  // The real-time-stamped history from real threads passes the same
  // checker as the simulated histories.
  const auto res = checker::check_linearizable(recorder.history());
  EXPECT_TRUE(res.ok) << res.violation;
  EXPECT_EQ(recorder.history().size(), static_cast<std::size_t>(kN * kOpsPerClient));
}

TEST(ThreadedUstor, ValuesFlowAcrossThreads) {
  ThreadBus bus;
  auto sigs = crypto::make_hmac_scheme(2);
  ustor::Server server(2, bus);
  ustor::Client c1(1, 2, sigs, bus);
  ustor::Client c2(2, 2, sigs, bus);

  std::mutex mu;
  std::condition_variable cv;
  bool wrote = false;
  ustor::Value read_value;
  bool read_done = false;

  c1.writex(to_bytes("threaded!"), [&](const ustor::WriteResult&) {
    std::lock_guard lock(mu);
    wrote = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return wrote; }));
  }
  c2.readx(1, [&](const ustor::ReadResult& r) {
    std::lock_guard lock(mu);
    read_value = ustor::to_owned(r.value);
    read_done = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return read_done; }));
  }
  bus.stop();
  ASSERT_TRUE(read_value.has_value());
  EXPECT_EQ(to_string(*read_value), "threaded!");
}

}  // namespace
}  // namespace faust::rt
