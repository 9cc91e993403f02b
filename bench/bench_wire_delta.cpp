// O(change) on the wire (PERF.md "Bytes per op"): SUBMIT/REPLY bytes per
// operation against keyspace size K, with the D6 delta wire protocol
// (SUBMIT_DELTA / REPLY_DELTA + advertised read bases) toggled against
// the full-value wire path. The engine-side delta machinery (incremental
// encode, chunked digests, decode memos) is ON in both modes — only the
// transport representation differs, so the bytes/op counters isolate the
// wire claim.
//
// The claims under test:
//   * SUBMIT bytes for a single-key put at K=16384 stay within 4x of
//     K=256 with deltas on (full-value SUBMITs scale with the partition);
//   * an all-unchanged snapshot read ships O(1) bytes per partition
//     (REPLY_DELTA "unchanged" tokens, a few hundred bytes vs the full
//     value — the residue is the version vector + L/P lists, not data);
//   * a reader whose base is 16 records old still gets splices, not the
//     full value (the server's delta window, DESIGN.md D12).
//
// Byte counts come from the net::Network per-message-type accounting
// (total_for(tag)), measured as deltas across the timed loop and
// reported as user counters: submit_bytes_per_op / reply_bytes_per_op
// sum the full and delta variants of each direction, so the two modes
// are directly comparable. tools/ci_gates.py asserts the 4x bound and the
// aged-base bound on BENCH_wire_delta.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace {

using namespace faust;

constexpr int kWriters = 3;

std::string key_of(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", k);
  return buf;
}

std::string value_of(int v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%07d", v % 10'000'000);
  return buf;
}

struct WireRig {
  WireRig(int total_keys, bool deltas) {
    ClusterConfig cfg;
    cfg.n = kWriters;
    cfg.seed = 4242;
    cfg.delay = net::DelayModel{1, 1};
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = ustor::DigestMode::kChunked;
    cfg.faust.wire_deltas = deltas;
    cluster = std::make_unique<Cluster>(cfg);
    const kv::KvTuning tuning{/*incremental_encode=*/true};
    for (ClientId i = 1; i <= kWriters; ++i) {
      kv.push_back(std::make_unique<kv::KvClient>(cluster->client(i), tuning));
    }
    // Bulk-load K keys round-robin over the writers: one publication per
    // writer (apply_with_seqs), so setup stays cheap even at K=16384.
    std::vector<std::vector<kv::KvClient::SeqChange>> load(kWriters);
    std::vector<std::uint64_t> seq(kWriters, 0);
    for (int k = 0; k < total_keys; ++k) {
      const int w = k % kWriters;
      load[static_cast<std::size_t>(w)].push_back(
          kv::KvClient::SeqChange{key_of(k), value_of(k), ++seq[static_cast<std::size_t>(w)]});
    }
    for (int w = 0; w < kWriters; ++w) {
      bool done = false;
      kv[static_cast<std::size_t>(w)]->apply_with_seqs(load[static_cast<std::size_t>(w)],
                                                       [&](Timestamp) { done = true; });
      drive(done);
    }
  }

  void drive(const bool& done) {
    while (!done && cluster->sched().step()) {
    }
  }

  void put(int k, int v) {
    bool done = false;
    kv[static_cast<std::size_t>(k % kWriters)]->put(key_of(k), value_of(v),
                                                    [&](Timestamp) { done = true; });
    drive(done);
  }

  std::optional<kv::KvEntry> get(ClientId reader, int k) {
    bool done = false;
    std::optional<kv::KvEntry> out;
    kv[static_cast<std::size_t>(reader - 1)]->get(
        key_of(k), [&](std::optional<kv::KvEntry> e, Timestamp) {
          out = std::move(e);
          done = true;
        });
    drive(done);
    return out;
  }

  /// SUBMIT-direction bytes so far: full + delta variants summed, so
  /// delta and full runs report through the same counter.
  std::uint64_t submit_bytes() const {
    const auto& n = cluster->net();
    return n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmit)).bytes +
           n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmitDelta)).bytes;
  }

  /// REPLY-direction bytes so far (full + delta).
  std::uint64_t reply_bytes() const {
    const auto& n = cluster->net();
    return n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kReply)).bytes +
           n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kReplyDelta)).bytes;
  }

  /// REPLY_DELTA messages so far (for the unchanged-storm accounting).
  std::uint64_t reply_delta_messages() const {
    return cluster->net()
        .total_for(static_cast<std::uint8_t>(ustor::MsgType::kReplyDelta))
        .messages;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
};

/// Reports bytes/op (measured across the timed loop only) plus the
/// engine-side delta outcome counters, so a JSON diff shows not just the
/// byte win but WHICH path produced it.
void set_wire_counters(benchmark::State& state, const WireRig& rig,
                       std::uint64_t submit_before, std::uint64_t reply_before) {
  const double ops = static_cast<double>(state.iterations());
  state.counters["keys"] = static_cast<double>(state.range(0));
  state.counters["wire_deltas"] = static_cast<double>(state.range(1));
  state.counters["ops_per_sec"] = benchmark::Counter(ops, benchmark::Counter::kIsRate);
  state.counters["submit_bytes_per_op"] =
      static_cast<double>(rig.submit_bytes() - submit_before) / (ops > 0 ? ops : 1);
  state.counters["reply_bytes_per_op"] =
      static_cast<double>(rig.reply_bytes() - reply_before) / (ops > 0 ? ops : 1);
  std::uint64_t dsub = 0, unchanged = 0, spliced = 0, fallbacks = 0;
  for (ClientId i = 1; i <= kWriters; ++i) {
    const auto& eng = rig.cluster->client(i).engine();
    dsub += eng.delta_submits();
    unchanged += eng.delta_replies_unchanged();
    spliced += eng.delta_replies_spliced();
    fallbacks += eng.delta_fallbacks();
  }
  state.counters["delta_submits"] = static_cast<double>(dsub);
  state.counters["delta_replies_unchanged"] = static_cast<double>(unchanged);
  state.counters["delta_replies_spliced"] = static_cast<double>(spliced);
  state.counters["delta_fallbacks"] = static_cast<double>(fallbacks);
}

/// Overwrite-heavy single-key puts into pre-populated partitions of
/// ~K/3 entries: submit_bytes_per_op is the headline number (the 4x
/// K-independence bound is asserted on the deltas-on rows).
void BM_WirePut(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool deltas = state.range(1) != 0;
  WireRig rig(total_keys, deltas);
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 1'000'000;
  for (auto _ : state) {
    rig.put(k % total_keys, ++v);
    k += 7919;  // prime stride: spread splices across the partition
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WirePut)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Single-key gets over registers that keep changing under the reader:
/// with deltas on, the REPLY carries splice runs against the reader's
/// last verified base instead of the whole partition.
void BM_WireGet(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool deltas = state.range(1) != 0;
  WireRig rig(total_keys, deltas);
  benchmark::DoNotOptimize(rig.get(1, 0));  // warm memos + verified bases
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 3'000'000;
  for (auto _ : state) {
    rig.put(k % total_keys, ++v);  // keep the registers moving
    benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    k += 7919;
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WireGet)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Mixed workload: mostly reads, occasional writes.
void BM_WireMixed(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool deltas = state.range(1) != 0;
  WireRig rig(total_keys, deltas);
  benchmark::DoNotOptimize(rig.get(1, 0));
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 2'000'000;
  for (auto _ : state) {
    if (k % 8 == 0) {
      rig.put(k % total_keys, ++v);
    } else {
      benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    }
    ++k;
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WireMixed)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// All-unchanged read storm: every register was verified once, then
/// nothing moves — each subsequent read's n REPLYs should be O(1)
/// "unchanged" tokens, independent of the partition size. Reported as
/// reply_bytes_per_op (one op = one get = n register reads).
void BM_WireUnchangedStorm(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool deltas = state.range(1) != 0;
  WireRig rig(total_keys, deltas);
  // Warm every writer's register in the reader's memo (one get per
  // partition suffices: a get reads all n registers).
  benchmark::DoNotOptimize(rig.get(1, 0));
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  const std::uint64_t rdm = rig.reply_delta_messages();
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    k += 7919;
  }
  set_wire_counters(state, rig, sb, rb);
  const double msgs = static_cast<double>(rig.reply_delta_messages() - rdm);
  state.counters["reply_bytes_per_msg"] =
      msgs > 0 ? static_cast<double>(rig.reply_bytes() - rb) / msgs : 0.0;
}
BENCHMARK(BM_WireUnchangedStorm)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// A reader whose verified base is `age` records old: each iteration the
/// register's owner makes `age` single-key puts, then client 2 reads that
/// one register. With the base inside the server's delta window the read
/// is answered by REPLY_DELTA, so reply_bytes_per_msg (the read replies
/// only) stays a small fraction of value_bytes, the register's size. Both
/// counters are seeded and iteration-independent (every iteration has the
/// same shape), so the CI gate on their ratio holds in smoke runs too.
void BM_WireAgedBase(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const int age = static_cast<int>(state.range(1));
  WireRig rig(total_keys, /*deltas=*/true);
  FaustClient& reader = rig.cluster->client(2);
  std::uint64_t value_bytes = 0;
  const auto read_register_1 = [&] {
    bool done = false;
    reader.read_ex(1, [&](const ustor::SharedValue& v, Timestamp, const ReadMeta&) {
      value_bytes = v.has_value() ? v->size() : 0;
      done = true;
    });
    rig.drive(done);
  };
  const auto replies_to_reader = [&] {
    const net::Network& n = rig.cluster->net();
    ustor::MsgType types[] = {ustor::MsgType::kReply, ustor::MsgType::kReplyDelta};
    net::ChannelStats sum;
    for (const ustor::MsgType t : types) {
      const net::ChannelStats c = n.channel_for(kServerNode, 2, static_cast<std::uint8_t>(t));
      sum.messages += c.messages;
      sum.bytes += c.bytes;
    }
    return sum;
  };
  read_register_1();  // verifies the first base
  std::uint64_t read_bytes = 0, read_msgs = 0, spliced = 0;
  int k = 0, v = 4'000'000;
  for (auto _ : state) {
    for (int p = 0; p < age; ++p) {
      rig.put(k, ++v);  // writer 1 owns the keys k % kWriters == 0
      k = (k + 3 * 7919) % (total_keys - total_keys % kWriters);
    }
    const net::ChannelStats before = replies_to_reader();
    const std::uint64_t spliced_before = reader.engine().delta_replies_spliced();
    read_register_1();
    const net::ChannelStats after = replies_to_reader();
    read_bytes += after.bytes - before.bytes;
    read_msgs += after.messages - before.messages;
    spliced += reader.engine().delta_replies_spliced() - spliced_before;
  }
  state.counters["keys"] = static_cast<double>(total_keys);
  state.counters["age"] = static_cast<double>(age);
  state.counters["value_bytes"] = static_cast<double>(value_bytes);
  state.counters["reply_bytes_per_msg"] =
      read_msgs > 0 ? static_cast<double>(read_bytes) / static_cast<double>(read_msgs) : 0.0;
  state.counters["spliced_share"] =
      read_msgs > 0 ? static_cast<double>(spliced) / static_cast<double>(read_msgs) : 0.0;
}
BENCHMARK(BM_WireAgedBase)->Args({3072, 16})->MinTime(0.1);

}  // namespace

#include "json_main.h"
FAUST_BENCH_MAIN();
