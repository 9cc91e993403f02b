// Wire robustness under a byte-level adversary, deterministic-RNG driven.
//
// Every USTOR message type (and the KV partition codec) is attacked three
// ways — truncation at every length, single-bit flips, and pure random
// garbage — and the decoders must never crash, never read out of bounds
// (the sanitizer CI job runs this suite under ASan+UBSan), and never
// accept a non-canonical buffer:
//
//   * any strict prefix of a valid encoding is rejected (the Reader's
//     sticky ok() flips and the decoder returns nullopt);
//   * any buffer a decoder does accept is in canonical form, i.e.
//     re-encoding the decoded message reproduces the buffer bit-for-bit.
//     This is decision D3 (unique encodings) pushed down to the fuzzer:
//     a bit flip either makes a different valid message or no message at
//     all — there is no third bucket of "same message, different bytes".
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/kv_client.h"
#include "ustor/messages.h"
#include "wire/encoder.h"

namespace faust::ustor {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

Version random_version(Rng& rng, int n) {
  Version v(n);
  for (int k = 1; k <= n; ++k) {
    v.v(k) = rng.next_below(1000);
    if (rng.next_below(2)) v.m(k) = chain_step(Digest::bottom(), k);
  }
  return v;
}

InvocationTuple random_invocation(Rng& rng, int n) {
  return {static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n))),
          rng.next_below(2) ? OpCode::kWrite : OpCode::kRead,
          static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n))),
          random_bytes(rng, 24)};
}

SignedVersion random_signed_version(Rng& rng, int n) {
  return {random_version(rng, n), random_bytes(rng, 24)};
}

crypto::Hash random_hash(Rng& rng) {
  crypto::Hash h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next_u64());
  return h;
}

std::vector<Splice> random_splices(Rng& rng) {
  std::vector<Splice> out;
  for (std::size_t q = rng.next_below(4); q > 0; --q) {
    out.push_back(Splice{rng.next_below(64), rng.next_below(16), random_bytes(rng, 24)});
  }
  return out;
}

/// One random, valid encoding of every message type.
std::vector<Bytes> random_corpus(Rng& rng) {
  const int n = static_cast<int>(1 + rng.next_below(5));
  std::vector<Bytes> corpus;

  SubmitMessage sm;
  sm.t = rng.next_u64();
  sm.inv = random_invocation(rng, n);
  sm.value = rng.next_below(2) ? Value(random_bytes(rng, 32)) : std::nullopt;
  sm.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sm));

  ReplyMessage rm;
  rm.c = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  rm.last = random_signed_version(rng, n);
  if (rng.next_below(2)) {
    ReadPayload rp;
    rp.writer = random_signed_version(rng, n);
    rp.tj = rng.next_below(100);
    rp.value = rng.next_below(2) ? Value(random_bytes(rng, 32)) : std::nullopt;
    rp.data_sig = random_bytes(rng, 24);
    rm.read = std::move(rp);
  }
  for (std::size_t q = rng.next_below(3); q > 0; --q) rm.L.push_back(random_invocation(rng, n));
  for (int k = 0; k < n; ++k) rm.P.push_back(random_bytes(rng, 24));
  corpus.push_back(encode(rm));

  // SUBMIT_DELTA, write form (the opcode selects the wire shape, so it is
  // pinned rather than random).
  SubmitDeltaMessage sdw;
  sdw.t = rng.next_u64();
  sdw.inv = random_invocation(rng, n);
  sdw.inv.oc = OpCode::kWrite;
  sdw.base_digest = random_hash(rng);
  sdw.new_root = random_hash(rng);
  sdw.new_size = rng.next_below(4096);
  sdw.splices = random_splices(rng);
  sdw.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sdw));

  // SUBMIT_DELTA, read form (an advertised-base read).
  SubmitDeltaMessage sdr;
  sdr.t = rng.next_u64();
  sdr.inv = random_invocation(rng, n);
  sdr.inv.oc = OpCode::kRead;
  sdr.base_ts = rng.next_below(1000);
  sdr.base_digest = random_hash(rng);
  sdr.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sdr));

  // REPLY_DELTA: alternates between the "unchanged" token and the spliced
  // shape (the presence byte selects which fields exist on the wire).
  ReplyDeltaMessage rd;
  rd.c = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  rd.last = random_signed_version(rng, n);
  rd.read.writer = random_signed_version(rng, n);
  rd.read.tj = rng.next_below(100);
  rd.read.unchanged = rng.next_below(2) == 1;
  rd.read.base_digest = random_hash(rng);
  if (!rd.read.unchanged) {
    rd.read.new_size = rng.next_below(4096);
    rd.read.splices = random_splices(rng);
  }
  rd.read.data_sig = random_bytes(rng, 24);
  for (std::size_t q = rng.next_below(3); q > 0; --q) rd.L.push_back(random_invocation(rng, n));
  for (int k = 0; k < n; ++k) rd.P.push_back(random_bytes(rng, 24));
  corpus.push_back(encode(rd));

  CommitMessage cm;
  cm.version = random_version(rng, n);
  cm.commit_sig = random_bytes(rng, 24);
  cm.proof_sig = random_bytes(rng, 24);
  corpus.push_back(encode(cm));

  corpus.push_back(encode(ProbeMessage{}));

  VersionMessage vm;
  vm.committer = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  vm.ver = random_signed_version(rng, n);
  corpus.push_back(encode(vm));

  FailureMessage fm;
  fm.has_evidence = rng.next_below(2) == 1;
  if (fm.has_evidence) {
    fm.committer_a = 1;
    fm.a = random_signed_version(rng, n);
    fm.committer_b = 2;
    fm.b = random_signed_version(rng, n);
  }
  corpus.push_back(encode(fm));

  return corpus;
}

/// Decodes `data` as whatever its tag claims; on success returns the
/// canonical re-encoding.
std::optional<Bytes> decode_and_reencode(BytesView data) {
  const auto type = peek_type(data);
  if (!type.has_value()) return std::nullopt;
  switch (*type) {
    case MsgType::kSubmit:
      if (const auto m = decode_submit(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kReply:
      if (const auto m = decode_reply(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kSubmitDelta:
      if (const auto m = decode_submit_delta(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kReplyDelta:
      if (const auto m = decode_reply_delta(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kCommit:
      if (const auto m = decode_commit(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kProbe:
      if (const auto m = decode_probe(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kVersion:
      if (const auto m = decode_version(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kFailure:
      if (const auto m = decode_failure(data)) return encode(*m);
      return std::nullopt;
  }
  return std::nullopt;
}

TEST(WireFuzz, TruncationAlwaysRejected) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 8; ++trial) {
      for (const Bytes& full : random_corpus(rng)) {
        // The untouched encoding decodes and is canonical.
        const auto intact = decode_and_reencode(full);
        ASSERT_TRUE(intact.has_value());
        EXPECT_EQ(*intact, full);
        // Every strict prefix is rejected.
        for (std::size_t len = 0; len < full.size(); ++len) {
          EXPECT_FALSE(decode_and_reencode(BytesView(full.data(), len)).has_value())
              << "seed " << seed << " accepted a " << len << "-byte prefix of a "
              << full.size() << "-byte message";
        }
      }
    }
  }
}

TEST(WireFuzz, BitFlipsNeverYieldNonCanonicalAcceptance) {
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 8; ++trial) {
      for (const Bytes& full : random_corpus(rng)) {
        // Flip every bit of small messages; sample 512 flips of large ones.
        const std::size_t total_bits = full.size() * 8;
        const std::size_t flips = std::min<std::size_t>(total_bits, 512);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t bit =
              flips == total_bits ? f : rng.next_below(total_bits);
          Bytes mutated = full;
          mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          const auto re = decode_and_reencode(mutated);
          if (re.has_value()) {
            // Accepted ⇒ the mutated buffer is itself a canonical
            // encoding (possibly of another message type).
            EXPECT_EQ(*re, mutated)
                << "bit " << bit << " of a " << full.size()
                << "-byte message produced a non-canonical acceptance";
          }
        }
      }
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesAndNeverDecodesNonCanonically) {
  for (std::uint64_t seed : {5u, 55u, 555u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 4000; ++trial) {
      Bytes junk(rng.next_below(160));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
      if (!junk.empty() && rng.next_below(2)) {
        junk[0] = static_cast<std::uint8_t>(1 + rng.next_below(12));  // valid-ish tag
      }
      const auto re = decode_and_reencode(junk);
      if (re.has_value()) EXPECT_EQ(*re, junk);
    }
  }
}

TEST(WireFuzz, ApplyDeltaRejectsOutOfBoundsSplicesAndSizeLies) {
  const Bytes base = to_bytes("0123456789");
  const auto apply = [&](std::vector<Splice> s, std::uint64_t expected) {
    return apply_delta(BytesView(base), std::span<const Splice>(s), expected);
  };

  // A splice offset past the end of the evolving buffer is rejected whole.
  EXPECT_FALSE(apply({Splice{11, 0, to_bytes("x")}}, 11).has_value());
  // An erase reaching past the end is rejected.
  EXPECT_FALSE(apply({Splice{5, 6, {}}}, 4).has_value());
  // A final size that does not match the spliced result is rejected even
  // when every splice is individually in bounds.
  EXPECT_FALSE(apply({Splice{0, 0, to_bytes("ab")}}, 10).has_value());
  // A second splice may run out of bounds on the SHRUNKEN intermediate
  // buffer even though it would fit the original.
  EXPECT_FALSE(apply({Splice{0, 8, {}}, Splice{2, 1, {}}}, 1).has_value());

  // The empty splice list is the identity (only usable when sizes agree).
  {
    const auto r = apply({}, base.size());
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, base);
  }
  // Inserting at exactly the end is an append, not out-of-bounds.
  {
    const auto r = apply({Splice{10, 0, to_bytes("!")}}, 11);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(to_string(*r), "0123456789!");
  }
  // Overlapping offsets are well-defined: splices apply SEQUENTIALLY, each
  // against the buffer produced by the previous one. "0123456789" →(0,5,"AB")
  // "AB56789" →(1,2,"Z") "AZ6789".
  {
    const auto r = apply({Splice{0, 5, to_bytes("AB")}, Splice{1, 2, to_bytes("Z")}}, 6);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(to_string(*r), "AZ6789");
  }
}

/// The sequential splice application apply_delta composed away: an erase
/// plus an insert per splice. Kept as the reference the composed form
/// must agree with, rejections included.
std::optional<Bytes> sequential_apply(BytesView base, const std::vector<Splice>& splices,
                                      std::uint64_t expected_size) {
  Bytes buf(base.begin(), base.end());
  for (const Splice& s : splices) {
    if (s.offset > buf.size()) return std::nullopt;
    if (s.erase_len > buf.size() - s.offset) return std::nullopt;
    const auto at = buf.begin() + static_cast<std::ptrdiff_t>(s.offset);
    buf.erase(at, at + static_cast<std::ptrdiff_t>(s.erase_len));
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(s.offset), s.insert.begin(),
               s.insert.end());
  }
  if (buf.size() != expected_size) return std::nullopt;
  return buf;
}

TEST(WireFuzz, ComposedApplyDeltaEqualsSequentialSplicing) {
  // Random chains over random bases: mostly in-bounds splices (so long
  // chains survive), some past the evolving end, and final sizes that are
  // right, one short or one long. A few chains are long enough to cross
  // the composer's flattening threshold. The composed result (or its
  // rejection) must equal the sequential one, through both splice types.
  Rng rng(515);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Bytes base = random_bytes(rng, 96);
    const std::size_t count = trial % 500 == 0 ? 1500 + rng.next_below(600) : rng.next_below(24);
    std::vector<Splice> splices;
    std::uint64_t len = base.size();
    for (std::size_t q = 0; q < count; ++q) {
      Splice s;
      const bool wild = count < 100 && rng.next_below(40) == 0;  // long chains stay valid
      s.offset = wild ? len + rng.next_below(3) : rng.next_below(len + 1);
      const std::uint64_t room = s.offset <= len ? len - s.offset : 0;
      s.erase_len = wild ? rng.next_below(room + 3)
                         : rng.next_below(std::min<std::uint64_t>(room, 12) + 1);
      s.insert = random_bytes(rng, 10);
      if (s.offset <= len && s.erase_len <= len - s.offset) {
        len = len - s.erase_len + s.insert.size();
      }
      splices.push_back(std::move(s));
    }
    const std::uint64_t expected = len + (rng.next_below(8) == 0 ? 1 : 0) -
                                   (len > 0 && rng.next_below(8) == 0 ? 1 : 0);
    const auto want = sequential_apply(base, splices, expected);
    const auto got = apply_delta(BytesView(base), std::span<const Splice>(splices), expected);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (want.has_value()) {
      ASSERT_EQ(*got, *want) << "trial " << trial;
      ++accepted;
    } else {
      ++rejected;
    }
    std::vector<SpliceView> views;
    for (const Splice& s : splices) views.push_back(SpliceView{s.offset, s.erase_len, s.insert});
    const auto via_views =
        apply_delta(BytesView(base), std::span<const SpliceView>(views), expected);
    ASSERT_EQ(via_views, got) << "trial " << trial;
  }
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

/// The owning partition decoder the offset-index decoder replaced: one
/// std::string per key and value. Kept as the acceptance reference.
std::optional<kv::Partition> owning_decode_partition(BytesView data) {
  wire::Reader r(data);
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > (1u << 20)) return std::nullopt;
  kv::Partition p;
  p.reserve(std::min<std::size_t>(count, r.remaining() / 16 + 1));
  for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
    kv::PartitionEntry e;
    e.key = to_string(r.get_bytes_view());
    e.value = to_string(r.get_bytes_view());
    e.seq = r.get_u64();
    if (!r.ok()) return std::nullopt;
    if (!p.empty() && e.key <= p.back().key) return std::nullopt;
    p.push_back(std::move(e));
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return p;
}

/// Both decoders on `data`: the same verdict, and on acceptance the same
/// entries. Returns the verdict.
bool expect_same_partition_decode(BytesView data, const std::string& what) {
  const auto want = owning_decode_partition(data);
  const auto got = kv::decode_partition(data);
  EXPECT_EQ(got.has_value(), want.has_value()) << what;
  if (!got.has_value() || !want.has_value()) return false;
  EXPECT_EQ(got->size(), want->size()) << what;
  for (std::size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
    const kv::PartitionView::EntryRef e = (*got)[i];
    EXPECT_EQ(e.key, (*want)[i].key) << what << " entry " << i;
    EXPECT_EQ(e.value, (*want)[i].value) << what << " entry " << i;
    EXPECT_EQ(e.seq, (*want)[i].seq) << what << " entry " << i;
  }
  return true;
}

TEST(WireFuzz, PartitionViewDecoderAcceptsExactlyWhatTheOwningDecoderDid) {
  // Valid partitions (empty keys and values included) under truncation at
  // every length, every single-bit flip, and reordered or duplicated
  // entries; then raw garbage, half of it with a small plausible count.
  int flips_accepted = 0;
  for (std::uint64_t seed : {4u, 44u, 444u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      std::map<std::string, std::pair<std::string, std::uint64_t>> m;
      for (std::size_t k = rng.next_below(7); k > 0; --k) {
        std::string key = rng.next_below(8) == 0 ? "" : to_string(random_bytes(rng, 6));
        m[key] = {to_string(random_bytes(rng, 12)), rng.next_u64()};
      }
      kv::Partition p;
      for (const auto& [key, vs] : m) p.push_back(kv::PartitionEntry{key, vs.first, vs.second});
      const Bytes full = kv::encode_partition(p);
      ASSERT_TRUE(expect_same_partition_decode(full, "intact"));
      for (std::size_t len = 0; len < full.size(); ++len) {
        EXPECT_FALSE(expect_same_partition_decode(BytesView(full.data(), len), "prefix"));
      }
      for (std::size_t bit = 0; bit < full.size() * 8; ++bit) {
        Bytes mutated = full;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        flips_accepted += expect_same_partition_decode(mutated, "bit " + std::to_string(bit));
      }
      Bytes padded = full;
      padded.push_back(0);
      EXPECT_FALSE(expect_same_partition_decode(padded, "trailing byte"));
      if (p.size() >= 2) {
        kv::Partition swapped = p;
        std::swap(swapped[0], swapped[1]);
        EXPECT_FALSE(expect_same_partition_decode(kv::encode_partition(swapped), "out of order"));
        kv::Partition dup = p;
        dup.insert(dup.begin() + 1, dup[0]);
        EXPECT_FALSE(expect_same_partition_decode(kv::encode_partition(dup), "duplicate key"));
      }
    }
    for (int trial = 0; trial < 4000; ++trial) {
      Bytes junk = random_bytes(rng, 160);
      if (junk.size() >= 4 && rng.next_below(2)) {
        junk[0] = static_cast<std::uint8_t>(rng.next_below(4));
        junk[1] = junk[2] = junk[3] = 0;
      }
      expect_same_partition_decode(junk, "garbage");
    }
  }
  EXPECT_GT(flips_accepted, 0) << "some flips (of value or seq bytes) must still decode";
  // The entry cap: a count past 2^20 is refused before any entry is read.
  Bytes huge(4);
  huge[2] = 0x10;
  huge[0] = 1;  // 2^20 + 1
  EXPECT_FALSE(expect_same_partition_decode(huge, "count past the cap"));
}

TEST(WireFuzz, KvMapCodecRejectsTruncationFlipsToCanonicalOnly) {
  using kv::decode_map;
  using kv::encode_map;
  for (std::uint64_t seed : {3u, 13u, 23u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 12; ++trial) {
      std::map<std::string, std::pair<std::string, std::uint64_t>> m;
      for (std::size_t k = rng.next_below(6) + 1; k > 0; --k) {
        m["key-" + std::to_string(rng.next_below(50))] = {
            to_string(random_bytes(rng, 20)), rng.next_u64() % 1000};
      }
      const Bytes full = encode_map(m);
      const auto back = decode_map(full);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, m);

      for (std::size_t len = 0; len < full.size(); ++len) {
        EXPECT_FALSE(decode_map(BytesView(full.data(), len)).has_value());
      }
      for (std::size_t bit = 0; bit < full.size() * 8; ++bit) {
        Bytes mutated = full;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        if (const auto dec = decode_map(mutated)) {
          // Canonicality: the map codec rejects out-of-order and duplicate
          // keys, so an accepted mutation re-encodes to the same bytes.
          EXPECT_EQ(encode_map(*dec), mutated) << "bit " << bit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace faust::ustor
