// Direct calls into single layers' public functions, on inputs shaped like
// the run that precedes them. Each is timed on the thread's CPU clock as
// the median over several repetitions of a fixed loop.
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "crypto/signature.h"
#include "kvstore/kv_client.h"
#include "storage/log_store.h"

namespace perfbench {
namespace {

constexpr int kReps = 7;

template <typename Body>
double median_us_per_call(int calls, Body body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = thread_cpu_us();
    for (int i = 0; i < calls; ++i) body(i);
    per_call.push_back((thread_cpu_us() - t0) / calls);
  }
  return median(per_call);
}

}  // namespace

double time_sign_verify(std::size_t message_bytes, double* verify_us) {
  const faust::crypto::HmacSignatureScheme scheme(3, faust::BytesView());
  faust::Bytes msg(std::max<std::size_t>(message_bytes, 1));
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 131);
  const faust::Bytes sig = scheme.sign(1, msg);
  std::uint64_t sink = 0;
  *verify_us = median_us_per_call(4000, [&](int) { sink += scheme.verify(1, msg, sig) ? 1 : 0; });
  const double sign_us = median_us_per_call(4000, [&](int i) {
    msg[0] = static_cast<std::uint8_t>(i);
    sink += scheme.sign(1, msg)[0];
  });
  if (sink == 0) *verify_us = -1;  // every verify failed: report it, never hide it
  return sign_us;
}

double time_partition_codec(
    const std::vector<std::pair<std::string, std::pair<std::string, std::uint64_t>>>& entries,
    double* decode_us) {
  faust::kv::Partition part;
  part.reserve(entries.size());
  for (const auto& [key, vs] : entries) part.push_back({key, vs.first, vs.second});
  const faust::Bytes encoded = faust::kv::encode_partition(part);
  const int calls = entries.size() > 4000 ? 5 : 50;
  std::uint64_t sink = 0;
  const double encode_us = median_us_per_call(calls, [&](int) {
    sink += faust::kv::encode_partition(part).size();
  });
  *decode_us = median_us_per_call(calls, [&](int) {
    const auto p = faust::kv::decode_partition(encoded);
    sink += p ? p->size() : 0;
  });
  if (sink == 0 && !entries.empty()) *decode_us = -1;
  return encode_us;
}

double time_log_append(const std::string& dir, std::size_t record_bytes) {
  const std::string path = dir + "/append_probe.log";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  faust::storage::LogStore log(path);
  const faust::Bytes record(std::max<std::size_t>(record_bytes, 1), 0x5a);
  bool ok = true;
  const double us = median_us_per_call(500, [&](int) { ok = log.append(record) && ok; });
  std::filesystem::remove(path, ec);
  return ok ? us : -1;
}

}  // namespace perfbench
