// perfbench — the api::Store benchmark (see ../README.md).
//
//   perfbench --workload kv-mixed|read-cached|batch-process --seed N
//             --seconds S --trace 0|1 [--revision R] [--work-dir DIR]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints every metric by name and unit, a provenance line, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs the
// per-layer ones. A wrong output fails the run by name (correct=false).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "stream.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"ops_per_cpu_s", "ops/s"}, {"call_mean_us", "us"},      {"call_p90_us", "us"},
    {"wire_bytes_per_op", "B"}, {"stable_lag_ms_p50", "ms"}, {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"api.issue_us", "us"},
    {"api.put_p50_us", "us"},
    {"api.put_p90_us", "us"},
    {"api.get_mean_us", "us"},
    {"api.get_p90_us", "us"},
    {"api.publications_per_batch", "count"},
    {"api.failed_op_share", "ratio"},
    {"shard.load_skew", "ratio"},
    {"faust.client_step_us", "us"},
    {"faust.stable_lag_ops_p50", "ops"},
    {"faust.background_ops_per_op", "count"},
    {"faust.versions_per_op", "count"},
    {"ustor.server_step_us", "us"},
    {"ustor.delta_unchanged_share", "ratio"},
    {"ustor.delta_fallback_share", "ratio"},
    {"crypto.verify_cache_hit_rate", "ratio"},
    {"crypto.verifies_per_op", "count"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"kvstore.encode_partition_us", "us"},
    {"kvstore.decode_partition_us", "us"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op.submit", "B"},
    {"net.bytes_per_op.submit_delta", "B"},
    {"net.bytes_per_op.reply", "B"},
    {"net.bytes_per_op.reply_delta", "B"},
    {"net.bytes_per_op.commit", "B"},
    {"sim.steps_per_op", "count"},
    {"sim.other_step_us", "us"},
    {"storage.wal_records_per_op", "count"},
    {"storage.wal_bytes_per_put", "B"},
    {"storage.snapshots_per_kop", "count"},
    {"storage.snapshot_bytes", "B"},
    {"storage.append_us", "us"},
    {"storage.recovered_records", "count"},
    {"storage.recovery_ms", "ms"},
    {"storage.stored_bytes_per_user_byte", "ratio"},
    {"cache.hit_rate", "ratio"},
    {"cache.step_us", "us"},
    {"cache.stale_share", "ratio"},
    {"cache.evictions_per_kop", "count"},
    {"cache.expirations_per_kop", "count"},
    {"cache.fills_rejected", "count"},
    {"sock.socket_bytes_per_op", "B"},
    {"sock.framing_share", "ratio"},
    {"sock.frames_per_batch", "count"},
    {"sock.reconnects", "count"},
    {"sock.tax_us_per_batch", "us"},
    {"rt.tasks_per_batch", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

const std::set<std::string> kWorkloads = {"kv-mixed", "read-cached", "batch-process"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpuinfo_field(const char* field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

void add_provenance(Result& r, const Options& opt) {
  r.note("workload", opt.workload);
  r.note("seed", std::to_string(opt.seed));
  r.note("seconds", number(opt.seconds));
  r.note("trace", opt.trace ? "1" : "0");
  r.note("revision", opt.revision);
  r.note("cpu_model", cpuinfo_field("model name"));
  r.note("cpu_mhz", cpuinfo_field("cpu MHz"));
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("compiler", PERFBENCH_COMPILER);
  r.note("build_type", PERFBENCH_BUILD_TYPE);
}

/// Keeps exactly the metrics of the requested kind, in table order, and
/// fills the ones a workload does not exercise with 0 (per-layer only).
void finish_metrics(Result& r, bool trace) {
  const auto& table = trace ? kPerLayer : kEndToEnd;
  std::vector<std::pair<std::string, Metric>> out;
  for (const MetricSpec& spec : table) {
    Metric m{0, spec.unit};
    bool found = false;
    for (const auto& [n, v] : r.metrics) {
      if (n == spec.name) {
        m.value = v.value;
        found = true;
      }
    }
    if (!found && !trace) r.fail(std::string("end-to-end metric not measured: ") + spec.name);
    out.emplace_back(spec.name, m);
  }
  r.metrics = std::move(out);
}

void print_result(const Result& r) {
  for (const auto& [n, m] : r.metrics) {
    std::printf("%-36s %16.4f %s\n", n.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string prov = "{";
  for (std::size_t i = 0; i < r.provenance.size(); ++i) {
    prov += (i ? ", \"" : "\"") + json_escape(r.provenance[i].first) + "\": \"" +
            json_escape(r.provenance[i].second) + "\"";
  }
  std::printf("provenance %s}\n", prov.c_str());
  std::string js = "{\"correct\": ";
  js += r.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    js += (i ? ", \"" : "\"") + r.metrics[i].first + "\": {\"value\": " +
          number(r.metrics[i].second.value) + ", \"unit\": \"" + r.metrics[i].second.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

Result run(const Options& opt) {
  Result r = opt.workload == "batch-process" ? run_batch_process(opt) : run_deterministic(opt);
  add_provenance(r, opt);
  finish_metrics(r, opt.trace);
  if (r.attempted == 0) r.fail("no op was attempted");
  return r;
}

double metric(const Result& r, const std::string& name) {
  for (const auto& [n, m] : r.metrics) {
    if (n == name) return m.value;
  }
  return std::nan("");
}

// --- Self-test ---------------------------------------------------------------

int self_test(const Options& base) {
  int failures = 0;
  const SelfCheck check = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    failures += ok ? 0 : 1;
  };

  // 1. The op stream is a function of the seed alone.
  const auto stream_bytes = [](std::uint64_t seed) {
    StreamParams p;
    OpStream s(p, derive_seed(seed, 101));
    std::string out;
    for (int i = 0; i < 20000; ++i) append_op(out, s.next());
    return out;
  };
  check(stream_bytes(1) == stream_bytes(1), "same seed gives a byte-identical op stream");
  check(stream_bytes(1) != stream_bytes(2), "a different seed gives a different op stream");

  // 2. Counts repeat exactly between two runs of a deterministic workload.
  const std::vector<std::string> exact_e2e = {"wire_bytes_per_op"};
  const std::vector<std::string> exact_layer = {
      "faust.stable_lag_ops_p50",   "sim.steps_per_op",           "net.msgs_per_op",           "net.bytes_per_op.submit",
      "net.bytes_per_op.submit_delta", "net.bytes_per_op.reply", "net.bytes_per_op.reply_delta",
      "net.bytes_per_op.commit",    "storage.wal_records_per_op", "storage.wal_bytes_per_put",
      "storage.stored_bytes_per_user_byte"};
  for (const std::string w : {"kv-mixed", "read-cached"}) {
    for (const bool trace : {false, true}) {
      Options o = base;
      o.workload = w;
      o.seed = 5;
      o.trace = trace;
      o.fixed_ops = w == "kv-mixed" ? 300 : 1500;
      const Result a = run(o);
      const Result b = run(o);
      check(a.correct && b.correct, w + (trace ? " traced" : "") + ": output checks pass");
      for (const auto& name : trace ? exact_layer : exact_e2e) {
        const double x = metric(a, name), y = metric(b, name);
        char buf[200];
        std::snprintf(buf, sizeof(buf), "%s: %s repeats exactly (%.17g vs %.17g)", w.c_str(),
                      name.c_str(), x, y);
        check(x == y, buf);
      }
    }
  }

  // 3. The batch check holds every op of a batch to program order.
  self_test_batch_order(base, check);

  // 4. The trace accounts for the untraced latency.
  for (const std::string w : {"kv-mixed", "read-cached"}) {
    Options o = base;
    o.workload = w;
    o.seed = 6;
    o.trace = true;
    o.seconds = 6;
    const Result r = run(o);
    const double cov = metric(r, "trace.coverage");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: trace.coverage %.3f within 10%% of 1 (overhead %.1f%%)",
                  w.c_str(), cov, metric(r, "trace.overhead_pct"));
    check(r.correct && std::fabs(cov - 1.0) <= 0.10, buf);
  }
  std::printf("self-test: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kv-mixed|read-cached|batch-process "
               "--seed N --seconds S --trace 0|1 [--revision R] [--work-dir DIR]\n"
               "       perfbench --self-test | --list-metrics\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--revision") {
        opt.revision = value();
      } else if (a == "--work-dir") {
        opt.work_dir = value();
      } else if (a == "--self-test") {
        self = true;
      } else if (a == "--list-metrics") {
        for (const MetricSpec& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
        for (const MetricSpec& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
        return 0;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      usage("bad value for " + a);
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    usage(std::string("built as '") + PERFBENCH_BUILD_TYPE + "', not Release: refusing to measure");
  }
  if (self) return self_test(opt);
  if (kWorkloads.count(opt.workload) == 0) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  const Result r = run(opt);
  print_result(r);
  return 0;
}
