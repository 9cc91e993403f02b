// Shared pieces of the api::Store benchmark: options, the result record
// every workload fills, and small measurement helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the calling thread, in microseconds. It leaves out the
/// time the host stole from the virtual CPU and the time other threads
/// ran.
double thread_cpu_us();
/// CPU time of this process (all its threads), in microseconds.
double process_cpu_us();
/// CPU time of process `pid` (all its threads), in microseconds; 0 when
/// it is gone.
double process_cpu_us(int pid);
/// The pids of this process's running children named `name`.
std::vector<int> children_named(const std::string& name);

/// Share of the machine's CPU time the host stole since the meter was made
/// (/proc/stat): a record of how loaded the host was during a run.
class StealMeter {
 public:
  StealMeter();
  double share_since_start() const;

 private:
  std::uint64_t steal_ = 0, total_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
  std::string work_dir = ".bench_run";  // run files (durability roots, spans)
  /// Self-test mode: the timed phase runs exactly this many ops (rounded
  /// down to whole batches on batch-process) instead of `seconds`, and
  /// set-up runs once.
  std::uint64_t fixed_ops = 0;
};

/// Replicas per untraced run: each is set up afresh and timed for an equal
/// share of the run. setup_s is the median of their set-ups, and the other
/// end-to-end metrics come from the replica that spent the least CPU per op.
inline constexpr int kReplicas = 3;

/// Root seed of every deployment. It fixes the key → shard placement (a
/// seeded rendezvous hash) and the simulated channel delays, which are
/// part of the workload's shape, not of its traffic: --seed varies only
/// the op streams. With the placement drawn per seed, the Zipf head landed
/// on different shards from run to run and batch-process throughput moved
/// 20% between seeds.
inline constexpr std::uint64_t kDeploymentSeed = 2026;

/// One metric as printed: value and unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports. Metrics keep insertion order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // every failed output check, by name
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : metrics) {
      if (n == name) {
        m = Metric{value, unit};
        return;
      }
    }
    metrics.emplace_back(name, Metric{value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    provenance.emplace_back(key, value);
  }
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
double ratio(double num, double den);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Total size of the regular files under `dir` (0 when absent).
std::uint64_t tree_bytes(const std::string& dir);

/// A fresh, empty directory `base`/`name` (removed first if present).
std::string fresh_dir(const std::string& base, const std::string& name);

/// Removes its directory on destruction (cleanup on every exit path).
class DirGuard {
 public:
  explicit DirGuard(std::string dir) : dir_(std::move(dir)) {}
  ~DirGuard();
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// Closed-loop latency samples, in CPU microseconds (see README.md).
struct Latencies {
  std::vector<double> put_us, get_us, call_us;
  /// The end-to-end call_mean_us and call_p90_us, with their sample count
  /// as provenance. The mean, not the median: on read-cached the call
  /// latencies are bimodal (cache-served gets, and calls behind a
  /// full-partition fetch), and the median falls between the modes.
  void report_calls(Result& r);
  /// The per-layer put/erase p50 and p90 and get mean and p90 of
  /// single-op calls (0 when there were none).
  void report_kinds(Result& r);
};

/// Median of the per-put stability lags; puts never seen stable count as
/// larger than every observed lag. Fails the run when that makes the median
/// itself unbounded (most puts never became stable).
double lag_median(std::vector<double> lags, std::uint64_t never_stable, Result& r);

// Workload entry points (det_run.cc, batch_run.cc).
Result run_deterministic(const Options& opt);
Result run_batch_process(const Options& opt);

/// Reports one self-test check: whether it passed, and what it checks.
using SelfCheck = std::function<void(bool, const std::string&)>;
/// The batch-process output check judges every op of a batch at its own
/// position: a batch that reads its own writes passes through a real
/// store, and forged answers that break program order are refused.
void self_test_batch_order(const Options& base, const SelfCheck& check);

// Direct per-layer timings on workload-shaped inputs (layers.cc).
double time_sign_verify(std::size_t message_bytes, double* verify_us);
double time_partition_codec(
    const std::vector<std::pair<std::string, std::pair<std::string, std::uint64_t>>>& entries,
    double* decode_us);
double time_log_append(const std::string& dir, std::size_t record_bytes);

}  // namespace perfbench
