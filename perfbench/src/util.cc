#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

double clock_us(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// The stolen and the total jiffies of all CPUs, from /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0, steal = 0, v = 0;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_us() { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double process_cpu_us(int pid) {
  clockid_t clock;
  if (clock_getcpuclockid(pid, &clock) != 0) return 0;
  return clock_us(clock);
}

std::vector<int> children_named(const std::string& name) {
  std::vector<int> out;
  const int self = ::getpid();
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc", ec);
       !ec && it != std::filesystem::end(it); it.increment(ec)) {
    const std::filesystem::path& dir = it->path();
    const std::string pid = dir.filename().string();
    if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(dir / "stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    const auto open = line.find('('), close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid == self && state != "Z" && line.substr(open + 1, close - open - 1) == name) {
      out.push_back(std::stoi(pid));
    }
  }
  return out;
}

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_jiffies(); }

double StealMeter::share_since_start() const {
  const auto [steal, total] = cpu_jiffies();
  return ratio(static_cast<double>(steal - steal_), static_cast<double>(total - total_));
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

std::uint64_t tree_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec); !ec && it != fs::end(it);
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string fresh_dir(const std::string& base, const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path p = fs::absolute(fs::path(base) / name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

DirGuard::~DirGuard() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void Latencies::report_calls(Result& r) {
  r.set("call_mean_us", mean(call_us), "us");
  r.set("call_p90_us", percentile(call_us, 0.90), "us");
  r.note("call_samples", std::to_string(call_us.size()));
}

void Latencies::report_kinds(Result& r) {
  r.set("api.put_p50_us", percentile(put_us, 0.50), "us");
  r.set("api.put_p90_us", percentile(put_us, 0.90), "us");
  r.set("api.get_mean_us", mean(get_us), "us");
  r.set("api.get_p90_us", percentile(get_us, 0.90), "us");
  r.note("put_samples", std::to_string(put_us.size()));
  r.note("get_samples", std::to_string(get_us.size()));
}

double lag_median(std::vector<double> lags, std::uint64_t never_stable, Result& r) {
  lags.insert(lags.end(), never_stable, std::numeric_limits<double>::infinity());
  const double m = median(std::move(lags));
  if (!std::isinf(m)) return m;
  r.fail("most puts never became stable within the run");
  return 0;
}

}  // namespace perfbench
