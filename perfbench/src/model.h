// The output check: an in-memory model of every writer's puts and erases,
// against which every get result and the final listing are judged.
//
// Each writer's partition follows the rules kv_client.h and store.h state:
// a put draws the writer's next sequence number; an erase draws one only
// when the writer holds the key (otherwise it is a no-op); the merged
// value of a key is the present entry with the largest (seq, writer).
//
// Time is a logical clock the benchmark advances at every Store call and
// every completion. A get invoked at tI and completed at tC may observe,
// for each writer, the partition state after that writer's last op on the
// key completed before tI, or after any later op of it invoked before tC.
// An uncached get must return the (seq, writer) winner of one such choice;
// a cached get must return an entry the key really held, and is counted
// stale when it fails the uncached rule. Anything else is a wrong value and
// fails the run by name.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Model {
 public:
  static constexpr std::int64_t kPending = std::numeric_limits<std::int64_t>::max();

  Model(std::uint64_t keys, int writers);

  std::int64_t tick() { return clock_++; }

  /// Handle of one mutation in flight (index into its key/writer history);
  /// -1 for a no-op erase.
  struct Handle {
    std::uint64_t key = 0;
    int writer = 0;
    std::int64_t index = -1;
  };
  Handle put(int writer, std::uint64_t key, std::string value, std::int64_t invoked);
  Handle erase(int writer, std::uint64_t key, std::int64_t invoked);
  void complete(const Handle& h, std::int64_t done);

  struct Seen {
    bool present = false;
    std::string value;
    int writer = 0;
    std::uint64_t seq = 0;
  };
  enum class Verdict { kFresh, kStale, kWrong };
  /// Judges one get. `error` names the violation when kWrong.
  Verdict check_get(std::uint64_t key, std::int64_t invoked, std::int64_t done, const Seen& seen,
                    bool cached, std::string* error) const;

  /// The model's merged view (present keys only), key name → entry.
  std::map<std::string, Seen> merged() const;

  /// Writer `w`'s current entries homed where `keep(key)` says, in key order.
  template <typename Keep>
  std::vector<std::pair<std::uint64_t, const std::string*>> partition_of(int w, Keep keep) const;
  std::uint64_t current_seq(int w, std::uint64_t key) const;

 private:
  struct State {
    std::int64_t invoked = 0;
    std::int64_t done = kPending;
    std::uint64_t seq = 0;
    std::int64_t value = -1;  // index into values_; -1 = absent
  };
  std::vector<State>& hist(std::uint64_t key, int w) {
    return hist_[key * static_cast<std::uint64_t>(writers_) + static_cast<std::uint64_t>(w - 1)];
  }
  const std::vector<State>& hist(std::uint64_t key, int w) const {
    return hist_[key * static_cast<std::uint64_t>(writers_) + static_cast<std::uint64_t>(w - 1)];
  }

  std::uint64_t keys_;
  int writers_;
  std::int64_t clock_ = 1;
  std::vector<std::uint64_t> seq_;            // per writer
  std::vector<std::vector<State>> hist_;      // per (key, writer)
  std::vector<std::string> values_;
};

template <typename Keep>
std::vector<std::pair<std::uint64_t, const std::string*>> Model::partition_of(int w,
                                                                            Keep keep) const {
  std::vector<std::pair<std::uint64_t, const std::string*>> out;
  for (std::uint64_t k = 0; k < keys_; ++k) {
    const auto& h = hist(k, w);
    if (h.empty() || h.back().value < 0 || !keep(k)) continue;
    out.emplace_back(k, &values_[static_cast<std::size_t>(h.back().value)]);
  }
  return out;
}

}  // namespace perfbench
