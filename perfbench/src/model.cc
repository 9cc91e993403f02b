#include "model.h"

#include <stdexcept>

#include "stream.h"

namespace perfbench {

Model::Model(std::uint64_t keys, int writers)
    : keys_(keys),
      writers_(writers),
      seq_(static_cast<std::size_t>(writers), 0),
      hist_(keys * static_cast<std::uint64_t>(writers)) {}

Model::Handle Model::put(int writer, std::uint64_t key, std::string value,
                         std::int64_t invoked) {
  auto& h = hist(key, writer);
  values_.push_back(std::move(value));
  h.push_back(State{invoked, kPending, ++seq_[static_cast<std::size_t>(writer - 1)],
                    static_cast<std::int64_t>(values_.size() - 1)});
  return Handle{key, writer, static_cast<std::int64_t>(h.size() - 1)};
}

Model::Handle Model::erase(int writer, std::uint64_t key, std::int64_t invoked) {
  auto& h = hist(key, writer);
  if (h.empty() || h.back().value < 0) return Handle{key, writer, -1};  // no-op erase
  h.push_back(State{invoked, kPending, ++seq_[static_cast<std::size_t>(writer - 1)], -1});
  return Handle{key, writer, static_cast<std::int64_t>(h.size() - 1)};
}

void Model::complete(const Handle& h, std::int64_t done) {
  if (h.index < 0) return;
  hist(h.key, h.writer)[static_cast<std::size_t>(h.index)].done = done;
}

Model::Verdict Model::check_get(std::uint64_t key, std::int64_t invoked, std::int64_t done,
                                const Seen& seen, bool cached, std::string* error) const {
  // Allowed states per writer: indices [first, last] of its history, where
  // first is its last op completed before `invoked` (-1 = the initial,
  // absent state) and last is its last op invoked before `done`.
  bool authentic = !seen.present;
  bool fresh = true;
  for (int w = 1; w <= writers_; ++w) {
    const auto& h = hist(key, w);
    std::int64_t last = static_cast<std::int64_t>(h.size()) - 1;
    while (last >= 0 && h[static_cast<std::size_t>(last)].invoked >= done) --last;
    std::int64_t first = last;
    while (first >= 0 && h[static_cast<std::size_t>(first)].done >= invoked) --first;
    bool may_be_absent = first < 0;
    bool may_lose = may_be_absent;  // some allowed state loses to `seen`
    bool has_seen = false;
    for (std::int64_t j = std::max<std::int64_t>(first, 0); j <= last; ++j) {
      const State& s = h[static_cast<std::size_t>(j)];
      if (s.value < 0) {
        may_be_absent = may_lose = true;
        continue;
      }
      if (seen.present && (s.seq < seen.seq || (s.seq == seen.seq && w < seen.writer))) {
        may_lose = true;
      }
      if (seen.present && w == seen.writer && s.seq == seen.seq &&
          values_[static_cast<std::size_t>(s.value)] == seen.value) {
        has_seen = true;
      }
    }
    if (seen.present && w == seen.writer) {
      // Authentic at all: any put of this writer with this seq and value,
      // invoked before the get completed.
      for (std::int64_t j = 0; j <= last && !authentic; ++j) {
        const State& s = h[static_cast<std::size_t>(j)];
        authentic = s.value >= 0 && s.seq == seen.seq &&
                    values_[static_cast<std::size_t>(s.value)] == seen.value;
      }
      fresh = fresh && has_seen;
    } else {
      fresh = fresh && (seen.present ? may_lose : may_be_absent);
    }
  }
  if (fresh) return Verdict::kFresh;
  if (cached && authentic) return Verdict::kStale;
  if (error != nullptr) {
    *error = "get(" + key_name(key) + ") returned " +
             (seen.present ? "value '" + seen.value + "' of writer " +
                                 std::to_string(seen.writer) + " seq " + std::to_string(seen.seq)
                           : std::string("no value")) +
             (authentic ? ", which is not the (seq, writer) winner of any state the key "
                          "could have held"
                        : ", which no writer ever put") +
             (cached ? " (cached)" : "");
  }
  return Verdict::kWrong;
}

std::map<std::string, Model::Seen> Model::merged() const {
  std::map<std::string, Seen> out;
  for (std::uint64_t k = 0; k < keys_; ++k) {
    Seen best;
    for (int w = 1; w <= writers_; ++w) {
      const auto& h = hist(k, w);
      if (h.empty() || h.back().value < 0) continue;
      const State& s = h.back();
      if (!best.present || s.seq > best.seq || (s.seq == best.seq && w > best.writer)) {
        best = Seen{true, values_[static_cast<std::size_t>(s.value)], w, s.seq};
      }
    }
    if (best.present) out.emplace(key_name(k), std::move(best));
  }
  return out;
}

std::uint64_t Model::current_seq(int w, std::uint64_t key) const {
  const auto& h = hist(key, w);
  return h.empty() ? 0 : h.back().seq;
}

}  // namespace perfbench
