// Delivery granularity (paper §5.2), decided once for SimCluster and
// UdpCluster: messages queue per destination, across sources, and a batch
// closes at the message that fills `max_tuples`, or `max_delay_s` after
// its first arrival if it is not full. Times are seconds on the caller's
// clock: simulated in SimCluster, since Run() started in UdpCluster.
#ifndef SECUREBLOX_DIST_BATCHER_H_
#define SECUREBLOX_DIST_BATCHER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace secureblox::dist {

template <typename Item>
class Batcher {
 public:
  struct Batch {
    std::vector<Item> items;
    size_t tuples = 0;
  };
  struct Fire {
    size_t dst = 0;
    double time_s = 0;
  };

  /// `max_tuples` 0 = unbounded; a delay <= 0 counts as 0.
  Batcher(size_t num_dsts, size_t max_tuples, double max_delay_s)
      : queues_(num_dsts),
        weights_(num_dsts, 0),
        cap_(max_tuples),
        delay_s_(std::max(0.0, max_delay_s)) {}

  /// `order` breaks fire-time ties and is unique across destinations. An
  /// empty message still weighs 1, so it cannot starve the cap.
  void Push(size_t dst, double arrival_s, uint64_t order, size_t weight,
            Item item) {
    weight = std::max<size_t>(1, weight);
    queues_[dst].push_back({arrival_s, order, weight, std::move(item)});
    weights_[dst] += weight;
  }

  /// When `dst`'s batch starts if its node is free from `free_at` on.
  /// Requires a queued message for `dst`.
  double FireTime(size_t dst, double free_at) const {
    const std::deque<Entry>& q = queues_[dst];
    if (cap_ != 0 && weights_[dst] >= cap_) {
      size_t acc = 0;
      for (const Entry& e : q) {
        acc += e.weight;
        if (acc >= cap_) return std::max(free_at, e.arrival_s);
      }
    }
    return std::max(free_at, q.front().arrival_s + delay_s_);
  }

  /// Whole messages in arrival order: the first always, even alone over
  /// the cap, then more until the cap is reached.
  Batch Take(size_t dst) {
    Batch batch;
    std::deque<Entry>& q = queues_[dst];
    while (!q.empty() &&
           (batch.items.empty() || cap_ == 0 || batch.tuples < cap_)) {
      batch.items.push_back(std::move(q.front().item));
      batch.tuples += q.front().weight;
      weights_[dst] -= q.front().weight;
      q.pop_front();
    }
    return batch;
  }

  /// The destination that fires first given each node's free time, ties
  /// to the lowest front `order`; nullopt when every queue is empty.
  std::optional<Fire> Next(const std::vector<double>& free_at) const {
    std::optional<Fire> best;
    uint64_t best_order = 0;
    for (size_t n = 0; n < queues_.size(); ++n) {
      if (queues_[n].empty()) continue;
      double t = FireTime(n, free_at[n]);
      uint64_t order = queues_[n].front().order;
      if (!best || t < best->time_s ||
          (t == best->time_s && order < best_order)) {
        best = Fire{n, t};
        best_order = order;
      }
    }
    return best;
  }

 private:
  struct Entry {
    double arrival_s;
    uint64_t order;
    size_t weight;
    Item item;
  };

  std::vector<std::deque<Entry>> queues_;
  std::vector<size_t> weights_;
  size_t cap_;
  double delay_s_;
};

}  // namespace secureblox::dist

#endif  // SECUREBLOX_DIST_BATCHER_H_
