// Weighted deficit-round-robin queue: the admission scheduler behind
// multi-tenant `feio serve`.
//
// Each lane (tenant) owns a FIFO and an integer weight. pop() serves lanes
// in deficit-round-robin order with unit job cost: every time a lane
// reaches the front of the active rotation it earns `weight` credits, and
// it keeps the front until its credits run out or its FIFO empties. Over
// any interval where two lanes both stay backlogged, lane A therefore
// completes weight_A : weight_B jobs relative to lane B — and a lane that
// goes idle loses its credits, so it cannot save up a burst that would
// starve the others later (the classic DRR no-starvation property).
//
// Deliberately NOT thread-safe: the serve loop already serializes admission
// and dispatch under its session mutex, and keeping this a plain data
// structure is what makes it unit-testable deterministically
// (tests/drr_test.cc proves the interleave job by job).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/error.h"

namespace feio::util {

template <typename T>
class DrrQueue {
 public:
  // Registers a lane with the given weight (>= 1) and returns its index.
  int add_lane(int weight) {
    FEIO_ASSERT(weight >= 1);
    lanes_.emplace_back().weight = weight;
    return static_cast<int>(lanes_.size()) - 1;
  }

  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  // Updates a lane's weight (>= 1); takes effect at the lane's next
  // quantum grant (an already-earned deficit is kept).
  void set_weight(int lane, int weight) {
    FEIO_ASSERT(weight >= 1);
    lanes_[static_cast<std::size_t>(lane)].weight = weight;
  }

  void push(int lane, T item) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    l.fifo.push_back(std::move(item));
    ++size_;
    if (!l.active) {
      // (Re-)entering the backlog: start from zero credit at the back of
      // the rotation, like every other waiting lane.
      l.active = true;
      l.deficit = 0;
      active_.push_back(lane);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  std::size_t lane_depth(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)].fifo.size();
  }

  // The deficit-round-robin next job. Precondition: !empty().
  T pop() {
    FEIO_ASSERT(size_ > 0);
    while (true) {
      const int li = active_.front();
      Lane& l = lanes_[static_cast<std::size_t>(li)];
      if (l.fifo.empty()) {
        // Emptied by earlier pops this rotation; credits are forfeit.
        l.active = false;
        l.deficit = 0;
        active_.pop_front();
        continue;
      }
      if (l.deficit >= 1) {
        l.deficit -= 1;
        T item = std::move(l.fifo.front());
        l.fifo.pop_front();
        --size_;
        if (l.fifo.empty()) {
          l.active = false;
          l.deficit = 0;
          active_.pop_front();
        }
        return item;
      }
      // Out of credit: earn this round's quantum and rotate to the back.
      l.deficit += l.weight;
      active_.pop_front();
      active_.push_back(li);
    }
  }

 private:
  struct Lane {
    int weight = 1;
    std::int64_t deficit = 0;
    bool active = false;  // present in the rotation
    std::deque<T> fifo;
  };

  std::vector<Lane> lanes_;
  std::deque<int> active_;  // rotation of lanes with queued items
  std::size_t size_ = 0;
};

}  // namespace feio::util
