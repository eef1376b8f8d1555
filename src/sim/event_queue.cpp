#include "sim/event_queue.hpp"

namespace rpv::sim {

void EventQueue::compact() {
  std::erase_if(heap_,
                [this](const Entry& e) { return gens_[e.slot] != e.gen; });
  root_taken_ = false;
  if (heap_.size() < 2) return;
  // Floyd's bottom-up heapify: sift every internal node, deepest first.
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
    sift_down(i, heap_[i]);
  }
}

}  // namespace rpv::sim
