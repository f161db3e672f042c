#include "core/simulator.h"

namespace vanet::core {

void Simulator::run_until(SimTime end) {
  stopped_ = false;
  abort_check_countdown_ = abort_check_every_;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= end) {
    queue_.run_next(now_);
    if (abort_check_ && --abort_check_countdown_ == 0) {
      abort_check_countdown_ = abort_check_every_;
      abort_check_();
    }
  }
  if (now_ < end && !stopped_) now_ = end;
}

void Simulator::run() {
  stopped_ = false;
  abort_check_countdown_ = abort_check_every_;
  while (!stopped_ && queue_.run_next(now_)) {
    if (abort_check_ && --abort_check_countdown_ == 0) {
      abort_check_countdown_ = abort_check_every_;
      abort_check_();
    }
  }
}

}  // namespace vanet::core
