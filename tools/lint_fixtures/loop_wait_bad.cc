// Fixture: three calls that block an event-loop thread on other threads or
// on time — loop-wait fires on each.  The lines after them (the poller wait,
// the completion drain, comment mentions) must stay quiet.
#include <chrono>
#include <thread>

namespace prefixfilter::net {

void MembershipServer::HandleSnapshot(Loop& loop) {
  service_->Drain();
  queue_nonfull_.Wait(mutex_);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void MembershipServer::LoopRun(Loop& loop) {
  loop.poller->Wait(timeout_ms, &events);
  DrainCompletions(loop);
  // A Drain() or sleep_for() in a comment is not a call.
}

}  // namespace prefixfilter::net
