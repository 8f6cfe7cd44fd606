// Fixture: the same blocking calls, each with a reviewed suppression on its
// line or the line above — loop-wait must stay quiet.
#include <chrono>
#include <thread>

namespace prefixfilter::net {

void MembershipServer::Stop() {
  // Runs on the caller of Stop(), after the loop threads have exited.
  service_->Drain();  // pf-lint: allow(loop-wait)
  // pf-lint: allow(loop-wait)
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace prefixfilter::net
