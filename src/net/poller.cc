#include "src/net/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

namespace prefixfilter::net {

Poller::Poller() : epfd_(epoll_create1(EPOLL_CLOEXEC)) {}

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

bool Poller::Add(int fd, bool want_write) {
  return Ctl(EPOLL_CTL_ADD, fd, /*want_read=*/true, want_write);
}

bool Poller::Update(int fd, bool want_read, bool want_write) {
  return Ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void Poller::Remove(int fd) {
  epoll_event ev{};
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

bool Poller::Wait(int timeout_ms, std::vector<PollEvent>* events) {
  events->clear();
  epoll_event ready[128];
  const int n = epoll_wait(epfd_, ready, 128, timeout_ms);
  if (n < 0) return errno == EINTR;
  events->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent e;
    e.fd = ready[i].data.fd;
    e.readable = (ready[i].events & (EPOLLIN | EPOLLHUP)) != 0;
    e.writable = (ready[i].events & EPOLLOUT) != 0;
    e.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(e);
  }
  return true;
}

bool Poller::Ctl(int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  return epoll_ctl(epfd_, op, fd, &ev) == 0;
}

}  // namespace prefixfilter::net
