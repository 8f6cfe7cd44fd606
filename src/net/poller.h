// Readiness notification for the membership server's event loop: a
// level-triggered epoll wrapper (O(ready) wakeups independent of connection
// count).  Level-triggered semantics let the event loop leave data unread
// and be woken again.
//
// A Poller is a single-threaded object owned by one event loop; none of the
// methods are thread-safe.
#ifndef PREFIXFILTER_SRC_NET_POLLER_H_
#define PREFIXFILTER_SRC_NET_POLLER_H_

#include <vector>

namespace prefixfilter::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  // Error/hangup on the fd; the owner should tear the connection down (a
  // final read usually surfaces the errno).
  bool error = false;
};

class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // False when the kernel refused an epoll instance.
  bool ok() const { return epfd_ >= 0; }

  // Registers `fd` for read readiness, plus write readiness when
  // `want_write`.  A given fd is registered at most once.
  bool Add(int fd, bool want_write);
  // Changes the interest set of an already-registered fd.  Dropping read
  // interest lets the owner park a half-closed connection that only has
  // output left to drain (a level-triggered EOF would otherwise wake the
  // loop forever).
  bool Update(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  // Blocks up to `timeout_ms` (-1 = indefinitely) and fills `events` with
  // ready fds.  Returns false only on unrecoverable poller failure.
  bool Wait(int timeout_ms, std::vector<PollEvent>* events);

 private:
  bool Ctl(int op, int fd, bool want_read, bool want_write);

  int epfd_;
};

}  // namespace prefixfilter::net

#endif  // PREFIXFILTER_SRC_NET_POLLER_H_
