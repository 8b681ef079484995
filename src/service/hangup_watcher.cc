#include "service/hangup_watcher.h"

#include <cerrno>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace flipper {
namespace service {

HangupWatcher::Registration::Registration(Registration&& other) noexcept
    : watcher_(std::exchange(other.watcher_, nullptr)),
      id_(other.id_),
      fired_(other.fired_) {}

bool HangupWatcher::Registration::Release() {
  if (watcher_ != nullptr) {
    fired_ = watcher_->Unwatch(id_);
    watcher_ = nullptr;
  }
  return fired_;
}

#ifndef _WIN32

HangupWatcher::HangupWatcher() {
  int fds[2];
  if (::pipe(fds) != 0) return;  // no watcher: registrations stay inert
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  wake_read_ = fds[0];
  wake_write_ = fds[1];
  thread_ = std::thread([this] { Run(); });
}

HangupWatcher::~HangupWatcher() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  Wake();
  thread_.join();
  ::close(wake_read_);
  ::close(wake_write_);
}

HangupWatcher::Registration HangupWatcher::Watch(int fd,
                                                 CancelToken* token) {
  Registration registration;
  if (!thread_.joinable()) return registration;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registration.id_ = next_id_++;
    entries_.emplace(registration.id_, Entry{fd, token});
  }
  registration.watcher_ = this;
  Wake();
  return registration;
}

bool HangupWatcher::Unwatch(uint64_t id) {
  bool fired = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    fired = it->second.fired;
    entries_.erase(it);
  }
  // The blocked poll may still hold the fd; make it let go so the
  // caller's close() really ends the connection.
  Wake();
  return fired;
}

void HangupWatcher::Wake() {
  const char byte = 0;
  // A full pipe already holds a pending wake-up.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

void HangupWatcher::Run() {
  // POLLHUP, POLLERR and POLLNVAL are reported whatever is requested.
#ifdef POLLRDHUP
  constexpr short kHangupEvents = POLLRDHUP;
#else
  constexpr short kHangupEvents = 0;
#endif
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // ids[i] was polled as fds[i + 1]
  while (true) {
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_read_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      for (const auto& [id, entry] : entries_) {
        if (entry.fired) continue;
        short events = kHangupEvents;
        if (kHangupEvents == 0 && entry.watch_readable) events |= POLLIN;
        fds.push_back(pollfd{entry.fd, events, 0});
        ids.push_back(id);
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) continue;  // EINTR
    if (fds[0].revents != 0) {
      char buf[64];
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
      const short revents = fds[i + 1].revents;
      if (revents == 0) continue;
      // Only the registration this fd was polled for: if it ended, the
      // fd number may already belong to a newer connection.
      auto it = entries_.find(ids[i]);
      if (it == entries_.end()) continue;
      Entry& entry = it->second;
      bool gone =
          (revents & (kHangupEvents | POLLHUP | POLLERR | POLLNVAL)) != 0;
      if (!gone && (revents & POLLIN) != 0) {
        // Readable means EOF or a pipelined next request; peek to tell
        // them apart without consuming. The live registration keeps
        // the fd open under this lock.
        char b;
        const ssize_t r = ::recv(entry.fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          gone = true;
        } else if (r > 0) {
          entry.watch_readable = false;  // pipelined: stop polling POLLIN
        }
      }
      if (gone) {
        entry.fired = true;
        entry.token->Cancel();
      }
    }
  }
}

#else

HangupWatcher::HangupWatcher() = default;
HangupWatcher::~HangupWatcher() = default;

HangupWatcher::Registration HangupWatcher::Watch(int, CancelToken*) {
  return Registration();
}

bool HangupWatcher::Unwatch(uint64_t) { return false; }
void HangupWatcher::Wake() {}
void HangupWatcher::Run() {}

#endif  // !_WIN32

}  // namespace service
}  // namespace flipper
