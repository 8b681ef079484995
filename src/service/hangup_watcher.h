// HangupWatcher: the serve daemon's one thread that notices clients
// hanging up mid-mine. Each running query registers its connection fd
// and CancelToken; the watcher blocks in one poll(2) over every
// registered fd plus a wake pipe, with no timeout, and fires a query's
// token the moment its peer closes, so an abandoned query releases its
// scheduler slot instead of burning it to completion. Registering and
// unregistering only write the wake pipe: neither ever waits for the
// watcher.
//
// On Linux the watcher polls for POLLRDHUP (plus the always-reported
// POLLHUP/POLLERR/POLLNVAL), so a pipelined next request never wakes
// it. Elsewhere it polls POLLIN and peeks: EOF fires the token, while
// pipelined bytes drop POLLIN for that registration.
//
// Safe under fd reuse: a registration must end before its fd is
// closed, and a poll result is applied only to the registration it
// was polled for (by id, under the watcher's lock), so a stale event
// on a reused fd number never fires a newer query's token.

#ifndef FLIPPER_SERVICE_HANGUP_WATCHER_H_
#define FLIPPER_SERVICE_HANGUP_WATCHER_H_

#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/cancellation.h"

namespace flipper {
namespace service {

class HangupWatcher {
 public:
  /// Starts the watcher thread (POSIX only; elsewhere every
  /// registration is inert).
  HangupWatcher();
  /// Stops and joins the watcher. Every registration must have ended.
  ~HangupWatcher();

  HangupWatcher(const HangupWatcher&) = delete;
  HangupWatcher& operator=(const HangupWatcher&) = delete;

  /// One watched (fd, token) pair; ends on Release() or destruction.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept;
    Registration& operator=(Registration&&) = delete;
    ~Registration() { Release(); }

    /// Ends the registration and reports whether the peer's hang-up
    /// fired the token. Once it returns the watcher never touches the
    /// token again, and the fd may be closed. Idempotent.
    bool Release();

   private:
    friend class HangupWatcher;
    HangupWatcher* watcher_ = nullptr;
    uint64_t id_ = 0;
    bool fired_ = false;
  };

  /// Watches `fd` until the returned registration ends, firing
  /// `token` if the peer hangs up meanwhile. `token` must outlive the
  /// registration, and the registration must end before `fd` closes.
  Registration Watch(int fd, CancelToken* token);

 private:
  struct Entry {
    int fd;
    CancelToken* token;
    bool fired = false;
    /// POLLIN still polled (platforms without POLLRDHUP only).
    bool watch_readable = true;
  };

  void Run();
  /// Ends registration `id`; returns whether it fired.
  bool Unwatch(uint64_t id);
  /// Makes the blocked poll return so it re-reads the registrations.
  void Wake();

  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t next_id_ = 1;
  bool stopping_ = false;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::thread thread_;
};

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_HANGUP_WATCHER_H_
