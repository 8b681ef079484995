#include "service/protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace flipper {
namespace service {
namespace {

#ifndef _WIN32

using SteadyClock = std::chrono::steady_clock;

int RemainingMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - SteadyClock::now())
                        .count();
  if (left <= 0) return 0;
  if (left > INT_MAX) return INT_MAX;
  return static_cast<int>(left);
}

/// Waits until `events` is ready on `fd` or the deadline lapses.
Status PollFor(int fd, short events, SteadyClock::time_point deadline,
               const char* what) {
  for (;;) {
    const int wait = RemainingMs(deadline);
    if (wait == 0) {
      return Status::DeadlineExceeded(std::string("socket ") + what +
                                      " timed out");
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, wait);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
    // Any event — including POLLHUP/POLLERR — means the following
    // read/write will complete without blocking and surface the error.
    if (r > 0) return Status::OK();
  }
}

/// Reads exactly `len` bytes from the stream. `*eof` is set (and OK
/// returned with zero bytes consumed) only when EOF lands before the
/// first byte; `first_timeout_ms` bounds the wait for that byte,
/// `rest_timeout_ms` each later read.
Status ReadExact(Stream* stream, char* data, size_t len,
                 int first_timeout_ms, int rest_timeout_ms, bool* eof) {
  *eof = false;
  size_t done = 0;
  while (done < len) {
    FLIPPER_ASSIGN_OR_RETURN(
        const size_t n,
        stream->ReadSome(data + done, len - done,
                         done == 0 ? first_timeout_ms : rest_timeout_ms));
    if (n == 0) {
      if (done == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::IoError("connection closed mid-frame");
    }
    done += n;
  }
  return Status::OK();
}

#endif  // !_WIN32

/// One `key value` line; the value runs to end of line (values may
/// contain spaces, keys may not).
void SplitKeyValue(std::string_view line, std::string* key,
                   std::string* value) {
  const size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    *key = std::string(line);
    value->clear();
  } else {
    *key = std::string(line.substr(0, space));
    *value = std::string(line.substr(space + 1));
  }
}

void PutFrameLength(uint32_t len, char* prefix) {
  for (size_t i = 0; i < kFramePrefixBytes; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

Status CheckFrameSize(size_t payload_bytes) {
  if (payload_bytes <= kMaxFrameBytes) return Status::OK();
  return Status::InvalidArgument("frame payload exceeds " +
                                 std::to_string(kMaxFrameBytes) +
                                 " bytes");
}

/// Appends EncodeResponse's payload to `out`.
void AppendResponse(const Response& response, std::string* out) {
  if (response.ok) {
    *out += "ok\n";
  } else {
    // The status line must stay one line; fold any embedded newlines.
    std::string message = response.error;
    for (char& c : message) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    *out += "error " + message + "\n";
  }
  for (const auto& [key, value] : response.meta) {
    *out += key;
    *out += ' ';
    *out += value;
    *out += '\n';
  }
  *out += '\n';
  *out += response.body;
}

/// Strips one trailing '\n' (lines in payloads are newline-terminated).
std::string_view ChopLine(std::string_view payload, size_t* pos) {
  const size_t eol = payload.find('\n', *pos);
  if (eol == std::string_view::npos) {
    std::string_view line = payload.substr(*pos);
    *pos = payload.size();
    return line;
  }
  std::string_view line = payload.substr(*pos, eol - *pos);
  *pos = eol + 1;
  return line;
}

}  // namespace

Result<size_t> FdStream::ReadSome(char* data, size_t len,
                                  int timeout_ms) {
#ifdef _WIN32
  (void)data;
  (void)len;
  (void)timeout_ms;
  return Status::FailedPrecondition(
      "the serve protocol requires POSIX sockets");
#else
  if (timeout_ms <= 0) {
    for (;;) {
      const ssize_t n = ::read(fd_, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("socket read failed: ") +
                               std::strerror(errno));
      }
      return static_cast<size_t>(n);
    }
  }
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    FLIPPER_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline, "read"));
    // Non-blocking via the recv flag (never the fd's mode — the fd is
    // shared with code that expects it blocking).
    const ssize_t n = ::recv(fd_, data, len, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // raced
      return Status::IoError(std::string("socket read failed: ") +
                             std::strerror(errno));
    }
    return static_cast<size_t>(n);
  }
#endif
}

Status FdStream::WriteAll(const char* data, size_t len, int timeout_ms) {
#ifdef _WIN32
  (void)data;
  (void)len;
  (void)timeout_ms;
  return Status::FailedPrecondition(
      "the serve protocol requires POSIX sockets");
#else
  // MSG_NOSIGNAL throughout: a peer that hung up must surface as
  // EPIPE, not a process-killing SIGPIPE.
  if (timeout_ms <= 0) {
    size_t done = 0;
    while (done < len) {
      const ssize_t n =
          ::send(fd_, data + done, len - done, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("socket write failed: ") +
                               std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  size_t done = 0;
  while (done < len) {
    FLIPPER_RETURN_IF_ERROR(PollFor(fd_, POLLOUT, deadline, "write"));
    const ssize_t n = ::send(fd_, data + done, len - done,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // raced
      return Status::IoError(std::string("socket write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
#endif
}

Status WriteFrame(Stream* stream, std::string_view payload,
                  const FrameIo& io) {
#ifdef _WIN32
  (void)stream;
  (void)payload;
  (void)io;
  return Status::FailedPrecondition(
      "the serve protocol requires POSIX sockets");
#else
  FLIPPER_RETURN_IF_ERROR(CheckFrameSize(payload.size()));
  char prefix[kFramePrefixBytes];
  PutFrameLength(static_cast<uint32_t>(payload.size()), prefix);
  FLIPPER_RETURN_IF_ERROR(
      stream->WriteAll(prefix, sizeof(prefix), io.io_timeout_ms));
  if (payload.empty()) return Status::OK();
  return stream->WriteAll(payload.data(), payload.size(),
                          io.io_timeout_ms);
#endif
}

Status WriteFrame(int fd, std::string_view payload) {
  FdStream stream(fd);
  return WriteFrame(&stream, payload);
}

Result<std::string> ReadFrame(Stream* stream, const FrameIo& io) {
#ifdef _WIN32
  (void)stream;
  (void)io;
  return Status::FailedPrecondition(
      "the serve protocol requires POSIX sockets");
#else
  char prefix[kFramePrefixBytes];
  bool eof = false;
  FLIPPER_RETURN_IF_ERROR(ReadExact(stream, prefix, sizeof(prefix),
                                    io.idle_timeout_ms, io.io_timeout_ms,
                                    &eof));
  if (eof) return Status::NotFound("connection closed");
  const uint32_t len = DecodeFrameLength(prefix);
  if (len > kMaxFrameBytes) {
    return Status::CorruptedData("frame length " + std::to_string(len) +
                                 " exceeds the " +
                                 std::to_string(kMaxFrameBytes) +
                                 "-byte cap");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    FLIPPER_RETURN_IF_ERROR(ReadExact(stream, payload.data(), len,
                                      io.io_timeout_ms, io.io_timeout_ms,
                                      &eof));
    if (eof) return Status::IoError("connection closed mid-frame");
  }
  return payload;
#endif
}

Result<std::string> ReadFrame(int fd) {
  FdStream stream(fd);
  return ReadFrame(&stream);
}

Status FaultInjectingStream::Kill(const char* direction,
                                  uint64_t offset) {
  killed_ = true;
#ifndef _WIN32
  ::shutdown(fd_, SHUT_RDWR);
#endif
  return Status::IoError(std::string("fault injected: killed after ") +
                         direction + " byte " + std::to_string(offset));
}

void FaultInjectingStream::MaybeStall(uint64_t counter, uint64_t offset,
                                      bool* armed) {
  if (!*armed || offset == StreamFaultPlan::kNever || counter < offset) {
    return;
  }
  *armed = false;
  std::this_thread::sleep_for(std::chrono::milliseconds(plan_.stall_ms));
}

Result<size_t> FaultInjectingStream::ReadSome(char* data, size_t len,
                                              int timeout_ms) {
  if (killed_) return Status::IoError("fault injected: stream killed");
  if (plan_.kill_after_read_bytes != StreamFaultPlan::kNever) {
    if (bytes_read_ >= plan_.kill_after_read_bytes) {
      return Kill("read", bytes_read_);
    }
    len = static_cast<size_t>(std::min<uint64_t>(
        len, plan_.kill_after_read_bytes - bytes_read_));
  }
  MaybeStall(bytes_read_, plan_.stall_before_read_byte,
             &read_stall_armed_);
  Result<size_t> n = inner_.ReadSome(data, len, timeout_ms);
  if (n.ok()) bytes_read_ += *n;
  return n;
}

Status FaultInjectingStream::WriteAll(const char* data, size_t len,
                                      int timeout_ms) {
  if (killed_) return Status::IoError("fault injected: stream killed");
  size_t done = 0;
  while (done < len) {
    size_t chunk = len - done;
    if (plan_.kill_after_write_bytes != StreamFaultPlan::kNever) {
      if (bytes_written_ >= plan_.kill_after_write_bytes) {
        return Kill("write", bytes_written_);
      }
      chunk = static_cast<size_t>(std::min<uint64_t>(
          chunk, plan_.kill_after_write_bytes - bytes_written_));
    }
    MaybeStall(bytes_written_, plan_.stall_before_write_byte,
               &write_stall_armed_);
    if (write_stall_armed_ &&
        plan_.stall_before_write_byte != StreamFaultPlan::kNever &&
        bytes_written_ + chunk > plan_.stall_before_write_byte) {
      // Split the write so the stall lands exactly at its offset.
      chunk = static_cast<size_t>(plan_.stall_before_write_byte -
                                  bytes_written_);
    }
    FLIPPER_RETURN_IF_ERROR(inner_.WriteAll(data + done, chunk,
                                            timeout_ms));
    bytes_written_ += chunk;
    done += chunk;
  }
  return Status::OK();
}

std::string Request::Param(std::string_view key,
                           std::string_view fallback) const {
  std::string out(fallback);
  for (const auto& [k, v] : params) {
    if (k == key) out = v;
  }
  return out;
}

std::string EncodeRequest(const Request& request) {
  std::string payload = request.verb + "\n";
  for (const auto& [key, value] : request.params) {
    payload += key;
    payload += ' ';
    payload += value;
    payload += '\n';
  }
  return payload;
}

Result<Request> DecodeRequest(std::string_view payload) {
  Request request;
  size_t pos = 0;
  request.verb = std::string(ChopLine(payload, &pos));
  if (request.verb.empty()) {
    return Status::InvalidArgument("request has no verb");
  }
  while (pos < payload.size()) {
    const std::string_view line = ChopLine(payload, &pos);
    if (line.empty()) continue;
    std::string key, value;
    SplitKeyValue(line, &key, &value);
    request.params.emplace_back(std::move(key), std::move(value));
  }
  return request;
}

std::string Response::Meta(std::string_view key,
                           std::string_view fallback) const {
  std::string out(fallback);
  for (const auto& [k, v] : meta) {
    if (k == key) out = v;
  }
  return out;
}

std::string EncodeResponse(const Response& response) {
  std::string payload;
  AppendResponse(response, &payload);
  return payload;
}

Result<std::string> EncodeResponseFrame(const Response& response) {
  std::string frame(kFramePrefixBytes, '\0');
  frame.reserve(kFramePrefixBytes + response.body.size() + 256);
  AppendResponse(response, &frame);
  const size_t payload_bytes = frame.size() - kFramePrefixBytes;
  FLIPPER_RETURN_IF_ERROR(CheckFrameSize(payload_bytes));
  PutFrameLength(static_cast<uint32_t>(payload_bytes), frame.data());
  return frame;
}

uint32_t DecodeFrameLength(const char* prefix) {
  uint32_t len = 0;
  for (size_t i = 0; i < kFramePrefixBytes; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i]))
           << (8 * i);
  }
  return len;
}

Result<Response> DecodeResponse(std::string_view payload) {
  Response response;
  size_t pos = 0;
  const std::string_view status_line = ChopLine(payload, &pos);
  if (status_line == "ok") {
    response.ok = true;
  } else if (status_line.rfind("error", 0) == 0) {
    response.ok = false;
    response.error = std::string(
        status_line.size() > 6 ? status_line.substr(6) : "");
  } else {
    return Status::CorruptedData(
        "response does not start with ok/error");
  }
  while (pos < payload.size()) {
    const std::string_view line = ChopLine(payload, &pos);
    if (line.empty()) break;  // blank separator: body follows
    std::string key, value;
    SplitKeyValue(line, &key, &value);
    response.meta.emplace_back(std::move(key), std::move(value));
  }
  response.body = std::string(payload.substr(pos));
  return response;
}

}  // namespace service
}  // namespace flipper
