// The serve daemon's wire protocol over a unix-domain stream socket.
//
// Framing: every message — request or response — is one frame:
//
//   uint32 little-endian payload length | payload bytes
//
// Payloads are capped at kMaxFrameBytes; an oversized length prefix is
// a protocol error and the connection is dropped.
//
// Request payload (text):
//
//   <verb>\n
//   <key> <value>\n        (zero or more parameter lines)
//
// Verbs: `mine` (params: `store <name>` plus any mine option key from
// service::MineOptionKeys(), and `cache on|off`), `stats`, `ping`,
// `list`, `shutdown`.
//
// Response payload:
//
//   ok\n            or       error <single-line message>\n
//   <key> <value>\n          (zero or more meta lines)
//   \n
//   <body bytes>             (raw; everything after the blank line)
//
// For `mine` the body is byte-identical to what a solo
// `flipper_cli mine` run with the same options prints to stdout; meta
// lines carry `cache hit|miss`, `patterns N` and `latency_ms X`. For
// `stats` the body is the daemon's aggregate MetricsRegistry JSON.

#ifndef FLIPPER_SERVICE_PROTOCOL_H_
#define FLIPPER_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace flipper {
namespace service {

/// Hard cap on one frame's payload (requests are tiny; responses carry
/// pattern bodies, which stay far below this for any sane store).
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Wire-protocol schema version. Carried as `schema` meta on every
/// `ping` response; clients (Client::ConnectWithRetry, loadgen, the
/// smoke script) assert equality before trusting a daemon instead of
/// accepting any `ok`. Bump on any incompatible framing or verb
/// change.
constexpr int kProtocolSchemaVersion = 1;

/// Byte-stream seam under the frame codec. The production
/// implementation is FdStream (a socket fd with poll()-based
/// deadlines); FaultInjectingStream wraps an fd to kill or stall the
/// connection at an exact byte offset in either direction — the
/// network mirror of storage's FaultInjectingFileSystem.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads up to `len` bytes into `data`; returns the count, 0 on EOF.
  /// `timeout_ms` > 0 bounds the whole call (DeadlineExceeded on
  /// lapse); 0 blocks indefinitely.
  virtual Result<size_t> ReadSome(char* data, size_t len,
                                  int timeout_ms) = 0;

  /// Writes all `len` bytes. `timeout_ms` > 0 bounds the whole call —
  /// a reader that stops draining its socket gets DeadlineExceeded
  /// here instead of pinning the writer forever; 0 blocks.
  virtual Status WriteAll(const char* data, size_t len,
                          int timeout_ms) = 0;
};

/// A connected socket fd. Does not own the fd. Deadlines are
/// implemented with poll() + non-blocking I/O, so the fd's own
/// blocking mode is never changed.
class FdStream final : public Stream {
 public:
  explicit FdStream(int fd) : fd_(fd) {}
  Result<size_t> ReadSome(char* data, size_t len, int timeout_ms) override;
  Status WriteAll(const char* data, size_t len, int timeout_ms) override;

 private:
  int fd_;
};

/// Frame-level I/O deadlines.
struct FrameIo {
  /// Bound on waiting for a frame to *start* (first byte of the length
  /// prefix). 0 = wait forever — the server's idle keep-alive between
  /// requests.
  int idle_timeout_ms = 0;
  /// Bound on every subsequent read (a frame, once started, must
  /// arrive promptly) and on each write call. 0 = no bound.
  int io_timeout_ms = 0;
};

/// Bytes in a frame's length prefix.
constexpr size_t kFramePrefixBytes = 4;

/// The payload length a frame's kFramePrefixBytes-byte prefix declares.
uint32_t DecodeFrameLength(const char* prefix);

/// Writes one length-prefixed frame, handling short writes and EINTR.
Status WriteFrame(Stream* stream, std::string_view payload,
                  const FrameIo& io = {});
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame. A clean EOF at a frame boundary returns NotFound
/// ("connection closed") so callers can tell an orderly hangup from a
/// torn frame (IoError); a lapsed deadline returns DeadlineExceeded.
Result<std::string> ReadFrame(Stream* stream, const FrameIo& io = {});
Result<std::string> ReadFrame(int fd);

/// Where and how a FaultInjectingStream breaks the connection. Offsets
/// count bytes through that direction of the wrapped stream since
/// construction; kNever disables the fault.
struct StreamFaultPlan {
  static constexpr uint64_t kNever = ~uint64_t{0};
  /// Hard-kill (shutdown both directions) once this many bytes have
  /// been written / read — mid-length-prefix, mid-payload, anywhere.
  uint64_t kill_after_write_bytes = kNever;
  uint64_t kill_after_read_bytes = kNever;
  /// One-shot stall (sleep stall_ms) just before this byte offset
  /// crosses, then continue normally — a slow/wedged peer.
  uint64_t stall_before_write_byte = kNever;
  uint64_t stall_before_read_byte = kNever;
  int stall_ms = 0;
};

/// Wraps a connected fd and executes the fault plan. Used by the
/// robustness tests and `loadgen --chaos` on the *client* side of a
/// connection to torture the daemon with mid-frame disconnects and
/// stalls over the real socket. Does not own the fd (kill uses
/// ::shutdown, not ::close).
class FaultInjectingStream final : public Stream {
 public:
  FaultInjectingStream(int fd, const StreamFaultPlan& plan)
      : inner_(fd), fd_(fd), plan_(plan) {}

  Result<size_t> ReadSome(char* data, size_t len, int timeout_ms) override;
  Status WriteAll(const char* data, size_t len, int timeout_ms) override;

  bool killed() const { return killed_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  Status Kill(const char* direction, uint64_t offset);
  void MaybeStall(uint64_t counter, uint64_t offset, bool* armed);

  FdStream inner_;
  int fd_;
  StreamFaultPlan plan_;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  bool killed_ = false;
  bool write_stall_armed_ = true;
  bool read_stall_armed_ = true;
};

struct Request {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> params;

  /// Last value of `key`, or `fallback` when absent.
  std::string Param(std::string_view key,
                    std::string_view fallback = "") const;
};

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view payload);

struct Response {
  bool ok = false;
  std::string error;  // single line; set when !ok
  std::vector<std::pair<std::string, std::string>> meta;
  std::string body;

  std::string Meta(std::string_view key,
                   std::string_view fallback = "") const;
};

std::string EncodeResponse(const Response& response);
/// EncodeResponse's payload as one whole frame, length prefix first,
/// built in one pass. Fails with InvalidArgument past kMaxFrameBytes.
Result<std::string> EncodeResponseFrame(const Response& response);
Result<Response> DecodeResponse(std::string_view payload);

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_PROTOCOL_H_
