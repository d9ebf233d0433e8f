// bfsim -- the line-oriented connection server.
//
// serve_connection() pumps one established byte stream (a socket or a
// pipe pair) through one Session on the calling thread: read(2) into a
// buffer, split it into frame lines, answer each line, and read again
// only once everything read so far has been answered. Every client is
// closed-loop with one frame in flight, so a second thread would
// overlap nothing. Backpressure is the kernel's: while the session
// works, unread bytes stay in the socket (or pipe) buffer, and a
// flooding client's writes stall once it is full. Inbound memory is
// one read buffer plus one partial frame. Frames longer than
// kMaxFrameBytes are cut off at the wire: the loop keeps only enough
// of one to classify it, discards the rest as it streams in, and the
// session answers it with a structured error, so a client streaming
// gigabytes of garbage costs one buffer, not the heap.
#pragma once

#include <cstdint>
#include <string_view>

#include "svc/session.hpp"

namespace bfsim::svc {

struct ServeResult {
  std::uint64_t lines = 0;    ///< frames handled (including rejected)
  bool clean_bye = false;     ///< the client said goodbye before EOF
};

/// Serve one connection until `bye`, EOF or a dead peer. `in_fd` and
/// `out_fd` may be the same descriptor (a socket) or a pipe pair.
/// Frames after `bye` go unanswered; the descriptors are not closed.
ServeResult serve_connection(int in_fd, int out_fd, Session& session);

/// Write `line` and its newline with one writev(2), riding out partial
/// writes and EINTR. Returns false when the peer is gone. Both ends of
/// the wire use it: the loop for replies, FdChannel for requests.
bool write_line(int fd, std::string_view line);

}  // namespace bfsim::svc
