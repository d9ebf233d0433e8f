#include "svc/server.hpp"

#include <cerrno>
#include <string>
#include <string_view>

#include "svc/protocol.hpp"

#include <sys/uio.h>
#include <unistd.h>

namespace bfsim::svc {

namespace {

/// The most of one frame the loop keeps. Two bytes over the limit: a
/// longer frame is still over it after its '\r' is dropped, so the
/// session rejects it as oversized whatever the read boundaries were.
constexpr std::size_t kFrameKeep = kMaxFrameBytes + 2;

/// Append `bytes` to `partial`, keeping at most kFrameKeep bytes.
void append_capped(std::string& partial, std::string_view bytes) {
  partial.append(bytes.substr(0, kFrameKeep - partial.size()));
}

}  // namespace

bool write_line(int fd, std::string_view line) {
  char newline = '\n';
  iovec parts[2] = {{const_cast<char*>(line.data()), line.size()},
                    {&newline, 1}};
  iovec* next = parts;
  int left = 2;
  while (left > 0) {
    const ssize_t wrote = ::writev(fd, next, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto done = static_cast<std::size_t>(wrote);
    while (left > 0 && done >= next->iov_len) {
      done -= next->iov_len;
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  return true;
}

ServeResult serve_connection(int in_fd, int out_fd, Session& session) {
  ServeResult result;
  // Answer one frame; false once the connection should end.
  const auto serve = [&](std::string_view line) {
    ++result.lines;
    if (!write_line(out_fd, session.handle_line(line))) return false;
    result.clean_bye = session.closed();
    return !result.clean_bye;
  };
  std::string partial;  // a frame split across reads
  char buffer[4096];
  while (true) {
    const ssize_t got = ::read(in_fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF, or a dead peer
    std::string_view rest{buffer, static_cast<std::size_t>(got)};
    for (std::size_t newline = rest.find('\n');
         newline != std::string_view::npos; newline = rest.find('\n')) {
      // A frame wholly inside the buffer is served in place.
      std::string_view line = rest.substr(0, newline);
      rest.remove_prefix(newline + 1);
      if (!partial.empty()) {
        append_capped(partial, line);
        line = partial;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty() && !serve(line)) return result;
      partial.clear();
    }
    append_capped(partial, rest);
  }
  // A last unterminated line still counts: EOF ends the frame.
  if (!partial.empty()) serve(partial);
  return result;
}

}  // namespace bfsim::svc
