#include "perfbench/src/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpResult httpRequest(uint16_t port, const std::string& method, const std::string& target,
                       const std::string& body) {
  HttpResult r;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    r.error = std::string("socket: ") + std::strerror(errno);
    return r;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    r.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return r;
  }
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n";
  }
  req += "Connection: close\r\n\r\n" + body;
  for (size_t sent = 0; sent < req.size();) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      r.error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return r;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      r.error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return r;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t headerEnd = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || headerEnd == std::string::npos) {
    r.error = "malformed response";
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  r.body = raw.substr(headerEnd + 4);
  r.ok = true;
  return r;
}

}  // namespace perfbench
