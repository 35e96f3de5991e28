// Minimal blocking HTTP/1.1 client for twilld on loopback: one connection
// per request (twilld answers every request with `Connection: close`).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpResult {
  bool ok = false;  // transport-level success (a response was parsed)
  int status = 0;
  std::string body;
  std::string error;
};

HttpResult httpRequest(uint16_t port, const std::string& method, const std::string& target,
                       const std::string& body = "");

}  // namespace perfbench
