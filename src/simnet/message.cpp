#include "simnet/message.hpp"

#include <mutex>
#include <utility>

namespace conflux::simnet {

namespace {

std::mutex handler_mutex;
BufferMisuseHandler misuse_handler;  // null = throwing default

}  // namespace

BufferMisuseHandler set_buffer_misuse_handler(BufferMisuseHandler handler) {
  const std::lock_guard<std::mutex> lock(handler_mutex);
  std::swap(handler, misuse_handler);
  return handler;
}

void report_buffer_misuse(const std::string& what) {
  BufferMisuseHandler handler;
  {
    const std::lock_guard<std::mutex> lock(handler_mutex);
    handler = misuse_handler;
  }
  if (handler) {
    handler(what);
    return;
  }
  throw ContractViolation("buffer ownership violation: " + what);
}

std::uint64_t payload_fingerprint(std::span<const double> data) {
  // FNV-1a over the doubles' bit patterns; cheap and stable.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : data) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t payload_fingerprint(const SharedBuffer& buf) {
  if (!buf) return payload_fingerprint(std::span<const double>{});
  return payload_fingerprint(std::span<const double>(*buf));
}

}  // namespace conflux::simnet
