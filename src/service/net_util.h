// Small shared helpers for the service's socket code.

#ifndef FASTOFD_SERVICE_NET_UTIL_H_
#define FASTOFD_SERVICE_NET_UTIL_H_

#include <string.h>

#include <string>

namespace fastofd {
namespace internal {

// strerror_r comes in two flavours; these overloads dispatch on whichever
// one the libc provides. XSI: int return, message written into buf. GNU:
// char* return (possibly a static string, buf may be unused).
inline std::string ErrnoResult(int rc, const char* buf, int err) {
  return rc == 0 ? std::string(buf)
                 : "errno " + std::to_string(err);
}
inline std::string ErrnoResult(const char* message, const char* /*buf*/,
                               int /*err*/) {
  return message;
}

}  // namespace internal

/// Thread-safe strerror(err): the plain strerror writes into shared static
/// storage (clang-tidy concurrency-mt-unsafe), and error paths here run on
/// listener, reader and pool threads concurrently.
inline std::string ErrnoString(int err) {
  char buf[256];
  buf[0] = '\0';
  return internal::ErrnoResult(strerror_r(err, buf, sizeof(buf)), buf, err);
}

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_NET_UTIL_H_
