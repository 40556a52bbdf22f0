#pragma once

#include <cstdint>

namespace qbench {

// Wrapped system calls made so far by the calling thread (syscount.cc).
uint64_t thread_syscalls();

}  // namespace qbench
