#include "spc/support/first_touch.hpp"

#include <unistd.h>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace spc {

namespace {

std::size_t page_size() {
  const long ps = sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}

}  // namespace

std::string numa_policy_name(NumaPolicy p) {
  return p == NumaPolicy::kLocal ? "local" : "off";
}

bool query_page_nodes(const void* p, std::size_t bytes,
                      std::size_t max_pages, std::vector<int>* nodes,
                      std::string* reason) {
  nodes->clear();
  if (p == nullptr || bytes == 0 || max_pages == 0) {
    if (reason != nullptr) {
      *reason = "empty range";
    }
    return false;
  }
#ifndef __linux__
  if (reason != nullptr) {
    *reason = "move_pages is Linux-only";
  }
  return false;
#else
  const std::size_t ps = page_size();
  const std::uintptr_t first =
      reinterpret_cast<std::uintptr_t>(p) / ps * ps;
  const std::size_t npages =
      (reinterpret_cast<std::uintptr_t>(p) + bytes - first + ps - 1) / ps;
  const std::size_t sampled = std::min(npages, max_pages);
  const std::size_t stride = npages / sampled;

  std::vector<void*> pages(sampled);
  std::vector<int> status(sampled, -1);
  for (std::size_t i = 0; i < sampled; ++i) {
    pages[i] = reinterpret_cast<void*>(first + i * stride * ps);
  }
  // move_pages with a null target-nodes array queries the current node of
  // each page without moving anything.
  const long rc = ::syscall(SYS_move_pages, 0, sampled, pages.data(),
                            nullptr, status.data(), 0);
  if (rc < 0) {
    if (reason != nullptr) {
      *reason = std::string("move_pages: ") + std::strerror(errno);
    }
    return false;
  }
  nodes->reserve(sampled);
  for (const int s : status) {
    // Negative status = page not present / not queryable; skip it.
    if (s >= 0) {
      nodes->push_back(s);
    }
  }
  if (nodes->empty()) {
    if (reason != nullptr) {
      *reason = "no resident pages in range";
    }
    return false;
  }
  return true;
#endif
}

}  // namespace spc
