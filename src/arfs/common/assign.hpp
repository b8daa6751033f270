// Copy-assignment into a reused vector whose source grows a little at a
// time (a trace, a journal device), so refreshing one copy of it frame by
// frame allocates a logarithmic number of times rather than every frame.
#pragma once

#include <algorithm>
#include <vector>

namespace arfs {

/// `dst = src`, except that when `dst` must grow its capacity at least
/// doubles: a plain vector copy-assignment reallocates to exactly
/// src.size(). A first copy into an empty vector is still exact.
template <class T>
void assign_amortized(std::vector<T>& dst, const std::vector<T>& src) {
  if (dst.capacity() < src.size()) {
    dst.clear();
    dst.reserve(std::max(src.size(), 2 * dst.capacity()));
  }
  dst = src;
}

}  // namespace arfs
