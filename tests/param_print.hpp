#pragma once

#include <cstring>
#include <ostream>
#include <type_traits>

#include <gtest/gtest.h>

namespace ht::test {

// gtest names each case of a parameterized suite after its printed
// parameter, and prints a struct without operator<< as its raw bytes,
// padding included. Padding is never written, so those names would change
// from build to build. This prints the same "N-byte object <..>" form from
// a zero-filled copy holding only the listed members.
template <typename T, typename... Members>
void print_zero_padded(const T& value, std::ostream* os,
                       Members T::*... members) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto copy = [&](const auto& member) {
    const auto* at = reinterpret_cast<const unsigned char*>(&member);
    std::memcpy(bytes + (at - base), at, sizeof(member));
  };
  (copy(value.*members), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace ht::test
