// Internal dispatch-table contract shared by kernels.cpp and the AVX2 TU
// (kernels_avx2.cpp). Not installed into the public surface — include
// kernels/kernels.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace sham::kernels::detail {

/// One fully-populated variant set: the two ∆ kernels. Raw pointers +
/// stride (not GlyphPanel) so the arch TU stays free of layout assumptions
/// beyond "row-linear".
struct KernelTable {
  Level level;
  void (*delta_batch)(const std::uint64_t* query, const std::uint64_t* rows,
                      std::size_t stride, std::size_t begin, std::size_t end,
                      std::int32_t* out);
  int (*delta_one)(const std::uint64_t* a, const std::uint64_t* b);
};

#if defined(SHAM_KERNELS_HAVE_AVX2)
/// nullptr when the build has AVX2 code but the host CPU lacks it.
const KernelTable* avx2_table() noexcept;
#endif

}  // namespace sham::kernels::detail
