// Scalar reference kernels + the runtime dispatch state. The scalar
// variants are the semantics: the AVX2 table is tested bit-exact against
// them (tests/test_kernels.cpp). block_hash_u1024 is not dispatched at
// all: it defines PairMiner's block keys.
#include "kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <cassert>

#include "kernels/kernel_table.hpp"

namespace sham::kernels {

namespace detail {
namespace {

void delta_batch_scalar(const std::uint64_t* query, const std::uint64_t* rows,
                        std::size_t stride, std::size_t begin, std::size_t end,
                        std::int32_t* out) {
  const std::size_t n = end - begin;
  for (std::size_t k = 0; k < n; ++k) out[k] = 0;
  // Word-major like the SIMD variant: each row is one linear stream, the
  // query word stays in a register.
  for (std::size_t w = 0; w < kGlyphWords; ++w) {
    const std::uint64_t qw = query[w];
    const std::uint64_t* row = rows + w * stride;
    for (std::size_t k = 0; k < n; ++k) {
      out[k] += std::popcount(row[begin + k] ^ qw);
    }
  }
}

int delta_one_scalar(const std::uint64_t* a, const std::uint64_t* b) {
  int sum = 0;
  for (std::size_t w = 0; w < kGlyphWords; ++w) {
    sum += std::popcount(a[w] ^ b[w]);
  }
  return sum;
}

constexpr KernelTable kScalarTable{Level::kScalar, delta_batch_scalar,
                                   delta_one_scalar};

/// splitmix64 — the block-key mixing step.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const KernelTable* table_for(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return &kScalarTable;
    case Level::kAvx2:
#if defined(SHAM_KERNELS_HAVE_AVX2)
      return avx2_table();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// Startup pick: AVX2 when cpuid reports it, else the scalar reference.
const KernelTable* startup_table() noexcept {
  if (const auto* table = table_for(Level::kAvx2)) return table;
  return &kScalarTable;
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& active() noexcept {
  const auto* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First-touch init must not clobber a concurrent force_level(): only
    // install the startup pick if the slot is still empty, otherwise adopt
    // whatever won the exchange.
    const KernelTable* expected = nullptr;
    table = startup_table();
    if (!g_active.compare_exchange_strong(expected, table,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      table = expected;
    }
  }
  return *table;
}

}  // namespace
}  // namespace detail

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels{Level::kScalar};
  if (detail::table_for(Level::kAvx2) != nullptr) levels.push_back(Level::kAvx2);
  return levels;
}

Level active_level() noexcept { return detail::active().level; }

bool force_level(Level level) noexcept {
  const auto* table = detail::table_for(level);
  if (table == nullptr) return false;
  detail::g_active.store(table, std::memory_order_release);
  return true;
}

void delta_batch_u1024(const std::uint64_t* query, const GlyphPanel& panel,
                       std::size_t begin, std::size_t end,
                       std::int32_t* out) noexcept {
  assert(begin <= end && end <= panel.size());
  if (begin >= end) return;
  detail::active().delta_batch(query, panel.word_row(0), panel.stride(), begin,
                               end, out);
}

int delta_u1024(const std::uint64_t* a, const std::uint64_t* b) noexcept {
  return detail::active().delta_one(a, b);
}

std::uint64_t block_hash_u1024(const std::uint64_t* words, unsigned first_word,
                               unsigned last_word) noexcept {
  std::uint64_t h = kBlockHashSeed;
  for (unsigned w = first_word; w < last_word; ++w) {
    h = detail::splitmix64(h ^ words[w]);
  }
  return h;
}

}  // namespace sham::kernels
