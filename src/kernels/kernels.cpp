// Scalar reference kernels + the runtime dispatch state. The scalar
// variants are the semantics: every arch table is tested bit-exact
// against them (tests/test_kernels.cpp). block_hash_u1024 is not
// dispatched at all: it defines PairMiner's block keys.
#include "kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "kernels/kernel_table.hpp"

namespace sham::kernels {

namespace detail {

void delta_batch_scalar(const std::uint64_t* query, const std::uint64_t* rows,
                        std::size_t stride, std::size_t begin, std::size_t end,
                        std::int32_t* out) {
  const std::size_t n = end - begin;
  for (std::size_t k = 0; k < n; ++k) out[k] = 0;
  // Word-major like the SIMD variants: each row is one linear stream, the
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

std::uint64_t fnv1a_scalar(std::uint64_t seed, const std::uint32_t* values,
                           std::size_t n) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = values[i];
    h = (h ^ (v & 0xFF)) * kFnvPrime;
    h = (h ^ ((v >> 8) & 0xFF)) * kFnvPrime;
    h = (h ^ ((v >> 16) & 0xFF)) * kFnvPrime;
    h = (h ^ ((v >> 24) & 0xFF)) * kFnvPrime;
  }
  return h;
}

void fnv1a4_scalar(const std::uint32_t* const values[4],
                   const std::size_t lengths[4], const std::uint64_t seeds[4],
                   std::uint64_t out[4]) {
  for (int c = 0; c < 4; ++c) {
    out[c] = fnv1a_scalar(seeds[c], values[c], lengths[c]);
  }
}

namespace {

constexpr KernelTable kScalarTable{
    Level::kScalar, delta_batch_scalar, delta_one_scalar,
    fnv1a_scalar,   fnv1a4_scalar,
};

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
    case Level::kNeon:
#if defined(SHAM_KERNELS_HAVE_NEON)
      return neon_table();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// Startup pick: SHAM_KERNEL_LEVEL when set and runnable (auto/unknown/
/// unsupported values fall through), else the best level the host runs.
const KernelTable* startup_table() noexcept {
  if (const char* env = std::getenv("SHAM_KERNEL_LEVEL")) {
    if (const auto level = parse_level(env)) {
      if (const auto* table = table_for(*level)) return table;
    }
  }
  for (const Level level : {Level::kAvx2, Level::kNeon}) {
    if (const auto* table = table_for(level)) return table;
  }
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
    case Level::kNeon: return "neon";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view name) noexcept {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  if (name == "neon") return Level::kNeon;
  return std::nullopt;
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels{Level::kScalar};
  for (const Level level : {Level::kAvx2, Level::kNeon}) {
    if (detail::table_for(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

Level active_level() noexcept { return detail::active().level; }

bool force_level(Level level) noexcept {
  const auto* table = detail::table_for(level);
  if (table == nullptr) return false;
  detail::g_active.store(table, std::memory_order_release);
  return true;
}

void reset_level() noexcept {
  detail::g_active.store(detail::startup_table(), std::memory_order_release);
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

std::uint64_t fnv1a_span(std::uint64_t seed, const std::uint32_t* values,
                         std::size_t n) noexcept {
  return detail::active().fnv1a(seed, values, n);
}

void fnv1a_batch4(const std::uint32_t* const values[4],
                  const std::size_t lengths[4], const std::uint64_t seeds[4],
                  std::uint64_t out[4]) noexcept {
  detail::active().fnv1a4(values, lengths, seeds, out);
}

}  // namespace sham::kernels
