/**
 * @file
 * Once-per-process kernel selection, shared by every crypto kernel
 * with a CPU-specific fast path (CRC32C, SHA-256, ChaCha20).
 *
 * Each kernel keeps a portable scalar reference, compiles its fast
 * paths into every x86-64 GCC/Clang build with per-function `target`
 * attributes, and lists its implementations in one ordered
 * `Candidate` table: fastest first, each with a CPU predicate
 * (`__builtin_cpu_supports`, after `__builtin_cpu_init()` so it is
 * valid before any constructor has run), ending with a portable entry
 * every CPU runs. The kernel's picker is `firstSupported` over that
 * table, and the table is public so tests can pin every entry the
 * running CPU supports, not only the one it picks.
 * `Dispatch` runs that picker on first use and caches the answer
 * in a constant-initialised atomic, so a call from another translation
 * unit's static initialiser still finds a valid choice rather than an
 * unconstructed object, and no constructor pays for the check. Racing
 * first calls pick and store the same implementation. Every
 * implementation produces identical bytes; the choice only changes
 * speed.
 */

#ifndef RSSD_CRYPTO_DISPATCH_HH
#define RSSD_CRYPTO_DISPATCH_HH

#include <atomic>
#include <cstddef>

#if defined(__GNUC__) && defined(__x86_64__)
#define RSSD_CRYPTO_X86 1
#endif

namespace rssd::crypto {

/** One implementation of a kernel, as listed in its candidate table. */
template <typename Fn>
struct Candidate
{
    const char *name;
    Fn fn;
    bool (*supported)(); ///< whether the running CPU can execute @c fn
};

/** The predicate of a kernel's portable entry. */
inline bool
anyCpu()
{
    return true;
}

/**
 * The first entry of @p table the running CPU supports. The last
 * entry is the portable one, so it is the answer when no other is.
 */
template <typename Fn, std::size_t N>
const Candidate<Fn> &
firstSupported(const Candidate<Fn> (&table)[N])
{
    for (std::size_t i = 0; i + 1 < N; i++) {
        if (table[i].supported())
            return table[i];
    }
    return table[N - 1];
}

/** A lazily picked, then fixed, choice among a kernel's @p Impl table. */
template <typename Impl>
class Dispatch
{
  public:
    using Picker = const Impl &(*)();

    constexpr explicit Dispatch(Picker pick) : pick_(pick) {}

    const Impl &
    get() const
    {
        const Impl *impl = chosen_.load();
        if (impl == nullptr) [[unlikely]] {
            impl = &pick_();
            chosen_.store(impl);
        }
        return *impl;
    }

  private:
    Picker pick_;
    mutable std::atomic<const Impl *> chosen_{nullptr};
};

} // namespace rssd::crypto

#endif // RSSD_CRYPTO_DISPATCH_HH
