/**
 * @file
 * Once-per-process kernel selection, shared by every crypto kernel
 * with a CPU-specific fast path (CRC32C, SHA-256, ChaCha20).
 *
 * Each kernel keeps a portable scalar reference, compiles its fast
 * paths into every x86-64 GCC/Clang build with per-function `target`
 * attributes, and names a picker that returns the best implementation
 * the running CPU reports (`__builtin_cpu_supports`, after
 * `__builtin_cpu_init()` so it is valid before any constructor has
 * run). `Dispatch` runs that picker on first use and caches the answer
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

#if defined(__GNUC__) && defined(__x86_64__)
#define RSSD_CRYPTO_X86 1
#endif

namespace rssd::crypto {

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
