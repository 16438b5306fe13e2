/**
 * @file
 * SIMD target detection and dispatch-state implementation.
 */

#include "support/simd.hh"

#include <atomic>
#include <cstdlib>

#include "support/logging.hh"

namespace rhmd::simd
{

namespace
{

/** Kernels compiled for @p target at build time (host-independent). */
bool
targetCompiled(Target target)
{
    switch (target) {
      case Target::Scalar:
        return true;
      case Target::Sse2:
#if defined(__SSE2__)
        return true;
#else
        return false;
#endif
      case Target::Avx2:
#if defined(RHMD_SIMD_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    }
    rhmd_panic("bad simd target");
}

/** The host CPU can execute @p target's instructions. */
bool
hostSupports(Target target)
{
    switch (target) {
      case Target::Scalar:
        return true;
      case Target::Sse2:
#if defined(__SSE2__)
        return true;  // compile-time baseline implies host support
#else
        return false;
#endif
      case Target::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    rhmd_panic("bad simd target");
}

/** Resolve the boot-time target from RHMD_SIMD (or "auto"). */
Target
resolveFromEnv()
{
    const char *env = std::getenv("RHMD_SIMD");
    if (env == nullptr || *env == '\0')
        return bestTarget();
    return parseTarget(env);
}

std::atomic<Target> &
activeSlot()
{
    static std::atomic<Target> active{resolveFromEnv()};
    return active;
}

} // namespace

const char *
targetName(Target target)
{
    switch (target) {
      case Target::Scalar:
        return "scalar";
      case Target::Sse2:
        return "sse2";
      case Target::Avx2:
        return "avx2";
    }
    rhmd_panic("bad simd target");
}

bool
targetSupported(Target target)
{
    return targetCompiled(target) && hostSupports(target);
}

std::vector<Target>
supportedTargets()
{
    std::vector<Target> out;
    for (Target target : {Target::Scalar, Target::Sse2, Target::Avx2}) {
        if (targetSupported(target))
            out.push_back(target);
    }
    return out;
}

Target
bestTarget()
{
    const std::vector<Target> supported = supportedTargets();
    return supported.back();  // supportedTargets is ordered widest last
}

Target
parseTarget(const std::string &name)
{
    if (name == "auto")
        return bestTarget();
    for (Target target : {Target::Scalar, Target::Sse2, Target::Avx2}) {
        if (name != targetName(target))
            continue;
        fatal_if(!targetSupported(target), "RHMD_SIMD target '", name,
                 "' is not usable on this machine (compiled: ",
                 targetCompiled(target) ? "yes" : "no",
                 ", cpu: ", hostSupports(target) ? "yes" : "no",
                 "); a forced target never silently degrades");
        return target;
    }
    rhmd_fatal("unknown RHMD_SIMD target '", name,
               "' (expected scalar, sse2, avx2, or auto)");
}

Target
activeTarget()
{
    return activeSlot().load(std::memory_order_relaxed);
}

void
setActiveTarget(Target target)
{
    fatal_if(!targetSupported(target), "cannot activate simd target '",
             targetName(target), "': unsupported on this machine");
    activeSlot().store(target, std::memory_order_relaxed);
}

} // namespace rhmd::simd
