/**
 * @file
 * Scoring-target names, kept only for perfbench/src/main.cc.
 *
 * The library has one scalar kernel set (ml/kernels.hh), so the one
 * target is Scalar. The benchmark pins it and prints its name as the
 * simd= provenance field; nothing else includes this header.
 */

#ifndef RHMD_SUPPORT_SIMD_HH
#define RHMD_SUPPORT_SIMD_HH

namespace rhmd::simd
{

/** The scoring target: always the scalar kernels. */
enum class Target { Scalar };

inline const char *targetName(Target) { return "scalar"; }
inline Target bestTarget() { return Target::Scalar; }
inline Target activeTarget() { return Target::Scalar; }
inline void setActiveTarget(Target) {}

} // namespace rhmd::simd

#endif // RHMD_SUPPORT_SIMD_HH
