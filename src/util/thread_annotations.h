#pragma once

// Portable Clang Thread Safety Analysis macros — the compile-time layer of
// the concurrency contracts documented in README "Static analysis".
//
// Under Clang with -Wthread-safety these expand to the thread-safety
// attributes, so lock discipline ("queue_ is only touched with mu_ held",
// "RunCohort requires the queue mutex", "a ReadGuard is a scoped shared
// grant on the latch") is checked on every build and a violation is a
// compile error in the `analyze` preset (-Werror=thread-safety). Under
// GCC — which has no equivalent analysis — they expand to nothing and cost
// nothing, so the annotations still compile (and still document the code)
// in every preset.
//
// The vocabulary is the standard one (identical to Abseil's
// thread_annotations.h and LLVM's own wrappers), prefixed CPDB_ to keep
// the global namespace clean:
//
//   CPDB_CAPABILITY("mutex")   on a class: instances are lockable things
//   CPDB_SCOPED_CAPABILITY     on a class: RAII object holding a capability
//   CPDB_GUARDED_BY(mu)        on a field: only touch it holding mu
//   CPDB_PT_GUARDED_BY(mu)     on a pointer field: the pointee needs mu
//   CPDB_REQUIRES(mu)          on a function: caller must hold mu
//   CPDB_REQUIRES_SHARED(mu)   on a function: caller must hold mu (shared)
//   CPDB_ACQUIRE(mu)           on a function: acquires mu exclusively
//   CPDB_ACQUIRE_SHARED(mu)    on a function: acquires mu shared
//   CPDB_RELEASE(mu)           on a function: releases mu (either mode)
//   CPDB_RELEASE_SHARED(mu)    on a function: releases a shared hold
//   CPDB_EXCLUDES(mu)          on a function: caller must NOT hold mu
//   CPDB_ASSERT_CAPABILITY(mu) on a function: asserts mu is held at runtime
//   CPDB_RETURN_CAPABILITY(mu) on a function: returns a reference to mu
//   CPDB_NO_THREAD_SAFETY_ANALYSIS  opt one function out (last resort;
//                                   forbidden in src/service|src/storage by
//                                   tools/lint/cpdb_lint.py)

#if defined(__clang__) && (!defined(SWIG))
#define CPDB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CPDB_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

#define CPDB_CAPABILITY(x) CPDB_THREAD_ANNOTATION_(capability(x))

#define CPDB_SCOPED_CAPABILITY CPDB_THREAD_ANNOTATION_(scoped_lockable)

#define CPDB_GUARDED_BY(x) CPDB_THREAD_ANNOTATION_(guarded_by(x))

#define CPDB_PT_GUARDED_BY(x) CPDB_THREAD_ANNOTATION_(pt_guarded_by(x))

#define CPDB_ACQUIRED_BEFORE(...) \
  CPDB_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

#define CPDB_ACQUIRED_AFTER(...) \
  CPDB_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define CPDB_REQUIRES(...) \
  CPDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

#define CPDB_REQUIRES_SHARED(...) \
  CPDB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define CPDB_ACQUIRE(...) \
  CPDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define CPDB_ACQUIRE_SHARED(...) \
  CPDB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

#define CPDB_RELEASE(...) \
  CPDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define CPDB_RELEASE_SHARED(...) \
  CPDB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define CPDB_RELEASE_GENERIC(...) \
  CPDB_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

#define CPDB_EXCLUDES(...) CPDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define CPDB_ASSERT_CAPABILITY(x) \
  CPDB_THREAD_ANNOTATION_(assert_capability(x))

#define CPDB_RETURN_CAPABILITY(x) CPDB_THREAD_ANNOTATION_(lock_returned(x))

#define CPDB_NO_THREAD_SAFETY_ANALYSIS \
  CPDB_THREAD_ANNOTATION_(no_thread_safety_analysis)
