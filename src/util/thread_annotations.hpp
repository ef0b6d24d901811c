// Clang thread-safety-analysis annotations (-Wthread-safety).
//
// Under Clang these expand to the `thread_safety` attribute family, letting
// the compiler prove at build time that every access to a GUARDED_BY field
// happens with its capability held and that ACQUIRE/RELEASE pairs balance.
// Under GCC (which has no such analysis) they expand to nothing, so the
// annotated code stays portable. CI runs a dedicated Clang build with
// `-Wthread-safety -Werror=thread-safety`; see docs/CONCURRENCY.md.
//
// Usage convention in this codebase:
//   * lock owners are `hyflow::Mutex` (a CAPABILITY type)
//   * every field protected by a lock carries GUARDED_BY(mu_)
//   * private helpers that assume the lock is held carry REQUIRES(mu_)
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define HYFLOW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HYFLOW_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// A type whose instances are capabilities (lockable objects).
#define CAPABILITY(x) HYFLOW_THREAD_ANNOTATION(capability(x))

// A RAII type that acquires a capability on construction and releases it on
// destruction (std::lock_guard-style).
#define SCOPED_CAPABILITY HYFLOW_THREAD_ANNOTATION(scoped_lockable)

// Data members protected by a capability.
#define GUARDED_BY(x) HYFLOW_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) HYFLOW_THREAD_ANNOTATION(pt_guarded_by(x))

// Declared acquisition order between two capabilities.
#define ACQUIRED_BEFORE(...) HYFLOW_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) HYFLOW_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function attributes: the capability must be held on entry (REQUIRES), is
// acquired by the call (ACQUIRE), released by it (RELEASE), conditionally
// acquired (TRY_ACQUIRE), or must NOT be held on entry (EXCLUDES).
#define REQUIRES(...) HYFLOW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HYFLOW_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) HYFLOW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) HYFLOW_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) HYFLOW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) HYFLOW_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) HYFLOW_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  HYFLOW_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) HYFLOW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Assertion that the calling thread already holds the capability.
#define ASSERT_CAPABILITY(x) HYFLOW_THREAD_ANNOTATION(assert_capability(x))

// Function returning a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) HYFLOW_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for code the analysis cannot model.
#define NO_THREAD_SAFETY_ANALYSIS HYFLOW_THREAD_ANNOTATION(no_thread_safety_analysis)
