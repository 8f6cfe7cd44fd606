// Clang thread-safety annotations (PF_* macros) and annotated lock types.
//
// The macros expand to clang's thread-safety attributes when the compiler
// supports them and to nothing otherwise, so GCC builds see plain
// std::mutex-equivalent code while clang builds (CI's static-analysis job,
// -Werror=thread-safety) get a compile-time proof of lock discipline:
// every member annotated PF_GUARDED_BY can only be touched while its mutex
// is held, and every function annotated PF_REQUIRES can only be called with
// the capability already acquired.
//
// Use the annotated wrappers below instead of the std types directly —
// std::lock_guard/std::unique_lock are opaque to the analysis (their
// acquire/release happens inside system headers), so guarded members
// accessed under them would still warn.  MutexLock is the scoped
// capability the analysis understands.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#ifndef PREFIXFILTER_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define PREFIXFILTER_SRC_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define PF_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define PF_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

#define PF_CAPABILITY(x) PF_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define PF_SCOPED_CAPABILITY PF_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define PF_GUARDED_BY(x) PF_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define PF_PT_GUARDED_BY(x) PF_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define PF_ACQUIRED_BEFORE(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define PF_ACQUIRED_AFTER(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define PF_REQUIRES(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define PF_REQUIRES_SHARED(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define PF_ACQUIRE(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define PF_ACQUIRE_SHARED(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define PF_RELEASE(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define PF_RELEASE_SHARED(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

#define PF_RELEASE_GENERIC(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

#define PF_TRY_ACQUIRE(...) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define PF_EXCLUDES(...) PF_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define PF_ASSERT_CAPABILITY(x) \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define PF_RETURN_CAPABILITY(x) PF_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

// Escape hatch.  Per the repo lint policy (ISSUE 9 acceptance criteria) this
// may only appear with an inline justification comment, and at most a
// handful of sites; prefer restructuring the code so the analysis can see
// the discipline.
#define PF_NO_THREAD_SAFETY_ANALYSIS \
  PF_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace prefixfilter {

// std::mutex with the capability attribute, so members can be declared
// PF_GUARDED_BY(mutex_) and functions PF_REQUIRES(mutex_).  Lowercase
// lock()/unlock()/try_lock() keep it a standard Lockable: it works with
// CondVar below (condition_variable_any) and generic code.
class PF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PF_ACQUIRE() { mu_.lock(); }
  void unlock() PF_RELEASE() { mu_.unlock(); }
  bool try_lock() PF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped exclusive lock over Mutex — the annotated replacement for
// std::lock_guard<std::mutex>/std::unique_lock<std::mutex>.
class PF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits on the annotated Mutex directly
// (condition_variable_any), so waiters stay inside the analysis:
// Wait() declares PF_REQUIRES(mu), and callers hold the MutexLock across
// the canonical while (!predicate) cv.Wait(mu) loop.  The temporary
// unlock/relock inside wait() happens in a system header, which clang's
// analysis deliberately does not diagnose.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) PF_REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_THREAD_ANNOTATIONS_H_
