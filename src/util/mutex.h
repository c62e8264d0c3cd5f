#ifndef TENDAX_UTIL_MUTEX_H_
#define TENDAX_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/lock_order.h"
#include "util/thread_annotations.h"

namespace tendax {

// Annotated synchronization wrappers. `tendax::Mutex` is a std::mutex that
//  (a) carries the clang `capability` attribute so -Wthread-safety can
//      prove every TENDAX_GUARDED_BY field is touched under it, and
//  (b) when constructed with a name (and optional lock-order rank), feeds
//      the runtime lock-order validator (util/lock_order.h) on every
//      acquisition while validation is enabled.
// Unnamed mutexes (fine-grained, per-object) skip the validator entirely;
// named ones pay one relaxed atomic load per lock/unlock while it is off.
//
// Use the RAII types below instead of std::lock_guard/std::unique_lock —
// the std templates carry no thread-safety attributes, so locks taken
// through them are invisible to the analysis.

class TENDAX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A named mutex participates in runtime lock-order validation. `name`
  /// must have static storage duration (string literal); instances sharing
  /// a name share one lock-order graph node. See lockorder::kRank* for the
  /// repo rank map.
  explicit Mutex(const char* name, int rank = lockorder::kUnranked)
      : node_(lockorder::Register(name, rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TENDAX_ACQUIRE() {
    const bool track = node_ != nullptr && lockorder::Enabled();
    if (track) lockorder::OnAcquiring(node_, this);
    // Spin briefly before parking: the critical sections here are short,
    // and a thread parked in the kernel wakes tens of microseconds late on
    // a VM — longer than most holds. With one editor committing ~30k
    // keystrokes/s, that wake-up is what other writers (a read-audit
    // commit, say) pay on each of the shared mutexes they meet.
    for (int spin = 0; !mu_.try_lock(); ++spin) {
      if (spin == kSpins) {
        mu_.lock();
        break;
      }
      CpuRelax();
    }
    if (track) lockorder::OnAcquired(node_, this);
  }

  void unlock() TENDAX_RELEASE() {
    if (node_ != nullptr && lockorder::Enabled()) {
      lockorder::OnRelease(node_, this);
    }
    mu_.unlock();
  }

  /// Non-blocking, so it imposes no lock order: on success only the held
  /// stack is updated (later blocking acquisitions still see it held).
  bool try_lock() TENDAX_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (node_ != nullptr && lockorder::Enabled()) {
      lockorder::OnAcquired(node_, this);
    }
    return true;
  }

 private:
  static constexpr int kSpins = 64;  // ~3 us of pause instructions

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mu_;
  const lockorder::MutexNode* node_ = nullptr;
};

/// Reader/writer mutex with the same naming/ranking contract as Mutex.
/// Shared and exclusive acquisitions feed the same lock-order node: a
/// read-side inversion deadlocks against a writer just as surely.
class TENDAX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name, int rank = lockorder::kUnranked)
      : node_(lockorder::Register(name, rank)) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TENDAX_ACQUIRE() {
    const bool track = node_ != nullptr && lockorder::Enabled();
    if (track) lockorder::OnAcquiring(node_, this);
    mu_.lock();
    if (track) lockorder::OnAcquired(node_, this);
  }
  void unlock() TENDAX_RELEASE() {
    if (node_ != nullptr && lockorder::Enabled()) {
      lockorder::OnRelease(node_, this);
    }
    mu_.unlock();
  }
  void lock_shared() TENDAX_ACQUIRE_SHARED() {
    const bool track = node_ != nullptr && lockorder::Enabled();
    if (track) lockorder::OnAcquiring(node_, this);
    mu_.lock_shared();
    if (track) lockorder::OnAcquired(node_, this);
  }
  void unlock_shared() TENDAX_RELEASE_SHARED() {
    if (node_ != nullptr && lockorder::Enabled()) {
      lockorder::OnRelease(node_, this);
    }
    mu_.unlock_shared();
  }
  bool try_lock() TENDAX_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (node_ != nullptr && lockorder::Enabled()) {
      lockorder::OnAcquired(node_, this);
    }
    return true;
  }

 private:
  std::shared_mutex mu_;
  const lockorder::MutexNode* node_ = nullptr;
};

/// RAII exclusive lock over a Mutex. Supports the unique_lock-style
/// mid-scope Unlock/Lock dance and acts as a BasicLockable so CondVar can
/// wait on it (re-entering Mutex::lock keeps the validator's held stack
/// exact across waits).
class TENDAX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TENDAX_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    held_ = true;
  }
  /// Binds without locking (std::defer_lock analogue).
  MutexLock(Mutex& mu, std::defer_lock_t) TENDAX_EXCLUDES(mu) : mu_(&mu) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() TENDAX_RELEASE() {
    if (held_) mu_->unlock();
  }

  void lock() TENDAX_ACQUIRE() {
    mu_->lock();
    held_ = true;
  }
  void unlock() TENDAX_RELEASE() {
    held_ = false;
    mu_->unlock();
  }
  // Repo-style aliases; the lowercase pair exists for BasicLockable.
  void Lock() TENDAX_ACQUIRE() { lock(); }
  void Unlock() TENDAX_RELEASE() { unlock(); }

  bool owns_lock() const { return held_; }

 private:
  Mutex* mu_;
  bool held_ = false;
};

/// RAII shared (reader) lock over a SharedMutex.
class TENDAX_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) TENDAX_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->lock_shared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() TENDAX_RELEASE_GENERIC() { mu_->unlock_shared(); }

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class TENDAX_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) TENDAX_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() TENDAX_RELEASE() { mu_->unlock(); }

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to tendax::Mutex via MutexLock. Waits go
/// through MutexLock's lock/unlock, so the lock-order validator tracks the
/// implicit release/reacquire of every wait. No spurious-wakeup handling is
/// added: use the predicate overloads exactly as with std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(MutexLock& lock) { cv_.wait(lock); }

  template <typename Predicate>
  void Wait(MutexLock& lock, Predicate pred) {
    cv_.wait(lock, std::move(pred));
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock, dur);
  }

  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(MutexLock& lock, const std::chrono::duration<Rep, Period>& dur,
               Predicate pred) {
    return cv_.wait_for(lock, dur, std::move(pred));
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock, deadline);
  }

  template <typename Clock, typename Duration, typename Predicate>
  bool WaitUntil(MutexLock& lock,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Predicate pred) {
    return cv_.wait_until(lock, deadline, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace tendax

#endif  // TENDAX_UTIL_MUTEX_H_
