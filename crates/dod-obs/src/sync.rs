//! Poison-recovering lock helpers.
//!
//! A panicking task must not take the whole system down with it: the
//! MapReduce scheduler retries panicking task attempts and the resident
//! engine isolates panicking requests, so both routinely hold locks
//! across code that is *expected* to panic under fault injection. With
//! plain `lock().expect(..)` a single panic while a guard is live
//! poisons the mutex and cascades into every other thread touching the
//! shared state — turning one recoverable task failure into a
//! whole-job (or whole-engine) crash.
//!
//! These helpers recover the guard from a [`PoisonError`] instead. That
//! is sound here because every protected structure in this workspace is
//! kept consistent *per operation* (a slot write, a counter bump, a
//! whole-value swap); there is no multi-step critical section that a
//! panic can leave half-applied.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a previous writer panicked.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, RwLock};

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = l2.write().unwrap();
            panic!("poison it");
        }));
        assert_eq!(read_recover(&l).len(), 3);
        write_recover(&l).push(4);
        assert_eq!(read_recover(&l).len(), 4);
    }
}
