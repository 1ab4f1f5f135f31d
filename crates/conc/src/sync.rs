//! Std-compatible sync shim.
//!
//! Production builds (no `model-check` feature) re-export the `std::sync`
//! types verbatim — zero cost, zero behaviour change. With the feature, the
//! same names resolve to instrumented wrappers that report every operation to
//! [`crate::model`] when a model-check exploration is driving the current
//! thread, and behave exactly like std otherwise.
//!
//! Porting a module is a one-line import swap:
//!
//! ```ignore
//! use fingers_conc::sync::{Condvar, Mutex, PoisonError};
//! use fingers_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
//! ```
//!
//! Not everything should be ported. Statics requiring `const fn new` (signal
//! flags) stay on `std::sync::atomic` — the instrumented constructors
//! allocate an object id at runtime, and signal handlers must remain
//! async-signal-safe (no locks, no thread-locals).

pub use std::sync::{LockResult, PoisonError};

#[cfg(not(feature = "model-check"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types and memory orderings (std re-exports or instrumented).
pub mod atomic {
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(feature = "model-check")]
    pub use super::instrumented::{AtomicBool, AtomicU64, AtomicUsize};
    #[cfg(feature = "model-check")]
    pub use std::sync::atomic::Ordering;
}

#[cfg(feature = "model-check")]
pub use instrumented::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "model-check")]
mod instrumented {
    //! Instrumented primitives: each op is a schedule point when a model
    //! exploration is active on the current thread, a std passthrough when
    //! not. Object ids are per-execution and feed the state fingerprint.

    use crate::model;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::Ordering;
    use std::sync::{LockResult, PoisonError};

    /// Instrumented `std::sync::Mutex`.
    pub struct Mutex<T: ?Sized> {
        id: usize,
        inner: std::sync::Mutex<T>,
    }

    /// Guard for [`Mutex`]; releases the model-level hold on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        owner: &'a Mutex<T>,
        /// `None` only transiently inside `Condvar::wait` (the guard is
        /// neutered before being forgotten).
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// See `std::sync::Mutex::new`.
        pub fn new(value: T) -> Self {
            Mutex {
                id: model::register_object(),
                inner: std::sync::Mutex::new(value),
            }
        }

        /// See `std::sync::Mutex::into_inner`.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// See `std::sync::Mutex::lock`. A schedule point under the model.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            model::mutex_lock(self.id);
            // The model-level hold (when active) guarantees this OS lock is
            // uncontended; outside the model it does the real synchronizing.
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    owner: self,
                    inner: Some(g),
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    owner: self,
                    inner: Some(poisoned.into_inner()),
                })),
            }
        }

        /// See `std::sync::Mutex::get_mut` (exclusive access — no schedule
        /// point, matching std's no-locking semantics).
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            match &self.inner {
                Some(g) => g,
                None => unreachable!("guard neutered only inside Condvar::wait"),
            }
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            match &mut self.inner {
                Some(g) => g,
                None => unreachable!("guard neutered only inside Condvar::wait"),
            }
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the OS lock first, then the model-level hold; a
            // neutered guard (inner already None) releases nothing.
            if self.inner.take().is_some() {
                model::mutex_unlock(self.owner.id);
            }
        }
    }

    /// Instrumented `std::sync::Condvar`.
    pub struct Condvar {
        id: usize,
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// See `std::sync::Condvar::new`.
        pub fn new() -> Self {
            Condvar {
                id: model::register_object(),
                inner: std::sync::Condvar::new(),
            }
        }

        /// See `std::sync::Condvar::wait`. Under the model this atomically
        /// releases the mutex and parks, then re-acquires before returning.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let mut guard = guard;
            let owner = guard.owner;
            if model::in_model() {
                // Neuter the guard: drop the OS lock here, skip the model
                // unlock (condvar_wait performs it atomically with parking).
                drop(guard.inner.take());
                std::mem::forget(guard);
                model::condvar_wait(self.id, owner.id);
                // Model-level hold re-acquired; take the OS lock (uncontended).
                match owner.inner.lock() {
                    Ok(g) => Ok(MutexGuard {
                        owner,
                        inner: Some(g),
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        owner,
                        inner: Some(poisoned.into_inner()),
                    })),
                }
            } else {
                let std_guard = match guard.inner.take() {
                    Some(g) => g,
                    None => unreachable!("guard neutered only inside Condvar::wait"),
                };
                std::mem::forget(guard);
                match self.inner.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard {
                        owner,
                        inner: Some(g),
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        owner,
                        inner: Some(poisoned.into_inner()),
                    })),
                }
            }
        }

        /// See `std::sync::Condvar::notify_one`. Under the model, wakes the
        /// lowest-index waiter (deterministic; std promises no fairness).
        pub fn notify_one(&self) {
            model::condvar_notify(self.id, false);
            self.inner.notify_one();
        }

        /// See `std::sync::Condvar::notify_all`.
        pub fn notify_all(&self) {
            model::condvar_notify(self.id, true);
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }

    macro_rules! instrumented_atomic {
        ($Name:ident, $Std:ty, $Prim:ty, $to_u64:expr) => {
            /// Instrumented atomic; every op is a schedule point under the
            /// model, and the post-op value feeds the state fingerprint.
            pub struct $Name {
                id: usize,
                inner: $Std,
            }

            impl $Name {
                /// See the std atomic's `new`.
                pub fn new(value: $Prim) -> Self {
                    $Name {
                        id: model::register_object(),
                        inner: <$Std>::new(value),
                    }
                }

                fn record(&self) {
                    let cast: fn($Prim) -> u64 = $to_u64;
                    // ord: seqcst(mirror read feeding the model state fingerprint; strength is irrelevant, the explorer serializes)
                    model::atomic_value(self.id, cast(self.inner.load(Ordering::SeqCst)));
                }

                /// See the std atomic's `load`.
                pub fn load(&self, order: Ordering) -> $Prim {
                    model::atomic_point(concat!(stringify!($Name), "-load"));
                    self.inner.load(order)
                }

                /// See the std atomic's `store`.
                pub fn store(&self, value: $Prim, order: Ordering) {
                    model::atomic_point(concat!(stringify!($Name), "-store"));
                    self.inner.store(value, order);
                    self.record();
                }

                /// See the std atomic's `swap`.
                pub fn swap(&self, value: $Prim, order: Ordering) -> $Prim {
                    model::atomic_point(concat!(stringify!($Name), "-swap"));
                    let prev = self.inner.swap(value, order);
                    self.record();
                    prev
                }

                /// See the std atomic's `into_inner`.
                pub fn into_inner(self) -> $Prim {
                    self.inner.into_inner()
                }
            }

            impl Default for $Name {
                fn default() -> Self {
                    $Name::new(<$Prim>::default())
                }
            }

            impl fmt::Debug for $Name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
    }

    instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool, |b| b
        as u64);
    instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64, |v| v);
    instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize, |v| v
        as u64);

    impl AtomicU64 {
        /// See `std::sync::atomic::AtomicU64::fetch_add`.
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            model::atomic_point("AtomicU64-fetch-add");
            let prev = self.inner.fetch_add(value, order);
            self.record();
            prev
        }

        /// See `std::sync::atomic::AtomicU64::fetch_sub`.
        pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
            model::atomic_point("AtomicU64-fetch-sub");
            let prev = self.inner.fetch_sub(value, order);
            self.record();
            prev
        }

        /// See `std::sync::atomic::AtomicU64::fetch_max`.
        pub fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
            model::atomic_point("AtomicU64-fetch-max");
            let prev = self.inner.fetch_max(value, order);
            self.record();
            prev
        }

        /// See `std::sync::atomic::AtomicU64::fetch_update`. One schedule
        /// point for the whole RMW (the std op is itself atomic).
        pub fn fetch_update<F>(
            &self,
            set_order: Ordering,
            fetch_order: Ordering,
            f: F,
        ) -> Result<u64, u64>
        where
            F: FnMut(u64) -> Option<u64>,
        {
            model::atomic_point("AtomicU64-fetch-update");
            let r = self.inner.fetch_update(set_order, fetch_order, f);
            self.record();
            r
        }
    }

    impl AtomicUsize {
        /// See `std::sync::atomic::AtomicUsize::fetch_add`.
        pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
            model::atomic_point("AtomicUsize-fetch-add");
            let prev = self.inner.fetch_add(value, order);
            self.record();
            prev
        }
    }
}
