//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::thread::scope` with the `|_|`-style spawn closure
//! signature the engines use, implemented on top of `std::thread::scope`
//! (which did not exist when crossbeam's scoped threads were written).

pub mod thread {
    //! Scoped threads.

    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Handle to the scope, passed to every spawned closure (unused by
    /// this workspace's call sites, which all write `|_|`).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// A handle awaiting a spawned thread's result.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread and returns its result, or the panic
        /// payload if it panicked.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread inside the scope. The closure receives a unit
        /// placeholder where crossbeam passes a nested scope handle.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(()) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(())),
            }
        }
    }

    /// Runs `f` with a scope in which borrowed-data threads can be
    /// spawned; all threads are joined before this returns. Returns `Err`
    /// with the panic payload when the closure or an unjoined thread
    /// panicked, matching crossbeam's contract.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;

    #[test]
    fn spawn_and_join_collects_results() {
        let data = [1u64, 2, 3, 4];
        let total = thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|c| scope.spawn(move |_| c.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn panicked_worker_surfaces_as_err() {
        let result = thread::scope(|scope| {
            let h = scope.spawn(|_| panic!("boom"));
            // Leave the panic to the scope exit: drop the handle unjoined.
            drop(h);
        });
        assert!(result.is_err());
    }
}
