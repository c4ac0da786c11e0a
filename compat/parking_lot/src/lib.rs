//! Offline drop-in for the subset of the `parking_lot` API this workspace
//! uses, implemented over `std::sync` primitives.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the lock API surface it needs: `Mutex`/`MutexGuard` (including
//! the owned `lock_arc` guard used by the buffer cache), `RwLock`,
//! `Condvar` with `parking_lot`-style `wait(&mut guard)`, and the
//! `RawMutex` marker type.  Semantics match `parking_lot` where it matters
//! here: no lock poisoning (a poisoned std lock is recovered by taking the
//! inner guard), and `Condvar::wait` takes the guard by `&mut`.
//!
//! `Condvar` also keeps `parking_lot`'s cost model: a notify with nobody
//! waiting returns at once.  std's condvar makes a futex wake system call
//! on every notify, waiter or not, and the journal notifies on every
//! operation and every commit.  So [`Condvar`] counts its waiters — up
//! under the mutex before parking, down once `wait` returns — and
//! `notify_one`/`notify_all` return `false`/`0` without a system call
//! when the count is zero.  A notifier that changed the waited-on state
//! under the same mutex cannot miss a waiter: a thread that checked the
//! state before the change had already counted itself, under that mutex,
//! before releasing it to park.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Marker for the default raw mutex (type parameter of [`ArcMutexGuard`]).
pub struct RawMutex {
    _priv: (),
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock through an `Arc`, returning an owned guard that
    /// keeps the `Arc` alive for the duration of the lock.
    pub fn lock_arc(this: &Arc<Mutex<T>>) -> ArcMutexGuard<RawMutex, T> {
        let arc = Arc::clone(this);
        let guard = arc.0.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the guard borrows from `arc`, which the returned
        // ArcMutexGuard keeps alive; the guard is dropped before the Arc
        // (field order in ArcMutexGuard).
        let guard: std::sync::MutexGuard<'static, T> =
            unsafe { std::mem::transmute::<std::sync::MutexGuard<'_, T>, _>(guard) };
        ArcMutexGuard { guard: Some(guard), _arc: arc, _raw: PhantomData }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// An owned mutex guard holding the `Arc` that owns the lock.
pub struct ArcMutexGuard<R, T: ?Sized + 'static> {
    // Field order is load-bearing: `guard` must drop before `_arc`.
    guard: Option<std::sync::MutexGuard<'static, T>>,
    _arc: Arc<Mutex<T>>,
    _raw: PhantomData<R>,
}

impl<R, T: ?Sized> Deref for ArcMutexGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken")
    }
}

impl<R, T: ?Sized> DerefMut for ArcMutexGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken")
    }
}

impl<R, T: ?Sized> Drop for ArcMutexGuard<R, T> {
    fn drop(&mut self) {
        self.guard = None;
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable compatible with [`Mutex`]/[`MutexGuard`].  A
/// notify with no thread waiting costs one atomic load (see the crate
/// docs).
pub struct Condvar {
    cond: std::sync::Condvar,
    /// Threads inside [`Condvar::wait`]; raised while the caller still
    /// holds the mutex, so a notifier holding it sees every parked thread.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { cond: std::sync::Condvar::new(), waiters: AtomicUsize::new(0) }
    }

    /// Blocks until notified, atomically releasing and reacquiring the lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.cond.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.0 = Some(inner);
    }

    /// Wakes one waiter.  Returns whether a thread was waiting to wake.
    pub fn notify_one(&self) -> bool {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return false;
        }
        self.cond.notify_one();
        true
    }

    /// Wakes all waiters.  Returns how many threads were waiting.
    pub fn notify_all(&self) -> usize {
        let waiters = self.waiters.load(Ordering::SeqCst);
        if waiters == 0 {
            return 0;
        }
        self.cond.notify_all();
        waiters
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader/writer lock (no poisoning).
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Attempts a shared read lock without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts an exclusive write lock without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mutex_and_guard() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn lock_arc_holds_lock_and_arc() {
        let m = Arc::new(Mutex::new(5u32));
        let mut g = Mutex::lock_arc(&m);
        assert!(m.try_lock().is_none(), "owned guard holds the lock");
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, c) = &*p2;
            let mut g = m.lock();
            while !*g {
                c.wait(&mut g);
            }
        });
        thread::sleep(std::time::Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn a_notify_with_no_waiter_wakes_nobody() {
        let c = Condvar::new();
        assert!(!c.notify_one());
        assert_eq!(c.notify_all(), 0);
    }

    #[test]
    fn notify_one_reports_the_parked_waiter_it_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, c) = &*p2;
            let mut g = m.lock();
            while !*g {
                c.wait(&mut g);
            }
        });
        let (m, c) = &*pair;
        // The count rises under the mutex, which the waiter only gives up
        // by parking: once it reads 1, taking the mutex means it is parked.
        while c.waiters.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        let mut g = m.lock();
        *g = true;
        assert!(c.notify_one(), "one thread was parked");
        drop(g);
        t.join().unwrap();
        assert_eq!(c.waiters.load(Ordering::SeqCst), 0);
        assert!(!c.notify_one());
    }

    #[test]
    fn a_four_thread_ring_hands_off_twenty_thousand_times_without_a_lost_wake_up() {
        const THREADS: usize = 4;
        const HANDOFFS: usize = 20_000;
        // Thread i runs when the turn counter is i mod 4 and wakes only its
        // successor, on the successor's own condvar: one lost wake-up
        // stops the ring for good, and the watchdog below fails the test.
        let ring = Arc::new((Mutex::new(0usize), [(); THREADS].map(|_| Condvar::new())));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for me in 0..THREADS {
            let ring = Arc::clone(&ring);
            let done_tx = done_tx.clone();
            thread::spawn(move || {
                let (turn, conds) = &*ring;
                let mut g = turn.lock();
                loop {
                    while *g < HANDOFFS && *g % THREADS != me {
                        conds[me].wait(&mut g);
                    }
                    if *g >= HANDOFFS {
                        break;
                    }
                    *g += 1;
                    conds[(me + 1) % THREADS].notify_one();
                }
                // Past the end: the successor may be parked on its turn.
                conds[(me + 1) % THREADS].notify_one();
                drop(g);
                done_tx.send(()).unwrap();
            });
        }
        for _ in 0..THREADS {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the ring stalled: a wake-up was lost");
        }
        assert_eq!(*ring.0.lock(), HANDOFFS);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 8;
        assert_eq!(*l.read(), 8);
    }
}
