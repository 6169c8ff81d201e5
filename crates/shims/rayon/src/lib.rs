//! Offline stand-in for `rayon`, implementing the subset of the API the
//! workspace uses with real `std::thread` data parallelism.
//!
//! A parallel iterator here is a materialized item vector plus a
//! sink-style composed operation. Adapters (`map`, `filter`,
//! `flat_map_iter`) compose the operation; consumers (`collect`,
//! `count`, `sum`, `for_each`, `reduce`) split the items into one chunk
//! per available core, run the composed pipeline on a persistent worker
//! pool, and splice per-chunk outputs back together in order — so observable
//! behavior (ordering included) matches rayon's indexed iterators for
//! every call site in this workspace.
//!
//! Also provided: [`current_num_threads`].

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Number of worker threads used for parallel drives. Cached:
/// `available_parallelism` inspects cgroup files on every call, which is
/// far too slow for the per-iteration checks hot loops make.
pub fn current_num_threads() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A persistent worker pool, so a parallel drive's dispatch costs a queue
/// push instead of an OS thread spawn (the real rayon's reason to
/// exist; a per-call `thread::scope` makes fine-grained parallel work
/// slower than serial).
///
/// Lifetime model: jobs capture borrowed state, erased to `'static` at
/// the dispatch boundary. This is sound because every dispatch point
/// **blocks until its jobs complete before returning** — including when
/// the inline chunk panics — so borrowed data strictly outlives the
/// worker's use of it. Nested parallelism from inside a worker runs
/// serially (a worker blocking on sub-jobs could deadlock the pool).
mod pool {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    type Job = Box<dyn FnOnce() + Send>;

    struct Shared {
        queue: Mutex<std::collections::VecDeque<Job>>,
        jobs_cv: Condvar,
    }

    static POOL: OnceLock<&'static Shared> = OnceLock::new();

    thread_local! {
        static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether the current thread is a pool worker. Waiters *help* run
    /// queued jobs, so nested dispatch is allowed everywhere; this only
    /// gates heuristics (a worker saturating the pool gains nothing from
    /// splitting small work further).
    pub fn on_worker() -> bool {
        IS_WORKER.with(Cell::get)
    }

    fn shared() -> &'static Shared {
        POOL.get_or_init(|| {
            let shared: &'static Shared = Box::leak(Box::new(Shared {
                queue: Mutex::new(std::collections::VecDeque::new()),
                jobs_cv: Condvar::new(),
            }));
            let workers = super::current_num_threads().saturating_sub(1).max(1);
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || {
                        IS_WORKER.with(|w| w.set(true));
                        loop {
                            let job = {
                                let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                                loop {
                                    if let Some(job) = q.pop_front() {
                                        break job;
                                    }
                                    q = shared.jobs_cv.wait(q).unwrap_or_else(|p| p.into_inner());
                                }
                            };
                            job();
                        }
                    })
                    .expect("spawn rayon-shim worker");
            }
            shared
        })
    }

    fn push(job: Job) {
        let shared = shared();
        {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(job);
        }
        shared.jobs_cv.notify_one();
    }

    fn try_pop() -> Option<Job> {
        let mut q = shared().queue.lock().unwrap_or_else(|p| p.into_inner());
        q.pop_front()
    }

    /// Tracks a batch of dispatched jobs; `wait` blocks until all have
    /// finished (normally or by panic).
    pub struct Batch {
        pending: AtomicUsize,
        panicked: AtomicUsize,
        lock: Mutex<()>,
        cv: Condvar,
    }

    impl Batch {
        pub fn new(jobs: usize) -> Arc<Batch> {
            Arc::new(Batch {
                pending: AtomicUsize::new(jobs),
                panicked: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            })
        }

        fn finish(&self, panicked: bool) {
            if panicked {
                self.panicked.fetch_add(1, Ordering::Relaxed);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
                self.cv.notify_all();
            }
        }

        /// Block until every job in the batch has completed; panics if
        /// any job panicked (after all completed — never while borrowed
        /// state is still in use).
        ///
        /// Waiters **help**: while the batch is outstanding they execute
        /// whatever is queued (their own jobs or anyone else's), which
        /// makes nested dispatch both deadlock-free and parallel. The
        /// short wait timeout re-checks the queue so a job enqueued
        /// after a miss cannot strand a sleeping helper.
        pub fn wait(&self) {
            while self.pending.load(Ordering::Acquire) > 0 {
                if let Some(job) = super::pool::try_pop() {
                    job();
                    continue;
                }
                let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
                if self.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                let _ = self
                    .cv
                    .wait_timeout(guard, std::time::Duration::from_micros(100))
                    .unwrap_or_else(|p| p.into_inner());
            }
            if self.panicked.load(Ordering::Relaxed) > 0 {
                panic!("rayon-shim pooled job panicked");
            }
        }
    }

    /// Dispatch `job` to the pool, reporting completion to `batch`.
    ///
    /// # Safety
    /// The caller must block on `batch.wait()` before any state borrowed
    /// by `job` goes out of scope — on every path, including unwinding.
    pub unsafe fn dispatch<'env>(batch: &Arc<Batch>, job: Box<dyn FnOnce() + Send + 'env>) {
        let batch = Arc::clone(batch);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err();
            batch.finish(caught);
        });
        // SAFETY: per the contract above, the job finishes (and drops)
        // before its borrows expire; the transmute only erases the
        // lifetime the type system can no longer track across the
        // channel.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        push(erased);
    }
}

type Sink<'env, O> = dyn FnMut(O) + 'env;
type Op<'env, T, O> = dyn Fn(T, &mut Sink<'_, O>) + Send + Sync + 'env;

/// A materialized parallel pipeline: base items plus the composed
/// per-item operation feeding a sink.
pub struct ParIter<'env, T: Send, O: Send> {
    items: Vec<T>,
    op: Box<Op<'env, T, O>>,
}

/// Mirror of `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator<'env> {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<'env, Self::Item, Self::Item>;
}

/// Mirror of `rayon::iter::IntoParallelRefIterator` (`.par_iter()`).
pub trait IntoParallelRefIterator<'env> {
    type Item: Send;
    fn par_iter(&'env self) -> ParIter<'env, Self::Item, Self::Item>;
}

fn identity<'env, T: Send>(items: Vec<T>) -> ParIter<'env, T, T> {
    ParIter {
        items,
        op: Box::new(|t, sink| sink(t)),
    }
}

impl<'env, T: Send> IntoParallelIterator<'env> for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<'env, T, T> {
        identity(self)
    }
}

macro_rules! range_into_par {
    ($($t:ty),*) => {$(
        impl<'env> IntoParallelIterator<'env> for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<'env, $t, $t> {
                identity(self.collect())
            }
        }
    )*};
}
range_into_par!(u32, u64, usize, i32, i64);

impl<'env, T: Sync + 'env> IntoParallelRefIterator<'env> for [T] {
    type Item = &'env T;
    fn par_iter(&'env self) -> ParIter<'env, &'env T, &'env T> {
        identity(self.iter().collect())
    }
}

impl<'env, T: Sync + 'env> IntoParallelRefIterator<'env> for Vec<T> {
    type Item = &'env T;
    fn par_iter(&'env self) -> ParIter<'env, &'env T, &'env T> {
        identity(self.iter().collect())
    }
}

/// Mirror of `rayon::iter::FromParallelIterator`, so `.collect()` can
/// target the same types call sites already use.
pub trait FromParallelIterator<O> {
    fn from_par(items: Vec<O>) -> Self;
}

impl<O> FromParallelIterator<O> for Vec<O> {
    fn from_par(items: Vec<O>) -> Self {
        items
    }
}

impl<K, V, S> FromParallelIterator<(K, V)> for std::collections::HashMap<K, V, S>
where
    K: std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn from_par(items: Vec<(K, V)>) -> Self {
        items.into_iter().collect()
    }
}

/// The adapter/consumer surface of `rayon::iter::ParallelIterator` used
/// in this workspace, implemented directly on [`ParIter`] (rayon's trait
/// split into `ParallelIterator`/`IndexedParallelIterator` is collapsed).
pub trait ParallelIterator<'env>: Sized {
    type Item: Send;

    fn map<O2, F>(self, f: F) -> ParIter<'env, Self::BaseItem, O2>
    where
        O2: Send,
        F: Fn(Self::Item) -> O2 + Send + Sync + 'env;

    fn filter<F>(self, f: F) -> ParIter<'env, Self::BaseItem, Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Send + Sync + 'env;

    fn flat_map_iter<I, F>(self, f: F) -> ParIter<'env, Self::BaseItem, I::Item>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Send + Sync + 'env;

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync + 'env;

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C;

    fn count(self) -> usize;

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>;

    fn reduce<ID, F>(self, identity: ID, f: F) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync;

    #[doc(hidden)]
    type BaseItem: Send;
}

impl<'env, T: Send + 'env, O: Send + 'env> ParIter<'env, T, O> {
    /// Execute the pipeline: one chunk per core dispatched to the worker
    /// pool (last chunk runs inline), order-preserving splice.
    fn drive(self) -> Vec<O> {
        let ParIter { items, op } = self;
        let n = items.len();
        let threads = current_num_threads().min(n).max(1);
        if threads <= 1 || n < 2 || pool::on_worker() {
            let mut out = Vec::with_capacity(n);
            for t in items {
                op(t, &mut |o| out.push(o));
            }
            return out;
        }
        let chunk = n.div_ceil(threads);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
        let mut items = items.into_iter();
        loop {
            let c: Vec<T> = items.by_ref().take(chunk).collect();
            if c.is_empty() {
                break;
            }
            chunks.push(c);
        }
        let op = &*op;
        let mut outputs: Vec<Vec<O>> = Vec::new();
        outputs.resize_with(chunks.len(), Vec::new);
        let batch = pool::Batch::new(chunks.len() - 1);
        {
            let mut slots = outputs.iter_mut();
            let mut chunks = chunks.into_iter();
            let last_chunk = chunks.next_back().expect("nonempty");
            let last_slot = slots.next_back().expect("nonempty");
            for (c, slot) in chunks.zip(slots) {
                // SAFETY: `batch.wait()` runs below before `outputs`/`op`
                // borrows expire, even if the inline chunk panics.
                unsafe {
                    pool::dispatch(
                        &batch,
                        Box::new(move || {
                            slot.reserve(c.len());
                            for t in c {
                                op(t, &mut |o| slot.push(o));
                            }
                        }),
                    );
                }
            }
            let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                last_slot.reserve(last_chunk.len());
                for t in last_chunk {
                    op(t, &mut |o| last_slot.push(o));
                }
            }));
            batch.wait();
            if let Err(payload) = inline {
                std::panic::resume_unwind(payload);
            }
        }
        let mut out = Vec::with_capacity(n);
        for chunk_out in outputs {
            out.extend(chunk_out);
        }
        out
    }
}

impl<'env, T: Send + 'env, O: Send + 'env> ParallelIterator<'env> for ParIter<'env, T, O> {
    type Item = O;
    type BaseItem = T;

    fn map<O2, F>(self, f: F) -> ParIter<'env, T, O2>
    where
        O2: Send,
        F: Fn(O) -> O2 + Send + Sync + 'env,
    {
        let ParIter { items, op } = self;
        ParIter {
            items,
            op: Box::new(move |t, sink| op(t, &mut |o| sink(f(o)))),
        }
    }

    fn filter<F>(self, f: F) -> ParIter<'env, T, O>
    where
        F: Fn(&O) -> bool + Send + Sync + 'env,
    {
        let ParIter { items, op } = self;
        ParIter {
            items,
            op: Box::new(move |t, sink| {
                op(t, &mut |o| {
                    if f(&o) {
                        sink(o)
                    }
                })
            }),
        }
    }

    fn flat_map_iter<I, F>(self, f: F) -> ParIter<'env, T, I::Item>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(O) -> I + Send + Sync + 'env,
    {
        let ParIter { items, op } = self;
        ParIter {
            items,
            op: Box::new(move |t, sink| {
                op(t, &mut |o| {
                    for x in f(o) {
                        sink(x)
                    }
                })
            }),
        }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(O) + Send + Sync + 'env,
    {
        // Map into unit and drive; per-chunk outputs are unit vectors.
        let _ = self.map(f).drive();
    }

    fn collect<C: FromParallelIterator<O>>(self) -> C {
        C::from_par(self.drive())
    }

    fn count(self) -> usize {
        self.drive().len()
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<O>,
    {
        self.drive().into_iter().sum()
    }

    fn reduce<ID, F>(self, identity: ID, f: F) -> O
    where
        ID: Fn() -> O + Send + Sync,
        F: Fn(O, O) -> O + Send + Sync,
    {
        self.drive().into_iter().fold(identity(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
    }

    #[test]
    fn par_iter_borrows() {
        let data: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let lens: Vec<usize> = data.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 100);
        assert_eq!(lens[0], 2);
        let n = data.par_iter().filter(|s| s.ends_with('7')).count();
        assert_eq!(n, 10);
    }

    #[test]
    fn flat_map_iter_matches_sequential() {
        let seqs = vec![vec![1u32, 2], vec![3], vec![], vec![4, 5, 6]];
        let par: Vec<u32> = seqs
            .par_iter()
            .flat_map_iter(|s| s.iter().copied())
            .collect();
        assert_eq!(par, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn sum_and_reduce() {
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 499_500);
        let m = (0..1000u64).into_par_iter().reduce(|| 0, u64::max);
        assert_eq!(m, 999);
    }

    #[test]
    fn for_each_side_effects() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        (0..512usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 512);
    }
}
