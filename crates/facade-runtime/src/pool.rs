//! The shared page pool: the thread-scalable page substrate of §3.6.
//!
//! The paper gives every thread its own page manager so the data path never
//! contends on allocation metadata. What *is* shared is the supply of 32 KiB
//! pages themselves: pages released by one thread's `iteration_end` become
//! available to every other thread, so the whole process converges on one
//! working set of pages instead of `threads ×` private ones.
//!
//! [`PagePool`] is that supply: one free list of page buffers behind one
//! mutex. A thread's [`crate::PagedHeap`] takes one page per
//! [`PagePool::acquire`], when it adopts the page into a slot, and hands its
//! recycled pages back in one [`PagePool::release_batch`]. A page is always
//! either in a heap's slot or in the pool, never in transit between them.
//! Buffers carry their dirty high-water mark across threads, preserving the
//! partial-zeroing optimization (only bytes below the mark are re-zeroed on
//! the next bump allocation — a page that recycles through the pool is
//! never wholesale re-zeroed).

use crate::page::{PAGE_BYTES, PAGE_RESERVED};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// The epoch tag of untracked page traffic. Epoch `0` is never minted by
/// [`PagePool::begin_epoch`], so [`PagePool::acquire`] /
/// [`PagePool::release_batch`] calls tagged with `NO_EPOCH` stay off every
/// ledger.
pub const NO_EPOCH: u64 = 0;

/// Per-epoch page-traffic ledger: how many pages the pool handed to and
/// received back from holders tagged with one job epoch. A retired job's
/// ledger reconciles when `pages_in == pages_out + pages_created_by_job`
/// (fresh pages a job's heaps created are donated to the pool at
/// retirement, so they land in `pages_in` without ever being handed out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochLedger {
    /// Pages handed out to holders tagged with this epoch.
    pub pages_out: u64,
    /// Pages returned by holders tagged with this epoch.
    pub pages_in: u64,
}

/// A page buffer in transit through the pool: raw bytes plus the dirty
/// high-water mark (bytes below it may hold stale data and are re-zeroed
/// lazily by the next owner's bump allocator).
#[derive(Debug)]
pub struct PooledPage {
    pub(crate) bytes: Vec<u8>,
    pub(crate) dirty: usize,
}

impl PooledPage {
    /// A fresh zeroed page buffer.
    pub fn new() -> Self {
        Self {
            bytes: vec![0; PAGE_BYTES],
            dirty: PAGE_RESERVED,
        }
    }

    /// A stable identity for the underlying buffer (its base address),
    /// usable to check that no two live owners hold the same page.
    pub fn addr(&self) -> usize {
        self.bytes.as_ptr() as usize
    }
}

impl Default for PooledPage {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the pool's one lock guards.
#[derive(Debug, Default)]
struct PoolState {
    free: Vec<PooledPage>,
    counters: PoolCounters,
    /// Live (begun, not yet retired) epoch ledgers. A `Vec` keyed by epoch
    /// id: a server runs a handful of jobs at once, so a linear scan beats
    /// hashing.
    epochs: Vec<(u64, EpochLedger)>,
    /// Installed fault schedule; consulted on every acquire.
    fault: Option<crate::fault::FaultPlan>,
}

impl PoolState {
    /// Charges traffic to a live epoch's ledger; [`NO_EPOCH`] is never one.
    fn note_epoch(&mut self, epoch: u64, out: u64, back: u64) {
        if let Some((_, ledger)) = self.epochs.iter_mut().find(|(e, _)| *e == epoch) {
            ledger.pages_out += out;
            ledger.pages_in += back;
        }
    }
}

/// A process-wide pool of 32 KiB pages shared by per-thread page managers.
///
/// Cheap to clone via `Arc`; every method takes `&self`.
///
/// # Examples
///
/// ```
/// use facade_runtime::{NO_EPOCH, PagePool};
/// use std::sync::Arc;
///
/// let pool = Arc::new(PagePool::with_default_config());
/// assert!(pool.acquire(NO_EPOCH).is_none()); // empty pool: nothing to hand out yet
/// ```
#[derive(Debug)]
pub struct PagePool {
    state: Mutex<PoolState>,
    /// Next job epoch to mint; starts at 1 so [`NO_EPOCH`] is never issued.
    next_epoch: AtomicU64,
}

/// Observability snapshot of a [`PagePool`]: traffic totals, call
/// latencies, and the occupancy high-water mark. Taken with
/// [`PagePool::counters`]; all counters are monotonic over the pool's
/// lifetime.
///
/// # Examples
///
/// ```
/// use facade_runtime::{NO_EPOCH, PagePool, PooledPage};
///
/// let pool = PagePool::with_default_config();
/// pool.release_batch(vec![PooledPage::new(), PooledPage::new()], NO_EPOCH);
/// let page = pool.acquire(NO_EPOCH);
/// assert!(page.is_some());
/// let c = pool.counters();
/// assert_eq!(c.pages_returned, 2);
/// assert_eq!(c.pages_handed_out, 1);
/// assert_eq!(c.occupancy_hwm, 2); // both pages sat in the pool at once
/// assert!(c.release_calls == 1 && c.acquire_calls == 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Total pages ever handed out by [`PagePool::acquire`].
    pub pages_handed_out: u64,
    /// Total pages ever accepted by [`PagePool::release_batch`].
    pub pages_returned: u64,
    /// Most pages ever sitting in the pool at once.
    pub occupancy_hwm: u64,
    /// Number of acquire calls, one per page asked for (including
    /// empty-handed ones).
    pub acquire_calls: u64,
    /// Total nanoseconds spent inside acquires.
    pub acquire_ns_total: u64,
    /// Number of non-empty batch-release calls.
    pub release_calls: u64,
    /// Total nanoseconds spent inside batch releases.
    pub release_ns_total: u64,
}

impl PoolCounters {
    /// Mean acquire latency in nanoseconds (0 if no calls yet).
    pub fn mean_acquire_ns(&self) -> u64 {
        self.acquire_ns_total
            .checked_div(self.acquire_calls)
            .unwrap_or(0)
    }

    /// Mean batch-release latency in nanoseconds (0 if no calls yet).
    pub fn mean_release_ns(&self) -> u64 {
        self.release_ns_total
            .checked_div(self.release_calls)
            .unwrap_or(0)
    }
}

fn ns_since(timed: Instant) -> u64 {
    u64::try_from(timed.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl PagePool {
    /// Creates an empty pool.
    pub fn with_default_config() -> Self {
        Self {
            state: Mutex::new(PoolState::default()),
            next_epoch: AtomicU64::new(1),
        }
    }

    /// The pool's one lock. A poisoned lock only means another thread
    /// panicked mid-call; the state is plain data and always usable. A
    /// contended lock emits a `pool_wait` span, so the profiler can tell
    /// pool-lock waits apart from page work on the same thread.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        match self.state.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {}
        }
        let waited = Instant::now();
        let guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        facade_trace::complete("pool_wait", waited, &[]);
        guard
    }

    /// Installs a fault schedule: acquires fail (return `None`, as if the
    /// pool were drained) per the plan's pool-acquire probability, drawn
    /// once per page asked for. Callers fall back to fresh pages, so an
    /// injected pool failure is survivable by construction.
    pub fn set_fault_plan(&self, plan: crate::fault::FaultPlan) {
        self.state().fault = Some(plan);
    }

    /// Takes one page from the pool (`None` if it is empty — the caller
    /// falls back to creating a fresh page), charging it to `epoch`'s
    /// ledger (see [`PagePool::begin_epoch`]). Tagging with [`NO_EPOCH`] —
    /// or with an epoch already retired — records nothing.
    pub fn acquire(&self, epoch: u64) -> Option<PooledPage> {
        let timed = Instant::now();
        let mut s = self.state();
        let failed = s
            .fault
            .as_ref()
            .is_some_and(|p| p.should_fail_pool_acquire());
        let page = if failed { None } else { s.free.pop() };
        let taken = u64::from(page.is_some());
        s.note_epoch(epoch, taken, 0);
        let c = &mut s.counters;
        c.pages_handed_out += taken;
        c.acquire_calls += 1;
        c.acquire_ns_total += ns_since(timed);
        drop(s);
        if page.is_some() {
            facade_trace::complete("pool_acquire", timed, &[]);
        }
        page
    }

    /// Returns pages to the pool for other threads to reuse, charging them
    /// to `epoch`'s ledger. Tagging with [`NO_EPOCH`] — or with an epoch
    /// already retired — records nothing.
    pub fn release_batch(&self, pages: Vec<PooledPage>, epoch: u64) {
        if pages.is_empty() {
            return;
        }
        let timed = Instant::now();
        let count = pages.len() as u64;
        let mut s = self.state();
        s.note_epoch(epoch, 0, count);
        s.free.extend(pages);
        let occupancy = s.free.len() as u64;
        let c = &mut s.counters;
        c.pages_returned += count;
        c.occupancy_hwm = c.occupancy_hwm.max(occupancy);
        c.release_calls += 1;
        c.release_ns_total += ns_since(timed);
        drop(s);
        facade_trace::complete("pool_release", timed, &[("pages", count.into())]);
    }

    // ----- job epochs -------------------------------------------------------

    /// Mints a fresh job epoch and opens its [`EpochLedger`]. Traffic moved
    /// with [`acquire`](Self::acquire) /
    /// [`release_batch`](Self::release_batch) under the returned id is
    /// charged to that ledger until [`retire_epoch`](Self::retire_epoch)
    /// closes it.
    pub fn begin_epoch(&self) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.state().epochs.push((epoch, EpochLedger::default()));
        epoch
    }

    /// The current ledger of a live epoch; `None` once retired (or never
    /// begun).
    pub fn epoch_ledger(&self, epoch: u64) -> Option<EpochLedger> {
        self.state()
            .epochs
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, l)| *l)
    }

    /// Closes a job epoch and returns its final ledger (`None` if unknown).
    /// Later traffic tagged with the retired id is ignored, so retirement
    /// must happen only after every holder tagged with it is gone.
    pub fn retire_epoch(&self, epoch: u64) -> Option<EpochLedger> {
        let mut s = self.state();
        let idx = s.epochs.iter().position(|(e, _)| *e == epoch)?;
        Some(s.epochs.swap_remove(idx).1)
    }

    /// Number of epochs begun and not yet retired.
    pub fn live_epochs(&self) -> usize {
        self.state().epochs.len()
    }

    // ----- observability ----------------------------------------------------

    /// Pages currently sitting in the pool, ready to hand out.
    pub fn available(&self) -> usize {
        self.state().free.len()
    }

    /// Total pages ever handed out by [`PagePool::acquire`].
    pub fn pages_handed_out(&self) -> u64 {
        self.counters().pages_handed_out
    }

    /// Total pages ever accepted by [`PagePool::release_batch`].
    pub fn pages_returned(&self) -> u64 {
        self.counters().pages_returned
    }

    /// Snapshots the pool's observability counters (traffic, latency,
    /// occupancy high-water mark). See [`PoolCounters`].
    pub fn counters(&self) -> PoolCounters {
        self.state().counters
    }

    /// Publishes the pool's current counters as gauges named
    /// `<prefix>_available`, `<prefix>_handed_out`, `<prefix>_returned`,
    /// `<prefix>_occupancy_hwm`, `<prefix>_mean_acquire_ns`, and
    /// `<prefix>_mean_release_ns` in `registry` (the daemon's `/metrics`
    /// registry, under the prefix `facade_pool`). Call again any time to
    /// refresh.
    pub fn publish_gauges(&self, registry: &metrics::Registry, prefix: &str) {
        let c = self.counters();
        let set = |suffix: &str, v: u64| {
            registry
                .gauge(&format!("{prefix}_{suffix}"))
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        set("available", self.available() as u64);
        set("handed_out", c.pages_handed_out);
        set("returned", c.pages_returned);
        set("occupancy_hwm", c.occupancy_hwm);
        set("mean_acquire_ns", c.mean_acquire_ns());
        set("mean_release_ns", c.mean_release_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize) -> Vec<PooledPage> {
        (0..n).map(|_| PooledPage::new()).collect()
    }

    /// Asks for `n` pages one call at a time; keeps those handed out.
    fn take(pool: &PagePool, n: usize, epoch: u64) -> Vec<PooledPage> {
        (0..n).filter_map(|_| pool.acquire(epoch)).collect()
    }

    #[test]
    fn acquire_release_roundtrip_preserves_buffers() {
        let pool = PagePool::with_default_config();
        let a = PooledPage::new();
        let b = PooledPage::new();
        let (addr_a, addr_b) = (a.addr(), b.addr());
        pool.release_batch(vec![a, b], NO_EPOCH);
        assert_eq!(pool.available(), 2);
        let got = take(&pool, 3, NO_EPOCH);
        assert_eq!(got.len(), 2);
        let addrs: Vec<usize> = got.iter().map(|p| p.addr()).collect();
        assert!(addrs.contains(&addr_a) && addrs.contains(&addr_b));
        assert_eq!(pool.available(), 0);
        assert_eq!(
            pool.counters().acquire_calls,
            3,
            "one call per page asked for"
        );
        assert_eq!(pool.pages_handed_out(), 2);
        assert_eq!(pool.pages_returned(), 2);
    }

    #[test]
    fn publish_gauges_exports_pool_state() {
        let pool = PagePool::with_default_config();
        pool.release_batch(fresh(2), NO_EPOCH);
        let held = pool.acquire(NO_EPOCH);
        assert!(held.is_some());
        let registry = metrics::Registry::new();
        pool.publish_gauges(&registry, "facade_pool");
        assert_eq!(registry.gauge("facade_pool_available").get(), 1);
        assert_eq!(registry.gauge("facade_pool_handed_out").get(), 1);
        assert_eq!(registry.gauge("facade_pool_returned").get(), 2);
        assert_eq!(registry.gauge("facade_pool_occupancy_hwm").get(), 2);
    }

    #[test]
    fn acquire_from_empty_pool_is_none() {
        let pool = PagePool::with_default_config();
        assert!(pool.acquire(NO_EPOCH).is_none());
        assert_eq!(pool.pages_handed_out(), 0);
    }

    #[test]
    fn counters_track_latency_and_occupancy_hwm() {
        let pool = PagePool::with_default_config();
        pool.release_batch(fresh(6), NO_EPOCH);
        pool.release_batch(fresh(1), NO_EPOCH); // peak: 7 in pool
        let got = take(&pool, 5, NO_EPOCH);
        assert_eq!(got.len(), 5);
        pool.release_batch(got, NO_EPOCH); // back to 7, not a new peak
        let c = pool.counters();
        assert_eq!(c.occupancy_hwm, 7);
        assert_eq!(c.pages_handed_out, 5);
        assert_eq!(c.pages_returned, 12);
        assert_eq!(c.acquire_calls, 5);
        assert_eq!(c.release_calls, 3);
        assert!(c.acquire_ns_total > 0 && c.release_ns_total > 0);
    }

    #[test]
    fn dirty_watermark_travels_with_the_buffer() {
        let pool = PagePool::with_default_config();
        let mut p = PooledPage::new();
        p.bytes[100] = 0xAB;
        p.dirty = 128;
        pool.release_batch(vec![p], NO_EPOCH);
        let got = pool.acquire(NO_EPOCH).unwrap();
        assert_eq!(got.dirty, 128);
        assert_eq!(got.bytes[100], 0xAB, "pool does not re-zero");
    }

    #[test]
    fn epoch_ledgers_track_only_their_own_traffic() {
        let pool = PagePool::with_default_config();
        pool.release_batch(fresh(6), NO_EPOCH);
        let job = pool.begin_epoch();
        assert_ne!(job, NO_EPOCH);
        assert_eq!(pool.live_epochs(), 1);

        // Untagged traffic stays off the ledger.
        let plain = take(&pool, 1, NO_EPOCH);
        assert_eq!(pool.epoch_ledger(job), Some(EpochLedger::default()));

        let got = take(&pool, 3, job);
        assert_eq!(got.len(), 3);
        pool.release_batch(got, job);
        pool.release_batch(plain, NO_EPOCH);
        let ledger = pool.epoch_ledger(job).unwrap();
        assert_eq!(ledger.pages_out, 3);
        assert_eq!(ledger.pages_in, 3);

        let final_ledger = pool.retire_epoch(job).unwrap();
        assert_eq!(final_ledger, ledger);
        assert_eq!(pool.live_epochs(), 0);
        assert_eq!(pool.epoch_ledger(job), None);
        assert_eq!(pool.retire_epoch(job), None, "double retirement is inert");
    }

    #[test]
    fn retired_epochs_ignore_late_traffic_and_ids_are_unique() {
        let pool = PagePool::with_default_config();
        let a = pool.begin_epoch();
        let b = pool.begin_epoch();
        assert_ne!(a, b);
        pool.retire_epoch(a);
        // Traffic against a retired (or never-begun) epoch records nothing
        // and corrupts nothing.
        pool.release_batch(fresh(1), a);
        pool.release_batch(fresh(1), 999_999);
        assert_eq!(pool.epoch_ledger(a), None);
        assert_eq!(pool.epoch_ledger(b), Some(EpochLedger::default()));
        assert_eq!(
            pool.counters().pages_returned,
            2,
            "global totals still count"
        );
    }

    #[test]
    fn epoch_donations_return_more_than_was_drawn() {
        // A job whose heaps created fresh pages donates them at retirement:
        // pages_in exceeds pages_out by the donation count — the
        // reconciliation signal a server checks.
        let pool = PagePool::with_default_config();
        let job = pool.begin_epoch();
        pool.release_batch(fresh(4), job);
        let got = take(&pool, 2, job);
        assert_eq!(got.len(), 2);
        let ledger = pool.retire_epoch(job).unwrap();
        assert_eq!(ledger.pages_in, 4);
        assert_eq!(ledger.pages_out, 2);
    }
}
