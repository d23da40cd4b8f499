//! The shared page pool: the thread-scalable page substrate of §3.6.
//!
//! The paper gives every thread its own page manager so the data path never
//! contends on allocation metadata. What *is* shared is the supply of 32 KiB
//! pages themselves: pages released by one thread's `iteration_end` become
//! available to every other thread, so the whole process converges on one
//! working set of pages instead of `threads ×` private ones.
//!
//! [`PagePool`] is that supply. It is a sharded free list of page buffers:
//! acquire and release move *batches* of pages between a thread's
//! [`crate::PagedHeap`] and one shard, so a worker touches a shard mutex
//! once per ~8 pages rather than once per page. Buffers carry their dirty
//! high-water mark across threads, preserving the partial-zeroing
//! optimization (only bytes below the mark are re-zeroed on the next bump
//! allocation — a page that recycles through the pool is never wholesale
//! re-zeroed).

use crate::page::{PAGE_BYTES, PAGE_RESERVED};
use std::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How many pages a heap pulls from / pushes to the pool per shard visit.
pub const POOL_BATCH: usize = 8;

/// The epoch tag of untracked page traffic. Epoch `0` is never minted by
/// [`PagePool::begin_epoch`], so plain [`PagePool::acquire_batch`] /
/// [`PagePool::release_batch`] calls (which tag with `NO_EPOCH`) stay off
/// every ledger.
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

impl EpochLedger {
    /// Pages still out under this epoch, net of fresh-page donations
    /// (negative when the epoch donated more than it drew).
    pub fn balance(&self) -> i64 {
        self.pages_out as i64 - self.pages_in as i64
    }
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

/// Free-list shards. More shards = less mutex contention; eight is enough
/// for the worker counts the frameworks use, and no caller ever asked for
/// another number.
const SHARDS: usize = 8;

/// A process-wide pool of 32 KiB pages shared by per-thread page managers.
///
/// Cheap to clone via `Arc`; every method takes `&self`.
///
/// # Examples
///
/// ```
/// use facade_runtime::PagePool;
/// use std::sync::Arc;
///
/// let pool = Arc::new(PagePool::with_default_config());
/// let pages = pool.acquire_batch(4); // empty pool: nothing to hand out yet
/// assert!(pages.is_empty());
/// ```
#[derive(Debug)]
pub struct PagePool {
    shards: Vec<Mutex<Vec<PooledPage>>>,
    /// Round-robin cursor distributing acquires/releases across shards.
    cursor: AtomicUsize,
    handed_out: AtomicU64,
    returned: AtomicU64,
    /// Pages currently in the pool, tracked lock-free so the occupancy
    /// high-water mark can be maintained without visiting every shard.
    in_pool: AtomicU64,
    occupancy_hwm: AtomicU64,
    acquire_calls: AtomicU64,
    acquire_ns_total: AtomicU64,
    acquire_ns_max: AtomicU64,
    release_calls: AtomicU64,
    release_ns_total: AtomicU64,
    release_ns_max: AtomicU64,
    /// Next job epoch to mint; starts at 1 so [`NO_EPOCH`] is never issued.
    next_epoch: AtomicU64,
    /// Live (begun, not yet retired) epoch ledgers. A `Vec` keyed by epoch
    /// id: a server runs a handful of jobs at once, so a linear scan under
    /// one mutex beats hashing, and untagged traffic never takes the lock.
    epochs: Mutex<Vec<(u64, EpochLedger)>>,
    /// Installed fault schedule; consulted on every batch acquire once
    /// [`fault_armed`](Self::fault_armed) says a plan exists.
    fault: Mutex<Option<crate::fault::FaultPlan>>,
    /// Lock-free gate in front of the fault mutex: acquires check this
    /// relaxed flag and only lock when a plan was actually installed, so
    /// the common (no-plan) acquire path never touches the fault mutex.
    fault_armed: AtomicBool,
}

/// Observability snapshot of a [`PagePool`]: traffic totals, batch-call
/// latencies, and the occupancy high-water mark. Taken with
/// [`PagePool::counters`]; all counters are monotonic over the pool's
/// lifetime.
///
/// # Examples
///
/// ```
/// use facade_runtime::{PagePool, PooledPage};
///
/// let pool = PagePool::with_default_config();
/// pool.release_batch(vec![PooledPage::new(), PooledPage::new()]);
/// pool.acquire_batch(1);
/// let c = pool.counters();
/// assert_eq!(c.pages_returned, 2);
/// assert_eq!(c.pages_handed_out, 1);
/// assert_eq!(c.occupancy_hwm, 2); // both pages sat in the pool at once
/// assert!(c.release_calls == 1 && c.acquire_calls == 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Total pages ever handed out by [`PagePool::acquire_batch`].
    pub pages_handed_out: u64,
    /// Total pages ever accepted by [`PagePool::release_batch`].
    pub pages_returned: u64,
    /// Most pages ever sitting in the pool at once.
    pub occupancy_hwm: u64,
    /// Number of batch-acquire calls (including empty-handed ones).
    pub acquire_calls: u64,
    /// Total nanoseconds spent inside batch acquires.
    pub acquire_ns_total: u64,
    /// Slowest single batch acquire, in nanoseconds.
    pub acquire_ns_max: u64,
    /// Number of non-empty batch-release calls.
    pub release_calls: u64,
    /// Total nanoseconds spent inside batch releases.
    pub release_ns_total: u64,
    /// Slowest single batch release, in nanoseconds.
    pub release_ns_max: u64,
}

impl PoolCounters {
    /// Mean batch-acquire latency in nanoseconds (0 if no calls yet).
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

impl PagePool {
    /// Creates an empty pool.
    pub fn with_default_config() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            cursor: AtomicUsize::new(0),
            handed_out: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            in_pool: AtomicU64::new(0),
            occupancy_hwm: AtomicU64::new(0),
            acquire_calls: AtomicU64::new(0),
            acquire_ns_total: AtomicU64::new(0),
            acquire_ns_max: AtomicU64::new(0),
            release_calls: AtomicU64::new(0),
            release_ns_total: AtomicU64::new(0),
            release_ns_max: AtomicU64::new(0),
            next_epoch: AtomicU64::new(1),
            epochs: Mutex::new(Vec::new()),
            fault: Mutex::new(None),
            fault_armed: AtomicBool::new(false),
        }
    }

    /// Installs a fault schedule: batch acquires fail (return an empty
    /// batch, as if the pool were drained) per the plan's pool-acquire
    /// probability. Callers fall back to fresh pages, so an injected pool
    /// failure is survivable by construction.
    pub fn set_fault_plan(&self, plan: crate::fault::FaultPlan) {
        *self.fault.lock().unwrap_or_else(|p| p.into_inner()) = Some(plan);
        // Release pairs with the acquire load in `acquire_batch`: a thread
        // that sees the flag also sees the plan behind the mutex.
        self.fault_armed.store(true, Ordering::Release);
    }

    fn shard_guard(&self, idx: usize) -> std::sync::MutexGuard<'_, Vec<PooledPage>> {
        // A poisoned shard only means another thread panicked mid-push/pop;
        // the Vec itself is always structurally valid.
        match self.shards[idx].try_lock() {
            Ok(g) => return g,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        // Contended: block, and attribute the stall so the profiler can
        // tell pool-lock waits apart from page work on the same thread.
        let waited = Instant::now();
        let guard = match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        facade_trace::complete("pool_wait", waited, &[("shard", idx.into())]);
        guard
    }

    /// Takes up to `max` pages from the pool (possibly fewer, possibly none
    /// — the caller falls back to creating fresh pages).
    ///
    /// The common path is contention-free: with no fault plan installed the
    /// fault mutex is never locked, and a pool whose `in_pool` counter reads
    /// zero returns empty without visiting any shard mutex (the dominant
    /// acquire during warm-up, when every page is still being created
    /// fresh). A racing concurrent release may make that read stale; the
    /// caller then creates a fresh page, which is always sound.
    pub fn acquire_batch(&self, max: usize) -> Vec<PooledPage> {
        self.acquire_batch_tagged(max, NO_EPOCH)
    }

    /// [`acquire_batch`](Self::acquire_batch) with the traffic charged to
    /// `epoch`'s ledger (see [`PagePool::begin_epoch`]). Tagging with
    /// [`NO_EPOCH`] — or with an epoch already retired — records nothing.
    pub fn acquire_batch_tagged(&self, max: usize, epoch: u64) -> Vec<PooledPage> {
        let timed = Instant::now();
        if self.fault_armed.load(Ordering::Acquire) {
            let fault = self.fault.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(plan) = fault.as_ref() {
                if plan.should_fail_pool_acquire() {
                    self.note_acquire(timed, 0);
                    return Vec::new();
                }
            }
        }
        if max == 0 || self.in_pool.load(Ordering::Relaxed) == 0 {
            self.note_acquire(timed, 0);
            return Vec::new();
        }
        let n = self.shards.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for i in 0..n {
            if out.len() >= max {
                break;
            }
            let mut shard = self.shard_guard((start + i) % n);
            while out.len() < max {
                match shard.pop() {
                    Some(p) => out.push(p),
                    None => break,
                }
            }
        }
        self.handed_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        if epoch != NO_EPOCH && !out.is_empty() {
            self.note_epoch(epoch, out.len() as u64, 0);
        }
        self.note_acquire(timed, out.len());
        out
    }

    // ----- job epochs -------------------------------------------------------

    /// Mints a fresh job epoch and opens its [`EpochLedger`]. Traffic moved
    /// with [`acquire_batch_tagged`](Self::acquire_batch_tagged) /
    /// [`release_batch_tagged`](Self::release_batch_tagged) under the
    /// returned id is charged to that ledger until
    /// [`retire_epoch`](Self::retire_epoch) closes it.
    pub fn begin_epoch(&self) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.epoch_guard().push((epoch, EpochLedger::default()));
        epoch
    }

    /// The current ledger of a live epoch; `None` once retired (or never
    /// begun).
    pub fn epoch_ledger(&self, epoch: u64) -> Option<EpochLedger> {
        self.epoch_guard()
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, l)| *l)
    }

    /// Closes a job epoch and returns its final ledger (`None` if unknown).
    /// Later traffic tagged with the retired id is ignored, so retirement
    /// must happen only after every holder tagged with it is gone.
    pub fn retire_epoch(&self, epoch: u64) -> Option<EpochLedger> {
        let mut epochs = self.epoch_guard();
        let idx = epochs.iter().position(|(e, _)| *e == epoch)?;
        Some(epochs.swap_remove(idx).1)
    }

    /// Number of epochs begun and not yet retired.
    pub fn live_epochs(&self) -> usize {
        self.epoch_guard().len()
    }

    fn epoch_guard(&self) -> std::sync::MutexGuard<'_, Vec<(u64, EpochLedger)>> {
        match self.epochs.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn note_epoch(&self, epoch: u64, out: u64, back: u64) {
        let mut epochs = self.epoch_guard();
        if let Some((_, ledger)) = epochs.iter_mut().find(|(e, _)| *e == epoch) {
            ledger.pages_out += out;
            ledger.pages_in += back;
        }
    }

    fn note_acquire(&self, timed: Instant, pages: usize) {
        if pages > 0 {
            // `in_pool` may transiently read low under concurrent releases;
            // that only ever under-reports the high-water mark.
            let taken = (pages as u64).min(self.in_pool.load(Ordering::Relaxed));
            self.in_pool.fetch_sub(taken, Ordering::Relaxed);
        }
        let ns = u64::try_from(timed.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.acquire_calls.fetch_add(1, Ordering::Relaxed);
        self.acquire_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.acquire_ns_max.fetch_max(ns, Ordering::Relaxed);
        if pages > 0 {
            facade_trace::complete("pool_acquire", timed, &[("pages", pages.into())]);
        }
    }

    /// Returns pages to the pool for other threads to reuse.
    pub fn release_batch(&self, pages: Vec<PooledPage>) {
        self.release_batch_tagged(pages, NO_EPOCH)
    }

    /// [`release_batch`](Self::release_batch) with the traffic charged to
    /// `epoch`'s ledger. Tagging with [`NO_EPOCH`] — or with an epoch
    /// already retired — records nothing.
    pub fn release_batch_tagged(&self, pages: Vec<PooledPage>, epoch: u64) {
        if pages.is_empty() {
            return;
        }
        if epoch != NO_EPOCH {
            self.note_epoch(epoch, 0, pages.len() as u64);
        }
        let timed = Instant::now();
        let count = pages.len() as u64;
        self.returned.fetch_add(count, Ordering::Relaxed);
        let now_in_pool = self.in_pool.fetch_add(count, Ordering::Relaxed) + count;
        self.occupancy_hwm.fetch_max(now_in_pool, Ordering::Relaxed);
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.shard_guard(start % self.shards.len()).extend(pages);
        let ns = u64::try_from(timed.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.release_calls.fetch_add(1, Ordering::Relaxed);
        self.release_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.release_ns_max.fetch_max(ns, Ordering::Relaxed);
        facade_trace::complete("pool_release", timed, &[("pages", count.into())]);
    }

    /// Pages currently sitting in the pool, ready to hand out.
    pub fn available(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard_guard(i).len())
            .sum()
    }

    /// Total pages ever handed out by [`PagePool::acquire_batch`].
    pub fn pages_handed_out(&self) -> u64 {
        self.handed_out.load(Ordering::Relaxed)
    }

    /// Total pages ever accepted by [`PagePool::release_batch`].
    pub fn pages_returned(&self) -> u64 {
        self.returned.load(Ordering::Relaxed)
    }

    /// Snapshots the pool's observability counters (traffic, latency,
    /// occupancy high-water mark). See [`PoolCounters`].
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            pages_handed_out: self.handed_out.load(Ordering::Relaxed),
            pages_returned: self.returned.load(Ordering::Relaxed),
            occupancy_hwm: self.occupancy_hwm.load(Ordering::Relaxed),
            acquire_calls: self.acquire_calls.load(Ordering::Relaxed),
            acquire_ns_total: self.acquire_ns_total.load(Ordering::Relaxed),
            acquire_ns_max: self.acquire_ns_max.load(Ordering::Relaxed),
            release_calls: self.release_calls.load(Ordering::Relaxed),
            release_ns_total: self.release_ns_total.load(Ordering::Relaxed),
            release_ns_max: self.release_ns_max.load(Ordering::Relaxed),
        }
    }

    /// Publishes the pool's current counters as gauges named
    /// `<prefix>_available`, `<prefix>_handed_out`, `<prefix>_returned`,
    /// `<prefix>_occupancy_hwm`, `<prefix>_mean_acquire_ns`, and
    /// `<prefix>_mean_release_ns` in `registry` (the daemon's `/metrics`
    /// registry, under the prefix `facade_pool`). Call again any time to
    /// refresh; a background [`metrics::Sampler`] can do so periodically.
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

    #[test]
    fn acquire_release_roundtrip_preserves_buffers() {
        let pool = PagePool::with_default_config();
        let a = PooledPage::new();
        let b = PooledPage::new();
        let (addr_a, addr_b) = (a.addr(), b.addr());
        pool.release_batch(vec![a, b]);
        assert_eq!(pool.available(), 2);
        let got = pool.acquire_batch(8);
        assert_eq!(got.len(), 2);
        let addrs: Vec<usize> = got.iter().map(|p| p.addr()).collect();
        assert!(addrs.contains(&addr_a) && addrs.contains(&addr_b));
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.pages_handed_out(), 2);
        assert_eq!(pool.pages_returned(), 2);
    }

    #[test]
    fn publish_gauges_exports_pool_state() {
        let pool = PagePool::with_default_config();
        pool.release_batch(vec![PooledPage::new(), PooledPage::new()]);
        let held = pool.acquire_batch(1);
        assert_eq!(held.len(), 1);
        let registry = metrics::Registry::new();
        pool.publish_gauges(&registry, "facade_pool");
        assert_eq!(registry.gauge("facade_pool_available").get(), 1);
        assert_eq!(registry.gauge("facade_pool_handed_out").get(), 1);
        assert_eq!(registry.gauge("facade_pool_returned").get(), 2);
        assert_eq!(registry.gauge("facade_pool_occupancy_hwm").get(), 2);
    }

    #[test]
    fn acquire_from_empty_pool_is_empty() {
        let pool = PagePool::with_default_config();
        assert!(pool.acquire_batch(4).is_empty());
        assert_eq!(pool.pages_handed_out(), 0);
    }

    #[test]
    fn batches_spread_across_shards_but_drain_fully() {
        // One page per release: the round-robin cursor lands them on every
        // shard, with a second lap on the first two.
        let pool = PagePool::with_default_config();
        let pages = SHARDS + 2;
        for _ in 0..pages {
            pool.release_batch(vec![PooledPage::new()]);
        }
        assert!(pool.shards.iter().all(|s| !s.lock().unwrap().is_empty()));
        assert_eq!(pool.available(), pages);
        // One acquire visits every shard if needed.
        let got = pool.acquire_batch(pages);
        assert_eq!(got.len(), pages);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn counters_track_latency_and_occupancy_hwm() {
        let pool = PagePool::with_default_config();
        pool.release_batch((0..6).map(|_| PooledPage::new()).collect());
        pool.release_batch(vec![PooledPage::new()]); // peak: 7 in pool
        let got = pool.acquire_batch(5);
        assert_eq!(got.len(), 5);
        pool.release_batch(got); // back to 7, not a new peak
        let c = pool.counters();
        assert_eq!(c.occupancy_hwm, 7);
        assert_eq!(c.pages_handed_out, 5);
        assert_eq!(c.pages_returned, 12);
        assert_eq!(c.acquire_calls, 1);
        assert_eq!(c.release_calls, 3);
        assert!(c.acquire_ns_total > 0 && c.release_ns_total > 0);
        assert!(c.acquire_ns_max <= c.acquire_ns_total);
        assert!(c.mean_release_ns() <= c.release_ns_max);
    }

    #[test]
    fn dirty_watermark_travels_with_the_buffer() {
        let pool = PagePool::with_default_config();
        let mut p = PooledPage::new();
        p.bytes[100] = 0xAB;
        p.dirty = 128;
        pool.release_batch(vec![p]);
        let got = pool.acquire_batch(1);
        assert_eq!(got[0].dirty, 128);
        assert_eq!(got[0].bytes[100], 0xAB, "pool does not re-zero");
    }

    #[test]
    fn epoch_ledgers_track_tagged_traffic_only() {
        let pool = PagePool::with_default_config();
        pool.release_batch((0..6).map(|_| PooledPage::new()).collect());
        let job = pool.begin_epoch();
        assert_ne!(job, NO_EPOCH);
        assert_eq!(pool.live_epochs(), 1);

        // Untagged traffic stays off the ledger.
        let plain = pool.acquire_batch(1);
        assert_eq!(pool.epoch_ledger(job), Some(EpochLedger::default()));

        let got = pool.acquire_batch_tagged(3, job);
        assert_eq!(got.len(), 3);
        pool.release_batch_tagged(got, job);
        pool.release_batch(plain);
        let ledger = pool.epoch_ledger(job).unwrap();
        assert_eq!(ledger.pages_out, 3);
        assert_eq!(ledger.pages_in, 3);
        assert_eq!(ledger.balance(), 0);

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
        pool.release_batch_tagged(vec![PooledPage::new()], a);
        pool.release_batch_tagged(vec![PooledPage::new()], 999_999);
        assert_eq!(pool.epoch_ledger(a), None);
        assert_eq!(pool.epoch_ledger(b), Some(EpochLedger::default()));
        assert_eq!(
            pool.counters().pages_returned,
            2,
            "global totals still count"
        );
    }

    #[test]
    fn epoch_donations_drive_balance_negative() {
        // A job whose heaps created fresh pages donates them at retirement:
        // pages_in exceeds pages_out and the balance goes negative by the
        // donation count — the reconciliation signal a server checks.
        let pool = PagePool::with_default_config();
        let job = pool.begin_epoch();
        pool.release_batch_tagged((0..4).map(|_| PooledPage::new()).collect(), job);
        let got = pool.acquire_batch_tagged(2, job);
        assert_eq!(got.len(), 2);
        let ledger = pool.retire_epoch(job).unwrap();
        assert_eq!(ledger.pages_in, 4);
        assert_eq!(ledger.pages_out, 2);
        assert_eq!(ledger.balance(), -2);
    }
}
