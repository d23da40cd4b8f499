//! The four workloads and what they share: sizing constants live beside the
//! workload that uses them, together with the machine they were matched on.

pub mod compile_run;
pub mod dataflow_batch;
pub mod graph_batch;
pub mod serve_mix;

use crate::report::Samples;
use data_store::{PauseRecord, PoolCounters};
use std::time::Duration;

/// Every workload name, in catalogue order.
pub const NAMES: [&str; 4] = ["graph_batch", "dataflow_batch", "serve_mix", "compile_run"];

/// Native page size: `facade_peak_bytes` is pages × this.
pub const PAGE_BYTES: u64 = facade_runtime::PAGE_BYTES as u64;

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a digest of `values`.
pub(crate) fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pushes the `facade_runtime.*` samples of one decomposed facade leg.
pub(crate) fn push_page_traffic(
    samples: &mut Samples,
    pages_created: u64,
    pages_recycled: u64,
    pools: &[Option<PoolCounters>],
) {
    samples.push("facade_runtime.pages_created", pages_created as f64);
    samples.push("facade_runtime.pages_recycled", pages_recycled as f64);
    samples.push(
        "facade_runtime.recycle_share",
        pages_recycled as f64 / (pages_created + pages_recycled).max(1) as f64,
    );
    let (mut acquire_ns, mut acquires, mut release_ns, mut releases) = (0, 0, 0, 0);
    for c in pools.iter().flatten() {
        acquire_ns += c.acquire_ns_total;
        acquires += c.acquire_calls;
        release_ns += c.release_ns_total;
        releases += c.release_calls;
    }
    samples.push(
        "facade_runtime.pool_acquire_ns",
        acquire_ns as f64 / acquires.max(1) as f64,
    );
    samples.push(
        "facade_runtime.pool_release_ns",
        release_ns as f64 / releases.max(1) as f64,
    );
}

/// Pushes the `managed_heap.*` samples of one decomposed heap leg.
pub(crate) fn push_gc(
    samples: &mut Samples,
    gc_time: Duration,
    gc_count: u64,
    pauses: impl IntoIterator<Item = PauseRecord>,
    leg_wall: Duration,
) {
    samples.push("managed_heap.gc_ms", ms(gc_time));
    samples.push("managed_heap.gc_count", gc_count as f64);
    let longest = pauses.into_iter().map(|p| p.pause_ns).max().unwrap_or(0);
    samples.push("managed_heap.gc_pause_max_ms", longest as f64 / 1e6);
    samples.push(
        "managed_heap.gc_share",
        gc_time.as_secs_f64() / leg_wall.as_secs_f64(),
    );
}
