//! Profile construction: interval sweeps and the critical-path walk.

use crate::{
    ConcurrencyStat, EventKind, LaneStat, PathEntry, PhaseStat, ProfEvent, Profile, SerialPhase,
    WAIT_LABEL,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// One completed span, flattened for sweeping.
struct SpanRec {
    name: usize,
    tid: u64,
    start: u64,
    end: u64,
}

/// A leaf self-time segment: within `[t0, t1)` the span at `spans[span]`
/// was the innermost open span on its lane.
#[derive(Clone, Copy)]
struct Seg {
    t0: u64,
    t1: u64,
    span: usize,
}

impl Profile {
    /// Builds the full analysis from a drained timeline. Event order does
    /// not matter; everything is re-sorted internally. An empty timeline
    /// yields an all-zero profile.
    pub fn build(events: &[ProfEvent]) -> Profile {
        let mut names: Vec<String> = Vec::new();
        let mut name_ids: HashMap<String, usize> = HashMap::new();
        let mut intern = |s: &str| -> usize {
            if let Some(&id) = name_ids.get(s) {
                return id;
            }
            let id = names.len();
            names.push(s.to_string());
            name_ids.insert(s.to_string(), id);
            id
        };

        let mut spans: Vec<SpanRec> = Vec::new();
        // Per-lane raw accounting keyed by tid: (first_ts, last_end, events).
        let mut lanes_raw: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for e in events {
            let end = match e.kind {
                EventKind::Span { dur_ns } => e.ts_ns.saturating_add(dur_ns),
                _ => e.ts_ns,
            };
            let lane = lanes_raw.entry(e.tid).or_insert((e.ts_ns, end, 0));
            lane.0 = lane.0.min(e.ts_ns);
            lane.1 = lane.1.max(end);
            lane.2 += 1;
            if let EventKind::Span { .. } = e.kind {
                spans.push(SpanRec {
                    name: intern(&e.name),
                    tid: e.tid,
                    start: e.ts_ns,
                    end,
                });
            }
        }
        if lanes_raw.is_empty() {
            return Profile::default();
        }
        let global_start = lanes_raw.values().map(|l| l.0).min().unwrap_or(0);
        let global_end = lanes_raw.values().map(|l| l.1).max().unwrap_or(0);
        let window_ns = global_end - global_start;

        // Per-lane busy unions (any span open), reused by the serial sweep.
        let mut lane_unions: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            lane_unions.entry(s.tid).or_default().push((s.start, s.end));
        }
        for iv in lane_unions.values_mut() {
            *iv = merge_intervals(std::mem::take(iv));
        }

        let mut lanes = Vec::with_capacity(lanes_raw.len());
        let (mut idle_total, mut window_total) = (0u64, 0u64);
        for (&tid, &(first, last, events)) in &lanes_raw {
            let lane_window = last - first;
            let busy: u64 = lane_unions
                .get(&tid)
                .map(|iv| iv.iter().map(|(s, e)| e - s).sum())
                .unwrap_or(0);
            let idle = lane_window.saturating_sub(busy);
            idle_total += idle;
            window_total += lane_window;
            lanes.push(LaneStat {
                tid,
                window_ns: lane_window,
                busy_ns: busy,
                idle_ns: idle,
                events,
            });
        }
        let idle_pct = if window_total > 0 {
            idle_total as f64 / window_total as f64 * 100.0
        } else {
            0.0
        };

        // Serial sweep: how long were ≤ 1 workers busy, and when.
        let all_unions: Vec<(u64, u64)> = lane_unions.values().flatten().copied().collect();
        let (serial_ns, serial_intervals) =
            low_concurrency_time(&all_unions, global_start, global_end, 1);
        let serial_fraction = if window_ns > 0 {
            serial_ns as f64 / window_ns as f64
        } else {
            0.0
        };

        // Per-name concurrency histograms + overlap with serial time.
        let mut name_spans: BTreeMap<usize, BTreeMap<u64, Vec<(u64, u64)>>> = BTreeMap::new();
        for s in &spans {
            name_spans
                .entry(s.name)
                .or_default()
                .entry(s.tid)
                .or_default()
                .push((s.start, s.end));
        }
        let mut concurrency = BTreeMap::new();
        let mut dominant: Option<SerialPhase> = None;
        for (&name_id, by_tid) in &name_spans {
            let per_tid: Vec<Vec<(u64, u64)>> = by_tid
                .values()
                .map(|iv| merge_intervals(iv.clone()))
                .collect();
            let (stat, active_union) = concurrency_histogram(&per_tid);
            let overlap = interval_overlap(&active_union, &serial_intervals);
            if overlap > 0 && dominant.as_ref().is_none_or(|d| overlap > d.serial_ns) {
                dominant = Some(SerialPhase {
                    name: names[name_id].clone(),
                    serial_ns: overlap,
                    share: if serial_ns > 0 {
                        overlap as f64 / serial_ns as f64
                    } else {
                        0.0
                    },
                });
            }
            concurrency.insert(names[name_id].clone(), stat);
        }

        // Leaf self-time segments per lane (innermost owner wins).
        let mut segments: BTreeMap<u64, Vec<Seg>> = BTreeMap::new();
        let mut by_tid_idx: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_tid_idx.entry(s.tid).or_default().push(i);
        }
        for (&tid, idxs) in &by_tid_idx {
            segments.insert(tid, self_segments(&spans, idxs));
        }

        // Phases: inclusive totals from the spans, leaf time from segments.
        let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
        for s in &spans {
            let p = phases.entry(names[s.name].clone()).or_default();
            p.count += 1;
            p.total_ns += s.end - s.start;
        }
        for segs in segments.values() {
            for seg in segs {
                let p = phases
                    .entry(names[spans[seg.span].name].clone())
                    .or_default();
                p.self_ns += seg.t1 - seg.t0;
            }
        }

        let critical_path = critical_path(
            &spans,
            &names,
            &segments,
            global_start,
            global_end,
            window_ns,
        );

        Profile {
            window_ns,
            lanes,
            idle_pct,
            serial_fraction,
            phases,
            concurrency,
            critical_path,
            dominant_serial_phase: dominant,
        }
    }
}

/// Merges possibly-overlapping intervals into a sorted disjoint union.
/// Zero-length intervals contribute nothing and are discarded.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Sweeps the union intervals over `[start, end)` counting how many are
/// open at once. Returns the total time at level ≤ `threshold` and the
/// merged intervals where that held (time with *zero* open counts too).
fn low_concurrency_time(
    intervals: &[(u64, u64)],
    start: u64,
    end: u64,
    threshold: i64,
) -> (u64, Vec<(u64, u64)>) {
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        deltas.push((s.max(start), 1));
        deltas.push((e.min(end), -1));
    }
    deltas.sort_unstable();
    let mut level = 0i64;
    let mut low_since = Some(start);
    let mut total = 0u64;
    let mut out = Vec::new();
    for (t, d) in deltas {
        let was_low = level <= threshold;
        level += d;
        let is_low = level <= threshold;
        if was_low && !is_low {
            if let Some(since) = low_since.take() {
                if t > since {
                    total += t - since;
                    out.push((since, t));
                }
            }
        } else if !was_low && is_low {
            low_since = Some(t);
        }
    }
    if let Some(since) = low_since {
        if end > since {
            total += end - since;
            out.push((since, end));
        }
    }
    (total, merge_intervals(out))
}

/// Sweeps per-lane unions of one span name, producing the concurrency
/// histogram (level → ns for level ≥ 1) and the merged "phase active on ≥ 1
/// lane" union used for serial-overlap attribution.
fn concurrency_histogram(per_tid: &[Vec<(u64, u64)>]) -> (ConcurrencyStat, Vec<(u64, u64)>) {
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    for iv in per_tid {
        for &(s, e) in iv {
            deltas.push((s, 1));
            deltas.push((e, -1));
        }
    }
    deltas.sort_unstable();
    let mut stat = ConcurrencyStat::default();
    let mut active = Vec::new();
    let mut level = 0i64;
    let mut prev = 0u64;
    let mut active_since: Option<u64> = None;
    for (t, d) in deltas {
        if level >= 1 && t > prev {
            *stat.hist.entry(level as u32).or_default() += t - prev;
        }
        let was_active = level >= 1;
        level += d;
        prev = t;
        if !was_active && level >= 1 {
            active_since = Some(t);
        } else if was_active && level < 1 {
            if let Some(since) = active_since.take() {
                if t > since {
                    active.push((since, t));
                }
            }
        }
    }
    let mut weighted = 0f64;
    let mut active_ns = 0u64;
    for (&lvl, &ns) in &stat.hist {
        weighted += lvl as f64 * ns as f64;
        active_ns += ns;
        stat.max = stat.max.max(lvl);
    }
    stat.mean = if active_ns > 0 {
        weighted / active_ns as f64
    } else {
        0.0
    };
    (stat, merge_intervals(active))
}

/// Total overlap between two sorted disjoint interval lists.
fn interval_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Splits one lane's spans into leaf self-time segments: between any two
/// adjacent boundaries the innermost open span (max start; tie-break min
/// end, then latest-recorded) owns the time. Handles improper nesting from
/// retroactive `complete()` spans without panicking.
fn self_segments(spans: &[SpanRec], idxs: &[usize]) -> Vec<Seg> {
    // (t, kind, span idx); kind 0 = end, 1 = start, so ends sort first at
    // equal timestamps and a span ending exactly when its sibling starts
    // never counts as overlapping it.
    let mut bounds: Vec<(u64, u8, usize)> = Vec::with_capacity(idxs.len() * 2);
    for &i in idxs {
        if spans[i].end > spans[i].start {
            bounds.push((spans[i].start, 1, i));
            bounds.push((spans[i].end, 0, i));
        }
    }
    bounds.sort_unstable();
    let mut segs = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut i = 0;
    let mut prev_t = bounds.first().map(|b| b.0).unwrap_or(0);
    while i < bounds.len() {
        let t = bounds[i].0;
        if t > prev_t {
            if let Some(&owner) = active
                .iter()
                .max_by_key(|&&s| (spans[s].start, Reverse(spans[s].end), s))
            {
                segs.push(Seg {
                    t0: prev_t,
                    t1: t,
                    span: owner,
                });
            }
            prev_t = t;
        }
        while i < bounds.len() && bounds[i].0 == t {
            let (_, kind, idx) = bounds[i];
            if kind == 0 {
                if let Some(p) = active.iter().position(|&a| a == idx) {
                    active.swap_remove(p);
                }
            } else {
                active.push(idx);
            }
            i += 1;
        }
    }
    segs
}

/// Backward sweep from the latest span end: repeatedly take the most recent
/// leaf segment on the current lane, attribute its time to its span name
/// and any gap to [`WAIT_LABEL`]. When the current lane has no earlier
/// activity, fall over to the globally last-active lane. The attributed
/// total is exactly the window.
fn critical_path(
    spans: &[SpanRec],
    names: &[String],
    segments: &BTreeMap<u64, Vec<Seg>>,
    global_start: u64,
    global_end: u64,
    window_ns: u64,
) -> Vec<PathEntry> {
    let mut attributed: HashMap<usize, u64> = HashMap::new();
    let mut wait_ns = 0u64;

    let mut cur_tid = spans
        .iter()
        .max_by_key(|s| s.end)
        .map(|s| s.tid)
        .unwrap_or(0);
    let mut cur_t = global_end;
    // Each Some-branch iteration strictly lowers cur_t and each None-branch
    // iteration switches to a lane where a Some is guaranteed, so the walk
    // terminates; the explicit bound is a belt against future edits.
    let mut budget = spans.len() * 4 + 16;
    while cur_t > global_start && budget > 0 {
        budget -= 1;
        let seg = segments.get(&cur_tid).and_then(|segs| {
            let i = segs.partition_point(|s| s.t0 < cur_t);
            i.checked_sub(1).map(|i| segs[i])
        });
        match seg {
            Some(s) => {
                let eff_end = s.t1.min(cur_t);
                wait_ns += cur_t - eff_end;
                *attributed.entry(spans[s.span].name).or_default() += eff_end - s.t0;
                cur_t = s.t0;
            }
            None => {
                // Last active segment anywhere strictly before cur_t.
                let fallback = segments
                    .iter()
                    .filter(|(&tid, _)| tid != cur_tid)
                    .filter_map(|(&tid, segs)| {
                        let i = segs.partition_point(|s| s.t0 < cur_t);
                        i.checked_sub(1).map(|i| (tid, segs[i].t1.min(cur_t)))
                    })
                    .max_by_key(|&(_, end)| end);
                match fallback {
                    Some((tid, _)) => cur_tid = tid,
                    None => {
                        wait_ns += cur_t - global_start;
                        cur_t = global_start;
                    }
                }
            }
        }
    }
    // Budget exhaustion (should be unreachable) leaves a remainder; fold it
    // into wait so the path still sums to the window.
    wait_ns += cur_t.saturating_sub(global_start);

    let mut path: Vec<PathEntry> = attributed
        .into_iter()
        .map(|(name, ns)| PathEntry {
            name: names[name].clone(),
            ns,
            pct: pct_of(ns, window_ns),
        })
        .collect();
    if wait_ns > 0 {
        path.push(PathEntry {
            name: WAIT_LABEL.to_string(),
            ns: wait_ns,
            pct: pct_of(wait_ns, window_ns),
        });
    }
    path.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));
    path
}

fn pct_of(ns: u64, window_ns: u64) -> f64 {
    if window_ns > 0 {
        ns as f64 / window_ns as f64 * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, ProfEvent, Profile, WAIT_LABEL};

    fn span(name: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> ProfEvent {
        ProfEvent {
            name: name.to_string(),
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns },
        }
    }

    fn path_ns(profile: &Profile, name: &str) -> u64 {
        profile
            .critical_path
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ns)
            .unwrap_or(0)
    }

    #[test]
    fn empty_timeline_yields_zero_profile() {
        let p = Profile::build(&[]);
        assert_eq!(p.window_ns, 0);
        assert!(p.lanes.is_empty());
        assert!(p.critical_path.is_empty());
        assert_eq!(p.serial_fraction, 0.0);
        assert!(p.dominant_serial_phase.is_none());
    }

    #[test]
    fn perfectly_parallel_lanes_measure_zero_serial_fraction() {
        let p = Profile::build(&[span("work", 1, 0, 100), span("work", 2, 0, 100)]);
        assert_eq!(p.window_ns, 100);
        assert_eq!(p.serial_fraction, 0.0);
        assert_eq!(p.idle_pct, 0.0);
        let c = &p.concurrency["work"];
        assert_eq!(c.hist.get(&2), Some(&100));
        assert_eq!(c.max, 2);
        assert_eq!(c.mean, 2.0);
        // The whole path is "work"; no wait.
        assert_eq!(path_ns(&p, "work"), 100);
        assert_eq!(path_ns(&p, WAIT_LABEL), 0);
        // Fully parallel: no serial time for any phase to dominate.
        assert!(p.dominant_serial_phase.is_none());
        assert!((p.projected_speedup(4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_splits_self_time_from_child_time() {
        let p = Profile::build(&[span("outer", 1, 0, 100), span("inner", 1, 20, 40)]);
        let outer = &p.phases["outer"];
        let inner = &p.phases["inner"];
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 60, "inner's 40ns belongs to inner");
        assert_eq!(inner.self_ns, 40);
        assert_eq!(path_ns(&p, "outer"), 60);
        assert_eq!(path_ns(&p, "inner"), 40);
    }

    #[test]
    fn concurrency_histogram_tracks_partial_overlap() {
        let p = Profile::build(&[span("load", 1, 0, 40), span("load", 2, 30, 20)]);
        let c = &p.concurrency["load"];
        assert_eq!(c.hist.get(&1), Some(&40), "0..30 plus 40..50");
        assert_eq!(c.hist.get(&2), Some(&10), "30..40");
        assert_eq!(c.max, 2);
        assert!((c.mean - 1.2).abs() < 1e-9);
        // Serial time = window minus the 10ns of overlap.
        assert!((p.serial_fraction - 0.8).abs() < 1e-9);
    }

    #[test]
    fn idle_accounts_per_lane() {
        let p = Profile::build(&[span("phase", 1, 0, 100), span("phase", 2, 40, 20)]);
        let lane1 = p.lanes.iter().find(|l| l.tid == 1).unwrap();
        let lane2 = p.lanes.iter().find(|l| l.tid == 2).unwrap();
        assert_eq!(lane1.busy_ns, 100);
        assert_eq!(lane1.idle_ns, 0);
        assert_eq!(lane2.window_ns, 20, "lane window spans its own events");
        assert_eq!(lane2.busy_ns, 20);
        assert_eq!(p.idle_pct, 0.0);
    }

    #[test]
    fn zero_duration_spans_do_not_distort_accounting() {
        let p = Profile::build(&[span("tick", 1, 50, 0), span("run", 1, 0, 100)]);
        assert_eq!(p.window_ns, 100);
        assert_eq!(p.phases["tick"].count, 1);
        assert_eq!(p.phases["tick"].self_ns, 0);
        assert_eq!(p.phases["run"].self_ns, 100);
        let total: u64 = p.critical_path.iter().map(|e| e.ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn late_starting_lane_falls_back_without_flow_links() {
        // Lane 2 runs last but has no flow link; the walk must fall over to
        // lane 1's earlier activity instead of declaring everything wait.
        let p = Profile::build(&[span("a", 1, 0, 50), span("b", 2, 70, 30)]);
        assert_eq!(path_ns(&p, "b"), 30);
        assert_eq!(path_ns(&p, "a"), 50);
        assert_eq!(path_ns(&p, WAIT_LABEL), 20);
        let total: u64 = p.critical_path.iter().map(|e| e.ns).sum();
        assert_eq!(total, p.window_ns);
    }
}
