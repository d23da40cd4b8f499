//! Span self-time arithmetic and the Chrome export.

use facade_benchmark::trace::{Span, SpanId, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>, tid: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        rep: 3,
        tid,
    }
}

/// root 0..100 with children 10..40 (which has a grandchild 20..30) and
/// 50..90.
fn sequential_tree() -> (Tracer, [SpanId; 4]) {
    let mut t = Tracer::new();
    let root = t.push(span("job.facade", 0, 100, None, 0));
    let a = t.push(span("layer.a", 10, 40, Some(root), 0));
    let b = t.push(span("layer.b", 50, 90, Some(root), 0));
    let a1 = t.push(span("layer.a1", 20, 30, Some(a), 0));
    (t, [root, a, b, a1])
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let (t, [root, a, b, a1]) = sequential_tree();
    assert_eq!(t.covered_ns(root), 70);
    assert_eq!(t.self_ns(root), 30);
    assert_eq!(t.self_ns(a), 20);
    assert_eq!(t.self_ns(b), 40);
    assert_eq!(t.self_ns(a1), 10);
    assert_eq!(t.self_times_ns(), vec![30, 20, 40, 10]);
}

#[test]
fn children_never_exceed_their_parent_and_self_times_sum_to_the_root() {
    let (t, [root, ..]) = sequential_tree();
    for id in 0..t.spans().len() {
        assert!(t.covered_ns(id) <= t.spans()[id].duration_ns());
    }
    let total: u64 = t.self_times_ns().iter().sum();
    assert_eq!(total, t.spans()[root].duration_ns());
}

#[test]
fn concurrent_children_count_their_union_once() {
    let mut t = Tracer::new();
    let root = t.push(span("job.facade", 0, 100, None, 0));
    t.push(span("server.session", 10, 60, Some(root), 0));
    t.push(span("server.session", 40, 90, Some(root), 1));
    assert_eq!(t.covered_ns(root), 80);
    assert_eq!(t.self_ns(root), 20);
}

#[test]
fn a_child_outliving_its_parent_is_clipped() {
    let mut t = Tracer::new();
    let root = t.push(span("job.heap", 100, 200, None, 0));
    t.push(span("late", 150, 260, Some(root), 0));
    t.push(span("early", 40, 120, Some(root), 0));
    assert_eq!(t.covered_ns(root), 70);
    assert_eq!(t.self_ns(root), 30);
}

#[test]
fn live_spans_nest_and_close() {
    let mut t = Tracer::new();
    let root = t.begin("job.facade", None, 7, 0);
    let value = t.child("layer.call", root, || 41 + 1);
    t.end(root);
    assert_eq!(value, 42);
    let [r, c] = [&t.spans()[0], &t.spans()[1]];
    assert_eq!((c.parent, c.rep, c.tid), (Some(root), 7, 0));
    assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    assert_eq!(t.durations_ns("layer.call").len(), 1);
    assert_eq!(t.ids("job.facade"), vec![root]);
}

#[test]
fn absorbing_a_client_tracer_reparents_its_roots() {
    let mut main = Tracer::new();
    let root = main.push(span("job.facade", 0, 100, None, 0));
    let mut client = Tracer::with_origin(main.origin());
    let session = client.push(span("server.session", 5, 95, None, 1));
    client.push(span("server.submit", 10, 20, Some(session), 1));
    main.absorb(client, Some(root));
    let spans = main.spans();
    assert_eq!(
        spans[1].parent,
        Some(root),
        "client root hangs under the leg"
    );
    assert_eq!(spans[2].parent, Some(1), "inner links are shifted");
    assert_eq!(main.covered_ns(root), 90);
}

#[test]
fn chrome_export_is_valid_json_with_one_event_per_span() {
    let (t, _) = sequential_tree();
    let doc = metrics::json::parse(&t.to_chrome_json()).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(metrics::json::Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), 4);
    let first = &events[0];
    assert_eq!(
        first.get("name").and_then(metrics::json::Json::as_str),
        Some("job.facade")
    );
    assert_eq!(
        first.get("ph").and_then(metrics::json::Json::as_str),
        Some("X")
    );
    let args = first.get("args").expect("args");
    assert_eq!(
        args.get("rep").and_then(metrics::json::Json::as_u64),
        Some(3)
    );
    assert_eq!(
        args.get("self_us").and_then(metrics::json::Json::as_f64),
        Some(0.03)
    );
}
