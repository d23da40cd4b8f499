//! Buffer-cap enforcement, isolated in its own test binary.
//!
//! The cap and dropped-event counter are process-global, so exercising a
//! small cap would race with the crate's concurrently-running unit tests if
//! this lived in `src/lib.rs`. Integration test binaries run as separate
//! processes, and this one holds all its assertions in a single `#[test]`
//! so nothing else touches the cap mid-flight.

#[test]
fn cap_drops_excess_events_and_counts_them() {
    facade_trace::set_enabled(true);
    facade_trace::reset();
    facade_trace::set_buffer_capacity(8);

    for i in 0..20u64 {
        facade_trace::instant("capped", &[("i", i.into())]);
    }

    let events = facade_trace::drain();
    let recorded = events.iter().filter(|e| e.name == "capped").count();
    assert_eq!(recorded, 8, "buffer holds exactly the cap");

    // take_events_dropped hands the overflow count over exactly once.
    assert_eq!(
        facade_trace::take_events_dropped(),
        12,
        "overflow is counted"
    );
    assert_eq!(facade_trace::take_events_dropped(), 0);

    // A drain empties the buffer, so the thread records again afterwards.
    facade_trace::instant("after_drain", &[]);
    let events = facade_trace::drain();
    assert!(events.iter().any(|e| e.name == "after_drain"));
    assert_eq!(facade_trace::take_events_dropped(), 0);

    // Capacity 0 clamps to 1: the thread can still record one event.
    facade_trace::set_buffer_capacity(0);
    facade_trace::instant("floor_first", &[]);
    facade_trace::instant("floor_second", &[]);
    let events = facade_trace::drain();
    assert!(
        events.iter().any(|e| e.name == "floor_first"),
        "cap 0 clamps to 1, not to unrecordable"
    );
    assert!(!events.iter().any(|e| e.name == "floor_second"));
    assert_eq!(facade_trace::take_events_dropped(), 1);

    // The cap is per thread-local buffer, not global: a second thread gets
    // its own headroom even when the first thread's buffer is full.
    facade_trace::set_buffer_capacity(4);
    for _ in 0..6 {
        facade_trace::instant("main_thread", &[]);
    }
    std::thread::spawn(|| {
        for _ in 0..3 {
            facade_trace::instant("worker_thread", &[]);
        }
    })
    .join()
    .unwrap();
    let events = facade_trace::drain();
    assert_eq!(events.iter().filter(|e| e.name == "main_thread").count(), 4);
    assert_eq!(
        events.iter().filter(|e| e.name == "worker_thread").count(),
        3,
        "sibling threads are capped independently"
    );
    assert_eq!(facade_trace::take_events_dropped(), 2);

    facade_trace::set_buffer_capacity(facade_trace::DEFAULT_BUFFER_CAP);
}
