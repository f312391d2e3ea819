//! Span self time with nested, overlapping and overhanging children.

use psi_benchmark::trace::{layer_totals, self_times, Span, Tracer};
use std::time::{Duration, Instant};

fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        op: 0,
        parent,
        start_ns,
        end_ns,
        shadow: false,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span("root", None, 0, 100),
        span("a", Some(0), 10, 30),
        span("b", Some(0), 20, 50), // overlaps a: union 10..50
        span("c", Some(0), 60, 70),
        span("d", Some(0), 90, 120), // overhangs the parent: 90..100 counts
        span("a.inner", Some(1), 12, 18), // a grandchild: a's, not root's
        span("other", None, 0, 40),  // another root: no effect on root
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[0], 100 - (40 + 10 + 10));
    assert_eq!(selfs[1], 20 - 6);
    assert_eq!(selfs[2], 30);
    assert_eq!(selfs[5], 6);
    assert_eq!(selfs[6], 40);
}

#[test]
fn children_covering_the_parent_leave_no_self_time() {
    let spans = [
        span("root", None, 0, 10),
        span("x", Some(0), 0, 10),
        span("y", Some(0), 0, 10),
    ];
    assert_eq!(self_times(&spans), vec![0, 10, 10]);
}

#[test]
fn totals_group_spans_by_name() {
    let spans = [
        span("op", None, 0, 10),
        span("solve", Some(0), 2, 6),
        span("op", None, 10, 30),
        span("solve", Some(2), 10, 30),
    ];
    let t = layer_totals(&spans);
    assert_eq!(t["op"].count, 2);
    assert_eq!(t["op"].self_ns, 6);
    assert_eq!(t["solve"].total_ns, 24);
}

#[test]
fn a_disabled_tracer_records_nothing_and_per_thread_tracers_merge() {
    let mut off = Tracer::off();
    let id = off.begin("x", 0, None);
    off.end(id);
    assert!(id.is_none() && off.spans().is_empty());
    assert_eq!(off.shadow("s", 0, || 1), None);

    let epoch = Instant::now();
    let mut main = Tracer::on(epoch, 8);
    let root = main.begin("root", 0, None);
    main.end(root);
    let mut worker = Tracer::on(epoch, 8);
    let parent = worker.begin("request", 1, None);
    worker.record("gen.lag", 1, parent, epoch, epoch + Duration::from_nanos(5));
    worker.end(parent);
    main.absorb(worker);
    assert_eq!(main.spans().len(), 3);
    assert_eq!(main.spans()[2].parent, Some(1), "parent links are rebased");
}

#[test]
fn a_full_buffer_counts_dropped_spans() {
    let mut t = Tracer::on(Instant::now(), 2);
    for _ in 0..5 {
        let id = t.begin("x", 0, None);
        t.end(id);
    }
    assert_eq!(t.spans().len(), 2);
    assert_eq!(t.dropped(), 3);
}
