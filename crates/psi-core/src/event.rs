//! Typed observability events.
//!
//! Every instrumented subsystem (the interpreter dispatch loop, the
//! cache-backed memory bus, the resource governor) emits the same
//! fixed-size [`ObsEvent`] record into a bounded ring buffer (the
//! `EventRing` in `psi-obs`). Events are pure `Copy` data: recording
//! one is a bit copy into pre-allocated storage, never a heap
//! allocation, so tracing can be left on around the hot path.

use std::fmt;

/// What an [`ObsEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One goal dispatch in the interpreter main loop.
    /// Payload: `a` = code pointer of the dispatched goal word.
    Dispatch,
    /// One counted memory access. Payload: `a` = cache command code
    /// (0 read, 1 write, 2 write-stack), `b` = memory-area index
    /// ([`crate::Area`] order), `c` = 1 on a cache hit, 0 on a miss.
    CacheAccess,
    /// One backtrack (a choice point was retried or discarded).
    /// Payload: `a` = choice points remaining afterwards.
    Backtrack,
    /// One periodic resource-governor budget check (every
    /// `GOVERNOR_INTERVAL` dispatches). No payload.
    GovernorCheck,
    /// A governor budget trip. Payload: `a` = exhausted resource code
    /// ([`crate::Resource::code`]).
    GovernorTrip,
    /// One first-argument index lookup at a call (only emitted when
    /// clause indexing is enabled). Payload: `a` = surviving candidate
    /// clauses, `b` = the predicate's total clauses, `c` = 1 when the
    /// single surviving candidate was entered without a choice point.
    IndexLookup,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Dispatch,
        EventKind::CacheAccess,
        EventKind::Backtrack,
        EventKind::GovernorCheck,
        EventKind::GovernorTrip,
        EventKind::IndexLookup,
    ];

    /// A short label, also the `Display` form.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::CacheAccess => "cache",
            EventKind::Backtrack => "backtrack",
            EventKind::GovernorCheck => "governor_check",
            EventKind::GovernorTrip => "governor_trip",
            EventKind::IndexLookup => "index_lookup",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observability event: a timestamped, fixed-size `Copy` record.
///
/// `step` is the microstep counter at the time of the event; the three
/// payload words are interpreted per [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Microstep at which the event occurred.
    pub step: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (meaning depends on `kind`).
    pub a: u32,
    /// Second payload word.
    pub b: u32,
    /// Third payload word.
    pub c: u32,
}

impl ObsEvent {
    /// A dispatch event at `step` for the goal word at `code_ptr`.
    pub fn dispatch(step: u64, code_ptr: u32) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::Dispatch,
            a: code_ptr,
            b: 0,
            c: 0,
        }
    }

    /// A cache access event: `command` code, `area` index, hit flag.
    pub fn cache_access(step: u64, command: u32, area: u32, hit: bool) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::CacheAccess,
            a: command,
            b: area,
            c: hit as u32,
        }
    }

    /// A backtrack event with `remaining` live choice points.
    pub fn backtrack(step: u64, remaining: u32) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::Backtrack,
            a: remaining,
            b: 0,
            c: 0,
        }
    }

    /// A periodic governor budget check.
    pub fn governor_check(step: u64) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::GovernorCheck,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    /// A governor budget trip on the resource with code `resource`.
    pub fn governor_trip(step: u64, resource: u32) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::GovernorTrip,
            a: resource,
            b: 0,
            c: 0,
        }
    }

    /// An index lookup that filtered `total` clauses down to
    /// `candidates`; `direct` marks a no-choice-point direct entry.
    pub fn index_lookup(step: u64, candidates: u32, total: u32, direct: bool) -> ObsEvent {
        ObsEvent {
            step,
            kind: EventKind::IndexLookup,
            a: candidates,
            b: total,
            c: direct as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn constructors_fill_payloads() {
        let e = ObsEvent::cache_access(7, 2, 1, true);
        assert_eq!(e.step, 7);
        assert_eq!(e.kind, EventKind::CacheAccess);
        assert_eq!((e.a, e.b, e.c), (2, 1, 1));
        assert_eq!(ObsEvent::backtrack(1, 3).a, 3);
        assert_eq!(ObsEvent::governor_trip(9, 0).kind, EventKind::GovernorTrip);
    }
}
