//! Open-loop load generation: requests are due on a seeded Poisson
//! schedule regardless of how fast earlier ones finish, and each is
//! timed from when it was *due*, so a stall is charged to every
//! request queued behind it instead of silently thinning the load.

use crate::stats::Rng;
use std::time::{Duration, Instant};

/// Due offsets of a Poisson process at `rate_per_s` over `window`,
/// from the generator's stream.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Due → completion, ns; `u64::MAX` when the request failed.
    pub latency_ns: u64,
    /// Due → start, ns: how late the generator sent it.
    pub lag_ns: u64,
}

/// Runs `schedule` open loop on `threads` generator threads. Request
/// `i` goes to thread `i % threads`, which sends its requests in order,
/// each no earlier than `epoch + schedule[i]`. `service(state, i, due)`
/// performs request `i` and reports success; `init(t)` builds thread
/// `t`'s state, which is returned with the timings (in request order).
pub fn run_open_loop<S: Send>(
    schedule: &[Duration],
    threads: usize,
    epoch: Instant,
    init: impl Fn(usize) -> S + Sync,
    service: impl Fn(&mut S, usize, Instant) -> bool + Sync,
) -> (Vec<Timing>, Vec<S>) {
    let threads = threads.max(1);
    let mut timings = vec![
        Timing {
            latency_ns: 0,
            lag_ns: 0,
        };
        schedule.len()
    ];
    let mut states = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (init, service) = (&init, &service);
                scope.spawn(move || {
                    let mut state = init(t);
                    let mut mine = Vec::new();
                    for i in (t..schedule.len()).step_by(threads) {
                        let due = epoch + schedule[i];
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let start = Instant::now();
                        let ok = service(&mut state, i, due);
                        let end = Instant::now();
                        mine.push((
                            i,
                            Timing {
                                latency_ns: if ok { nanos(end - due) } else { u64::MAX },
                                lag_ns: nanos(start.saturating_duration_since(due)),
                            },
                        ));
                    }
                    (state, mine)
                })
            })
            .collect();
        for h in handles {
            let (state, mine) = h.join().expect("load generator thread panicked");
            for (i, timing) in mine {
                timings[i] = timing;
            }
            states.push(state);
        }
    });
    (timings, states)
}

/// A duration in whole nanoseconds (saturating).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
