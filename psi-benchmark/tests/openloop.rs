//! Open-loop timing charges a stall to the requests queued behind it.

use psi_benchmark::openloop::{poisson_schedule, run_open_loop};
use psi_benchmark::stats::Rng;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(200);

#[test]
fn a_stalled_request_delays_every_request_behind_it() {
    // One generator thread, requests due every 10 ms; the first one's
    // service stalls for 200 ms, the rest are instant.
    let schedule: Vec<Duration> = (0..5).map(|i| Duration::from_millis(10 * i)).collect();
    let (timings, _) = run_open_loop(
        &schedule,
        1,
        Instant::now(),
        |_| (),
        |(), i, _| {
            if i == 0 {
                std::thread::sleep(STALL);
            }
            true
        },
    );
    assert!(timings[0].latency_ns >= STALL.as_nanos() as u64);
    for (i, t) in timings.iter().enumerate().skip(1) {
        // Due at 10·i ms, sent only after the stall ended at 200 ms.
        let waited = STALL - schedule[i];
        assert!(
            t.latency_ns >= waited.as_nanos() as u64,
            "request {i}: latency {} ns does not include its {waited:?} wait",
            t.latency_ns
        );
        assert!(
            t.lag_ns >= waited.as_nanos() as u64,
            "request {i}: lag {}",
            t.lag_ns
        );
    }
}

#[test]
fn a_second_thread_is_not_charged_for_the_first_ones_stall() {
    let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
    let (timings, _) = run_open_loop(
        &schedule,
        2,
        Instant::now(),
        |_| (),
        |(), i, _| {
            if i == 0 {
                std::thread::sleep(STALL);
            }
            true
        },
    );
    // Requests 1 and 3 went to the other thread.
    assert!(timings[2].latency_ns >= (STALL - schedule[2]).as_nanos() as u64);
    assert!(timings[1].latency_ns < (STALL / 2).as_nanos() as u64);
    assert!(timings[3].latency_ns < (STALL / 2).as_nanos() as u64);
}

#[test]
fn failures_read_as_infinite_latency() {
    let schedule = vec![Duration::ZERO; 3];
    let (timings, _) = run_open_loop(&schedule, 1, Instant::now(), |_| (), |(), i, _| i != 1);
    assert_eq!(timings[1].latency_ns, u64::MAX);
    assert!(timings[0].latency_ns < u64::MAX && timings[2].latency_ns < u64::MAX);
}

#[test]
fn the_schedule_is_seeded_and_has_the_requested_rate() {
    let window = Duration::from_secs(100);
    let a = poisson_schedule(&mut Rng::new(7), 50.0, window);
    assert_eq!(a, poisson_schedule(&mut Rng::new(7), 50.0, window));
    assert_ne!(a, poisson_schedule(&mut Rng::new(8), 50.0, window));
    // 5000 expected arrivals; a Poisson count is within 5 sigma.
    assert!((4650..=5350).contains(&a.len()), "{} arrivals", a.len());
    assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < window);
}
