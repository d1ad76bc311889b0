//! Injectable time sources for the telemetry plane.
//!
//! Telemetry timestamps (heartbeat times, per-reducer service durations)
//! are the one place the live-metrics plane legitimately touches a clock.
//! Instead of sprinkling wall-clock reads — and lint exemptions — through
//! the subsystem, every read goes through the [`Clock`] trait: production
//! attaches a [`MonotonicClock`], tests and the determinism audit attach a
//! [`VirtualClock`] whose time only moves when explicitly advanced.
//! [`MonotonicClock::new`] is the *only* telemetry site exempt from the
//! workspace's `clippy::disallowed_methods` ban on `Instant::now`; the
//! rest of `telemetry/` must stay clock-free.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source. Implementations must be cheap and
/// thread-safe — workers read the clock on reduce-service boundaries and
/// heartbeats.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds elapsed since the clock's epoch.
    fn now_nanos(&self) -> u64;
}

/// The production clock: monotonic time since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch (time zero) is the moment of creation.
    #[expect(
        clippy::disallowed_methods,
        reason = "the production telemetry clock; every other telemetry read goes through Clock"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A deterministic test clock: time stands still until [`VirtualClock::advance`]
/// (or [`VirtualClock::set`]) moves it. The determinism audit attaches one
/// so telemetry snapshots carry no wall-clock entropy.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock frozen at nanosecond 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jumps time to an absolute nanosecond offset.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_moves_only_on_demand() {
        let c = VirtualClock::new();
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 0, "time stands still");
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(3);
        assert_eq!(c.now_nanos(), 3);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> = vec![
            Box::new(MonotonicClock::new()),
            Box::new(VirtualClock::new()),
        ];
        for c in &clocks {
            let _ = c.now_nanos();
        }
    }
}
