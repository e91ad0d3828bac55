//! Host-speed probe: a fixed single-thread reference loop run between the
//! benchmark's queries and set-ups.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! a fifth or more over minutes, for every program alike. Each phase
//! interleaves probe slices with its queries (a fixed share of its busy
//! time) and reports its times scaled to a host that runs the probe at
//! [`NOMINAL_RATE`]: a time `t` measured while the probe ran at rate `r`
//! is reported as `t * r / NOMINAL_RATE`. The probe runs only while the
//! program under test is idle between queries, and its code is the
//! benchmark's own, so a change to the program moves the scaled times
//! exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// Probe iterations per second of the reference host; scaled times read as
/// if measured there.
pub const NOMINAL_RATE: f64 = 3.0e8;
/// Probe time per unit of measured time.
pub const PROBE_SHARE: f64 = 0.2;
/// Iterations of one probe slice (about 0.2 ms on the reference host).
pub const SLICE_ITERS: u32 = 1 << 16;
/// Slices a phase runs at least, so that short phases still estimate the
/// host's speed from many samples.
pub const MIN_SLICES: usize = 32;
/// Entries of the probe's table (8 KiB of `u64`): it stays in the L1 cache
/// whatever the program under test did to the caches before a slice, so the
/// probe's speed depends on the host alone.
const TABLE_LEN: usize = 1 << 10;

/// The probe: a xorshift generator updating random entries of a table.
pub struct HostProbe {
    table: Vec<u64>,
    state: u64,
    /// Iterations per second of every slice run so far.
    rates: Vec<f64>,
    /// Seconds spent in slices.
    busy_s: f64,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self {
            table: (0..TABLE_LEN as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            rates: Vec::new(),
            busy_s: 0.0,
        }
    }
}

impl HostProbe {
    /// Runs one slice and records its rate.
    pub fn slice(&mut self) {
        let start = Instant::now();
        let mut x = self.state;
        for _ in 0..SLICE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_LEN - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.state = black_box(x);
        black_box(&self.table);
        let secs = start.elapsed().as_secs_f64();
        self.busy_s += secs;
        self.rates.push(f64::from(SLICE_ITERS) / secs.max(1e-9));
    }

    /// Runs slices until the probe has spent [`PROBE_SHARE`] of `measured_s`
    /// and run at least [`MIN_SLICES`] slices.
    pub fn keep_up(&mut self, measured_s: f64) {
        while self.busy_s < PROBE_SHARE * measured_s || self.rates.len() < MIN_SLICES {
            self.slice();
        }
    }

    /// Median iterations per second over every slice run.
    pub fn rate(&self) -> f64 {
        median(&mut self.rates.clone())
    }

    /// The factor that scales a time measured alongside this probe to the
    /// reference host: `rate / NOMINAL_RATE` (1 before any slice ran).
    pub fn time_scale(&self) -> f64 {
        if self.rates.is_empty() {
            1.0
        } else {
            self.rate() / NOMINAL_RATE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_up_with_its_share_and_minimum() {
        let mut p = HostProbe::default();
        assert_eq!(p.time_scale(), 1.0);
        p.keep_up(0.0);
        assert_eq!(p.rates.len(), MIN_SLICES);
        let measured_s = p.busy_s * 2.0 / PROBE_SHARE;
        p.keep_up(measured_s);
        assert!(p.busy_s >= PROBE_SHARE * measured_s);
        assert!(p.rates.len() > MIN_SLICES);
        assert!(p.rate() > 0.0 && p.time_scale() > 0.0);
    }
}
