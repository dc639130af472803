//! The host-corrected clock.
//!
//! On a shared host, allocation-heavy code switches between speed
//! regimes that last for seconds, so a raw wall-clock rate measures the
//! host as much as the program. The benchmark therefore times a fixed
//! reference job between slices of consults: the job's speed tracks the
//! host's regime, and each slice's wall time is rescaled by
//! `R0_US / mean(reference before, reference after)`.
//!
//! The reference job must stay the same across commits, so it lives here
//! and uses nothing from the program under test. It must also not depend
//! on the state the workload leaves behind: it keeps its allocations
//! between runs, so a heap grown and fragmented by the workload does not
//! slow it, and each timing follows an untimed run, so it starts from
//! warm caches.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference job's nominal duration in microseconds. Corrected times
/// read as if every slice had run on a host where one reference job
/// takes exactly this long. A fixed constant: changing it rescales every
/// corrected figure.
pub const R0_US: f64 = 80.0;

/// The reference job: hash-map inserts and lookups plus buffer fills of
/// mixed sizes, the kinds of work a consult does. The map and buffers
/// are allocated on the first run and reused by later ones.
#[derive(Default)]
pub struct Reference {
    map: HashMap<u64, Vec<u64>>,
    buffers: Vec<Vec<u8>>,
}

impl Reference {
    /// One run of the job. Returns a checksum so the work cannot be
    /// optimised away; it is the same on every run.
    pub fn run(&mut self) -> u64 {
        for values in self.map.values_mut() {
            values.clear();
        }
        self.buffers.resize_with(64, Vec::new);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut sum = 0u64;
        for i in 0..1536u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.map.entry((state >> 33) % 384).or_default().push(i);
            let probe = self.map.get(&((state >> 20) % 384));
            sum = sum.wrapping_add(probe.map_or(0, |v| v.len() as u64));
            let buffer = &mut self.buffers[(state >> 40) as usize % 64];
            buffer.clear();
            buffer.resize(16 + (state >> 56) as usize, i as u8);
            sum = sum.wrapping_add(buffer[buffer.len() / 2] as u64);
        }
        black_box(sum)
    }

    /// Times the job, in microseconds: an untimed run warms the caches
    /// whatever ran before, then the faster of two timed runs is kept,
    /// so a single interrupt does not read as a slow host.
    pub fn time_us(&mut self) -> f64 {
        black_box(self.run());
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            black_box(self.run());
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    }
}

/// The factor that turns a raw duration measured between two reference
/// timings into a corrected one.
pub fn correction(before_us: f64, after_us: f64) -> f64 {
    R0_US / ((before_us + after_us) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_repeats() {
        let mut job = Reference::default();
        let first = job.run();
        assert_eq!(job.run(), first);
        assert_eq!(Reference::default().run(), first);
    }

    #[test]
    fn correction_scales_by_the_mean_reference() {
        assert!((correction(R0_US, R0_US) - 1.0).abs() < 1e-12);
        // A host running the reference at half speed halves the
        // corrected time of whatever ran between the two samples.
        assert!((correction(2.0 * R0_US, 2.0 * R0_US) - 0.5).abs() < 1e-12);
        assert!((correction(R0_US, 3.0 * R0_US) - 0.5).abs() < 1e-12);
    }
}
