//! Machine-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on shared virtual machines whose neighbours slow
//! every process on them, by up to 60% and for seconds to minutes at a
//! time (measured on a 2-vCPU VM: the same pass took 45 ms in one process
//! and 71 ms in the next, and a pure CPU loop swings alike). So after
//! every timed pass the run times a fixed kernel of its own for as long
//! as the pass took, and reports the pass at reference speed: its time
//! over the kernel's, times the kernel's time on the reference machine.
//! Contention that covers both windows cancels. The kernel shares no code
//! with the program, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

use simnet::rng::FxHashMap;

/// Kernel time on the reference machine (about its fastest run on a
/// 2-vCPU Xeon VM).
const NOMINAL_S: f64 = 0.005;
/// Random-walk table: 32 MB, past the last-level cache.
const TABLE: usize = 1 << 22;
/// Keys of the hash-map part.
const KEYS: u64 = 1 << 16;

pub struct Calibration {
    table: Vec<u64>,
    map: FxHashMap<u64, u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            table: vec![1; TABLE],
            map: (0..KEYS)
                .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k))
                .collect(),
        }
    }

    /// One kernel run: a dependent random walk over the table, a
    /// multiply chain and hash-map lookups.
    fn kernel(&mut self) {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut acc = 0u64;
        for i in 0..150_000u64 {
            let j = (xorshift(&mut x) as usize) & (TABLE - 1);
            self.table[j] = self.table[j].wrapping_add(i);
        }
        for i in 0..300_000u64 {
            acc = acc.wrapping_mul(xorshift(&mut x) | 1).wrapping_add(i);
        }
        for _ in 0..100_000u64 {
            let k = (xorshift(&mut x) % KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(0));
        }
        black_box(acc);
    }

    /// Run the kernel back to back for at least `seconds` (at least once)
    /// and return the mean time per run. A block as long as the pass
    /// before it sees a like mix of slow and fast moments.
    pub fn block(&mut self, seconds: f64) -> f64 {
        let t0 = Instant::now();
        let mut runs = 0u32;
        let elapsed = loop {
            self.kernel();
            runs += 1;
            let e = t0.elapsed().as_secs_f64();
            if e >= seconds {
                break e;
            }
        };
        elapsed / f64::from(runs)
    }

    /// `raw_s`, measured just before a block whose kernel runs took
    /// `kernel_s` each, at reference speed.
    pub fn to_reference(raw_s: f64, kernel_s: f64) -> f64 {
        raw_s / kernel_s * NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_report_time_per_kernel_run() {
        let mut c = Calibration::new();
        let one = c.block(0.0);
        let t0 = Instant::now();
        let per_run = c.block(4.0 * one);
        let whole = t0.elapsed().as_secs_f64();
        assert!(one > 0.0 && per_run > 0.0);
        assert!(whole >= 4.0 * one);
        assert!(per_run <= whole);
        assert_eq!(Calibration::to_reference(2.0 * one, one), 2.0 * NOMINAL_S);
    }
}
