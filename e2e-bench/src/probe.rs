//! The host-speed probe: a fixed kernel of the benchmark's own, timed
//! after every item, so that the item timings can be reported at one
//! reference speed of the host.
//!
//! The benchmark runs on a VM whose host serves other tenants. How fast
//! the VM runs drifts over seconds and minutes, by up to 1.8x, and the
//! drift slows code that misses L2 and hits the shared L3 cache most: the
//! neighbours' load decides how much of the L3 stays ours. The pipeline
//! of the 1,200-row pool is such code, and so is the probe: random
//! read-modify-writes over a table of its own, twice the size of L2, so
//! that its accesses miss L2 whatever the item before it did. On
//! `dev-greedy` and `sc-vote`, where a register-only or an L1-resident
//! kernel barely moved, this one followed the items, though the items
//! slowed somewhat more than it did. Scaling each item by the probe's
//! slowdown around it about halved the spread of 10-second runs of
//! `items_per_s`. A 512 KiB table followed the items worse, because how
//! much of it the item left in L2 depended on the workload.
//!
//! The probe shares no code with the program, so a change to the program
//! moves the corrected figures as it moves the wall clock, as long as it
//! leaves the program's use of the L3 much as it was.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words of the probe's table: 4 MiB, twice the reference host's L2 and
/// far below its L3.
const TABLE_WORDS: usize = 1 << 19;
/// The table's resident bytes, which the process's peak RSS includes.
pub const TABLE_BYTES: usize = TABLE_WORDS * std::mem::size_of::<u64>();
/// Read-modify-writes per sample, about 40 us at the reference speed.
const UPDATES: u64 = 3_000;
/// A sample's time on the reference host running at full speed, as the
/// probe read in the fast phases of a 2-vCPU Intel Xeon VM at 2.0 GHz.
pub const REFERENCE_NS: f64 = 40_000.0;
/// Items whose probes set one correction factor: enough samples to
/// average out a single interrupted probe, few enough to follow a
/// drift that lasts a second.
const BLOCK_ITEMS: usize = 50;

pub struct HostProbe {
    table: Vec<u64>,
    state: u64,
}

impl HostProbe {
    pub fn new() -> Self {
        HostProbe {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            state: 1,
        }
    }

    /// Time one run of the kernel.
    pub fn sample(&mut self) -> u64 {
        let start = Instant::now();
        let mut x = self.state;
        for i in 0..UPDATES {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
            // The top 19 bits of an LCG step: a uniform table index.
            self.table[(x >> 45) as usize] ^= x;
        }
        self.state = black_box(x);
        start.elapsed().as_nanos() as u64
    }
}

/// How much faster than measured the host would have run the work timed
/// between probes whose mean time is `probe_ns`: below 1 when the host
/// was slower than the reference.
fn factor(probe_ns: f64) -> f64 {
    REFERENCE_NS / probe_ns
}

/// Each item's wall-clock time at the reference speed: scaled by the
/// factor of its block of [`BLOCK_ITEMS`] items, from the probes that
/// followed the items of that block.
pub fn corrected_items(item_ns: &[u64], probe_ns: &[u64]) -> Vec<u64> {
    assert_eq!(item_ns.len(), probe_ns.len(), "one probe after each item");
    item_ns
        .chunks(BLOCK_ITEMS)
        .zip(probe_ns.chunks(BLOCK_ITEMS))
        .flat_map(|(items, probes)| {
            let f = factor(mean(probes));
            items.iter().map(move |&ns| (ns as f64 * f).round() as u64)
        })
        .collect()
}

/// A set-up's wall-clock time at the reference speed, from the probes of
/// the block of items before it and the block after it. `at` is the
/// number of probes taken before the set-up began.
///
/// Probes in a row would find the table still in L2 and run several
/// times faster than the probes between items, so set-ups borrow those.
pub fn corrected_setup(wall: Duration, probe_ns: &[u64], at: usize) -> Duration {
    let window = &probe_ns[at.saturating_sub(BLOCK_ITEMS)..(at + BLOCK_ITEMS).min(probe_ns.len())];
    wall.mul_f64(factor(mean(window)))
}

fn mean(samples: &[u64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no probes");
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_scaled_by_its_own_probes() {
        let items = vec![1_000; BLOCK_ITEMS + 2];
        let mut probes = vec![REFERENCE_NS as u64 * 2; BLOCK_ITEMS];
        probes.extend([REFERENCE_NS as u64; 2]);
        let out = corrected_items(&items, &probes);
        assert!(out[..BLOCK_ITEMS].iter().all(|&ns| ns == 500));
        assert_eq!(out[BLOCK_ITEMS..], [1_000, 1_000]);
    }

    #[test]
    fn a_setup_takes_the_blocks_beside_it() {
        let r = REFERENCE_NS as u64;
        // A first block at twice, a second at four times the reference.
        let mut probes = vec![2 * r; BLOCK_ITEMS];
        probes.extend(vec![4 * r; BLOCK_ITEMS]);
        let wall = Duration::from_millis(300);
        assert_eq!(corrected_setup(wall, &probes, 0), wall / 2);
        assert_eq!(corrected_setup(wall, &probes, BLOCK_ITEMS), wall / 3);
        assert_eq!(corrected_setup(wall, &probes, 2 * BLOCK_ITEMS), wall / 4);
    }
}
