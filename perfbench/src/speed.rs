//! Host-speed calibration. On a shared host the same binary runs up to
//! twice as slow for minutes at a time: neighbours on the same physical
//! core contend for its branch predictors, caches and execution units,
//! and the process loses no CPU time it could see. A fixed reference loop,
//! sampled between repetitions, measures how fast the host is at that
//! moment, so repetition times can be reported as seconds on a host
//! running at reference speed.
//!
//! The loop is the benchmark's own code. Nothing in the workspace crates
//! changes its speed, so a change to the simulator moves the normalised
//! times by the same factor as the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`Calibrator::sample`] takes on the reference host: the
/// 2-CPU "Intel(R) Xeon(R) Processor" container the bounds were set on,
/// when it was quiet. Only ratios to it are reported, so its exact value
/// matters for no comparison between two runs.
pub const REFERENCE_S: f64 = 0.025;

/// Keys sorted per round.
const SORT_LEN: usize = 4096;
/// Sorting rounds per sample.
const SORT_ROUNDS: usize = 160;
/// Hash-map updates per sample.
const MAP_UPDATES: usize = 240_000;
/// Distinct hash-map keys.
const MAP_KEYS: u64 = 1 << 14;

/// The reference loop and its buffers.
pub struct Calibrator {
    keys: Vec<u32>,
    map: HashMap<u64, u64>,
    state: u64,
}

impl Calibrator {
    /// A calibrator with its buffers allocated and warmed by one sample.
    pub fn new() -> Self {
        let mut c = Self {
            keys: Vec::with_capacity(SORT_LEN),
            map: HashMap::with_capacity(MAP_KEYS as usize),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        c.sample();
        c
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Runs the loop once and returns its host seconds. It sorts random
    /// keys and updates a hash map with random keys: data-dependent
    /// branches, hashing and scattered loads, the kind of work the
    /// simulator's event loop does and the kind a busy neighbour slows.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..SORT_ROUNDS {
            self.keys.clear();
            for _ in 0..SORT_LEN {
                let k = self.next() as u32;
                self.keys.push(k);
            }
            self.keys.sort_unstable();
            black_box(&self.keys);
        }
        self.map.clear();
        for _ in 0..MAP_UPDATES {
            let x = self.next();
            *self.map.entry(x % MAP_KEYS).or_default() += x;
        }
        black_box(&self.map);
        start.elapsed().as_secs_f64()
    }
}
