//! A fixed piece of std-only work, timed between the ops, that says how fast
//! the host is running this process right now.
//!
//! This sandbox's host slows the VM down by 10–40 % in bursts of 0.05–1 s
//! and in phases of minutes (README "Evidence"). The slow-down is common to
//! everything the process does, so a latency divided by the time the same
//! CPU needed, just before and after, for work that never changes repeats
//! far better than the latency itself.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one sample takes when the host runs at the speed the workloads' op
/// counts were sized on. Scaled times are times at this speed.
pub const NOMINAL_NS: f64 = 400_000.0;

const ENTRIES: u64 = 50_000;
const PAYLOAD: usize = 128;

/// Three kinds of work a sharding kernel and its engines are made of, none
/// of it this repository's code and none of it a system call: allocating
/// lookups (hash map of strings, B-tree of vectors, `format!`), lookups and
/// copies without allocation (random over a few megabytes, so the caches
/// matter), and pure integer arithmetic (so the clock frequency does). One
/// kind alone tracks some workloads and not others.
pub struct Reference {
    strings: HashMap<u64, String>,
    vectors: BTreeMap<u64, Vec<u64>>,
    payloads: HashMap<u64, [u8; PAYLOAD]>,
    ordered: BTreeMap<u64, u64>,
    state: u64,
}

fn mix(x: u64) -> u64 {
    (x ^ (x >> 31))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

impl Reference {
    pub fn new() -> Self {
        let mut reference = Reference {
            strings: HashMap::new(),
            vectors: BTreeMap::new(),
            payloads: HashMap::new(),
            ordered: BTreeMap::new(),
            state: 1,
        };
        for i in 0..ENTRIES {
            reference.strings.insert(i, format!("{i:0100}"));
            reference.vectors.insert(i, vec![i; 8]);
            reference.payloads.insert(i, [i as u8; PAYLOAD]);
            reference.ordered.insert(mix(i), i);
        }
        reference
    }

    fn allocating_lookups(&mut self) -> u64 {
        let mut acc = 0;
        for _ in 0..1000 {
            self.state = mix(self.state);
            let key = self.state % ENTRIES;
            let text = self.strings[&key].clone();
            acc += text.len() + self.vectors[&key].len() + format!("{key}").len();
            black_box(&text);
        }
        acc as u64
    }

    fn plain_lookups(&mut self) -> u64 {
        let mut acc = 0;
        for _ in 0..600 {
            self.state = mix(self.state);
            let payload = self.payloads[&(self.state % ENTRIES)];
            let below = self.ordered.range(..=self.state).next_back();
            acc += payload.iter().map(|b| *b as u64).sum::<u64>() + below.map_or(0, |(_, v)| *v);
        }
        acc
    }

    fn arithmetic(&mut self) -> u64 {
        for i in 0..150_000 {
            self.state = mix(self.state ^ i);
        }
        self.state
    }

    /// Run the fixed work once; returns the geometric mean of the time its
    /// three parts took, in nanoseconds.
    pub fn sample_ns(&mut self) -> f64 {
        let mut product = 1.0;
        for part in [
            Self::allocating_lookups,
            Self::plain_lookups,
            Self::arithmetic,
        ] {
            let started = Instant::now();
            black_box(part(self));
            product *= started.elapsed().as_nanos() as f64;
        }
        product.cbrt()
    }
}

/// Host speed over `samples` relative to nominal: a time measured beside
/// them, times this, is the time at nominal speed.
pub fn speed(samples: &[f64]) -> f64 {
    NOMINAL_NS * samples.len() as f64 / samples.iter().sum::<f64>()
}
