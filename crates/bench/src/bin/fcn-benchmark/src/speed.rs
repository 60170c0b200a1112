//! A machine-speed yardstick for shared hosts.
//!
//! The 2-core measuring VM shares physical cores with other tenants, and
//! its speed drifts by up to 1.7× over seconds to minutes: ten 20 s runs of
//! `beta-native` read median iterations from 740 to 1226 ms. Raw wall time
//! therefore cannot separate two commits. Every end-to-end timing is
//! divided by this yardstick, measured next to it, and multiplied by the
//! yardstick's reference time, so the metrics read as milliseconds at the
//! reference speed. On 40 alternating pairs the ratio's spread was half of
//! the raw spread (0.068 vs 0.127), with block medians within ±2%.
//!
//! The yardstick is breadth-first search over fixed random 4-regular
//! graphs: the queue-driven, pointer-chasing kind of work that dominates
//! route planning and the tick loop. A pass searches two graphs for about
//! the same time each: one of 4096 nodes, which stays in cache like the
//! small machines of `table4-quick` and `serve-beta`, and one of 65 536
//! nodes, which does not, like the plan caches of the `beta-*` machines.
//! Co-tenants slow the two kinds of work by different amounts. Over two
//! ten-seed sets, scaling by either graph alone left one workload or
//! another with a spread near 0.1 (`table4-quick` by the large graph,
//! `serve-beta`'s capacity by the small one); the pair kept every spread
//! under 0.09. It is benchmark code, so a change to the program cannot
//! move it, and it is read only while no program thread runs.

use std::collections::VecDeque;
use std::hint::black_box;

use crate::stats::median;
use crate::trace::now;

/// Typical pass time on the calibration host, in ms: timings scale to it.
pub const REFERENCE_MS: f64 = 35.0;

const DEGREE: usize = 4;
/// `(nodes, BFS sources)` of each graph of a pass.
const GRAPHS: [(usize, u32); 2] = [(1 << 12, 200), (1 << 16, 12)];

/// One graph of the yardstick and its search buffers.
struct Graph {
    sources: u32,
    adj: Vec<u32>,
    dist: Vec<u32>,
    queue: VecDeque<u32>,
}

impl Graph {
    fn new(nodes: usize, sources: u32) -> Graph {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let adj = (0..nodes * DEGREE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % nodes as u64) as u32
            })
            .collect();
        Graph {
            sources,
            adj,
            dist: vec![u32::MAX; nodes],
            queue: VecDeque::with_capacity(nodes),
        }
    }

    fn search(&mut self) -> u64 {
        let mut total = 0u64;
        for src in 0..self.sources {
            self.dist.fill(u32::MAX);
            self.dist[src as usize] = 0;
            self.queue.push_back(src);
            while let Some(u) = self.queue.pop_front() {
                let du = self.dist[u as usize];
                for &v in &self.adj[u as usize * DEGREE..(u as usize + 1) * DEGREE] {
                    if self.dist[v as usize] == u32::MAX {
                        self.dist[v as usize] = du + 1;
                        self.queue.push_back(v);
                    }
                }
            }
            total += self.dist.iter().map(|&d| u64::from(d)).sum::<u64>();
        }
        total
    }
}

pub struct Yardstick {
    graphs: Vec<Graph>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            graphs: GRAPHS.iter().map(|&(n, s)| Graph::new(n, s)).collect(),
        }
    }

    fn pass(&mut self) -> u64 {
        self.graphs.iter_mut().map(Graph::search).sum()
    }

    /// Time of each of `passes` passes, in ms.
    fn times_ms(&mut self, passes: usize) -> Vec<f64> {
        (0..passes)
            .map(|_| {
                let t = now();
                black_box(self.pass());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }
}

/// Normalizes a sequence of timed operations: each operation is scaled by
/// the mean of the yardstick readings taken just before and just after it.
/// A reading runs one yardstick per core the operations keep busy, all at
/// once, and is the median of their pass times: work spread over two
/// threads is slowed by a host that runs this VM's two cores at half speed
/// each, and a one-thread reading does not see that.
pub struct Normalizer {
    yards: Vec<Yardstick>,
    passes: usize,
    last: f64,
    readings: Vec<f64>,
}

impl Normalizer {
    /// One-core readings of three passes (about 0.1 s), for operations of a
    /// second or more.
    pub fn start() -> Normalizer {
        Normalizer::with(1, 3)
    }

    /// One-core readings of one pass, cheap enough to take between the
    /// short pieces of a long operation.
    pub fn start_frequent() -> Normalizer {
        Normalizer::with(1, 1)
    }

    /// Two-core readings of three passes, for operations that keep two
    /// threads busy.
    pub fn start_two_cores() -> Normalizer {
        Normalizer::with(2, 3)
    }

    fn with(cores: usize, passes: usize) -> Normalizer {
        let mut norm = Normalizer {
            yards: (0..cores).map(|_| Yardstick::new()).collect(),
            passes,
            last: 0.0,
            readings: Vec::new(),
        };
        norm.last = norm.reading();
        norm.readings.push(norm.last);
        norm
    }

    fn reading(&mut self) -> f64 {
        let passes = self.passes;
        let times: Vec<f64> = match self.yards.as_mut_slice() {
            [one] => one.times_ms(passes),
            many => std::thread::scope(|scope| {
                let handles: Vec<_> = many
                    .iter_mut()
                    .map(|y| scope.spawn(move || y.times_ms(passes)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("yardstick thread"))
                    .collect()
            }),
        };
        median(&times)
    }

    /// Take a reading after an operation; returns the factor turning its
    /// time into time at the reference speed.
    pub fn after(&mut self) -> f64 {
        let next = self.reading();
        let factor = REFERENCE_MS / ((self.last + next) / 2.0);
        self.last = next;
        self.readings.push(next);
        factor
    }

    /// Median yardstick reading so far, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_is_deterministic_work() {
        let mut a = Yardstick::new();
        let mut b = Yardstick::new();
        assert_eq!(a.pass(), b.pass());
        assert!(a.times_ms(1)[0] > 0.0);
        for mut norm in [Normalizer::start_frequent(), Normalizer::start_two_cores()] {
            let factor = norm.after();
            let mean = (norm.readings[0] + norm.readings[1]) / 2.0;
            assert_eq!(factor, REFERENCE_MS / mean);
        }
    }
}
