//! `allgatherv1024`: fig14's skewed volumes (64 B per rank, 64 KiB on one
//! seeded outlier rank) at N = 1024, under the baseline selector (total
//! size → ring) and the optimized one (outlier → recursive doubling).
//! Scheduler and mailbox bound: 1024 fibers, deep ready queues, and about
//! a million small messages per ring call.

use std::time::Instant;

use ncd_core::{AllgathervAlgorithm, Comm, MpiConfig};
use ncd_simnet::{Cluster, ClusterConfig};

use crate::rep::{Checks, RankOut, Rep};
use crate::spans::{Kind, Log, Tracer};
use crate::util::stream;
use crate::Workload;

const RANKS: usize = 1024;
const SMALL: usize = 64;
const OUTLIER: usize = 64 * 1024;
/// Calls per repetition under each selector. The ring calls are the slow
/// mode of the op distribution; at one in three, over the twelve or more
/// repetitions of a run, the tail percentile lands inside that mode and
/// the median outside it.
const RING_CALLS: usize = 1;
const RD_CALLS: usize = 2;

pub struct Allgatherv {
    counts: Vec<usize>,
    displs: Vec<usize>,
    /// The concatenation of every rank's seeded payload: what each
    /// receive buffer must hold.
    expected: Vec<u8>,
    jitter_seed: u64,
}

impl Allgatherv {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 2, 0);
        let mut counts = vec![SMALL; RANKS];
        counts[rng.below(RANKS)] = OUTLIER;
        let displs = counts
            .iter()
            .scan(0, |acc, &c| {
                *acc += c;
                Some(*acc - c)
            })
            .collect();
        let expected = rng.bytes(counts.iter().sum());
        Allgatherv {
            counts,
            displs,
            expected,
            jitter_seed: rng.next_u64(),
        }
    }

    fn calls(
        &self,
        comm: &mut Comm,
        t: &Tracer,
        n: usize,
        want: AllgathervAlgorithm,
        recv: &mut [u8],
        checks: &mut Checks,
    ) {
        let me = comm.rank();
        let send = &self.expected[self.displs[me]..self.displs[me] + self.counts[me]];
        for _ in 0..n {
            recv.fill(0);
            let algo = t.span("core.select_ns", Kind::Local, || {
                comm.allgatherv_choose(&self.counts)
            });
            checks.check(algo == want);
            let name = match algo {
                AllgathervAlgorithm::Ring => "core.coll.allgatherv_ns.ring",
                _ => "core.coll.allgatherv_ns.rd",
            };
            // Ranks enter each call together, so cluster-wide op spans
            // do not overlap.
            comm.barrier();
            t.op(|| {
                t.span(name, Kind::Parks, || {
                    comm.allgatherv(send, &self.counts, recv)
                })
            });
            checks.check(*recv == self.expected);
        }
    }
}

impl Workload for Allgatherv {
    fn rep(&self, traced: bool) -> Rep {
        let epoch = Instant::now();
        let cluster = Cluster::new(ClusterConfig::paper_testbed(RANKS).with_seed(self.jitter_seed));
        let run_start = epoch.elapsed().as_nanos() as u64;
        let ranks = cluster.run(|rank| {
            let t = Tracer::new(traced, epoch);
            let mut checks = Checks::default();
            // One receive buffer per rank, touched before the clock starts.
            let mut recv = vec![1u8; self.expected.len()];
            let mut comm = Comm::new(rank, MpiConfig::baseline());
            comm.barrier();
            comm.rank_mut().reset_clock();
            let setup = comm.rank_mut().take_stats();
            t.phase_start();
            self.calls(
                &mut comm,
                &t,
                RING_CALLS,
                AllgathervAlgorithm::Ring,
                &mut recv,
                &mut checks,
            );
            let mut comm = Comm::new(comm.rank_mut(), MpiConfig::optimized());
            self.calls(
                &mut comm,
                &t,
                RD_CALLS,
                AllgathervAlgorithm::RecursiveDoubling,
                &mut recv,
                &mut checks,
            );
            t.phase_end();
            RankOut {
                now: comm.rank_ref().now(),
                stats: comm.rank_mut().take_stats(),
                log: t.into_log(),
                setup,
                checks,
            }
        });
        let run_end = epoch.elapsed().as_nanos() as u64;
        Rep::from_run((run_start, run_end), &ranks, &Log::default())
    }
}
