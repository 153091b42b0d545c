//! `amr_observed`: ext_amr_skew's moving refinement hotspot at 64 ranks
//! under both alltoallw schedules, then the skewed-allgatherv diagnosis
//! loop, with every observer on (trace, metrics, comm map, history,
//! profiling), followed by the offline pipeline a user runs: take and
//! merge, `diagnose`, critical path, the JSON exports and a ledger write
//! to a scratch root. The only workload where the observers run.

use std::path::PathBuf;
use std::time::Instant;

use ncd_core::{AllgathervAlgorithm, Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{
    analysis_json, attribute_rounds, chrome_trace_json, comm_matrix_json, diagnose, diagnosis_json,
    history_json, merge_comm_maps, merge_histories, metrics_json, profile_json, write_run, Cluster,
    ClusterConfig, HbGraph, MetricsRegistry, Profiler, RankCommMap, RankHistory, TraceEvent,
};

use crate::rep::{Checks, RankOut, Rep};
use crate::spans::{Kind, Tracer};
use crate::util::stream;
use crate::Workload;

const RANKS: usize = 64;
/// AMR steps per alltoallw schedule; one step is one op.
const STEPS: usize = 20;
const DEPTH: u32 = 2;
const BASE_CELLS: u64 = 2_000;
/// Skewed allgatherv calls of the diagnosis loop, and the hotspot's extra
/// compute before each (ext_amr_skew's diagnosis phase).
const DIAG_CALLS: usize = 4;
const DIAG_FLOPS: u64 = 20_000_000;
const DIAG_SMALL: usize = 64;
const DIAG_OUTLIER: usize = 64 * 1024;

/// Everything the observers recorded on one rank.
type Observed = (
    Vec<TraceEvent>,
    MetricsRegistry,
    RankCommMap,
    RankHistory,
    Profiler,
);

pub struct Amr {
    seed: u64,
    /// Hotspot rank of every step.
    spots: Vec<usize>,
    /// The rank that computes longest and contributes the outlier volume
    /// in the diagnosis loop.
    outlier: usize,
    counts: Vec<usize>,
    displs: Vec<usize>,
    expected: Vec<u8>,
    jitter_seed: u64,
    ledger: PathBuf,
}

fn level(rank: usize, spot: usize, n: usize) -> u32 {
    let d = rank.abs_diff(spot).min(n - rank.abs_diff(spot));
    DEPTH.saturating_sub(d as u32)
}

fn cells(rank: usize, spot: usize) -> usize {
    16usize << (2 * level(rank, spot, RANKS))
}

fn doubles(n: usize) -> Datatype {
    Datatype::contiguous(n, &Datatype::double()).expect("contiguous doubles")
}

impl Amr {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 4, 0);
        // ext_amr_skew's path (five ranks per step) from a seeded start.
        let start = rng.below(RANKS);
        let spots = (0..STEPS).map(|s| (start + s * 5) % RANKS).collect();
        // The testbed's upper half runs slower; an outlier drawn from the
        // lower half keeps the makespan from jumping with the seed.
        let outlier = rng.below(RANKS / 2);
        let mut counts = vec![DIAG_SMALL; RANKS];
        counts[outlier] = DIAG_OUTLIER;
        let displs = counts
            .iter()
            .scan(0, |acc, &c| {
                *acc += c;
                Some(*acc - c)
            })
            .collect();
        Amr {
            seed,
            spots,
            outlier,
            expected: rng.bytes(counts.iter().sum()),
            counts,
            displs,
            jitter_seed: rng.next_u64(),
            ledger: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(".scratch")
                .join(format!("ledger-{}", std::process::id())),
        }
    }

    /// The boundary payload `rank` sends in `step`.
    fn payload(&self, rank: usize, step: usize) -> Vec<u8> {
        stream(self.seed, 5, (rank * STEPS + step) as u64).bytes(cells(rank, self.spots[step]) * 8)
    }

    /// One AMR step: hotspot compute, then the boundary alltoallw with
    /// both ring neighbours.
    fn step(&self, comm: &mut Comm, t: &Tracer, step: usize, checks: &mut Checks) {
        let (me, n) = (comm.rank(), comm.size());
        let spot = self.spots[step];
        let (succ, pred) = ((me + 1) % n, (me + n - 1) % n);
        let (sc, pc) = (cells(succ, spot), cells(pred, spot));
        let (sends, recvs) = t.span("datatype.build_ns", Kind::Local, || {
            let empty = WPeer::new(0, 0, doubles(0));
            let mut sends = vec![empty; n];
            let mut recvs = sends.clone();
            let mine = doubles(cells(me, spot));
            sends[succ] = WPeer::new(0, 1, mine.clone());
            sends[pred] = WPeer::new(0, 1, mine);
            recvs[succ] = WPeer::new(0, 1, doubles(sc));
            recvs[pred] = WPeer::new(sc * 8, 1, doubles(pc));
            (sends, recvs)
        });
        let sendbuf = self.payload(me, step);
        let mut recvbuf = vec![0u8; (sc + pc) * 8];
        t.op(|| {
            comm.rank_mut()
                .compute_flops(BASE_CELLS << (2 * level(me, spot, n)));
            t.span("core.coll.alltoallw_ns", Kind::Parks, || {
                comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs)
            })
        });
        checks.check(
            recvbuf[..sc * 8] == self.payload(succ, step)[..]
                && recvbuf[sc * 8..] == self.payload(pred, step)[..],
        );
    }

    /// The diagnosis loop: the outlier enters every allgatherv late with
    /// the outlier volume, and the baseline selector picks the ring.
    fn diagnosis_loop(&self, comm: &mut Comm, t: &Tracer, checks: &mut Checks) {
        let me = comm.rank();
        let send = &self.expected[self.displs[me]..self.displs[me] + self.counts[me]];
        for _ in 0..DIAG_CALLS {
            if me == self.outlier {
                comm.rank_mut().compute_flops(DIAG_FLOPS);
            }
            let algo = t.span("core.select_ns", Kind::Local, || {
                comm.allgatherv_choose(&self.counts)
            });
            checks.check(algo == AllgathervAlgorithm::Ring);
            let mut recv = vec![0u8; self.expected.len()];
            t.span("core.coll.allgatherv_ns.ring", Kind::Parks, || {
                comm.allgatherv(send, &self.counts, &mut recv)
            });
            checks.check(recv == self.expected);
        }
    }

    fn run(&self, observed: bool, traced: bool) -> Rep {
        let epoch = Instant::now();
        let cluster = Cluster::new(ClusterConfig::paper_testbed(RANKS).with_seed(self.jitter_seed));
        let run_start = epoch.elapsed().as_nanos() as u64;
        let out = cluster.run(|rank| {
            let t = Tracer::new(traced, epoch);
            let mut checks = Checks::default();
            if observed {
                rank.enable_tracing();
                rank.enable_metrics();
                rank.enable_history();
                rank.enable_profiling();
            }
            let mut comm = Comm::new(rank, MpiConfig::baseline());
            comm.barrier();
            comm.rank_mut().reset_clock();
            let setup = comm.rank_mut().take_stats();
            if observed {
                // Drop the warm-up barrier from every observer.
                take(comm.rank_mut());
            }
            t.phase_start();
            for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
                let mut comm = Comm::new(comm.rank_mut(), cfg);
                for step in 0..STEPS {
                    self.step(&mut comm, &t, step, &mut checks);
                }
            }
            self.diagnosis_loop(&mut comm, &t, &mut checks);
            let now = comm.rank_ref().now();
            let stats = comm.rank_mut().take_stats();
            let recorded = observed.then(|| {
                t.span("simnet.observe.take_merge_ns", Kind::Local, || {
                    take(comm.rank_mut())
                })
            });
            if !observed {
                t.phase_end();
            }
            (
                RankOut {
                    log: t.into_log(),
                    now,
                    setup,
                    stats,
                    checks,
                },
                recorded,
            )
        });
        let run_end = epoch.elapsed().as_nanos() as u64;
        let (ranks, recorded): (Vec<RankOut>, Vec<Option<Observed>>) = out.into_iter().unzip();
        let x = Tracer::new(traced, epoch);
        let mut checks = Checks::default();
        let mut counts = Vec::new();
        if observed {
            let recorded: Vec<Observed> = recorded.into_iter().flatten().collect();
            counts = self.offline(&x, recorded, &mut checks);
            x.phase_end();
        }
        let mut rep = Rep::from_run((run_start, run_end), &ranks, &x.into_log());
        rep.checks.add(checks);
        rep.exact.extend(counts);
        rep
    }

    /// The offline pipeline over one observed run; returns its exact
    /// counts (events recorded, bytes exported).
    fn offline(
        &self,
        x: &Tracer,
        recorded: Vec<Observed>,
        checks: &mut Checks,
    ) -> Vec<(&'static str, u64)> {
        let (traces, metrics, map, history, profile) =
            x.span("simnet.observe.take_merge_ns", Kind::Local, || {
                let mut traces = Vec::new();
                let mut metrics = MetricsRegistry::enabled();
                let mut maps = Vec::new();
                let mut histories = Vec::new();
                let mut profile = Profiler::new();
                for (tr, m, map, h, p) in recorded {
                    traces.push(tr);
                    metrics.merge(&m);
                    maps.push(map);
                    histories.push(h);
                    profile.merge(&p);
                }
                let map = merge_comm_maps(&maps);
                (traces, metrics, map, merge_histories(&histories), profile)
            });
        let events: usize = traces.iter().map(Vec::len).sum();
        let diag = x.span("simnet.analysis.diagnose_ns", Kind::Local, || {
            diagnose(&traces)
        });
        let (path, rounds) = x.span("simnet.analysis.critical_path_ns", Kind::Local, || {
            (
                HbGraph::build(&traces).critical_path(),
                attribute_rounds(&traces),
            )
        });
        let artifacts: Vec<(String, String)> = x.span("simnet.export.json_ns", Kind::Local, || {
            [
                ("trace.json", chrome_trace_json(&traces)),
                ("metrics.json", metrics_json(&metrics)),
                ("comm.json", comm_matrix_json(&map)),
                ("history.json", history_json(&history)),
                ("profile.json", profile_json(&profile)),
                ("diagnosis.json", diagnosis_json(&diag)),
                ("analysis.json", analysis_json(&path, &rounds)),
            ]
            .into_iter()
            .map(|(name, json)| (name.to_string(), json))
            .collect()
        });
        let json_bytes: usize = artifacts.iter().map(|(_, j)| j.len()).sum();
        let knobs = vec![
            ("ranks".to_string(), RANKS.to_string()),
            ("steps".to_string(), STEPS.to_string()),
            ("seed".to_string(), self.seed.to_string()),
        ];
        // The ledger keeps the analyses, not the raw Chrome trace.
        let written = x.span("simnet.ledger.write_ns", Kind::Local, || {
            write_run(
                &self.ledger,
                "amr_observed",
                "bench",
                &knobs,
                &artifacts[1..],
            )
        });
        checks.check(written.is_ok());
        let _ = std::fs::remove_dir_all(&self.ledger);

        // The hotspot owns the majority of the allgatherv wait.
        let total = diag.op_severity("allgatherv").as_ns();
        let blamed = diag
            .sender_caused_severity("allgatherv", self.outlier)
            .as_ns();
        checks.check(2 * blamed > total);
        vec![
            ("simnet.observe.events", events as u64),
            ("simnet.export.json_bytes", json_bytes as u64),
        ]
    }
}

/// Take every observer's record from a rank, leaving each enabled.
fn take(rank: &mut ncd_simnet::Rank) -> Observed {
    (
        rank.take_trace(),
        rank.take_metrics(),
        rank.take_comm_map(),
        rank.take_history(),
        rank.take_profile(),
    )
}

impl Workload for Amr {
    fn rep(&self, traced: bool) -> Rep {
        self.run(true, traced)
    }

    fn unobserved(&self) -> Option<Rep> {
        Some(self.run(false, false))
    }
}
