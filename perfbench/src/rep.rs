//! One repetition of a workload: a fresh cluster from start to finish,
//! reduced to the numbers the benchmark reports.

use std::collections::BTreeMap;

use ncd_simnet::{last_sched_stats, SimTime, Stats};

use crate::spans::{cluster_ops, layer_ns, Log};

/// Correctness checks: how many ran and how many failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What every rank hands back from a workload's cluster run.
pub struct RankOut {
    pub log: Log,
    /// Simulated clock at the end of the measured phase.
    pub now: SimTime,
    /// Counters of everything before the measured phase.
    pub setup: Stats,
    /// Counters of the measured phase.
    pub stats: Stats,
    pub checks: Checks,
}

/// The reduced result of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops_ms: Vec<f64>,
    pub makespan: SimTime,
    /// Counts and simulated times that must repeat exactly for one seed.
    pub exact: BTreeMap<&'static str, u64>,
    /// Per-layer values; spans are only present in a traced repetition.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub backend: &'static str,
}

impl Rep {
    /// Reduce one cluster run. `run` is the host span of `Cluster::run`
    /// on the repetition's clock; `extra` holds spans recorded outside
    /// the cluster (post-run analysis on the main thread).
    pub fn from_run(run: (u64, u64), ranks: &[RankOut], extra: &Log) -> Rep {
        let sched = last_sched_stats().expect("the event scheduler publishes its stats");
        let first = ranks
            .iter()
            .map(|r| r.log.phase.0)
            .min()
            .expect("a cluster has at least one rank");
        let last = ranks
            .iter()
            .map(|r| r.log.phase.1)
            .chain(std::iter::once(extra.phase.1))
            .max()
            .expect("a cluster has at least one rank");
        let mut logs: Vec<&Log> = ranks.iter().map(|r| &r.log).collect();
        let ops_ms = cluster_ops(&logs)
            .into_iter()
            .map(|(s, e)| (e - s) as f64 / 1e6)
            .collect();
        logs.push(extra);

        let mut setup = Stats::new();
        let mut measured = Stats::new();
        let mut checks = Checks::default();
        for r in ranks {
            setup.merge(&r.setup);
            measured.merge(&r.stats);
            checks.add(r.checks);
        }
        let mut exact = BTreeMap::new();
        for (name, t) in [
            ("sim.comm_us", measured.comm),
            ("sim.pack_us", measured.pack),
            ("sim.search_us", measured.search),
            ("sim.compute_us", measured.compute),
            ("sim.wait_us", measured.wait),
        ] {
            exact.insert(name, t.as_ns());
        }
        let msgs = setup.msgs_sent + measured.msgs_sent;
        exact.insert("simnet.mailbox.msgs", msgs);
        exact.insert(
            "simnet.mailbox.bytes",
            setup.bytes_sent + measured.bytes_sent,
        );
        exact.insert("datatype.segments_packed", measured.segments_packed);
        exact.insert("datatype.segments_searched", measured.segments_searched);
        exact.insert("simnet.sched.resumes", sched.resumes);
        exact.insert("simnet.sched.parks_blocked", sched.parks_blocked);

        let run_ns = (run.1 - run.0) as f64;
        let mut layers = BTreeMap::new();
        layers.insert("simnet.run_ns", run_ns);
        layers.insert("simnet.sched.mean_ready_depth", sched.mean_depth());
        layers.insert("simnet.sched.max_stack_bytes", sched.max_stack_bytes as f64);
        layers.insert(
            "simnet.sched.host_ns_per_resume",
            run_ns / sched.resumes.max(1) as f64,
        );
        layers.insert(
            "simnet.mailbox.host_ns_per_msg",
            run_ns / msgs.max(1) as f64,
        );
        for (name, (total, own)) in layer_ns(&logs) {
            layers.insert(name, total);
            if name == "petsc.ksp_ns" {
                layers.insert("petsc.ksp_self_ns", own);
            }
        }
        Rep {
            setup_s: (first - run.0) as f64 / 1e9,
            wall_s: (last - first) as f64 / 1e9,
            ops_ms,
            makespan: ranks
                .iter()
                .map(|r| r.now)
                .max()
                .expect("a cluster has at least one rank"),
            exact,
            layers,
            checks,
            backend: sched.backend,
        }
    }

    /// The simulated results that host-only changes (tracing included)
    /// must leave bit-identical.
    pub fn same_simulation(&self, other: &Rep) -> bool {
        self.makespan == other.makespan
            && self
                .exact
                .iter()
                .filter(|(k, _)| k.starts_with("sim."))
                .all(|(k, v)| other.exact.get(k) == Some(v))
    }
}
