//! `mg128`: the §5.5 3-D Laplacian multigrid (Richardson preconditioned
//! by a V-cycle, datatype scatter backend) on the paper's 128-process
//! testbed. The only workload where the PETSc layer runs.

use std::sync::Arc;
use std::time::Instant;

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{
    richardson, KspSettings, LaplacianOp, Layout, LinearOp, Multigrid, PVec, Preconditioner,
    ScatterBackend,
};
use ncd_simnet::{Cluster, ClusterConfig};

use crate::rep::{Checks, RankOut, Rep};
use crate::spans::{Kind, Log, Tracer};
use crate::util::stream;
use crate::Workload;

const RANKS: usize = 128;
const GRID: usize = 64;
const LEVELS: usize = 3;
const RTOL: f64 = 1e-6;
const MAX_IT: usize = 30;
const BACKEND: ScatterBackend = ScatterBackend::Datatype;

pub struct Mg128 {
    /// Scale of the right-hand side `b = scale·(x + y + z)`; Richardson
    /// is linear, so the iteration count does not depend on it.
    scale: f64,
    jitter_seed: u64,
}

impl Mg128 {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 1, 0);
        Mg128 {
            scale: 0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 1.5,
            jitter_seed: rng.next_u64(),
        }
    }
}

/// The V-cycle handed to `richardson`: one application is one op.
struct TimedPc<'a> {
    inner: &'a Multigrid,
    t: &'a Tracer,
}

impl Preconditioner for TimedPc<'_> {
    fn apply(&self, comm: &mut Comm, r: &PVec, z: &mut PVec, backend: ScatterBackend) {
        self.t.op(|| {
            self.t.span("petsc.vcycle_ns", Kind::Parks, || {
                self.inner.apply(comm, r, z, backend)
            })
        })
    }
}

struct TimedOp<'a> {
    inner: &'a LaplacianOp<'a>,
    t: &'a Tracer,
}

impl LinearOp for TimedOp<'_> {
    fn layout(&self) -> &Arc<Layout> {
        self.inner.layout()
    }

    fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        self.t.span("petsc.op_apply_ns", Kind::Parks, || {
            self.inner.apply(comm, x, y, backend)
        })
    }
}

impl Workload for Mg128 {
    /// A solve takes seconds and holds 28 V-cycles, so three repetitions
    /// already give the op percentiles their samples.
    fn min_reps(&self) -> usize {
        3
    }

    fn rep(&self, traced: bool) -> Rep {
        let epoch = Instant::now();
        let cluster = Cluster::new(ClusterConfig::paper_testbed(RANKS).with_seed(self.jitter_seed));
        let run_start = epoch.elapsed().as_nanos() as u64;
        let out = cluster.run(|rank| {
            let t = Tracer::new(traced, epoch);
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let h = 1.0 / GRID as f64;
            let mg = t.span("petsc.setup_ns", Kind::Parks, || {
                Multigrid::new(&mut comm, &[GRID, GRID, GRID], h, LEVELS, BACKEND)
            });
            let da = mg.fine_da();
            let op = LaplacianOp::new(da, h);
            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            for (off, p) in da.owned_points().enumerate() {
                let s: f64 = p.iter().map(|&c| (c as f64 + 0.5) * h).sum();
                b.local_mut()[off] = self.scale * s;
            }
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            let settings = KspSettings {
                rtol: RTOL,
                max_it: MAX_IT,
                backend: BACKEND,
                ..Default::default()
            };
            comm.barrier();
            comm.rank_mut().reset_clock();
            let setup = comm.rank_mut().take_stats();

            t.phase_start();
            let pc = TimedPc { inner: &mg, t: &t };
            let aop = TimedOp { inner: &op, t: &t };
            let res = t.span("petsc.ksp_ns", Kind::Parks, || {
                richardson(&mut comm, &aop, &pc, 1.0, &b, &mut x, &settings)
            });
            t.phase_end();
            let now = comm.rank_ref().now();
            let stats = comm.rank_mut().take_stats();

            // The true residual, recomputed independently of the solver.
            let mut checks = Checks::default();
            let mut r = PVec::zeros(da.global_layout().clone(), comm.rank());
            op.apply(&mut comm, &x, &mut r, BACKEND);
            r.scale(&mut comm, -1.0);
            r.axpy(&mut comm, 1.0, &b);
            let rnorm = r.norm2(&mut comm);
            let bnorm = b.norm2(&mut comm);
            checks.check(res.converged && rnorm <= RTOL * bnorm);
            (
                RankOut {
                    log: t.into_log(),
                    now,
                    setup,
                    stats,
                    checks,
                },
                res.iterations as u64,
            )
        });
        let run_end = epoch.elapsed().as_nanos() as u64;
        let iterations = out[0].1;
        let mut ranks = Vec::with_capacity(out.len());
        let mut checks = Checks::default();
        for (r, it) in out {
            checks.check(it == iterations);
            ranks.push(r);
        }
        let mut rep = Rep::from_run((run_start, run_end), &ranks, &Log::default());
        rep.checks.add(checks);
        rep.exact.insert("petsc.iterations", iterations);
        rep
    }
}
