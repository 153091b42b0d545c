//! Order-independence oracle for the event-driven scheduler: the same
//! workloads produce byte-identical observability artifacts whatever order
//! the ranks run in.
//!
//! Simulated time, message matching, and every recorded artifact are
//! supposed to be functions of the *simulation* alone, not of the order in
//! which the scheduler happens to resume ranks or of how it switches
//! between them. These tests run the fig14 / fig15 / ext_overlap workload
//! shapes in the canonical order, under [`SEEDS`] (each makes the
//! scheduler resume a seeded-random ready rank at every decision) and on
//! the portable `TaskBackend::Handoff`, and assert the makespan, the chrome
//! trace export, the communication matrix, and the wait-state diagnosis
//! JSON agree byte for byte. A mismatch names the seed that replays it via
//! `ClusterConfig::with_schedule_seed`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ncd_bench::time_phase_traced;
use ncd_core::{Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_petsc::{
    richardson, DistributedArray, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend,
    StencilKind,
};
use ncd_simnet::{
    chrome_trace_json, comm_matrix_json, diagnose, diagnosis_json, Cluster, ClusterCommMap,
    ClusterConfig, SimTime, Tag, TaskBackend, TraceEvent,
};

/// The explored schedules.
const SEEDS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Compare `run` under every configuration the oracle explores — the
/// canonical order, each of [`SEEDS`], the handoff task backend — against
/// the canonical result; panics naming the first configuration that
/// differs.
fn assert_order_independent<T, F>(name: &str, cfg: ClusterConfig, run: F) -> T
where
    T: PartialEq,
    F: Fn(ClusterConfig) -> T,
{
    let reference = run(cfg.clone());
    for seed in SEEDS {
        assert!(
            run(cfg.clone().with_schedule_seed(seed)) == reference,
            "{name}: schedule seed {seed} changed the result \
             (replay with ClusterConfig::with_schedule_seed({seed}))"
        );
    }
    let handoff = run(cfg.with_task_backend(TaskBackend::Handoff));
    assert!(
        handoff == reference,
        "{name}: the handoff task backend changed the result"
    );
    reference
}

/// Run `body` once and collapse the observable artifacts to comparable
/// byte strings.
fn artifacts<F>(cfg: ClusterConfig, body: F) -> (SimTime, String, String, String)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    let (t, _, _, map, _, traces): (_, _, _, ClusterCommMap, _, Vec<Vec<TraceEvent>>) =
        time_phase_traced(cfg, MpiConfig::optimized(), 2, body);
    let trace = chrome_trace_json(&traces);
    let matrix = comm_matrix_json(&map);
    let diag = diagnosis_json(&diagnose(&traces));
    (t, trace, matrix, diag)
}

fn assert_schedules_agree<F>(name: &str, cfg: ClusterConfig, body: F)
where
    F: Fn(&mut Comm, usize) + Send + Sync + Clone,
{
    let (t, trace, _, _) = assert_order_independent(name, cfg, |cfg| artifacts(cfg, body.clone()));
    assert!(t > SimTime::ZERO, "{name}: workload did no simulated work");
    assert!(
        trace.matches("\"ph\"").count() > 10,
        "{name}: trace export is vacuously small"
    );
}

/// The oracle can fail: rank 0 reports whichever of two wildcard
/// receives matched first, a result that depends on whether rank 1 or
/// rank 2 ran first. Some seed must expose it, and the failure must name
/// that seed so the schedule can be replayed.
#[test]
fn oracle_catches_an_injected_order_dependence() {
    let first_source = |cfg: ClusterConfig| {
        Cluster::new(cfg).run(|r| {
            if r.rank() == 0 {
                let (_, first) = r.recv_bytes(None, Tag(0));
                let _ = r.recv_bytes(None, Tag(0));
                first
            } else {
                r.send_bytes(0, Tag(0), vec![r.rank() as u8]);
                r.rank()
            }
        })[0]
    };
    let failure = catch_unwind(AssertUnwindSafe(|| {
        assert_order_independent("wildcard", ClusterConfig::uniform(3), first_source)
    }))
    .expect_err("no seed exposed the injected order dependence");
    let msg = failure
        .downcast_ref::<String>()
        .expect("oracle failures carry a message");
    let seed = SEEDS
        .into_iter()
        .find(|s| msg.contains(&format!("schedule seed {s} changed")))
        .unwrap_or_else(|| panic!("failure does not name a seed: {msg}"));
    assert_ne!(
        first_source(ClusterConfig::uniform(3).with_schedule_seed(seed)),
        first_source(ClusterConfig::uniform(3)),
        "seed {seed} must replay the reordering it reported"
    );
    println!("schedule seed {seed} exposed the injected order dependence");
}

/// fig14's workload: allgatherv where rank 0 contributes a 32 KB outlier
/// and everyone else a single double.
#[test]
fn fig14_allgatherv_is_order_independent() {
    assert_schedules_agree("fig14", ClusterConfig::uniform(16), |comm: &mut Comm, _| {
        let mut counts = vec![8usize; comm.size()];
        counts[0] = 4096 * 8;
        let me = comm.rank();
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&send, &counts, &mut recv);
    });
}

/// fig15's workload: nearest-neighbour alltoallw ring exchange on the
/// heterogeneous paper testbed (the skew-sensitive case).
#[test]
fn fig15_alltoallw_is_order_independent() {
    assert_schedules_agree(
        "fig15",
        ClusterConfig::paper_testbed(8),
        |comm: &mut Comm, _| {
            let me = comm.rank();
            let n = comm.size();
            let succ = (me + 1) % n;
            let pred = (me + n - 1) % n;
            let matrix = Datatype::contiguous(100, &Datatype::double()).expect("matrix type");
            let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
            let mut sends: Vec<WPeer> = (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
            let mut recvs = sends.clone();
            sends[succ] = WPeer::new(0, 1, matrix.clone());
            recvs[pred] = WPeer::new(0, 1, matrix.clone());
            sends[pred] = WPeer::new(800, 1, matrix.clone());
            recvs[succ] = WPeer::new(800, 1, matrix.clone());
            let sendbuf = vec![me as u8; 1600];
            let mut recvbuf = vec![0u8; 1600];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        },
    );
}

/// ext_overlap's workload: split ghost exchange (begin / interior compute
/// / end) on a 2-D star-stencil DA — exercises petsc::scatter's
/// nonblocking path and compute interleaving.
#[test]
fn ext_overlap_scatter_is_order_independent() {
    assert_schedules_agree(
        "ext_overlap",
        ClusterConfig::paper_testbed(4),
        |comm: &mut Comm, _| {
            let da = DistributedArray::new(comm, &[48, 48], 1, StencilKind::Star, 1);
            let mut g = da.create_global_vec();
            for (off, p) in da.owned_points().enumerate() {
                g.local_mut()[off] = (p[0] * 31 + p[1]) as f64;
            }
            let mut l = da.create_local_vec();
            let h = da.global_to_local_begin(comm, &g, &mut l, ScatterBackend::HandTuned);
            comm.rank_mut().compute_flops(1_000_000);
            da.global_to_local_end(comm, h, &mut l);
        },
    );
}

/// mg128's solve in miniature: Richardson preconditioned by a two-level
/// V-cycle on a 16³ grid over 8 ranks, every ghost exchange and grid
/// transfer a persistent alltoallw plan (Datatype backend). The makespan
/// and the solution's bits must not depend on the schedule.
#[test]
fn datatype_multigrid_is_order_independent() {
    let solve = |cfg: ClusterConfig| {
        let out = Cluster::new(cfg).run(|rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let (n, backend) = (16, ScatterBackend::Datatype);
            let h = 1.0 / n as f64;
            let mg = Multigrid::new(&mut comm, &[n, n, n], h, 2, backend);
            let da = mg.fine_da();
            let op = LaplacianOp::new(da, h);
            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            for (off, p) in da.owned_points().enumerate() {
                b.local_mut()[off] = p.iter().map(|&c| (c as f64 + 0.5) * h).sum();
            }
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            let settings = KspSettings {
                max_it: 4,
                backend,
                ..Default::default()
            };
            richardson(&mut comm, &op, &mg, 1.0, &b, &mut x, &settings);
            let bits: Vec<u64> = x.local().iter().map(|v| v.to_bits()).collect();
            (comm.rank_ref().now(), bits)
        });
        let makespan = out.iter().map(|(t, _)| *t).max().expect("ranks");
        let solution: Vec<Vec<u64>> = out.into_iter().map(|(_, x)| x).collect();
        (makespan, solution)
    };
    let (t, x) = assert_order_independent("datatype_mg", ClusterConfig::paper_testbed(8), solve);
    assert!(
        t > SimTime::ZERO,
        "datatype_mg: workload did no simulated work"
    );
    assert!(
        x.iter().flatten().any(|&v| f64::from_bits(v) != 0.0),
        "datatype_mg: the solve left x at zero"
    );
}
