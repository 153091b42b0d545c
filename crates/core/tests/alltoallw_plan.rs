//! Persistent alltoallw plans against the one-shot call: a plan compiled
//! once and started many times must be indistinguishable from calling
//! `Comm::alltoallw` with the same slots every time — the same received
//! bytes, simulated charges, trace, metrics, comm map, history and flight
//! recorder — whatever configuration it was compiled under.

use std::sync::Arc;

use ncd_core::{
    bytes_to_f64s, f64s_to_bytes, AlltoallwPlan, AlltoallwSchedule, Comm, MpiConfig, WPeer,
};
use ncd_datatype::Datatype;
use ncd_petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use ncd_simnet::{Cluster, ClusterConfig, EventKind, RecCode, Recorded, TraceEvent};
use proptest::prelude::*;

/// Maximum ranks; `vols` is a `MAX_N × MAX_N` row-major matrix.
const MAX_N: usize = 6;

/// A slot moving `count` doubles: contiguous, or every other double.
fn slot_type(count: usize, strided: bool) -> (Datatype, usize) {
    if strided && count > 0 {
        let t = Datatype::vector(count, 1, 2, &Datatype::double()).expect("strided type");
        (t, (2 * count - 1) * 8)
    } else {
        let t = Datatype::contiguous(count, &Datatype::double()).expect("contiguous type");
        (t, count * 8)
    }
}

/// Rank `me`'s send and receive slots and buffer sizes: `vols[s][d]`
/// doubles go from `s` to `d`, strided on one side when `s + d` is odd.
fn slots(me: usize, n: usize, vols: &[usize]) -> (Vec<WPeer>, Vec<WPeer>, usize, usize) {
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    let (mut send_len, mut recv_len) = (0, 0);
    for peer in 0..n {
        let odd = (me + peer) % 2 == 1;
        let (t, span) = slot_type(vols[me * MAX_N + peer], odd);
        sends.push(WPeer::new(send_len, 1, t));
        send_len += span;
        let (t, span) = slot_type(vols[peer * MAX_N + me], !odd);
        recvs.push(WPeer::new(recv_len, 1, t));
        recv_len += span;
    }
    (sends, recvs, send_len, recv_len)
}

/// Everything one rank can observe of its calls, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    recvbuf: Vec<u8>,
    stats: String,
    trace: Vec<TraceEvent>,
    metrics: String,
    epochs: String,
    history: String,
    recorder: Vec<Recorded>,
    decisions: Vec<Recorded>,
}

fn observe(comm: &mut Comm, recvbuf: Vec<u8>) -> Observed {
    let rank = comm.rank_mut();
    let stats = format!("{:?}", rank.take_stats());
    let trace = rank.take_trace();
    let metrics = format!("{:?}", rank.take_metrics());
    let epochs = format!("{:?}", rank.take_comm_map().epochs());
    let history = format!("{:?}", rank.take_history().records());
    let recorder = rank.flight_recorder().snapshot();
    let decisions = rank.flight_recorder().recent(RecCode::AlgoDecision);
    Observed {
        recvbuf,
        stats,
        trace,
        metrics,
        epochs,
        history,
        recorder,
        decisions,
    }
}

/// Run `calls` alltoallws under `cfg` on every rank: one-shot when
/// `plan_cfg` is `None`, otherwise through one plan compiled under
/// `plan_cfg` before the communicator exists.
fn run(
    n: usize,
    vols: Arc<Vec<usize>>,
    cfg: MpiConfig,
    plan_cfg: Option<MpiConfig>,
    calls: usize,
) -> Vec<Observed> {
    Cluster::new(ClusterConfig::paper_testbed(n)).run(move |rank| {
        rank.enable_tracing();
        rank.enable_metrics();
        rank.enable_history();
        let me = rank.rank();
        let (sends, recvs, send_len, recv_len) = slots(me, n, &vols);
        let sendbuf: Vec<u8> = (0..send_len).map(|i| (me * 41 + i * 7) as u8).collect();
        let mut recvbuf = vec![0u8; recv_len];
        let plan = plan_cfg
            .as_ref()
            .map(|pc| AlltoallwPlan::new(pc, me, sends.clone(), recvs.clone()));
        let mut comm = Comm::new(rank, cfg.clone());
        for _ in 0..calls {
            match &plan {
                None => comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs),
                Some(p) => comm.alltoallw_start(p, &sendbuf, &mut recvbuf),
            }
        }
        observe(&mut comm, recvbuf)
    })
}

fn config(optimized: bool, pin: u8, threshold: usize, fraction: f64) -> MpiConfig {
    let mut cfg = if optimized {
        MpiConfig::optimized()
    } else {
        MpiConfig::baseline()
    };
    cfg.alltoallw_pin = match pin {
        1 => Some(AlltoallwSchedule::RoundRobin),
        2 => Some(AlltoallwSchedule::Binned),
        _ => None,
    };
    cfg.small_msg_threshold = threshold;
    cfg.outlier_fraction = fraction;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planned_calls_match_one_shot_calls(
        n in 2usize..MAX_N + 1,
        (counts, holes) in (
            proptest::collection::vec(0usize..200, MAX_N * MAX_N),
            proptest::collection::vec(any::<bool>(), MAX_N * MAX_N),
        ),
        // Bit 0: sparse pattern; the rest: which config field, if any,
        // the plan was compiled under a different value of.
        mode in 0u8..10,
        (optimized, pin) in (any::<bool>(), 0u8..3),
        (threshold, fraction) in (
            prop_oneof![Just(0usize), Just(64), Just(512), Just(1024)],
            prop_oneof![Just(0.5f64), Just(0.9)],
        ),
    ) {
        let (sparse, stale) = (mode & 1 == 1, mode >> 1);
        // Sparse patterns zero about half the pairs; dense ones keep all.
        let vols: Vec<usize> = counts
            .iter()
            .zip(&holes)
            .map(|(&c, &hole)| if sparse && hole { 0 } else { c })
            .collect();
        let vols = Arc::new(vols);
        let cfg = config(optimized, pin, threshold, fraction);
        // A stale plan differs from the communicator in one field, so
        // every start must recompile for the communicator's config.
        let other_threshold = if threshold == 64 { 512 } else { 64 };
        let plan_cfg = match stale {
            1 => config(!optimized, pin, threshold, fraction),
            2 => config(optimized, (pin + 1) % 3, threshold, fraction),
            3 => config(optimized, pin, other_threshold, fraction),
            4 => config(optimized, pin, threshold, 1.4 - fraction),
            _ => cfg.clone(),
        };
        let one_shot = run(n, vols.clone(), cfg.clone(), None, 2);
        let planned = run(n, vols, cfg, Some(plan_cfg), 2);
        for (rank, (a, b)) in one_shot.iter().zip(&planned).enumerate() {
            prop_assert_eq!(a, b, "rank {}", rank);
        }
        // The comparison is not vacuous: both calls left a decision.
        prop_assert!(planned.iter().all(|o| o.decisions.len() == 2));
    }
}

/// The decision events of a trace, as (chosen, reason).
fn decisions(trace: &[TraceEvent]) -> Vec<(String, String)> {
    trace
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::AlgoDecision { chosen, reason, .. } => {
                Some((chosen.clone(), reason.clone()))
            }
            _ => None,
        })
        .collect()
}

/// One `VecScatter`'s Datatype backend run over a Baseline, an Optimized
/// and a pinned communicator — one plan, three configurations — matches
/// a fresh one-shot alltoallw over the plan's slots on each.
#[test]
fn one_scatter_plan_serves_both_flavors_and_a_pin() {
    let mut pinned = MpiConfig::optimized();
    pinned.alltoallw_pin = Some(AlltoallwSchedule::RoundRobin);
    let configs = [MpiConfig::baseline(), MpiConfig::optimized(), pinned];
    let n = 30;
    let run = |planned: bool| {
        let configs = configs.clone();
        Cluster::new(ClusterConfig::paper_testbed(4)).run(move |rank| {
            rank.enable_tracing();
            rank.enable_comm_map();
            let me = rank.rank();
            let layout = Layout::balanced(n, 4);
            let (s, e) = layout.range(me);
            // A permutation with remote pairs and a few local ones.
            let dst = IndexSet::general((s..e).map(|g| (g * 7 + 3) % n).collect::<Vec<_>>());
            let src = IndexSet::stride(s, 1, e - s);
            let scatter = {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                VecScatter::create(&mut comm, layout.clone(), &src, layout.clone(), &dst)
            };
            let x = PVec::from_local(
                layout.clone(),
                me,
                (s..e).map(|g| g as f64 * 1.25).collect(),
            );
            let mut runs = Vec::new();
            for cfg in &configs {
                let mut comm = Comm::new(rank, cfg.clone());
                comm.rank_mut().take_stats();
                comm.rank_mut().take_trace();
                let mut y = PVec::zeros(layout.clone(), me);
                if planned {
                    scatter.apply(&mut comm, &x, &mut y, ScatterBackend::Datatype);
                } else {
                    let plan = scatter.alltoallw_plan();
                    let sendbuf = f64s_to_bytes(x.local());
                    let mut recvbuf = f64s_to_bytes(y.local());
                    comm.alltoallw(&sendbuf, plan.sends(), &mut recvbuf, plan.recvs());
                    y = PVec::from_local(layout.clone(), me, bytes_to_f64s(&recvbuf));
                }
                let rank = comm.rank_mut();
                runs.push((
                    y.local().to_vec(),
                    format!("{:?}", rank.take_stats()),
                    rank.take_trace(),
                ));
            }
            let epochs = format!("{:?}", comm_epochs(rank));
            (runs, epochs, rank.flight_recorder().snapshot())
        })
    };
    let planned = run(true);
    let one_shot = run(false);
    assert_eq!(planned, one_shot);
    let expect = [
        ("round_robin", "baseline flavor: lock-step round robin"),
        ("binned", "optimized flavor: zero-exempt three-bin schedule"),
        ("round_robin", "pinned"),
    ];
    for (runs, _, _) in &planned {
        for ((_, _, trace), (chosen, reason)) in runs.iter().zip(expect) {
            assert_eq!(
                decisions(trace),
                vec![(chosen.to_string(), reason.to_string())]
            );
        }
    }
    // The scatter's values really moved: y[(g*7+3) % n] = 1.25 g.
    let y: Vec<f64> = planned
        .iter()
        .flat_map(|(runs, _, _)| runs[2].0.clone())
        .collect();
    for g in 0..n {
        assert_eq!(y[(g * 7 + 3) % n], g as f64 * 1.25);
    }
}

fn comm_epochs(rank: &mut ncd_simnet::Rank) -> Vec<(String, Vec<u64>)> {
    rank.take_comm_map()
        .epochs()
        .iter()
        .map(|e| (e.label.clone(), e.bytes.clone()))
        .collect()
}
