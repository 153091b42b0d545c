//! `MPI_Alltoallw` — per-peer counts *and* per-peer datatypes — with the
//! baseline round-robin schedule and the paper's three-bin design (§4.2.2).
//!
//! The baseline (MPICH2-style) schedule performs a send+receive with
//! *every* rank in round-robin order, including peers with zero-volume
//! exchanges. That has the two pathologies the paper identifies:
//!
//! 1. zero-byte exchanges with peers a rank shares no data with add pure
//!    synchronization steps, propagating skew through the whole job;
//! 2. peers are processed in rank order, so a large noncontiguous message
//!    (expensive to pack) can sit in front of a small one, delaying the
//!    small receiver by the full preprocessing time.
//!
//! The optimized schedule sorts each rank's exchanges into **three bins —
//! zero, small, large**: the zero bin is exempted entirely (no messages at
//! all), the small bin is processed first, and the large bin last, so
//! cheap receivers never wait behind expensive preprocessing.

use ncd_datatype::Datatype;
use ncd_simnet::ratio_to_millis;

use crate::coll::{coll_tag, CollOp};
use crate::comm::Comm;
use crate::config::{MpiConfig, MpiFlavor};
use crate::select::outlier_ratio_of;

/// One peer's slot in an alltoallw: `count` instances of `dtype` located at
/// `offset` bytes into the send (or receive) buffer — the analogue of MPI's
/// per-peer (count, displacement, datatype) triples.
#[derive(Clone, Debug)]
pub struct WPeer {
    pub offset: usize,
    pub count: usize,
    pub dtype: Datatype,
}

impl WPeer {
    pub fn new(offset: usize, count: usize, dtype: Datatype) -> Self {
        WPeer {
            offset,
            count,
            dtype,
        }
    }

    /// Packed bytes this slot moves.
    pub fn bytes(&self) -> usize {
        self.count * self.dtype.size()
    }
}

/// The message schedule an alltoallw uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallwSchedule {
    /// Exchange with every rank in round-robin order, zero-volume included.
    RoundRobin,
    /// Three bins: zero (exempt), small (first), large (last).
    Binned,
}

impl AlltoallwSchedule {
    /// Stable lowercase name used as the metric/trace algorithm label.
    pub fn label(self) -> &'static str {
        match self {
            AlltoallwSchedule::RoundRobin => "round_robin",
            AlltoallwSchedule::Binned => "binned",
        }
    }

    /// Inverse of [`label`](Self::label), for pinning the schedule a
    /// decision audit suggested (see `MpiConfig::alltoallw_pin`).
    pub fn from_label(label: &str) -> Option<AlltoallwSchedule> {
        match label {
            "round_robin" => Some(AlltoallwSchedule::RoundRobin),
            "binned" => Some(AlltoallwSchedule::Binned),
            _ => None,
        }
    }
}

/// A persistent alltoallw, the analogue of MPI-4's `MPI_Alltoallw_init`:
/// the slot arrays plus the schedule compiled from them once — the
/// decision record, the bin census, the send order, the receive sources
/// and the receive volumes — so that every [`Comm::alltoallw_start`]
/// skips the per-call bookkeeping of [`Comm::alltoallw`] and does the
/// same communication.
///
/// The plan remembers the rank, communicator size and configuration it
/// was compiled under (flavor, `alltoallw_pin`, `small_msg_threshold`,
/// `outlier_fraction`). Started on a communicator that differs in any of
/// them, it recompiles for that call, so one plan may run over both
/// flavors or under a what-if pin set after it was built.
#[derive(Clone, Debug)]
pub struct AlltoallwPlan {
    sends: Vec<WPeer>,
    recvs: Vec<WPeer>,
    compiled: Compiled,
}

impl AlltoallwPlan {
    /// Compile the plan of communicator rank `rank` under `cfg`
    /// (`MPI_Alltoallw_init`); the communicator size is the number of
    /// slots on each side.
    pub fn new(cfg: &MpiConfig, rank: usize, sends: Vec<WPeer>, recvs: Vec<WPeer>) -> Self {
        let key = PlanKey::new(cfg, rank, sends.len());
        let compiled = Compiled::new(key, key.schedule(), &sends, &recvs, Needs::ALL);
        AlltoallwPlan {
            sends,
            recvs,
            compiled,
        }
    }

    /// Per-peer send slots, indexed by rank.
    pub fn sends(&self) -> &[WPeer] {
        &self.sends
    }

    /// Per-peer receive slots, indexed by rank.
    pub fn recvs(&self) -> &[WPeer] {
        &self.recvs
    }
}

/// What an alltoallw schedule depends on besides its slot arrays: the
/// caller's place in the communicator and the configuration fields the
/// decision, the schedule and the bins read.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlanKey {
    rank: usize,
    size: usize,
    flavor: MpiFlavor,
    pin: Option<AlltoallwSchedule>,
    small_msg_threshold: usize,
    outlier_fraction: f64,
}

impl PlanKey {
    fn new(cfg: &MpiConfig, rank: usize, size: usize) -> Self {
        PlanKey {
            rank,
            size,
            flavor: cfg.flavor,
            pin: cfg.alltoallw_pin,
            small_msg_threshold: cfg.small_msg_threshold,
            outlier_fraction: cfg.outlier_fraction,
        }
    }

    /// A pinned schedule (what-if decision-flip intervention) overrides
    /// the flavor's default.
    fn schedule(&self) -> AlltoallwSchedule {
        self.pin.unwrap_or(match self.flavor {
            MpiFlavor::Baseline => AlltoallwSchedule::RoundRobin,
            MpiFlavor::Optimized => AlltoallwSchedule::Binned,
        })
    }
}

/// The evidence one decision record carries.
#[derive(Clone, Debug)]
struct Decision {
    n: usize,
    total: u64,
    ratio_millis: u64,
    pow2: bool,
    reason: &'static str,
}

/// Bin membership of the outgoing exchanges, self included, and their
/// total volume.
#[derive(Clone, Copy, Debug)]
struct Census {
    total: u64,
    zero: u64,
    small: u64,
    large: u64,
}

/// Which optional parts of a schedule to compile. A one-shot call
/// compiles only what its observers will read.
#[derive(Clone, Copy)]
struct Needs {
    decision: bool,
    census: bool,
    recv_volumes: bool,
}

impl Needs {
    const ALL: Needs = Needs {
        decision: true,
        census: true,
        recv_volumes: true,
    };
}

/// Everything an alltoallw call derives from its slot arrays and its
/// configuration before it moves any data.
#[derive(Clone, Debug)]
struct Compiled {
    key: PlanKey,
    schedule: AlltoallwSchedule,
    decision: Option<Decision>,
    census: Option<Census>,
    /// Binned only: destinations in initiation order, the small bin then
    /// the large one, each by increasing ring distance.
    send_order: Vec<usize>,
    /// Binned only: the peers that send to this rank, small expected
    /// first, each bin by increasing ring distance.
    sources: Vec<usize>,
    /// Per-source receive volumes, for the comm-map epoch.
    recv_volumes: Option<Vec<u64>>,
}

impl Compiled {
    fn new(
        key: PlanKey,
        schedule: AlltoallwSchedule,
        sends: &[WPeer],
        recvs: &[WPeer],
        needs: Needs,
    ) -> Self {
        let (rank, size, threshold) = (key.rank, key.size, key.small_msg_threshold);
        assert_eq!(sends.len(), size, "one send slot per rank");
        assert_eq!(recvs.len(), size, "one recv slot per rank");
        // The schedule is fixed by the flavor (or the pin), but the
        // decision record still carries the measured evidence — the
        // outgoing per-peer volume set's outlier ratio — so the analysis
        // layer can judge the choice.
        let decision = needs.decision.then(|| {
            let vols: Vec<u64> = sends.iter().map(|s| s.bytes() as u64).collect();
            let n = sends.len();
            Decision {
                n,
                total: vols.iter().sum(),
                ratio_millis: ratio_to_millis(outlier_ratio_of(&vols, key.outlier_fraction)),
                pow2: n != 0 && n & (n - 1) == 0,
                reason: if key.pin.is_some() {
                    "pinned"
                } else {
                    match key.flavor {
                        MpiFlavor::Baseline => "baseline flavor: lock-step round robin",
                        MpiFlavor::Optimized => "optimized flavor: zero-exempt three-bin schedule",
                    }
                },
            }
        });
        let census = needs.census.then(|| {
            let mut c = Census {
                total: 0,
                zero: 0,
                small: 0,
                large: 0,
            };
            for s in sends {
                let b = s.bytes();
                c.total += b as u64;
                match b {
                    0 => c.zero += 1,
                    b if b <= threshold => c.small += 1,
                    _ => c.large += 1,
                }
            }
            c
        });
        let (mut send_order, mut sources) = (Vec::new(), Vec::new());
        if schedule == AlltoallwSchedule::Binned {
            // Walk the peers by increasing ring distance (self excluded),
            // binning each side: small first, large appended after.
            let (mut large_sends, mut large_sources) = (Vec::new(), Vec::new());
            for i in 1..size {
                let peer = (rank + i) % size;
                match sends[peer].bytes() {
                    0 => {}
                    b if b <= threshold => send_order.push(peer),
                    _ => large_sends.push(peer),
                }
                match recvs[peer].bytes() {
                    0 => {}
                    b if b <= threshold => sources.push(peer),
                    _ => large_sources.push(peer),
                }
            }
            send_order.append(&mut large_sends);
            sources.append(&mut large_sources);
        }
        let recv_volumes = needs
            .recv_volumes
            .then(|| recvs.iter().map(|r| r.bytes() as u64).collect());
        Compiled {
            key,
            schedule,
            decision,
            census,
            send_order,
            sources,
            recv_volumes,
        }
    }
}

impl Comm<'_> {
    /// General all-to-all with per-peer counts and datatypes.
    ///
    /// `sends[i]`/`recvs[i]` describe the data exchanged with rank `i`;
    /// both arrays must have one entry per rank, and the two sides of every
    /// pairwise exchange must agree on the packed byte count (zero is fine
    /// and means "no data with this peer"). The schedule follows the
    /// communicator's flavor, or its `alltoallw_pin`; the choice is
    /// recorded as an algorithm decision.
    pub fn alltoallw(
        &mut self,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let key = self.alltoallw_key();
        let plan = Compiled::new(
            key,
            key.schedule(),
            sends,
            recvs,
            self.alltoallw_needs(true),
        );
        self.alltoallw_compiled(&plan, sendbuf, sends, recvbuf, recvs);
    }

    /// Run alltoallw with an explicit schedule and no decision record
    /// (exposed for benchmarks).
    pub fn alltoallw_with(
        &mut self,
        schedule: AlltoallwSchedule,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let key = self.alltoallw_key();
        let plan = Compiled::new(key, schedule, sends, recvs, self.alltoallw_needs(false));
        self.alltoallw_compiled(&plan, sendbuf, sends, recvbuf, recvs);
    }

    /// Run a persistent alltoallw to completion: the same messages,
    /// charges and observations as [`Comm::alltoallw`] over the plan's
    /// slots. A plan compiled under another rank, size or configuration
    /// is recompiled for this call.
    pub fn alltoallw_start(&mut self, plan: &AlltoallwPlan, sendbuf: &[u8], recvbuf: &mut [u8]) {
        let key = self.alltoallw_key();
        let fresh;
        let compiled = if plan.compiled.key == key {
            &plan.compiled
        } else {
            let needs = self.alltoallw_needs(true);
            fresh = Compiled::new(key, key.schedule(), &plan.sends, &plan.recvs, needs);
            &fresh
        };
        self.alltoallw_compiled(compiled, sendbuf, &plan.sends, recvbuf, &plan.recvs);
    }

    fn alltoallw_key(&self) -> PlanKey {
        PlanKey::new(self.config(), self.rank(), self.size())
    }

    /// What a one-shot call must compile: the observers' inputs only when
    /// the observers are on.
    fn alltoallw_needs(&self, decision: bool) -> Needs {
        Needs {
            decision,
            census: self.rank_ref().metrics().is_enabled(),
            recv_volumes: self.rank_ref().comm_map_enabled(),
        }
    }

    /// The one alltoallw runner: record, exchange, close the epoch.
    fn alltoallw_compiled(
        &mut self,
        plan: &Compiled,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let label = plan.schedule.label();
        // Recording the decision charges no simulated time.
        if let Some(d) = &plan.decision {
            self.rank_mut().observe_algo_decision(
                "alltoallw",
                d.n,
                d.total,
                d.ratio_millis,
                d.pow2,
                label,
                d.reason,
            );
        }
        if self.rank_ref().metrics().is_enabled() {
            // Bin membership is recorded for both schedules so the
            // zero-bin exemption the binned schedule exploits is visible
            // in baseline runs too.
            let c = plan.census.expect("census compiled while metrics are on");
            let rank = self.rank_mut();
            rank.metric_counter_add("alltoallw", "invocations", label, 1);
            rank.metric_observe("alltoallw", "bytes", label, c.total);
            rank.metric_counter_add("alltoallw", "bin_zero", label, c.zero);
            rank.metric_counter_add("alltoallw", "bin_small", label, c.small);
            rank.metric_counter_add("alltoallw", "bin_large", label, c.large);
        }
        match plan.schedule {
            AlltoallwSchedule::RoundRobin => self.a2aw_round_robin(sendbuf, sends, recvbuf, recvs),
            AlltoallwSchedule::Binned => self.a2aw_binned(plan, sendbuf, sends, recvbuf, recvs),
        }
        // One comm-map epoch per call, keyed by the schedule that
        // produced the traffic (pinned and auto-selected runs alike).
        if self.rank_ref().comm_map_enabled() {
            let epoch = format!("alltoallw/{label}");
            self.rank_mut().comm_epoch(&epoch);
            let volumes = plan
                .recv_volumes
                .as_deref()
                .expect("receive volumes compiled while the comm map is on");
            self.drift_epoch(&epoch, volumes);
        }
    }

    /// Local exchange with self: pack and unpack without the wire.
    fn a2aw_self_copy(&mut self, sendbuf: &[u8], s: &WPeer, recvbuf: &mut [u8], r: &WPeer) {
        assert_eq!(s.bytes(), r.bytes(), "self exchange size mismatch");
        if s.bytes() == 0 {
            return;
        }
        let bytes = self.prepare_send(&sendbuf[s.offset..], &s.dtype, s.count);
        self.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &bytes);
    }

    /// Baseline: lock-step round robin over all peers, zero volumes
    /// included — each step is a pairwise synchronization. All receives
    /// are posted up front (per-round tags keep the steps apart), but each
    /// round still waits its receive out before the next begins, so the
    /// lock-step skew coupling the paper describes is preserved.
    fn a2aw_round_robin(
        &mut self,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let size = self.size();
        let rank = self.rank();
        self.a2aw_self_copy(sendbuf, &sends[rank], recvbuf, &recvs[rank]);
        let mut reqs = Vec::with_capacity(size.saturating_sub(1));
        for i in 1..size {
            let src = (rank + size - i) % size;
            reqs.push(self.irecv(Some(src), coll_tag(CollOp::Alltoallw, i as u32)));
        }
        for (i, req) in (1..size).zip(reqs) {
            self.rank_mut()
                .trace_round("alltoallw/round_robin", i as u32);
            self.rank_mut()
                .metric_counter_add("alltoallw", "rounds", "round_robin", 1);
            let dst = (rank + i) % size;
            let src = (rank + size - i) % size;
            let tag = coll_tag(CollOp::Alltoallw, i as u32);
            let s = &sends[dst];
            let payload =
                self.prepare_send(&sendbuf[s.offset.min(sendbuf.len())..], &s.dtype, s.count);
            self.send_grp(dst, tag, payload);
            let (data, _) = self.wait(req).into_recv();
            let r = &recvs[src];
            assert_eq!(data.len(), r.bytes(), "pairwise byte count mismatch");
            if !data.is_empty() {
                self.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &data);
            }
        }
    }

    /// Optimized: zero bin exempted, small bin processed before large.
    fn a2aw_binned(
        &mut self,
        plan: &Compiled,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let rank = self.rank();
        self.a2aw_self_copy(sendbuf, &sends[rank], recvbuf, &recvs[rank]);

        // Post a receive for every peer that actually sends to us, small
        // expected first (mirroring the sender-side prioritization), before
        // any packing starts.
        let sources = &plan.sources;
        let mut recv_reqs = Vec::with_capacity(sources.len());
        for &src in sources {
            recv_reqs.push(self.irecv(Some(src), coll_tag(CollOp::Alltoallw, 0)));
        }

        // Initiate (pack + isend) small first, then large: remote peers
        // with cheap messages are never stuck behind expensive
        // preprocessing, and each message's wire time overlaps the packing
        // of the next.
        let mut send_reqs = Vec::with_capacity(plan.send_order.len());
        for (round, &dst) in plan.send_order.iter().enumerate() {
            self.rank_mut()
                .trace_round("alltoallw/binned", round as u32);
            self.rank_mut()
                .metric_counter_add("alltoallw", "rounds", "binned", 1);
            let s = &sends[dst];
            let tag = coll_tag(CollOp::Alltoallw, 0);
            let payload = self.prepare_send(&sendbuf[s.offset..], &s.dtype, s.count);
            send_reqs.push(self.isend_grp(dst, tag, payload));
        }

        // Unpack inbound messages as they arrive (not in posting order):
        // a slow peer's large message never blocks delivery of the ones
        // already here.
        while recv_reqs.iter().any(|r| !r.is_done()) {
            let (_, completion) = self.waitany(&mut recv_reqs);
            let (data, src) = completion.into_recv();
            let r = &recvs[src];
            assert_eq!(data.len(), r.bytes(), "pairwise byte count mismatch");
            self.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &data);
        }

        // Drain the sends: charge whatever wire time the work above did
        // not hide.
        self.waitall(send_reqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{bytes_to_f64s, f64s_to_bytes, Comm};
    use crate::config::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};

    /// Nearest-neighbour ring exchange of one double with succ and pred —
    /// the Figure 15 communication pattern in miniature.
    fn ring_specs(rank: usize, size: usize) -> (Vec<f64>, Vec<WPeer>, Vec<WPeer>) {
        let succ = (rank + 1) % size;
        let pred = (rank + size - 1) % size;
        let dt = Datatype::double();
        let empty = Datatype::contiguous(0, &dt).unwrap();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for i in 0..size {
            if i == succ {
                sends.push(WPeer::new(0, 1, dt.clone()));
            } else if i == pred && size > 2 {
                sends.push(WPeer::new(8, 1, dt.clone()));
            } else if i == pred && size == 2 {
                // With 2 ranks succ == pred; only one slot may claim it.
                sends.push(WPeer::new(0, 0, empty.clone()));
            } else {
                sends.push(WPeer::new(0, 0, empty.clone()));
            }
            if i == pred {
                recvs.push(WPeer::new(0, 1, dt.clone()));
            } else if i == succ && size > 2 {
                recvs.push(WPeer::new(8, 1, dt.clone()));
            } else {
                recvs.push(WPeer::new(0, 0, empty.clone()));
            }
        }
        let sendvals = vec![rank as f64 + 0.5, rank as f64 + 0.25];
        (sendvals, sends, recvs)
    }

    fn run_ring(schedule: AlltoallwSchedule, n: usize) -> Vec<(Vec<f64>, u64)> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let (vals, sends, recvs) = ring_specs(me, n);
            let sendbuf = f64s_to_bytes(&vals);
            let mut recvbuf = vec![0u8; 16];
            comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
            (bytes_to_f64s(&recvbuf), comm.rank_ref().stats().msgs_sent)
        })
    }

    #[test]
    fn ring_pattern_correct_under_both_schedules() {
        for schedule in [AlltoallwSchedule::RoundRobin, AlltoallwSchedule::Binned] {
            for n in [3usize, 4, 7, 8] {
                let out = run_ring(schedule, n);
                for (rank, (recv, _)) in out.iter().enumerate() {
                    let pred = (rank + n - 1) % n;
                    let succ = (rank + 1) % n;
                    assert_eq!(recv[0], pred as f64 + 0.5, "{schedule:?} n={n} rank={rank}");
                    assert_eq!(
                        recv[1],
                        succ as f64 + 0.25,
                        "{schedule:?} n={n} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn binned_sends_fewer_messages_on_sparse_pattern() {
        let n = 8;
        let rr = run_ring(AlltoallwSchedule::RoundRobin, n);
        let binned = run_ring(AlltoallwSchedule::Binned, n);
        // Round robin: n-1 sends each (incl. zero-byte ones).
        assert!(rr.iter().all(|(_, sent)| *sent == (n - 1) as u64));
        // Binned: exactly the two real neighbours.
        assert!(binned.iter().all(|(_, sent)| *sent == 2));
    }

    #[test]
    fn bin_membership_counters_are_recorded() {
        let n = 8usize;
        let regs = Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            rank.enable_metrics();
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let (vals, sends, recvs) = ring_specs(me, n);
            let sendbuf = f64s_to_bytes(&vals);
            let mut recvbuf = vec![0u8; 16];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            comm.rank_mut().take_metrics()
        });
        let mut merged = ncd_simnet::MetricsRegistry::enabled();
        for r in &regs {
            merged.merge(r);
        }
        // Each rank's slot vector: 2 real 8-byte (small) sends, n-2 zeros.
        assert_eq!(
            merged.counter("alltoallw", "bin_small", "binned"),
            2 * n as u64
        );
        assert_eq!(
            merged.counter("alltoallw", "bin_zero", "binned"),
            (n as u64 - 2) * n as u64
        );
        assert_eq!(merged.counter("alltoallw", "bin_large", "binned"), 0);
        assert_eq!(
            merged.counter("alltoallw", "invocations", "binned"),
            n as u64
        );
        // Binned schedule actually sent only the two real messages.
        assert_eq!(
            merged.counter("alltoallw", "rounds", "binned"),
            2 * n as u64
        );
    }

    #[test]
    fn dense_full_exchange_matches_alltoall_semantics() {
        // Every pair exchanges one distinct double: both schedules must
        // deliver the same matrix transposition.
        let n = 5;
        let dt = Datatype::double();
        for schedule in [AlltoallwSchedule::RoundRobin, AlltoallwSchedule::Binned] {
            let dtc = dt.clone();
            let out = Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let vals: Vec<f64> = (0..n).map(|j| (me * 10 + j) as f64).collect();
                let sendbuf = f64s_to_bytes(&vals);
                let slots: Vec<WPeer> = (0..n).map(|j| WPeer::new(j * 8, 1, dtc.clone())).collect();
                let mut recvbuf = vec![0u8; n * 8];
                comm.alltoallw_with(schedule, &sendbuf, &slots, &mut recvbuf, &slots);
                bytes_to_f64s(&recvbuf)
            });
            for (i, recv) in out.iter().enumerate() {
                for (j, &v) in recv.iter().enumerate() {
                    assert_eq!(v, (j * 10 + i) as f64, "{schedule:?} rank {i} slot {j}");
                }
            }
        }
    }

    #[test]
    fn noncontiguous_slots_work() {
        // Send every other double to the peer; receive into every other.
        let n = 2;
        let stride2 = Datatype::vector(4, 1, 2, &Datatype::double()).unwrap();
        let empty = Datatype::contiguous(0, &Datatype::double()).unwrap();
        let out = Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let vals: Vec<f64> = (0..8).map(|i| (me * 100 + i) as f64).collect();
            let sendbuf = f64s_to_bytes(&vals);
            let peer = 1 - me;
            let mut sends = vec![WPeer::new(0, 0, empty.clone()); n];
            sends[peer] = WPeer::new(0, 1, stride2.clone());
            let mut recvs = vec![WPeer::new(0, 0, empty.clone()); n];
            recvs[peer] = WPeer::new(0, 1, stride2.clone());
            let mut recvbuf = vec![0u8; 8 * 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            bytes_to_f64s(&recvbuf)
        });
        // Rank 0 receives rank 1's even-indexed doubles into its own even
        // slots.
        assert_eq!(out[0][0], 100.0);
        assert_eq!(out[0][2], 102.0);
        assert_eq!(out[0][4], 104.0);
        assert_eq!(out[0][6], 106.0);
        assert_eq!(out[0][1], 0.0);
        assert_eq!(out[1][0], 0.0);
        assert_eq!(out[1][2], 2.0);
    }

    #[test]
    fn binned_is_less_skew_sensitive_than_round_robin() {
        // Neighbour exchange under heterogeneous speeds + jitter: the
        // round-robin schedule couples every rank to every other through
        // zero-byte steps, so one slow rank drags everyone; the binned
        // schedule only couples real neighbours.
        let n = 16;
        let measure = |schedule: AlltoallwSchedule| {
            let out = Cluster::new(ClusterConfig::paper_testbed(n)).run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                comm.barrier();
                comm.rank_mut().reset_clock();
                let (vals, sends, recvs) = ring_specs(me, n);
                let sendbuf = f64s_to_bytes(&vals);
                let mut recvbuf = vec![0u8; 16];
                for _ in 0..10 {
                    comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
                }
                comm.rank_ref().now()
            });
            out.into_iter().max().unwrap()
        };
        let rr = measure(AlltoallwSchedule::RoundRobin);
        let binned = measure(AlltoallwSchedule::Binned);
        assert!(
            binned < rr,
            "binned ({binned}) should beat round-robin ({rr}) under skew"
        );
    }

    #[test]
    #[should_panic(expected = "byte count mismatch")]
    fn mismatched_pair_sizes_panic() {
        let dt = Datatype::double();
        let empty = Datatype::contiguous(0, &Datatype::double()).unwrap();
        Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::baseline());
            let me = comm.rank();
            let peer = 1 - me;
            let mut sends = vec![WPeer::new(0, 0, empty.clone()); 2];
            let mut recvs = vec![WPeer::new(0, 0, empty.clone()); 2];
            // Rank 0 sends 2 doubles but rank 1 expects 1.
            sends[peer] = WPeer::new(0, if me == 0 { 2 } else { 1 }, dt.clone());
            recvs[peer] = WPeer::new(0, 1, dt.clone());
            let sendbuf = [0u8; 16];
            let mut recvbuf = vec![0u8; 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        });
    }
}
