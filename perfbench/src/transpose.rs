//! `transpose1024`: fig12's 1024×1024 matrix of three-double elements
//! between two ranks, in both directions. Column type → contiguous packs
//! under the dual-context engine; contiguous → column type runs the
//! `Unpacker`. Copy bound: the datatype engines and large mailbox copies
//! do nearly all the work in a handful of scheduler resumes.
//!
//! The single-context engine runs only in the traced run. Its quadratic
//! re-search is a tight loop whose host time swings by up to 2x with the
//! load on a shared machine; in the measured phase it would set both
//! `wall_s` and the op tail, so their run-to-run spread would exceed any
//! bound. The traced run still measures it, directly and through `send`.

use std::time::Instant;

use ncd_core::{Comm, MpiConfig};
use ncd_datatype::{matrix_column_type, Datatype, EngineKind, EngineParams, OpCounts, Unpacker};
use ncd_simnet::{Cluster, ClusterConfig, Tag};

use crate::rep::{Checks, RankOut, Rep};
use crate::spans::{Kind, Log, Tracer};
use crate::util::stream;
use crate::Workload;

const N: usize = 1024;
const ELEM: usize = 24;
const BYTES: usize = N * N * ELEM;

/// One send/recv pair: which way the matrix travels and which engine the
/// sender's flavor selects.
#[derive(Clone, Copy)]
enum Pair {
    /// Column type → contiguous under the baseline (single-context) engine.
    PackSingle,
    /// Column type → contiguous under the optimized (dual-context) engine.
    PackDual,
    /// Contiguous → column type: the receiver unpacks.
    Unpack,
}

/// Pairs per repetition: three in five are dual-context packs, so the op
/// median sits among them rather than between the two kinds.
const PAIRS: [Pair; 5] = [
    Pair::PackDual,
    Pair::Unpack,
    Pair::PackDual,
    Pair::Unpack,
    Pair::PackDual,
];

pub struct Transpose {
    /// Seeded row-major matrix.
    m: Vec<u8>,
    /// Its transpose, computed element by element here, not by the library.
    mt: Vec<u8>,
    jitter_seed: u64,
}

impl Transpose {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 3, 0);
        let m = rng.bytes(BYTES);
        let mut mt = vec![0u8; BYTES];
        for i in 0..N {
            for j in 0..N {
                let src = (i * N + j) * ELEM;
                let dst = (j * N + i) * ELEM;
                mt[dst..dst + ELEM].copy_from_slice(&m[src..src + ELEM]);
            }
        }
        Transpose {
            m,
            mt,
            jitter_seed: rng.next_u64(),
        }
    }

    fn pair(
        &self,
        comm: &mut Comm,
        t: &Tracer,
        types: &(Datatype, Datatype),
        dst: &mut [u8],
        pair: Pair,
    ) -> bool {
        let (col, contig) = types;
        let (cfg, tag) = match pair {
            Pair::PackSingle => (MpiConfig::baseline(), Tag(1)),
            Pair::PackDual => (MpiConfig::optimized(), Tag(2)),
            Pair::Unpack => (MpiConfig::optimized(), Tag(3)),
        };
        let mut comm = Comm::new(comm.rank_mut(), cfg);
        let ctx = comm.context();
        // The sender never parks, so without a barrier it would run every
        // send ahead of the receiver and op spans would overlap.
        comm.barrier();
        if comm.rank() == 0 {
            let (buf, dt, count, name) = match pair {
                Pair::PackSingle => (&self.m, col, N, "datatype.send_ns.single"),
                Pair::PackDual => (&self.m, col, N, "datatype.send_ns.dual"),
                Pair::Unpack => (&self.mt, contig, 1, "simnet.mailbox.send_ns"),
            };
            t.op(|| t.span(name, Kind::Local, || comm.send(buf, dt, count, 1, tag)));
            true
        } else {
            dst.fill(0);
            t.op(|| match pair {
                Pair::Unpack => {
                    // Wait for the envelope first, so the receive itself
                    // never parks and its span is this rank's own time.
                    comm.rank_mut().probe_ctx(Some(0), tag, ctx);
                    t.span("datatype.recv_ns.unpack", Kind::Local, || {
                        comm.recv(dst, col, N, Some(0), tag)
                    });
                }
                _ => {
                    comm.recv(dst, contig, 1, Some(0), tag);
                }
            });
            match pair {
                Pair::Unpack => *dst == self.m,
                _ => *dst == self.mt,
            }
        }
    }
}

fn build_types(t: &Tracer) -> (Datatype, Datatype) {
    t.span("datatype.build_ns", Kind::Local, || {
        let col = matrix_column_type(N, N, 3).expect("column type of an N×N matrix");
        let contig = Datatype::contiguous(BYTES, &Datatype::byte()).expect("contiguous bytes");
        (col, contig)
    })
}

impl Transpose {
    fn run(&self, traced: bool, pairs: &[Pair]) -> Rep {
        let epoch = Instant::now();
        let cluster = Cluster::new(ClusterConfig::paper_testbed(2).with_seed(self.jitter_seed));
        let run_start = epoch.elapsed().as_nanos() as u64;
        let ranks = cluster.run(|rank| {
            let t = Tracer::new(traced, epoch);
            let mut checks = Checks::default();
            let types = build_types(&t);
            // The receiver's buffer, touched before the clock starts.
            let mut dst = vec![1u8; if rank.rank() == 1 { BYTES } else { 0 }];
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            comm.barrier();
            comm.rank_mut().reset_clock();
            let setup = comm.rank_mut().take_stats();
            t.phase_start();
            for &pair in pairs {
                checks.check(self.pair(&mut comm, &t, &types, &mut dst, pair));
            }
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

impl Workload for Transpose {
    fn rep(&self, traced: bool) -> Rep {
        self.run(traced, &PAIRS)
    }

    /// One single-context send on a cluster of its own, then each engine
    /// and the `Unpacker` called directly on the same matrix.
    fn probe(&self, rep: &mut Rep) {
        let single = self.run(true, &[Pair::PackSingle]);
        rep.checks.add(single.checks);
        rep.layers.insert(
            "datatype.send_ns.single",
            single.layers["datatype.send_ns.single"],
        );
        let t = Tracer::new(true, Instant::now());
        let col = matrix_column_type(N, N, 3).expect("column type of an N×N matrix");
        for (kind, name) in [
            (EngineKind::SingleContext, "datatype.pack_ns.single"),
            (EngineKind::DualContext, "datatype.pack_ns.dual"),
        ] {
            let packed = t.span(name, Kind::Local, || {
                let mut engine = kind.build(&col, N, EngineParams::default());
                engine.pack_all(&self.m, &mut OpCounts::default())
            });
            rep.checks.check(matches!(packed, Ok(p) if p == self.mt));
        }
        let mut dst = vec![0u8; BYTES];
        let unpacked = t.span("datatype.unpack_ns", Kind::Local, || {
            Unpacker::new(&col, N).unpack(&mut dst, &self.mt)
        });
        rep.checks.check(unpacked.is_ok() && dst == self.m);
        let log = t.into_log();
        let mut engine_ns = 0.0;
        for s in &log.spans {
            let ns = (s.end - s.start) as f64;
            rep.layers.insert(s.name, ns);
            engine_ns += ns;
        }
        rep.layers
            .insert("datatype.host_ns_per_byte", engine_ns / (3 * BYTES) as f64);
    }
}
