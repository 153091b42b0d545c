//! Host-time benchmark of the nucomm stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mg128|allgatherv1024|transpose1024|amr_observed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on the default event scheduler
//! with fiber tasks (one OS thread). A run repeats the workload from a
//! fresh cluster for `--seconds` and reports medians. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` records spans around the
//! benchmark's own calls into each layer and prints the per-layer metrics
//! (see `METRICS.md`). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod allgatherv;
mod amr;
mod mg128;
mod rep;
mod spans;
mod transpose;
mod util;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::{Duration, Instant};

use rep::{Checks, Rep};
use util::{median, tail};

/// One workload: its inputs are generated from the seed when it is built.
pub trait Workload {
    /// One repetition from a fresh cluster; `traced` records layer spans.
    fn rep(&self, traced: bool) -> Rep;

    /// The same run with every observer off, when the workload observes;
    /// its simulated results must equal every repetition's.
    fn unobserved(&self) -> Option<Rep> {
        None
    }

    /// Repetitions every run makes, however long they take: enough that
    /// set-up and wall time are medians and the op tail holds ten samples.
    fn min_reps(&self) -> usize {
        12
    }

    /// Direct, non-parking layer calls made by the traced run only,
    /// outside any cluster: adds their spans to `rep.layers`.
    fn probe(&self, _rep: &mut Rep) {}
}

/// Environment switches that would put another substrate, a smoke size
/// or extra passes under the clock.
const GUARDED: [&str; 6] = [
    "NCD_SCHED",
    "NCD_SCHED_TASKS",
    "NCD_SMOKE",
    "NCD_WHATIF",
    "NCD_LEDGER",
    "NCD_COMPARE",
];

/// Per-layer metrics and their units, in report order (`--trace 1`).
const LAYERS: [(&str, &str); 45] = [
    ("petsc.setup_ns", "ns"),
    ("petsc.ksp_ns", "ns"),
    ("petsc.vcycle_ns", "ns"),
    ("petsc.op_apply_ns", "ns"),
    ("petsc.ksp_self_ns", "ns"),
    ("petsc.iterations", "count"),
    ("datatype.build_ns", "ns"),
    ("datatype.pack_ns.single", "ns"),
    ("datatype.pack_ns.dual", "ns"),
    ("datatype.unpack_ns", "ns"),
    ("datatype.send_ns.single", "ns"),
    ("datatype.send_ns.dual", "ns"),
    ("datatype.recv_ns.unpack", "ns"),
    ("datatype.host_ns_per_byte", "ns/B"),
    ("datatype.segments_packed", "count"),
    ("datatype.segments_searched", "count"),
    ("core.coll.allgatherv_ns.ring", "ns"),
    ("core.coll.allgatherv_ns.rd", "ns"),
    ("core.coll.alltoallw_ns", "ns"),
    ("core.select_ns", "ns"),
    ("simnet.run_ns", "ns"),
    ("simnet.sched.resumes", "count"),
    ("simnet.sched.parks_blocked", "count"),
    ("simnet.sched.mean_ready_depth", "count"),
    ("simnet.sched.max_stack_bytes", "B"),
    ("simnet.sched.host_ns_per_resume", "ns"),
    ("simnet.mailbox.msgs", "count"),
    ("simnet.mailbox.bytes", "B"),
    ("simnet.mailbox.host_ns_per_msg", "ns"),
    ("simnet.mailbox.send_ns", "ns"),
    ("simnet.observe.record_ns", "ns"),
    ("simnet.observe.take_merge_ns", "ns"),
    ("simnet.observe.events", "count"),
    ("simnet.analysis.diagnose_ns", "ns"),
    ("simnet.analysis.critical_path_ns", "ns"),
    ("simnet.export.json_ns", "ns"),
    ("simnet.export.json_bytes", "B"),
    ("simnet.ledger.write_ns", "ns"),
    ("sim.comm_us", "us"),
    ("sim.pack_us", "us"),
    ("sim.search_us", "us"),
    ("sim.compute_us", "us"),
    ("sim.wait_us", "us"),
    ("sim.makespan_us", "us"),
    ("trace.overhead_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mg128" => Box::new(mg128::Mg128::new(seed)),
        "allgatherv1024" => Box::new(allgatherv::Allgatherv::new(seed)),
        "transpose1024" => Box::new(transpose::Transpose::new(seed)),
        "amr_observed" => Box::new(amr::Amr::new(seed)),
        _ => return None,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    if let Some(var) = GUARDED.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set; unset it to measure the default substrate"
        );
        exit(2);
    }
    let Some(workload) = build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}; choose mg128, allgatherv1024, transpose1024 or amr_observed",
            args.workload
        );
        exit(2)
    };
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let unobserved = workload.unobserved();
    // The traced run first makes one untraced repetition: tracing must
    // reproduce its simulated results, and the wall-time difference is
    // the tracing overhead.
    let untraced = args.trace.then(|| workload.rep(false));
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < workload.min_reps() || start.elapsed() < budget {
        let mut rep = workload.rep(args.trace);
        if args.trace {
            workload.probe(&mut rep);
        }
        reps.push(rep);
    }

    let reference = untraced.as_ref().unwrap_or(&reps[0]);
    for rep in &reps {
        checks.add(rep.checks);
        checks.check(rep.backend == "fiber");
        checks.check(rep.same_simulation(reference) && rep.exact == reference.exact);
        if let Some(u) = &unobserved {
            checks.check(rep.same_simulation(u));
        }
    }
    if let Some(u) = &untraced {
        checks.add(u.checks);
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let ops: Vec<f64> = reps.iter().flat_map(|r| r.ops_ms.iter().copied()).collect();
    let (op_tail, tail_pct) = tail(&ops);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let overhead_ms = untraced.as_ref().map(|u| (median(&walls) - u.wall_s) * 1e3);
    if args.trace {
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for rep in &reps {
            for (k, v) in &rep.layers {
                layers.entry(k).or_default().push(*v);
            }
            if let (Some(u), Some(run)) = (&unobserved, rep.layers.get("simnet.run_ns")) {
                layers
                    .entry("simnet.observe.record_ns")
                    .or_default()
                    .push(run - u.layers["simnet.run_ns"]);
            }
        }
        for (name, unit) in LAYERS {
            let value = if let Some(v) = reference.exact.get(name) {
                if name.starts_with("sim.") {
                    *v as f64 / 1e3
                } else {
                    *v as f64
                }
            } else {
                match name {
                    "sim.makespan_us" => reference.makespan.as_ns() as f64 / 1e3,
                    "trace.overhead_ms" => overhead_ms.unwrap_or(0.0),
                    _ => layers.get(name).map_or(0.0, |v| median(v)),
                }
            };
            metrics.push((name, value, unit));
        }
    } else {
        let rss = util::peak_rss_mb().unwrap_or_else(|| {
            eprintln!("perfbench: cannot read the peak resident set size");
            exit(1)
        });
        metrics.extend([
            ("wall_s", median(&walls), "s"),
            (
                "setup_s",
                median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            ("op_p50_ms", median(&ops), "ms"),
            ("op_tail_ms", op_tail, "ms"),
            (
                "sim_makespan_us",
                reference.makespan.as_ns() as f64 / 1e3,
                "us",
            ),
            ("peak_rss_mb", rss, "MB"),
        ]);
    }

    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"backend\": \"{}\", \
         \"profile\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \"reps\": {}, \"ops\": {}, \
         \"op_tail_percentile\": {}, \"error_rate\": {}, \"trace_overhead_ms\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        reference.backend,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        util::cpu_model().replace('"', "'"),
        reps.len(),
        ops.len(),
        tail_pct,
        error_rate,
        overhead_ms.map_or("null".to_string(), |v| v.to_string()),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
