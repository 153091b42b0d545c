//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Every evaluation figure of the paper (Figures 12–17) has a bench target
//! in `benches/` that prints the same series the paper plots and writes a
//! CSV next to it. The helpers here standardize how a timed phase runs:
//! synchronize (barrier), reset the simulated clocks, run the operation
//! `reps` times, and report the **maximum per-rank simulated time divided
//! by reps** — the way MPI benchmarks report collective latency.

use ncd_core::{Comm, DriftConfig, MpiConfig};
use ncd_simnet::{
    merge_comm_maps, merge_histories, Cluster, ClusterCommMap, ClusterConfig, Diagnosis, History,
    MetricsRegistry, RunManifest, SimTime, Stats, TraceEvent, SCHEMA_VERSION,
};

pub mod baseline;
pub mod workloads;

pub use baseline::{
    baseline_mode, check_series, tolerance_pct, BaselineMode, EXIT_MISSING_BASELINE,
};
pub use workloads::{
    amr_diag_counts, amr_diag_loop, amr_diag_workload, AMR_DIAG_OUTLIER, AMR_DIAG_STEPS,
};

/// Whether the bench was asked to run reduced problem sizes (`--smoke` on
/// the command line or `NCD_SMOKE=1` in the environment) — used by CI so
/// the full figure sweep doesn't run on every push. Baselines written in
/// smoke mode are stored separately (see [`baseline::baseline_path`]).
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke") || std::env::var("NCD_SMOKE").as_deref() == Ok("1")
}

/// The harness options every bench target accepts, parsed once at the top
/// of `main`. Centralizing the parse means `--smoke`, `--report json`,
/// `--baseline write|check` and `--tolerance <pct>` behave identically
/// across every `fig*`/`ext_*`/`crit_*` bench instead of each target
/// re-reading the globals it happens to care about.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCli {
    /// Reduced problem sizes (`--smoke` / `NCD_SMOKE=1`).
    pub smoke: bool,
    /// Machine-readable report requested (`--report json` / `NCD_REPORT`).
    pub report_json: bool,
    /// Baseline handling (`--baseline write|check` / `NCD_BASELINE`).
    pub baseline: BaselineMode,
    /// Regression tolerance in percent (`--tolerance` / `NCD_BASELINE_TOL`).
    pub tolerance_pct: f64,
    /// Persist this run's byte-stable exports to the observatory ledger
    /// (`--ledger` / `NCD_LEDGER=1`).
    pub ledger: bool,
    /// Compare against a prior ledgered run (`--compare <run-id|latest|path>`
    /// / `NCD_COMPARE`). Implies `--ledger` for the current run.
    pub compare: Option<String>,
    /// Run the counterfactual what-if profiler after the diagnosis phase
    /// (`--whatif` / `NCD_WHATIF=1`): plan interventions from the
    /// findings, replay each deterministically, report verified gains.
    pub whatif: bool,
    /// The what-if phase's byte-stable JSON, stashed by [`whatif_phase`]
    /// so [`BenchCli::observatory`] can ledger it as the `whatif.json`
    /// artifact without changing its signature at every bench call site.
    /// `None` leaves ledgered runs byte-identical to a no-whatif run.
    pub whatif_artifact: Option<String>,
}

impl BenchCli {
    /// Parse from the process arguments and environment.
    pub fn parse() -> BenchCli {
        let args: Vec<String> = std::env::args().collect();
        let mut cli = BenchCli::from_args(&args);
        cli.smoke = smoke_mode();
        cli.report_json = json_report_requested();
        cli.baseline = baseline_mode();
        cli.tolerance_pct = tolerance_pct();
        if !cli.ledger {
            cli.ledger = std::env::var("NCD_LEDGER").as_deref() == Ok("1");
        }
        if cli.compare.is_none() {
            cli.compare = std::env::var("NCD_COMPARE").ok().filter(|s| !s.is_empty());
        }
        if !cli.whatif {
            cli.whatif = std::env::var("NCD_WHATIF").as_deref() == Ok("1");
        }
        cli
    }

    /// Pure parse over an explicit argument list (no environment), for
    /// tests. Flags mirror [`parse`](Self::parse): `--smoke`,
    /// `--report json` / `--report=json`, `--baseline write|check` /
    /// `--baseline=<mode>`, `--tolerance <pct>` / `--tolerance=<pct>`,
    /// `--ledger`, `--compare <spec>` / `--compare=<spec>`, `--whatif`.
    pub fn from_args(args: &[String]) -> BenchCli {
        let mut report_json = false;
        let mut tolerance = 10.0;
        let mut ledger = false;
        let mut compare: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--report=json" => report_json = true,
                "--report" => {
                    if it.next().map(String::as_str) == Some("json") {
                        report_json = true;
                    }
                }
                "--tolerance" => {
                    if let Some(v) = it.next() {
                        tolerance = v
                            .parse()
                            .unwrap_or_else(|_| panic!("--tolerance must be a number, got {v:?}"));
                    }
                }
                "--ledger" => ledger = true,
                "--compare" => {
                    compare = Some(
                        it.next()
                            .unwrap_or_else(|| {
                                panic!("--compare needs a run id, 'latest', or a path")
                            })
                            .clone(),
                    );
                }
                other => {
                    if let Some(v) = other.strip_prefix("--tolerance=") {
                        tolerance = v
                            .parse()
                            .unwrap_or_else(|_| panic!("--tolerance must be a number, got {v:?}"));
                    } else if let Some(v) = other.strip_prefix("--compare=") {
                        compare = Some(v.to_string());
                    }
                }
            }
        }
        BenchCli {
            smoke: args.iter().any(|a| a == "--smoke"),
            report_json,
            baseline: baseline::mode_from(args, None),
            tolerance_pct: tolerance,
            ledger,
            compare,
            whatif: args.iter().any(|a| a == "--whatif"),
            whatif_artifact: None,
        }
    }

    /// Whether the bench should run its (more expensive, fully traced)
    /// observatory pass at all: only when the run is being ledgered or
    /// compared.
    pub fn wants_observatory(&self) -> bool {
        self.ledger || self.compare.is_some()
    }

    /// Ledger the current run's artifacts and, when `--compare` was
    /// given, print and persist the differential against the base run.
    ///
    /// The comparison base is resolved *before* the current run is
    /// written, so `--compare latest` means "the previous ledgered run",
    /// not the one this call creates. Returns the computed
    /// [`RunDiff`](ncd_core::RunDiff)
    /// when a comparison ran, `None` when only ledgering (or neither flag
    /// was given). Exits nonzero when the compare spec cannot be
    /// resolved — a CI observatory step must not silently skip its
    /// reference run.
    #[allow(clippy::too_many_arguments)]
    pub fn observatory(
        &self,
        name: &str,
        knobs: &[(String, String)],
        series: &[Series],
        metrics: Option<&MetricsRegistry>,
        comm_map: Option<&ClusterCommMap>,
        history: Option<&History>,
        traces: Option<&[Vec<TraceEvent>]>,
    ) -> Option<ncd_core::RunDiff> {
        if !self.wants_observatory() {
            return None;
        }
        let root = ncd_simnet::ledger_root();
        let base_dir = self
            .compare
            .as_ref()
            .map(|spec| resolve_compare_dir(&root, name, spec));
        let manifest = report_to_ledger(
            name,
            self.smoke,
            knobs,
            series,
            metrics,
            comm_map,
            history,
            traces,
            self.whatif_artifact.as_deref(),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot write the run ledger for {name}: {e}");
            std::process::exit(1);
        });
        let base_dir = match base_dir? {
            Ok(dir) => dir,
            Err(e) => {
                eprintln!(
                    "--compare for {name}: {e}\n\
                     ledger a reference run first: cargo bench ... -- {}--ledger",
                    if self.smoke { "--smoke " } else { "" }
                );
                std::process::exit(1);
            }
        };
        let load = |dir: &std::path::Path| -> ncd_core::RunRecord {
            let run = ncd_simnet::read_run(dir).unwrap_or_else(|e| {
                eprintln!("cannot read ledgered run {}: {e}", dir.display());
                std::process::exit(1);
            });
            ncd_core::RunRecord::from_ledger(&run).unwrap_or_else(|e| {
                eprintln!("malformed run artifacts in {}: {e}", dir.display());
                std::process::exit(1);
            })
        };
        let base = load(&base_dir);
        let cur = load(&root.join(name).join(&manifest.run_id));
        let diff = ncd_core::compare(&base, &cur);
        let table = ncd_core::render_compare(&diff, 10);
        print!("\n{table}");
        let bench_dir = root.join(name);
        if ncd_core::write_diff_json(bench_dir.join("diff.json"), &diff).is_ok()
            && std::fs::write(bench_dir.join("diff.txt"), &table).is_ok()
        {
            println!(
                "differential written: {} (and diff.txt)",
                bench_dir.join("diff.json").display()
            );
        }
        Some(diff)
    }

    /// [`baseline_gate`] driven by this parse instead of re-reading the
    /// process globals.
    pub fn gate(&self, name: &str, series: &[Series]) {
        gate_with(name, series, self.smoke, self.baseline, self.tolerance_pct)
    }
}

/// Apply the requested baseline handling to a bench's gated series.
///
/// * `--baseline write`: snapshot `series` under `benches/baselines/`.
/// * `--baseline check`: compare against the committed snapshot and
///   **exit nonzero** with a diff table when a point regressed beyond
///   [`tolerance_pct`] (or the snapshot is missing/shape-mismatched).
/// * otherwise: no-op.
///
/// Gate only lower-is-better series (latencies); derived higher-is-better
/// series like improvement % must stay out.
pub fn baseline_gate(name: &str, series: &[Series]) {
    gate_with(name, series, smoke_mode(), baseline_mode(), tolerance_pct())
}

fn gate_with(name: &str, series: &[Series], smoke: bool, mode: BaselineMode, tol: f64) {
    let path = baseline::baseline_path(name, smoke);
    match mode {
        BaselineMode::Off => {}
        BaselineMode::Write => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("create baseline dir");
            }
            std::fs::write(&path, baseline::snapshot_json(name, smoke, series))
                .expect("write baseline snapshot");
            println!("baseline written: {}", path.display());
        }
        BaselineMode::Check => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprint!(
                    "{}",
                    baseline::missing_snapshot_message(
                        name,
                        &path,
                        baseline::bench_target().as_deref(),
                        smoke,
                        &e.to_string(),
                    )
                );
                std::process::exit(EXIT_MISSING_BASELINE);
            });
            let base = baseline::parse_snapshot(&text);
            let regs = check_series(&base, series, tol);
            if regs.is_empty() {
                println!(
                    "baseline check passed: {name} ({} series, tolerance {tol}%)",
                    series.len()
                );
            } else {
                eprint!("{}", gate_failure_report(name, &regs, tol));
                std::process::exit(1);
            }
        }
    }
}

/// Compose the full failure output for a baseline-gate regression: the
/// regression diff table followed by the flight recorder's last-window
/// events for every rank of the most recent cluster run — the moments
/// right before the regression was measured. The dump is also written to
/// `target/flight/<name>.flight.txt` (for CI artifact upload) and handed
/// to the process anomaly hook ([`ncd_simnet::dump_on`]) as a
/// [`ncd_simnet::Anomaly::BaselineRegression`].
///
/// Split out of [`baseline_gate`] so tests can exercise the whole failure
/// path without exiting the process.
pub fn gate_failure_report(name: &str, regs: &[baseline::Regression], tol: f64) -> String {
    let mut out = baseline::render_regressions(name, regs, tol);
    if let Some(dump) = ncd_simnet::last_run_dump() {
        out.push_str(&dump);
        let dir = std::path::Path::new("target").join("flight");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.flight.txt"));
            if std::fs::write(&path, &dump).is_ok() {
                out.push_str(&format!(
                    "flight recorder dump written: {}\n",
                    path.display()
                ));
            }
        }
        ncd_simnet::trigger(
            &ncd_simnet::Anomaly::BaselineRegression {
                name: name.to_string(),
            },
            &dump,
        );
    }
    out
}

/// `-log_view`-style summary of the datatype pack pipeline, built from the
/// `datatype/*` metrics that the communication layer records per pipeline
/// block. One row per engine: blocks processed, sparse/dense classification
/// mix, total context-search segments (the quadratic signal), per-block
/// search and look-ahead averages, and bytes produced. Returns `None` when
/// the registry saw no datatype activity.
pub fn datatype_report(reg: &MetricsRegistry) -> Option<String> {
    let mut engines: Vec<String> = reg
        .counters()
        .filter(|(k, _)| k.subsystem == "datatype" && k.op == "blocks")
        .map(|(k, _)| k.algorithm.clone())
        .collect();
    engines.sort();
    engines.dedup();
    if engines.is_empty() {
        return None;
    }
    let mut out = String::from("\n=== datatype pack pipeline ===\n");
    out.push_str(&format!(
        "{:<16}{:>8}{:>8}{:>8}{:>12}{:>10}{:>12}{:>12}\n",
        "engine", "blocks", "sparse", "dense", "seek segs", "seek/blk", "lookahd/blk", "bytes"
    ));
    for e in &engines {
        let blocks = reg.counter("datatype", "blocks", e);
        let sparse = reg.counter("datatype", "sparse_blocks", e);
        let dense = reg.counter("datatype", "dense_blocks", e);
        let seek = reg.counter("datatype", "seek_total", e);
        let seek_per_block = if blocks > 0 {
            seek as f64 / blocks as f64
        } else {
            0.0
        };
        let lookahead_per_block = reg
            .histogram("datatype", "lookahead_window", e)
            .map(|h| h.mean())
            .unwrap_or(0.0);
        let bytes = reg
            .histogram("datatype", "block_bytes", e)
            .map(|h| h.sum())
            .unwrap_or(0);
        out.push_str(&format!(
            "{e:<16}{blocks:>8}{sparse:>8}{dense:>8}{seek:>12}{seek_per_block:>10.1}{lookahead_per_block:>12.1}{bytes:>12}\n"
        ));
    }
    Some(out)
}

/// `-log_view`-style summary of the event scheduler's own work during a
/// run (see [`ncd_simnet::SchedStats`]): context switches, park mix,
/// wake sources, ready-queue pressure, and the fiber-stack high-water
/// mark. One header row plus one value row, followed by the occupied
/// buckets of the ready-depth log₂ histogram. Returns `None` for an
/// empty survey (no tasks driven).
pub fn sched_report(stats: &ncd_simnet::SchedStats) -> Option<String> {
    if stats.tasks == 0 {
        return None;
    }
    let mut out = format!("\n=== event scheduler ({}) ===\n", stats.backend);
    out.push_str(&format!(
        "{:>8}{:>10}{:>11}{:>11}{:>10}{:>9}{:>10}{:>12}{:>12}\n",
        "tasks",
        "resumes",
        "parks-blk",
        "parks-poll",
        "wakes",
        "promos",
        "promoted",
        "mean-depth",
        "max-stack-B"
    ));
    out.push_str(&format!(
        "{:>8}{:>10}{:>11}{:>11}{:>10}{:>9}{:>10}{:>12.2}{:>12}\n",
        stats.tasks,
        stats.resumes,
        stats.parks_blocked,
        stats.parks_polling,
        stats.deposit_wakes,
        stats.poll_promotions,
        stats.promoted_tasks,
        stats.mean_depth(),
        stats.max_stack_bytes
    ));
    let buckets: Vec<String> = stats
        .ready_depth_log2
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, count)| {
            let lo = 1u64 << i;
            let hi = (1u64 << (i + 1)) - 1;
            if lo == hi {
                format!("{lo}:{count}")
            } else {
                format!("{lo}-{hi}:{count}")
            }
        })
        .collect();
    if !buckets.is_empty() {
        out.push_str(&format!("ready-queue depth: {}\n", buckets.join("  ")));
    }
    Some(out)
}

/// Table of the `decision/*` metrics the auto-selecting collectives emit:
/// one row per (collective, chosen algorithm) with call count, bytes seen,
/// and the last recorded outlier-ratio evidence, followed by the stated
/// selection reasons. Returns `None` when no decision was recorded.
pub fn decision_report(reg: &MetricsRegistry) -> Option<String> {
    let mut rows: Vec<(String, String)> = reg
        .counters()
        .filter(|(k, _)| k.subsystem == "decision")
        .map(|(k, _)| (k.op.clone(), k.algorithm.clone()))
        .collect();
    rows.sort();
    rows.dedup();
    if rows.is_empty() {
        return None;
    }
    let mut out = String::from("\n=== collective algorithm decisions ===\n");
    out.push_str(&format!(
        "{:<13}{:<22}{:>8}{:>14}{:>12}{:>10}\n",
        "collective", "chosen", "calls", "bytes", "mean B", "ratio"
    ));
    for (coll, chosen) in &rows {
        let calls = reg.counter("decision", coll, chosen);
        let h = reg.histogram("decision_bytes", coll, chosen);
        let bytes = h.map(|h| h.sum()).unwrap_or(0);
        let mean = h.map(|h| h.mean()).unwrap_or(0.0);
        let ratio = reg
            .gauge("decision_ratio", coll, chosen)
            .map(|r| format!("{r:.1}"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{coll:<13}{chosen:<22}{calls:>8}{bytes:>14}{mean:>12.0}{ratio:>10}\n"
        ));
    }
    let mut reasons: Vec<(String, String, u64)> = reg
        .counters()
        .filter(|(k, _)| k.subsystem == "decision_reason")
        .map(|(k, v)| (k.op.clone(), k.algorithm.clone(), v))
        .collect();
    reasons.sort();
    for (coll, reason, count) in &reasons {
        out.push_str(&format!("  {coll}: {reason} ({count})\n"));
    }
    Some(out)
}

fn fmt_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.1}")
    }
}

/// "Who talks to whom" summary of a merged communication map: the ASCII
/// heatmap, nonuniformity analytics of the total matrix (outlier ratio,
/// spread, Gini), the hottest pairs, and the per-epoch breakdown. Returns
/// `None` when the map saw no traffic.
pub fn comm_report(map: &ClusterCommMap) -> Option<String> {
    let (total, epochs) = ncd_core::analyze_comm_map(map, 0.9, 5);
    let total = total?;
    let mut out = format!(
        "\n=== communication map ({} ranks, {} B, {} msgs) ===\n",
        map.n,
        map.total.total_bytes(),
        map.total.total_msgs()
    );
    out.push_str(&ncd_simnet::render_heatmap(&map.total));
    out.push_str(&format!(
        "pairs={} max={} B min={} B mean={:.0} B spread={} outlier-ratio={} gini={:.3}\n",
        total.pairs,
        total.max_bytes,
        total.min_bytes,
        total.mean_bytes,
        fmt_ratio(total.spread),
        fmt_ratio(total.outlier_ratio),
        total.gini
    ));
    out.push_str("hot pairs:");
    for (s, d, b) in &total.top {
        out.push_str(&format!(" {s}->{d}:{b}B"));
    }
    out.push('\n');
    if !epochs.is_empty() {
        out.push_str("per-epoch nonuniformity:\n");
        for e in &epochs {
            let a = &e.analysis;
            let bytes = (a.mean_bytes * a.pairs as f64).round() as u64;
            out.push_str(&format!(
                "  {:<30} pairs={:>4} bytes={:>12} outlier-ratio={:>8} gini={:.3}\n",
                format!("{}#{}", e.label, e.occurrence),
                a.pairs,
                bytes,
                fmt_ratio(a.outlier_ratio),
                a.gini
            ));
        }
    }
    Some(out)
}

/// Run `body` on a cluster and return the per-iteration completion time
/// (max over ranks), plus each rank's stats for breakdown reporting.
///
/// `body` receives the communicator and the iteration index; one warmup
/// iteration (index `usize::MAX`) runs before the clocks reset.
pub fn time_phase<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> (SimTime, Vec<Stats>)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    assert!(reps > 0);
    let out = Cluster::new(cluster_cfg).run(|rank| {
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().take_stats();
        for it in 0..reps {
            body(&mut comm, it);
        }
        let t = comm.rank_ref().now();
        let stats = comm.rank_ref().stats().clone();
        (t, stats)
    });
    let tmax = out.iter().map(|(t, _)| *t).max().expect("nonempty cluster");
    let stats = out.into_iter().map(|(_, s)| s).collect();
    (SimTime::from_ns(tmax.as_ns() / reps as u64), stats)
}

/// [`time_phase`] with the metrics registry enabled on every rank: also
/// returns the cluster-wide merge of the per-rank registries collected
/// over the measured (post-warmup) iterations.
pub fn time_phase_metrics<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> (SimTime, Vec<Stats>, MetricsRegistry)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    assert!(reps > 0);
    let out = Cluster::new(cluster_cfg).run(|rank| {
        rank.enable_metrics();
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().take_stats();
        let _ = comm.rank_mut().take_metrics(); // drop warmup metrics
        for it in 0..reps {
            body(&mut comm, it);
        }
        let t = comm.rank_ref().now();
        let stats = comm.rank_ref().stats().clone();
        let metrics = comm.rank_mut().take_metrics();
        (t, stats, metrics)
    });
    let tmax = out
        .iter()
        .map(|(t, _, _)| *t)
        .max()
        .expect("nonempty cluster");
    let mut merged = MetricsRegistry::enabled();
    let mut stats = Vec::with_capacity(out.len());
    for (_, s, m) in out {
        merged.merge(&m);
        stats.push(s);
    }
    (SimTime::from_ns(tmax.as_ns() / reps as u64), stats, merged)
}

/// [`time_phase_metrics`] with the communication map additionally enabled
/// on every rank: also returns the cluster-merged [`ClusterCommMap`]
/// covering the measured (post-warmup) iterations. Neither the metrics
/// registry nor the comm map ever touches the simulated clock, so the
/// returned times are identical to an uninstrumented run.
pub fn time_phase_observed<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> (SimTime, Vec<Stats>, MetricsRegistry, ClusterCommMap)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    assert!(reps > 0);
    let out = Cluster::new(cluster_cfg).run(|rank| {
        rank.enable_metrics();
        rank.enable_comm_map();
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().take_stats();
        let _ = comm.rank_mut().take_metrics(); // drop warmup metrics
        let _ = comm.rank_mut().take_comm_map(); // drop warmup traffic
        for it in 0..reps {
            body(&mut comm, it);
        }
        let t = comm.rank_ref().now();
        let stats = comm.rank_ref().stats().clone();
        let metrics = comm.rank_mut().take_metrics();
        let map = comm.rank_mut().take_comm_map();
        (t, stats, metrics, map)
    });
    let tmax = out
        .iter()
        .map(|(t, _, _, _)| *t)
        .max()
        .expect("nonempty cluster");
    let mut merged = MetricsRegistry::enabled();
    let mut stats = Vec::with_capacity(out.len());
    let mut maps = Vec::with_capacity(out.len());
    for (_, s, m, map) in out {
        merged.merge(&m);
        stats.push(s);
        maps.push(map);
    }
    let comm_map = merge_comm_maps(&maps);
    (
        SimTime::from_ns(tmax.as_ns() / reps as u64),
        stats,
        merged,
        comm_map,
    )
}

/// [`time_phase_observed`] with the epoch history additionally enabled on
/// every rank: also returns the cluster-merged [`History`] time series of
/// the measured (post-warmup) iterations — one point per collective epoch
/// and profiling stage — with the online drift monitor armed, so regime
/// shifts inside the measured window land in the trace, metrics, and the
/// flight recorder's drift ring. Like the other observers, the history
/// never touches the simulated clock.
#[allow(clippy::type_complexity)]
pub fn time_phase_history<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> (
    SimTime,
    Vec<Stats>,
    MetricsRegistry,
    ClusterCommMap,
    History,
)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    assert!(reps > 0);
    let out = Cluster::new(cluster_cfg).run(|rank| {
        rank.enable_metrics();
        rank.enable_history(); // also enables the comm map it derives from
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().take_stats();
        let _ = comm.rank_mut().take_metrics(); // drop warmup metrics
        let _ = comm.rank_mut().take_comm_map(); // drop warmup traffic
        let _ = comm.rank_mut().take_history(); // drop warmup epochs
        for it in 0..reps {
            body(&mut comm, it);
        }
        let t = comm.rank_ref().now();
        let stats = comm.rank_ref().stats().clone();
        let metrics = comm.rank_mut().take_metrics();
        let map = comm.rank_mut().take_comm_map();
        let history = comm.rank_mut().take_history();
        (t, stats, metrics, map, history)
    });
    let tmax = out
        .iter()
        .map(|(t, _, _, _, _)| *t)
        .max()
        .expect("nonempty cluster");
    let mut merged = MetricsRegistry::enabled();
    let mut stats = Vec::with_capacity(out.len());
    let mut maps = Vec::with_capacity(out.len());
    let mut histories = Vec::with_capacity(out.len());
    for (_, s, m, map, h) in out {
        merged.merge(&m);
        stats.push(s);
        maps.push(map);
        histories.push(h);
    }
    (
        SimTime::from_ns(tmax.as_ns() / reps as u64),
        stats,
        merged,
        merge_comm_maps(&maps),
        merge_histories(&histories),
    )
}

/// [`time_phase_history`] with per-rank event tracing additionally
/// enabled: also returns every rank's trace of the measured (post-warmup)
/// iterations, so the caller can derive the critical path, the
/// algorithm-decision audit, and the wait-state diagnosis — everything
/// the observatory ledger persists. This is the most expensive
/// observation mode; benches run it once, on a representative
/// configuration, only when [`BenchCli::wants_observatory`].
#[allow(clippy::type_complexity)]
pub fn time_phase_traced<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> (
    SimTime,
    Vec<Stats>,
    MetricsRegistry,
    ClusterCommMap,
    History,
    Vec<Vec<TraceEvent>>,
)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    assert!(reps > 0);
    let out = Cluster::new(cluster_cfg).run(|rank| {
        rank.enable_metrics();
        rank.enable_history(); // also enables the comm map it derives from
        rank.enable_tracing();
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().take_stats();
        let _ = comm.rank_mut().take_metrics(); // drop warmup metrics
        let _ = comm.rank_mut().take_comm_map(); // drop warmup traffic
        let _ = comm.rank_mut().take_history(); // drop warmup epochs
        let _ = comm.rank_mut().take_trace(); // drop warmup events
        for it in 0..reps {
            body(&mut comm, it);
        }
        let t = comm.rank_ref().now();
        let stats = comm.rank_ref().stats().clone();
        let metrics = comm.rank_mut().take_metrics();
        let map = comm.rank_mut().take_comm_map();
        let history = comm.rank_mut().take_history();
        let trace = comm.rank_mut().take_trace();
        (t, stats, metrics, map, history, trace)
    });
    let tmax = out
        .iter()
        .map(|(t, ..)| *t)
        .max()
        .expect("nonempty cluster");
    let mut merged = MetricsRegistry::enabled();
    let mut stats = Vec::with_capacity(out.len());
    let mut maps = Vec::with_capacity(out.len());
    let mut histories = Vec::with_capacity(out.len());
    let mut traces = Vec::with_capacity(out.len());
    for (_, s, m, map, h, tr) in out {
        merged.merge(&m);
        stats.push(s);
        maps.push(map);
        histories.push(h);
        traces.push(tr);
    }
    (
        SimTime::from_ns(tmax.as_ns() / reps as u64),
        stats,
        merged,
        merge_comm_maps(&maps),
        merge_histories(&histories),
        traces,
    )
}

/// Byte-stable JSON of a bench's series for the observatory ledger: the
/// same `[x, y]` point layout as the figure report, led by the shared
/// schema version so the differential engine can re-load it.
pub fn series_json(name: &str, smoke: bool, series: &[Series]) -> String {
    let esc = ncd_simnet::export::json_escape;
    let mut out = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"name\":\"{}\",\"mode\":\"{}\",\"series\":[",
        esc(name),
        if smoke { "smoke" } else { "full" }
    );
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"label\":\"{}\",\"points\":[", esc(&s.label)));
        for (j, (x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let y_json = if y.is_finite() {
                y.to_string()
            } else {
                "null".to_string()
            };
            out.push_str(&format!("[\"{}\",{y_json}]", esc(x)));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Persist one run into the observatory ledger
/// (`target/observatory/<name>/<run-id>/`, override with
/// `NCD_OBSERVATORY`): the gated series plus every byte-stable export the
/// bench collected — metrics snapshot, comm matrix, epoch history, and
/// (from the traces) critical-path analysis, the algorithm-decision
/// audit, and the wait-state diagnosis. The run id is a deterministic
/// content hash, so re-ledgering an unchanged run is idempotent and an id
/// change is itself a behaviour-change signal.
///
/// `whatif` is the causal profile's byte-stable JSON when the bench ran
/// the what-if phase (see [`whatif_phase`]); `None` keeps the artifact
/// set — and therefore the run id — identical to a run without it.
#[allow(clippy::too_many_arguments)]
pub fn report_to_ledger(
    name: &str,
    smoke: bool,
    knobs: &[(String, String)],
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
    comm_map: Option<&ClusterCommMap>,
    history: Option<&History>,
    traces: Option<&[Vec<TraceEvent>]>,
    whatif: Option<&str>,
) -> std::io::Result<RunManifest> {
    let mut artifacts: Vec<(String, String)> =
        vec![("series.json".to_string(), series_json(name, smoke, series))];
    if let Some(m) = metrics {
        // metrics_json carries no schema field of its own; wrap it so the
        // artifact leads with the shared version like every other export.
        artifacts.push((
            "metrics.json".to_string(),
            format!(
                "{{\"schema\":{SCHEMA_VERSION},\"metrics\":{}}}",
                ncd_simnet::metrics_json(m)
            ),
        ));
    }
    if let Some(map) = comm_map {
        artifacts.push(("comm.json".to_string(), ncd_simnet::comm_matrix_json(map)));
    }
    if let Some(h) = history {
        artifacts.push(("history.json".to_string(), ncd_simnet::history_json(h)));
    }
    if let Some(traces) = traces {
        let path = ncd_simnet::HbGraph::build(traces).critical_path();
        let attr = ncd_simnet::attribute_rounds(traces);
        artifacts.push((
            "analysis.json".to_string(),
            ncd_simnet::analysis_json(&path, &attr),
        ));
        // Decisions are symmetric across ranks (every rank selects from
        // the same counts); rank 0's audit stands for the run.
        artifacts.push((
            "decisions.json".to_string(),
            ncd_core::decisions_json(&ncd_core::decisions_from_trace(&traces[0])),
        ));
        artifacts.push((
            "diagnosis.json".to_string(),
            ncd_simnet::diagnosis_json(&ncd_simnet::diagnose(traces)),
        ));
    }
    if let Some(json) = whatif {
        artifacts.push(("whatif.json".to_string(), json.to_string()));
    }
    let root = ncd_simnet::ledger_root();
    let mode = if smoke { "smoke" } else { "full" };
    let manifest = ncd_simnet::write_run(&root, name, mode, knobs, &artifacts)?;
    println!(
        "run ledgered: {name} {} -> {}",
        manifest.run_id,
        root.join(name).join(&manifest.run_id).display()
    );
    Ok(manifest)
}

/// Resolve a `--compare` spec for `name` against the ledger at `root`.
/// Beyond [`ncd_simnet::resolve_run_dir`]'s forms (`latest`, a 16-hex run
/// id, a run-directory path), a path to an *alternate ledger root*
/// containing `<name>/latest` — e.g. a committed reference tree — is
/// followed to that root's latest run for this bench.
fn resolve_compare_dir(
    root: &std::path::Path,
    name: &str,
    spec: &str,
) -> Result<std::path::PathBuf, String> {
    let p = std::path::Path::new(spec);
    if p.is_dir() && p.join(name).join("latest").is_file() {
        let id = ncd_simnet::latest_run_id(p, name)
            .ok_or_else(|| format!("empty latest pointer under {}/{name}", p.display()))?;
        return Ok(p.join(name).join(id));
    }
    let dir = ncd_simnet::resolve_run_dir(root, name, spec)?;
    if dir.join("manifest.json").is_file() {
        Ok(dir)
    } else {
        Err(format!("no ledgered run at {}", dir.display()))
    }
}

/// Schedule-seed perturbations the what-if phase replays each intervened
/// configuration under. The event scheduler's contract says the result
/// must not change, so any spread across these marks the measurement (not
/// the simulation) as fragile.
pub const WHATIF_SEEDS: &[u64] = &[7, 99];

/// Run the counterfactual what-if profiler over a diagnosis run's traces:
/// plan targeted interventions from the findings and the decision audit
/// ([`ncd_core::plan_experiments`]), deterministically replay each one on
/// the event backend ([`ncd_core::causal_profile`]), print the causal
/// profile and the findings with their measured `verified_gain`, and
/// write the byte-stable JSON to `target/analysis/<name>.whatif.json`.
///
/// Returns the JSON for ledgering — benches stash it in
/// [`BenchCli::whatif_artifact`] before calling
/// [`BenchCli::observatory`]. `None` when the planner found nothing to
/// test. `workload` must be the same workload the traces came from, or
/// the replayed gains verify a different run than the one diagnosed.
pub fn whatif_phase<F>(
    name: &str,
    cluster: &ClusterConfig,
    mpi: &MpiConfig,
    traces: &[Vec<TraceEvent>],
    comm_map: Option<&ClusterCommMap>,
    workload: F,
) -> Option<String>
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let mut diag = ncd_simnet::diagnose(traces);
    let decisions = ncd_core::decisions_from_trace(&traces[0]);
    let audit = ncd_core::detect_misselections(&decisions, comm_map, &cluster.cost, mpi);
    let plan = ncd_core::plan_experiments(&diag, &decisions, &audit, 3);
    if plan.is_empty() {
        println!("\nwhat-if: no findings or flags to test for {name}");
        return None;
    }
    let profile = ncd_core::causal_profile(cluster, mpi, &plan, WHATIF_SEEDS, &workload);
    profile.apply_verified_gains(&mut diag);
    print!("{}", ncd_core::whatif_report(&profile));
    print!("\n{}", diag.render(5));
    let json = ncd_core::whatif_json(&profile);
    let dir = std::path::Path::new("target").join("analysis");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.whatif.json"));
        if std::fs::write(&path, &json).is_ok() {
            println!("what-if profile written: {}", path.display());
        }
    }
    Some(json)
}

/// Aggregate per-rank stats into one cluster-wide breakdown.
pub fn aggregate(stats: &[Stats]) -> Stats {
    let mut total = Stats::new();
    for s in stats {
        total.merge(s);
    }
    total
}

/// Percentage improvement of `new` over `old` (positive = new is faster).
pub fn improvement_pct(old: SimTime, new: SimTime) -> f64 {
    if old.as_ns() == 0 {
        return 0.0;
    }
    100.0 * (old.as_ns() as f64 - new.as_ns() as f64) / old.as_ns() as f64
}

/// A labelled series of (x, y) points for table/CSV output.
pub struct Series {
    pub label: String,
    pub points: Vec<(String, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }
}

/// Prefix every series label with `prefix/` so two sweeps of the same
/// bench (which often reuse labels like "MVAPICH2-0.9.5") can share one
/// ledgered run without colliding in the differential's label-keyed
/// series join.
pub fn relabel(prefix: &str, series: &[Series]) -> Vec<Series> {
    series
        .iter()
        .map(|s| Series {
            label: format!("{prefix}/{}", s.label),
            points: s.points.clone(),
        })
        .collect()
}

/// Print an aligned table of several series sharing the x axis, and write
/// the same data as CSV under `target/figures/<name>.csv`. When a JSON
/// report is requested (see [`json_report_requested`]) the series are also
/// written to `target/figures/<name>.json`; benches that collect metrics
/// use [`report_with_metrics`] to include the registry snapshot.
pub fn report(name: &str, x_label: &str, y_label: &str, series: &[Series]) {
    report_impl(name, x_label, y_label, series, None, None, None, None)
}

#[allow(clippy::too_many_arguments)]
fn report_impl(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
    comm_map: Option<&ClusterCommMap>,
    history: Option<&History>,
    diagnosis: Option<&Diagnosis>,
) {
    println!("\n=== {name} ({y_label}) ===");
    print!("{:>14}", x_label);
    for s in series {
        print!("{:>22}", s.label);
    }
    println!();
    let npoints = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..npoints {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|(x, _)| x.clone()))
            .unwrap_or_default();
        print!("{x:>14}");
        for s in series {
            match s.points.get(i) {
                Some((_, y)) => print!("{y:>22.3}"),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }

    // The pack-pipeline summary rides along whenever the collected metrics
    // saw datatype-engine activity (noncontiguous sends).
    if let Some(table) = metrics.and_then(datatype_report) {
        print!("{table}");
    }

    // So does the algorithm-decision audit, whenever an auto-selecting
    // collective ran under the registry; the table is also written next to
    // the figures for CI artifact upload.
    if let Some(table) = metrics.and_then(decision_report) {
        print!("{table}");
        let dir = std::path::Path::new("target").join("analysis");
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{name}.decisions.txt")), &table);
        }
    }

    // And the who-talks-to-whom map, when one was collected
    // ([`time_phase_observed`] / [`report_with_observability`]); the raw
    // matrix goes to `target/analysis/<name>.comm.json` for artifacts.
    if let Some(map) = comm_map {
        if let Some(table) = comm_report(map) {
            print!("{table}");
        }
        let dir = std::path::Path::new("target").join("analysis");
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = ncd_simnet::write_comm_matrix_json(dir.join(format!("{name}.comm.json")), map);
        }
    }

    // The epoch time series, when one was collected
    // ([`time_phase_history`] / [`report_with_history`]): the sparkline
    // dashboard, any regime shifts an offline replay detects, and the
    // pattern-recurrence table. The byte-stable series goes to
    // `target/analysis/<name>.history.json` for artifacts.
    if let Some(h) = history {
        print!("\n{}", ncd_simnet::history_report(h));
        let drift = ncd_core::detect_drift(h, &DriftConfig::default());
        if !drift.is_empty() {
            print!("\n{}", ncd_core::render_drift_events(&drift));
        }
        let recurrence = ncd_core::pattern_recurrence(h);
        if !recurrence.is_empty() {
            print!("\n{}", ncd_core::render_recurrence(&recurrence));
        }
        let dir = std::path::Path::new("target").join("analysis");
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = ncd_simnet::write_history_json(dir.join(format!("{name}.history.json")), h);
        }
    }

    // The root-cause diagnosis, when the bench classified its traces
    // ([`report_with_diagnosis`]): the ranked wait-pattern findings and
    // blame matrix, with the byte-stable classification JSON written to
    // `target/analysis/<name>.diagnosis.json` for CI artifact upload.
    if let Some(d) = diagnosis {
        print!("\n{}", d.render(10));
        let dir = std::path::Path::new("target").join("analysis");
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = ncd_simnet::write_diagnosis_json(dir.join(format!("{name}.diagnosis.json")), d);
        }
    }

    // The scheduler's introspection survey of the most recent
    // event-driven run — how hard the event loop itself worked to
    // produce the numbers above. Purely informational: it reflects the
    // last run before this report, and nothing under the threads
    // backend.
    if let Some(table) = ncd_simnet::last_sched_stats()
        .as_ref()
        .and_then(sched_report)
    {
        print!("{table}");
    }

    // CSV alongside (best effort; benches may run in read-only setups).
    let dir = std::path::Path::new("target").join("figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let mut csv = String::new();
        csv.push_str(x_label);
        for s in series {
            csv.push(',');
            csv.push_str(&s.label);
        }
        csv.push('\n');
        for i in 0..npoints {
            let x = series
                .iter()
                .find_map(|s| s.points.get(i).map(|(x, _)| x.clone()))
                .unwrap_or_default();
            csv.push_str(&x);
            for s in series {
                csv.push(',');
                if let Some((_, y)) = s.points.get(i) {
                    csv.push_str(&format!("{y}"));
                }
            }
            csv.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{name}.csv")), csv);
    }

    if json_report_requested() {
        write_json_report(name, x_label, y_label, series, metrics);
    }
}

/// Whether a machine-readable JSON report was requested, via
/// `--report json` / `--report=json` on the command line or
/// `NCD_REPORT=json` in the environment.
pub fn json_report_requested() -> bool {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--report=json" {
            return true;
        }
        if a == "--report" && args.next().as_deref() == Some("json") {
            return true;
        }
    }
    std::env::var("NCD_REPORT").as_deref() == Ok("json")
}

/// [`report`], plus — when `--report json` (or `NCD_REPORT=json`) is in
/// effect — a machine-readable run report written to
/// `target/figures/<name>.json`: the same series as the CSV, and a
/// snapshot of the cluster-merged metrics registry when one was collected.
pub fn report_with_metrics(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
) {
    report_impl(name, x_label, y_label, series, metrics, None, None, None)
}

/// [`report_with_metrics`], plus the merged communication map: appends the
/// [`comm_report`] heatmap/analytics next to the datatype and decision
/// tables, and writes the byte-stable matrix JSON to
/// `target/analysis/<name>.comm.json` for CI artifact upload.
pub fn report_with_observability(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
    comm_map: Option<&ClusterCommMap>,
) {
    report_impl(
        name, x_label, y_label, series, metrics, comm_map, None, None,
    )
}

/// [`report_with_observability`], plus the merged epoch [`History`]:
/// appends the time-series sparkline dashboard, offline drift events and
/// the pattern-recurrence table, and writes the byte-stable series JSON
/// to `target/analysis/<name>.history.json` for CI artifact upload.
pub fn report_with_history(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
    comm_map: Option<&ClusterCommMap>,
    history: Option<&History>,
) {
    report_impl(
        name, x_label, y_label, series, metrics, comm_map, history, None,
    )
}

/// [`report_with_history`], plus a wait-state [`Diagnosis`] classified
/// from the bench's traces: appends the ranked finding table and blame
/// matrix to the report and writes the byte-stable classification JSON
/// to `target/analysis/<name>.diagnosis.json` for CI artifact upload.
#[allow(clippy::too_many_arguments)]
pub fn report_with_diagnosis(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
    comm_map: Option<&ClusterCommMap>,
    history: Option<&History>,
    diagnosis: Option<&Diagnosis>,
) {
    report_impl(
        name, x_label, y_label, series, metrics, comm_map, history, diagnosis,
    )
}

fn write_json_report(
    name: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    metrics: Option<&MetricsRegistry>,
) {
    let esc = ncd_simnet::export::json_escape;
    let mut out = format!(
        "{{\"name\":\"{}\",\"x_label\":\"{}\",\"y_label\":\"{}\",\"series\":[",
        esc(name),
        esc(x_label),
        esc(y_label)
    );
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"label\":\"{}\",\"points\":[", esc(&s.label)));
        for (j, (x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let y_json = if y.is_finite() {
                y.to_string()
            } else {
                "null".to_string()
            };
            out.push_str(&format!("[\"{}\",{y_json}]", esc(x)));
        }
        out.push_str("]}");
    }
    out.push(']');
    if let Some(m) = metrics {
        out.push_str(",\"metrics\":");
        out.push_str(&ncd_simnet::metrics_json(m));
    }
    out.push('}');
    let dir = std::path::Path::new("target").join("figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if std::fs::write(&path, out).is_ok() {
            println!("json report: {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::Tag;

    #[test]
    fn time_phase_measures_per_iteration() {
        let ping = |comm: &mut Comm, _it: usize| {
            if comm.rank() == 0 {
                comm.rank_mut().send_bytes(1, Tag(0), vec![0; 1200]);
            } else {
                let _ = comm.rank_mut().recv_bytes(Some(0), Tag(0));
            }
        };
        let (t1, _) = time_phase(ClusterConfig::uniform(2), MpiConfig::optimized(), 1, ping);
        let (t4, _) = time_phase(ClusterConfig::uniform(2), MpiConfig::optimized(), 4, ping);
        // Per-iteration time should be roughly rep-count independent.
        let ratio = t1.as_ns() as f64 / t4.as_ns() as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn improvement_pct_signs() {
        assert_eq!(improvement_pct(SimTime(100), SimTime(50)), 50.0);
        assert_eq!(improvement_pct(SimTime(100), SimTime(100)), 0.0);
        assert!(improvement_pct(SimTime(50), SimTime(100)) < 0.0);
        assert_eq!(improvement_pct(SimTime(0), SimTime(10)), 0.0);
    }

    #[test]
    fn series_and_report_do_not_panic() {
        let mut s = Series::new("test");
        s.push("1", 2.0);
        s.push("2", 4.0);
        report("unit_test_fig", "x", "y", &[s]);
    }

    #[test]
    fn time_phase_metrics_collects_cluster_registry() {
        let (_, stats, metrics) = time_phase_metrics(
            ClusterConfig::uniform(2),
            MpiConfig::optimized(),
            2,
            |comm, _| {
                let counts = vec![16usize; 2];
                let send = vec![1u8; 16];
                let mut recv = vec![0u8; 32];
                comm.allgatherv(&send, &counts, &mut recv);
            },
        );
        assert_eq!(stats.len(), 2);
        // 2 ranks x 2 measured reps (warmup metrics dropped).
        let h = metrics
            .histogram("allgatherv", "bytes", "adaptive")
            .expect("adaptive histogram");
        assert_eq!(h.count(), 4);
        // The flat-time counters mirror Stats exactly, cluster-wide.
        let total: u64 = aggregate(&stats).total().as_ns();
        let counted: u64 = ncd_simnet::CostKind::ALL
            .iter()
            .map(|k| metrics.counter("time", k.label(), ""))
            .sum();
        assert_eq!(counted, total);
    }

    #[test]
    fn json_report_writes_valid_file_when_requested() {
        let mut s = Series::new("baseline");
        s.push("64", 1.5);
        std::env::set_var("NCD_REPORT", "json");
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("a", "b", "c", 7);
        report_with_metrics("unit_test_json_fig", "n", "us", &[s], Some(&reg));
        std::env::remove_var("NCD_REPORT");
        let path = std::path::Path::new("target/figures/unit_test_json_fig.json");
        let json = std::fs::read_to_string(path).expect("json report written");
        assert!(json.starts_with("{\"name\":\"unit_test_json_fig\""));
        assert!(json.contains("\"points\":[[\"64\",1.5]]"));
        assert!(json.contains("\"key\":\"a/b/c\",\"value\":7"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn datatype_report_summarizes_engines() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("datatype", "blocks", "single-context", 4);
        reg.counter_add("datatype", "sparse_blocks", "single-context", 3);
        reg.counter_add("datatype", "dense_blocks", "single-context", 1);
        reg.counter_add("datatype", "seek_total", "single-context", 120);
        reg.observe("datatype", "lookahead_window", "single-context", 8);
        reg.observe("datatype", "block_bytes", "single-context", 4096);
        reg.counter_add("datatype", "blocks", "dual-context", 4);
        let table = datatype_report(&reg).expect("datatype activity present");
        assert!(table.contains("datatype pack pipeline"));
        assert!(table.contains("single-context"));
        assert!(table.contains("dual-context"));
        // 120 seeks over 4 blocks = 30.0 per block.
        assert!(table.contains("30.0"), "table:\n{table}");
        assert!(table.contains("4096"), "table:\n{table}");
    }

    #[test]
    fn decision_report_tabulates_choices_and_reasons() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("decision", "allgatherv", "ring", 16);
        reg.counter_add(
            "decision_reason",
            "allgatherv",
            "total >= long threshold",
            16,
        );
        reg.gauge_set("decision_ratio", "allgatherv", "ring", 8192.0);
        reg.observe("decision_bytes", "allgatherv", "ring", 65_664);
        let table = decision_report(&reg).expect("decisions present");
        assert!(table.contains("collective algorithm decisions"));
        assert!(table.contains("ring") && table.contains("8192.0"));
        assert!(table.contains("total >= long threshold (16)"));
        assert!(decision_report(&MetricsRegistry::enabled()).is_none());
    }

    #[test]
    fn observed_phase_collects_map_and_decision_metrics() {
        let counts = vec![64usize; 4];
        let (_, stats, metrics, map) = time_phase_observed(
            ClusterConfig::uniform(4),
            MpiConfig::optimized(),
            2,
            move |comm, _| {
                let send = vec![1u8; 64];
                let mut recv = vec![0u8; 256];
                comm.allgatherv(&send, &counts, &mut recv);
            },
        );
        assert_eq!(stats.len(), 4);
        // 4 ranks x 2 measured reps, warmup dropped.
        assert_eq!(
            metrics.counter("decision", "allgatherv", "recursive_doubling"),
            8
        );
        assert_eq!(map.n, 4);
        assert!(map.total.total_bytes() > 0);
        // Warmup traffic was dropped: exactly the 2 measured epochs.
        let epochs: Vec<_> = map
            .epochs
            .iter()
            .filter(|e| e.label == "allgatherv/recursive_doubling")
            .collect();
        assert_eq!(epochs.len(), 2);
        // The map columns match what each rank's mailbox delivered.
        for (r, s) in stats.iter().enumerate() {
            assert_eq!(map.total.col_bytes(r), s.bytes_recvd, "rank {r}");
        }
        let table = comm_report(&map).expect("traffic present");
        assert!(table.contains("communication map (4 ranks"));
        assert!(table.contains("allgatherv/recursive_doubling#0"));
        assert!(table.contains("hot pairs:"));
        assert!(comm_report(&merge_comm_maps(&[ncd_simnet::RankCommMap::new(0, 1)])).is_none());
    }

    #[test]
    fn observability_report_writes_artifacts() {
        let mut s = Series::new("latency");
        s.push("4", 1.0);
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("decision", "alltoallw", "binned", 3);
        let mut m0 = ncd_simnet::RankCommMap::new(0, 2);
        let mut m1 = ncd_simnet::RankCommMap::new(1, 2);
        m0.enable();
        m1.enable();
        m1.record_delivery(0, 4096);
        let map = merge_comm_maps(&[m0, m1]);
        report_with_observability("unit_test_obs_fig", "n", "us", &[s], Some(&reg), Some(&map));
        let json = std::fs::read_to_string("target/analysis/unit_test_obs_fig.comm.json")
            .expect("comm matrix artifact");
        assert!(json.starts_with("{\"schema\":1,\"ranks\":2,"));
        assert!(json.contains("[0,1,4096,1]"));
        let decisions = std::fs::read_to_string("target/analysis/unit_test_obs_fig.decisions.txt")
            .expect("decision table artifact");
        assert!(decisions.contains("binned"));
    }

    #[test]
    fn datatype_report_empty_without_pack_activity() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("allgatherv", "bytes", "ring", 7);
        assert!(datatype_report(&reg).is_none());
    }

    #[test]
    fn gate_failure_report_attaches_flight_dump() {
        // Run a cluster with noncontiguous traffic so the flight recorder
        // captures pack-pipeline events, then force a regression. The
        // last-run recorder set is process-global and sibling tests also
        // run clusters, so retry until our run is the one on record.
        use ncd_datatype::matrix_column_type;
        use ncd_simnet::Tag;
        let run_cluster = || {
            let mut cfg = MpiConfig::baseline();
            cfg.engine.block_size = 4096;
            Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let col = matrix_column_type(32, 32, 3).unwrap();
                let n = 32 * 32 * 24;
                if comm.rank() == 0 {
                    comm.send(&vec![1u8; n], &col, 32, 1, Tag(0));
                } else {
                    let mut dst = vec![0u8; n];
                    let row =
                        ncd_datatype::Datatype::contiguous(n, &ncd_datatype::Datatype::byte())
                            .unwrap();
                    comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
                }
            });
        };
        let regs = vec![baseline::Regression {
            series: "latency".into(),
            x: "1024".into(),
            baseline: 10.0,
            current: 20.0,
            delta_pct: 100.0,
        }];
        let mut report = String::new();
        for _ in 0..10 {
            run_cluster();
            report = gate_failure_report("unit_test_gate_fig", &regs, 10.0);
            if report.contains("pack-block engine=single-context") {
                break;
            }
        }
        assert!(report.contains("baseline check FAILED"));
        assert!(
            report.contains("flight recorder: last events per rank"),
            "report missing dump:\n{report}"
        );
        assert!(
            report.contains("pack-block engine=single-context"),
            "dump missing pack events:\n{report}"
        );
        let on_disk = std::fs::read_to_string("target/flight/unit_test_gate_fig.flight.txt")
            .expect("flight dump written for artifact upload");
        assert!(on_disk.contains("pack-block engine=single-context"));
    }

    #[test]
    fn sched_report_formats_the_survey() {
        let mut stats = ncd_simnet::SchedStats {
            tasks: 4,
            backend: "fiber",
            resumes: 12,
            parks_blocked: 1,
            parks_polling: 8,
            deposit_wakes: 1,
            poll_promotions: 2,
            promoted_tasks: 8,
            depth_sum: 30,
            max_stack_bytes: 18_432,
            ..Default::default()
        };
        stats.ready_depth_log2[0] = 3;
        stats.ready_depth_log2[1] = 6;
        stats.ready_depth_log2[2] = 3;
        let table = sched_report(&stats).expect("non-empty survey");
        assert!(table.contains("=== event scheduler (fiber) ==="), "{table}");
        assert!(
            table.contains("ready-queue depth: 1:3  2-3:6  4-7:3"),
            "{table}"
        );
        assert!(table.contains("2.50"), "mean depth 30/12:\n{table}");
        assert!(table.contains("18432"), "{table}");
        assert!(
            sched_report(&ncd_simnet::SchedStats::default()).is_none(),
            "an empty survey renders nothing"
        );
    }

    #[test]
    fn bench_cli_parses_every_flag_form() {
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let cli = BenchCli::from_args(&to_args(&[
            "bench",
            "--smoke",
            "--report",
            "json",
            "--baseline",
            "check",
            "--tolerance",
            "5",
            "--ledger",
            "--compare",
            "latest",
            "--whatif",
        ]));
        assert_eq!(
            cli,
            BenchCli {
                smoke: true,
                report_json: true,
                baseline: BaselineMode::Check,
                tolerance_pct: 5.0,
                ledger: true,
                compare: Some("latest".to_string()),
                whatif: true,
                whatif_artifact: None,
            }
        );
        let eqs = BenchCli::from_args(&to_args(&[
            "bench",
            "--report=json",
            "--baseline=write",
            "--tolerance=2.5",
            "--compare=0123456789abcdef",
        ]));
        assert_eq!(
            eqs,
            BenchCli {
                smoke: false,
                report_json: true,
                baseline: BaselineMode::Write,
                tolerance_pct: 2.5,
                ledger: false,
                compare: Some("0123456789abcdef".to_string()),
                whatif: false,
                whatif_artifact: None,
            }
        );
        assert!(
            eqs.wants_observatory(),
            "--compare implies an observatory pass"
        );
        let none = BenchCli::from_args(&to_args(&["bench"]));
        assert_eq!(
            none,
            BenchCli {
                smoke: false,
                report_json: false,
                baseline: BaselineMode::Off,
                tolerance_pct: 10.0,
                ledger: false,
                compare: None,
                whatif: false,
                whatif_artifact: None,
            }
        );
        assert!(!none.wants_observatory());
    }

    #[test]
    fn report_to_ledger_persists_and_reloads_every_artifact() {
        let root = std::env::temp_dir().join(format!("ncd_obs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::env::set_var("NCD_OBSERVATORY", &root);
        let run_once = || {
            let (t, _, metrics, map, history, traces) = time_phase_traced(
                ClusterConfig::uniform(4),
                MpiConfig::optimized(),
                2,
                |comm, _| {
                    let counts = vec![64usize; 4];
                    let send = vec![1u8; 64];
                    let mut recv = vec![0u8; 256];
                    comm.allgatherv(&send, &counts, &mut recv);
                },
            );
            let mut s = Series::new("latency");
            s.push("4", t.as_ns() as f64 / 1000.0);
            report_to_ledger(
                "unit_test_ledger",
                true,
                &[("procs".to_string(), "4".to_string())],
                &[s],
                Some(&metrics),
                Some(&map),
                Some(&history),
                Some(&traces),
                Some(&ncd_core::whatif_json(&ncd_core::CausalProfile {
                    baseline_ns: 1000,
                    outcomes: Vec::new(),
                })),
            )
            .expect("ledger write")
        };
        let m1 = run_once();
        let m2 = run_once();
        std::env::remove_var("NCD_OBSERVATORY");
        // Determinism: the same bench at the same knobs reproduces the
        // same content hash.
        assert_eq!(m1.run_id, m2.run_id);
        let dir = root.join("unit_test_ledger").join(&m1.run_id);
        let run = ncd_simnet::read_run(&dir).expect("read back");
        for artifact in [
            "series.json",
            "metrics.json",
            "comm.json",
            "history.json",
            "analysis.json",
            "decisions.json",
            "diagnosis.json",
            "whatif.json",
        ] {
            let text = run
                .artifact(artifact)
                .unwrap_or_else(|| panic!("{artifact} missing"));
            assert!(
                text.starts_with("{\"schema\":1,"),
                "{artifact} must lead with the schema: {}",
                &text[..text.len().min(40)]
            );
        }
        // And the differential engine re-loads it into an exact identity.
        let rec = ncd_core::RunRecord::from_ledger(&run).expect("parse artifacts");
        assert!(ncd_core::compare(&rec, &rec).is_empty());
        assert!(!rec.decisions.is_empty(), "decision audit persisted");
        assert!(rec.path.is_some() && rec.comm.is_some() && rec.diagnosis.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn history_phase_collects_epoch_series_and_artifacts() {
        let (_, stats, _metrics, map, history) = time_phase_history(
            ClusterConfig::uniform(4),
            MpiConfig::optimized(),
            3,
            |comm, _| {
                let counts = vec![64usize; 4];
                let send = vec![1u8; 64];
                let mut recv = vec![0u8; 256];
                comm.allgatherv(&send, &counts, &mut recv);
            },
        );
        assert_eq!(stats.len(), 4);
        assert_eq!(history.n, 4);
        // Warmup epochs were dropped: exactly the 3 measured calls.
        let pts = history.series("allgatherv/recursive_doubling");
        assert_eq!(pts.len(), 3, "labels: {:?}", history.series_labels());
        // The history totals agree with the comm map's.
        assert_eq!(
            pts.iter().map(|p| p.bytes).sum::<u64>(),
            map.total.total_bytes()
        );
        // A uniform steady series recurs perfectly.
        let rec = ncd_core::pattern_recurrence(&history);
        assert_eq!(rec[0].distinct, 1);
        assert_eq!(rec[0].stability, 1.0);

        report_with_history(
            "unit_test_history_fig",
            "n",
            "us",
            &[],
            None,
            Some(&map),
            Some(&history),
        );
        let json = std::fs::read_to_string("target/analysis/unit_test_history_fig.history.json")
            .expect("history artifact written");
        assert!(json.starts_with("{\"schema\":1,\"ranks\":4,"));
        assert!(json.contains("allgatherv/recursive_doubling"));
    }

    #[test]
    fn diagnosis_report_writes_artifacts() {
        use ncd_simnet::{diagnose, Tag};
        let traces = Cluster::new(ClusterConfig::uniform(2)).run(|rank| {
            rank.enable_tracing();
            if rank.rank() == 0 {
                rank.compute_flops(1_000_000);
                rank.send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
            rank.take_trace()
        });
        let d = diagnose(&traces);
        assert!(d.classified > SimTime::ZERO, "rank 1 must have waited");
        report_with_diagnosis(
            "unit_test_diag_fig",
            "n",
            "us",
            &[],
            None,
            None,
            None,
            Some(&d),
        );
        let json = std::fs::read_to_string("target/analysis/unit_test_diag_fig.diagnosis.json")
            .expect("diagnosis artifact written");
        assert!(json.starts_with("{\"schema\":1,"), "{json}");
        assert!(json.contains("\"pattern\":\"late-sender\""), "{json}");
    }

    #[test]
    fn aggregate_merges_all_ranks() {
        let (_, stats) = time_phase(
            ClusterConfig::uniform(3),
            MpiConfig::optimized(),
            1,
            |comm, _| comm.barrier(),
        );
        let total = aggregate(&stats);
        assert!(total.msgs_sent >= 3);
    }
}
