//! Helpers shared by the workloads: the grid's distinct kernels, the
//! layered prepare / simulate calls, the cross-architecture output
//! oracle, the Fig 12 geomeans and simulator totals.

use crate::host::Calls;
use crate::spans::Recorder;
use crate::Outcome;
use stitch::{AppRun, Arch, SweepPoint, Workbench};
use stitch_apps::App;
use stitch_kernels::Kernel;

/// Paper Fig 12 geomeans over Baseline: LOCUS, Stitch w/o fusion, Stitch.
const PAPER_FIG12: [f64; 3] = [1.14, 1.53, 2.3];

/// Every distinct kernel of `apps`, in first-use order, deduplicated the
/// way the workbench keys its variant cache.
pub fn distinct_kernels(apps: &[App]) -> Vec<&dyn Kernel> {
    let mut seen = Vec::new();
    let mut out: Vec<&dyn Kernel> = Vec::new();
    for n in apps.iter().flat_map(|a| &a.nodes) {
        let s = n.kernel.spec();
        let key = (s.name, s.input_words, s.output_words);
        if !seen.contains(&key) {
            seen.push(key);
            out.push(n.kernel.as_ref());
        }
    }
    out
}

/// Compiles every distinct kernel, then prepares every point (Algorithm
/// 1, per-node acceleration and the verify gate) through `verify_app`,
/// timing each call into `calls`. Returns, per point, whether its verify
/// report is clean.
pub fn prepare(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    frames: u32,
    rec: &mut Recorder,
    calls: &mut Calls,
) -> Vec<bool> {
    for k in distinct_kernels(apps) {
        if let Err(e) = calls.time(|| rec.time("compiler", "compile", || ws.variants(k))) {
            eprintln!("perfbench: compiling {}: {e}", k.spec().name);
        }
    }
    points
        .iter()
        .map(|p| {
            let app = &apps[p.app];
            let report =
                calls.time(|| rec.time("stitch", "prepare", || ws.verify_app(app, p.arch, frames)));
            match report {
                Ok(report) if report.is_clean() => true,
                Ok(report) => {
                    eprintln!(
                        "perfbench: {}/{:?} verify report:\n{report}",
                        app.name, p.arch
                    );
                    false
                }
                Err(e) => {
                    eprintln!("perfbench: preparing {}/{:?}: {e}", app.name, p.arch);
                    false
                }
            }
        })
        .collect()
}

/// Simulates every point once on the workbench's prepared artifacts,
/// timing each `run_app` call into `calls`.
pub fn simulate(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    frames: u32,
    rec: &mut Recorder,
    calls: &mut Calls,
) -> Vec<Option<AppRun>> {
    points
        .iter()
        .map(|p| {
            let app = &apps[p.app];
            let run =
                calls.time(|| rec.time("sim", "simulate", || ws.run_app(app, p.arch, frames)));
            match run {
                Ok(run) => Some(run),
                Err(e) => {
                    eprintln!("perfbench: simulating {}/{:?}: {e}", app.name, p.arch);
                    None
                }
            }
        })
        .collect()
}

/// Simulated cycles per point, `None` where the run failed.
pub fn cycles(runs: &[Option<AppRun>]) -> Vec<Option<u64>> {
    runs.iter()
        .map(|r| r.as_ref().map(|r| r.summary.cycles))
        .collect()
}

/// The cross-architecture oracle: a point passes when it and its app's
/// Baseline point both produced outputs and they are equal.
pub fn oracle<K: PartialEq>(points: &[SweepPoint], outputs: &[Option<K>]) -> Vec<bool> {
    points
        .iter()
        .zip(outputs)
        .map(|(p, out)| {
            let base = points
                .iter()
                .position(|q| q.app == p.app && q.arch == Arch::Baseline);
            match (out, base.and_then(|b| outputs[b].as_ref())) {
                (Some(o), Some(b)) => o == b,
                _ => false,
            }
        })
        .collect()
}

/// Records one op per point: prepared clean, simulated, and equal to the
/// Baseline outputs.
pub fn record_points(
    out: &mut Outcome,
    apps: &[App],
    points: &[SweepPoint],
    prepared: &[bool],
    runs: &[Option<AppRun>],
) {
    let outputs: Vec<Option<&Vec<Vec<u32>>>> = runs
        .iter()
        .map(|r| r.as_ref().map(|r| &r.node_outputs))
        .collect();
    let agree = oracle(points, &outputs);
    for (i, p) in points.iter().enumerate() {
        out.op(
            prepared[i] && runs[i].is_some() && agree[i],
            format_args!("{}/{:?}", apps[p.app].name, p.arch),
        );
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Fig 12 from per-point throughputs: the Stitch/Baseline geomean and the
/// mean relative error of the three geomeans against the paper. `None`
/// when some app lacks a point.
pub fn fig12(points: &[SweepPoint], fps: &[Option<f64>]) -> Option<(f64, f64)> {
    let n_apps = points.iter().map(|p| p.app + 1).max()?;
    let mut rel: [Vec<f64>; 3] = Default::default();
    for app in 0..n_apps {
        let at = |arch: Arch| {
            points
                .iter()
                .position(|p| p.app == app && p.arch == arch)
                .and_then(|i| fps[i])
        };
        let base = at(Arch::Baseline)?;
        for (k, arch) in [Arch::Locus, Arch::StitchNoFusion, Arch::Stitch]
            .into_iter()
            .enumerate()
        {
            rel[k].push(at(arch)? / base);
        }
    }
    let g: Vec<f64> = rel.iter().map(|v| geomean(v)).collect();
    let err = g
        .iter()
        .zip(PAPER_FIG12)
        .map(|(m, p)| (m / p - 1.0).abs())
        .sum::<f64>()
        / 3.0;
    Some((g[2], err))
}

/// Simulator counters summed over runs.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub struct SimTotals {
    pub cycles: u64,
    pub instructions: u64,
    pub skipped: u64,
    pub batched: u64,
    pub windows: u64,
    pub uops: u64,
    pub blocks: u64,
    pub block_hits: u64,
    pub recv_wait: u64,
    pub fetch_stall: u64,
    pub mem_stall: u64,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    pub flit_hops: u64,
    pub packets: u64,
    pub custom: u64,
    pub fused: u64,
    pub injected: u64,
    pub demotions: u64,
    pub watchdog: u64,
    pub scrubs: u64,
}

impl SimTotals {
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a AppRun>) -> Self {
        let mut t = SimTotals::default();
        for r in runs {
            let s = &r.summary;
            let core = s.merged_core();
            t.cycles += s.cycles;
            t.instructions += core.instructions;
            t.skipped += r.skipped_cycles;
            t.batched += r.translation.batched_cycles;
            t.windows += r.translation.windows;
            t.uops += r.translation.uops_executed;
            t.blocks += r.translation.blocks_translated;
            t.block_hits += r.translation.cache_hits;
            t.recv_wait += core.recv_wait_cycles;
            t.fetch_stall += core.fetch_stall_cycles;
            t.mem_stall += core.mem_stall_cycles;
            t.icache_misses += s.tiles.iter().map(|x| x.icache.misses).sum::<u64>();
            t.dcache_misses += s.tiles.iter().map(|x| x.dcache.misses).sum::<u64>();
            t.flit_hops += s.mesh.flit_hops;
            t.packets += s.mesh.packets_delivered;
            t.custom += core.custom_ops;
            t.fused += core.fused_ops;
            t.injected += r.fault_stats.injected;
            t.demotions += r.fault_stats.demotions;
            t.watchdog += r.fault_stats.watchdog_trips;
            t.scrubs += r.fault_stats.scrubs;
        }
        t
    }

    pub fn batched_fraction(&self) -> f64 {
        ratio(self.batched, self.cycles)
    }

    pub fn cycles_per_window(&self) -> f64 {
        ratio(self.batched, self.windows)
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The `sim` layer and the simulated statistics of one grid pass whose
/// `run_app` calls took `run_s`.
pub fn put_sim_layer(out: &mut Outcome, t: &SimTotals, run_s: f64) {
    out.put("sim.run_s", run_s);
    out.put("sim.host_ns_per_cycle", run_s * 1e9 / t.cycles as f64);
    out.put("sim.cycles", t.cycles as f64);
    out.put("sim.instructions", t.instructions as f64);
    out.put("sim.skipped_cycles", t.skipped as f64);
    out.put("sim.batched_cycles", t.batched as f64);
    out.put("sim.batched_fraction", t.batched_fraction());
    out.put("sim.windows", t.windows as f64);
    out.put("sim.cycles_per_window", t.cycles_per_window());
    out.put("sim.uops", t.uops as f64);
    out.put("sim.blocks_translated", t.blocks as f64);
    out.put(
        "sim.block_hit_ratio",
        ratio(t.block_hits, t.block_hits + t.blocks),
    );
    out.put("cpu.recv_wait_cycles", t.recv_wait as f64);
    out.put("cpu.fetch_stall_cycles", t.fetch_stall as f64);
    out.put("cpu.mem_stall_cycles", t.mem_stall as f64);
    out.put("mem.icache_misses", t.icache_misses as f64);
    out.put("mem.dcache_misses", t.dcache_misses as f64);
    out.put("noc.flit_hops", t.flit_hops as f64);
    out.put("noc.packets", t.packets as f64);
    out.put("patch.custom_ops", t.custom as f64);
    out.put("patch.fused_ops", t.fused as f64);
}

/// Fig 12 metrics from one fault-free grid pass.
pub fn put_fig12(out: &mut Outcome, points: &[SweepPoint], runs: &[Option<AppRun>]) {
    let fps: Vec<Option<f64>> = runs
        .iter()
        .map(|r| r.as_ref().map(|r| r.throughput_fps))
        .collect();
    if let Some((speedup, err)) = fig12(points, &fps) {
        out.put("fig12_stitch_speedup", speedup);
        out.put("fig12_err_vs_paper", err);
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if q == 0.5 && s.len().is_multiple_of(2) {
        return (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}
