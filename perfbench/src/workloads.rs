//! The two workloads and the compiler stage-split pass.
//!
//! Every timed region runs on this one thread: the workloads call
//! `Workbench` methods in a loop (or `sweep_resumable` with one worker)
//! and spawn nothing. Timed loops repeat a fixed unit of work until
//! `--seconds` have passed and at least a few units ran. A unit is a
//! fixed sequence of calls; the reported time sums each call's best time
//! over the units, the repository's best-of-N convention applied per
//! call: on a shared host, interference only ever adds time, in bursts of
//! a few seconds, so a per-call best moves far less between runs. In a
//! traced run the units alternate between traced and untraced, so the
//! same process prices its own spans.

use crate::grid::{self, median, percentile, ratio, SimTotals};
use crate::host::{cpu_seconds, peak_rss_mb, Calls};
use crate::spans::Recorder;
use crate::{Opts, Outcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stitch::{
    AppRun, Arch, ArtifactStore, ChipConfig, FaultKind, FaultPlan, Rec, RecView, SweepManifest,
    SweepPoint, TraceConfig, Workbench, DEFAULT_FRAMES,
};
use stitch_apps::{build_node_program, App};
use stitch_compiler::{
    accel_fingerprint, accelerate_all, enumerate_candidates, kernel_input_key, map_candidate,
    profile_program, rewrite_program, select_candidates, stitch_application_masked,
    verify_kernel_uncached, verify_memo_hits, AcceleratedKernel, AppKernel, BlockDfg, Cfg, Chosen,
    EnumerateLimits, PatchConfig, HOT_THRESHOLD,
};
use stitch_sim::SimRng;
use stitch_verify::{check_ise, check_program, Report};

/// Fresh workbench sessions per `warm_store` iteration.
const SESSIONS_PER_ITER: usize = 32;
/// `cold_grid`'s set-up is timed in this many batches of `SETUP_BATCH`
/// input builds each (one build takes about 0.1 ms); `setup_s` is the
/// best batch's time per build. On a shared host the speed of a short
/// window swings by 2x within seconds, so the batches span about a
/// second.
const SETUP_BATCHES: usize = 300;
const SETUP_BATCH: usize = 32;
/// Share by which a timed region's CPU time may exceed its wall time
/// before the region counts as having run a second thread.
const CPU_MARGIN: f64 = 0.05;
/// Untraced and traced warm grid passes that price `cold_grid`'s spans.
const PRICING_PAIRS: usize = 3;
/// Units a timed loop runs at least (half traced in a traced run).
const MIN_UNITS: usize = 3;
const MIN_TRACED_UNITS: usize = 4;
/// Profiling budget `stitch_compiler::accelerate_all` uses.
const PROFILE_BUDGET: u64 = 200_000_000;

/// One timed unit: the (wall, CPU) seconds of each call it made, in call
/// order, and whether it was traced.
struct Unit {
    calls: Calls,
    traced: bool,
}

/// Repeats `unit` until `--seconds` have passed and at least the minimum
/// number of units ran. In a traced run, odd units record spans inside a
/// root span named `unit`; even ones run untraced.
fn timed_loop(
    o: &Opts,
    rec: &mut Recorder,
    mut unit: impl FnMut(&mut Recorder, &mut Calls),
) -> Vec<Unit> {
    let traced_run = rec.is_on();
    let min = if traced_run {
        o.min_units(MIN_TRACED_UNITS).max(2)
    } else {
        o.min_units(MIN_UNITS)
    };
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < min || start.elapsed().as_secs_f64() < o.seconds {
        let traced = traced_run && units.len() % 2 == 1;
        rec.set_on(traced);
        let mut calls = Calls::default();
        let opened = rec.begin("bench", "unit");
        unit(rec, &mut calls);
        rec.end(opened);
        units.push(Unit { calls, traced });
    }
    rec.set_on(traced_run);
    let walls: Vec<String> = units
        .iter()
        .map(|u| format!("{:.3}", u.calls.0.iter().map(|c| c.0).sum::<f64>()))
        .collect();
    eprintln!("perfbench: unit wall times (s): {}", walls.join(" "));
    units
}

/// Each call position's best (wall, CPU) time over `units`, summed over
/// positions: the unit as it runs when no interference hits it.
fn best_calls<'a>(units: impl IntoIterator<Item = &'a Calls>) -> (f64, f64) {
    let units: Vec<&Calls> = units.into_iter().collect();
    let n = units.iter().map(|c| c.0.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            units
                .iter()
                .map(|c| c.0[i])
                .fold((f64::INFINITY, f64::INFINITY), |(w, c), (w2, c2)| {
                    (w.min(w2), c.min(c2))
                })
        })
        .fold((0.0, 0.0), |(w, c), (w2, c2)| (w + w2, c + c2))
}

fn untraced(units: &[Unit]) -> impl Iterator<Item = &Calls> {
    units.iter().filter(|u| !u.traced).map(|u| &u.calls)
}

/// One op: the timed region ran on one thread, so its CPU time is not
/// above its wall time (plus a margin for clock reads).
fn check_one_thread(out: &mut Outcome, wall: f64, cpu: f64) {
    out.op(
        cpu <= wall * (1.0 + CPU_MARGIN) + 1e-3,
        format_args!("timed region used {cpu:.3} s CPU in {wall:.3} s wall: a second thread"),
    );
}

/// Puts the best untraced wall and CPU time of the timed unit as `wall_s`
/// and `cpu_s`, after checking every unit's calls for a second thread.
fn put_unit_times(out: &mut Outcome, units: &[Unit]) {
    let (wall, cpu) = units
        .iter()
        .flat_map(|u| &u.calls.0)
        .fold((0.0, 0.0), |(w, c), (w2, c2)| (w + w2, c + c2));
    check_one_thread(out, wall, cpu);
    let (wall, cpu) = best_calls(untraced(units));
    out.put("wall_s", wall);
    out.put("cpu_s", cpu);
}

/// Traced-run metrics of the loop itself: span coverage of the traced
/// units and their best time over the untraced units' best time.
fn put_trace_loop(out: &mut Outcome, rec: &Recorder, units: &[Unit]) {
    let traced = units.iter().filter(|u| u.traced).map(|u| &u.calls);
    out.put("trace.span_coverage", rec.coverage("unit"));
    out.put(
        "trace.bench_overhead",
        best_calls(traced).0 / best_calls(untraced(units)).0,
    );
}

/// Ends a run: in a traced run per-layer self time from the spans, the
/// memo reading and the span file; in an untraced one peak memory.
fn finish(o: &Opts, name: &str, out: &mut Outcome, rec: &Recorder, memo0: u64) {
    if rec.is_on() {
        let by_layer = rec.self_by_layer();
        for (layer, metric) in [
            ("compiler", "self.compiler_s"),
            ("stitch", "self.stitch_s"),
            ("verify", "self.verify_s"),
            ("cache", "self.cache_s"),
            ("sim", "self.sim_s"),
            ("fault", "self.fault_s"),
            ("bench", "self.bench_s"),
        ] {
            out.put(metric, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        out.put("verify.memo_hits", (verify_memo_hits() - memo0) as f64);
        let path = o.out.join(format!("spans-{name}.json"));
        if let Err(e) = rec.write_chrome(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else {
        out.put("peak_rss_mb", peak_rss_mb());
    }
}

/// Per-point compile / prepare metrics from the spans of `grid::prepare`.
fn put_prepare_layers(out: &mut Outcome, rec: &Recorder, apps: &[App]) {
    out.put("compiler.compile_s", rec.self_total("compile"));
    out.put(
        "compiler.kernels",
        grid::distinct_kernels(apps).len() as f64,
    );
    let prep = rec.durations("prepare");
    out.put("stitch.prepare_s", prep.iter().sum());
    out.put(
        "stitch.prepare_max_ms",
        prep.iter().copied().fold(0.0, f64::max) * 1e3,
    );
}

/// Traced-run probes on a session whose grid is compiled, prepared and
/// simulated: re-times Algorithm 1 (whose plan must match the run's) and
/// the uncached kernel verify gate, counts the plan's acceleration, and
/// prices chip tracing with one traced pass against `untraced_pass_s`.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    frames: u32,
    runs: &[Option<AppRun>],
    untraced_pass_s: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let mut plans_match = true;
    for (p, run) in points.iter().zip(runs) {
        let app = &apps[p.app];
        let kernels: Result<Vec<AppKernel>, _> = app
            .nodes
            .iter()
            .map(|n| {
                ws.variants(n.kernel.as_ref()).map(|variants| AppKernel {
                    name: n.name.clone(),
                    home: n.home,
                    variants,
                })
            })
            .collect();
        let (Ok(kernels), Some(run)) = (kernels, run) else {
            plans_match = false;
            continue;
        };
        let cfg = ChipConfig::for_arch(p.arch);
        let plan = rec.time("compiler", "stitch", || {
            stitch_application_masked(&kernels, &cfg, p.arch, &[])
        });
        plans_match &= format!("{:?}{:?}{:?}", plan.tiles, plan.accel, plan.circuits)
            == format!(
                "{:?}{:?}{:?}",
                run.plan.tiles, run.plan.accel, run.plan.circuits
            );
    }
    out.op(plans_match, "re-run stitch plans equal the runs' plans");
    out.put("compiler.stitch_s", rec.self_total("stitch"));

    let mut gate = Report::new();
    for k in grid::distinct_kernels(apps) {
        if let Ok(kv) = ws.variants(k) {
            gate.merge(rec.time("verify", "kernel", || verify_kernel_uncached(&kv)));
        }
    }
    out.op(
        gate.error_count() == 0 && gate.warning_count() == 0,
        format_args!("uncached kernel verify gate:\n{gate}"),
    );
    out.put("verify.kernel_s", rec.self_total("kernel"));
    out.put("verify.errors", gate.error_count() as f64);
    out.put("verify.warnings", gate.warning_count() as f64);

    let done: Vec<&AppRun> = runs.iter().flatten().collect();
    out.put(
        "stitch.fused_pairs",
        done.iter().map(|r| r.plan.fused()).sum::<usize>() as f64,
    );
    out.put(
        "stitch.accelerated_nodes",
        done.iter().map(|r| r.plan.accelerated()).sum::<usize>() as f64,
    );

    ws.set_trace(Some(TraceConfig::new(16)));
    let t = Instant::now();
    let traced = grid::simulate(
        ws,
        apps,
        points,
        frames,
        &mut Recorder::new(false),
        &mut Calls::default(),
    );
    let traced_s = t.elapsed().as_secs_f64();
    ws.set_trace(None);
    out.op(
        grid::cycles(&traced) == grid::cycles(runs),
        "chip tracing leaves simulated cycles unchanged",
    );
    out.put("trace.sim_overhead_x", traced_s / untraced_pass_s);
}

/// `cold_grid`: the full Fig 12 grid from an empty process, layer by
/// layer — compile every kernel, prepare every point, simulate every
/// point. Set-up only builds the input apps and assembles their node
/// programs; it compiles nothing. An untraced run reports each call of
/// the cold region (wall and CPU seconds) rather than its total: the
/// region runs once per process, so `run.py` starts several processes
/// and sums each call's best time across them.
pub fn cold_grid(o: &Opts) -> Outcome {
    let memo0 = verify_memo_hits();
    let mut out = Outcome::default();
    let mut batches = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            apps = o.apps();
            let homes: Vec<Vec<_>> = apps
                .iter()
                .map(|a| a.nodes.iter().map(|n| n.home).collect())
                .collect();
            for (app, tiles) in apps.iter().zip(&homes) {
                for i in 0..app.nodes.len() {
                    std::hint::black_box(build_node_program(app, i, DEFAULT_FRAMES, tiles).ok());
                }
            }
        }
        batches.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let frames = o.frames();
    let points = Workbench::full_grid(&apps);
    let mut rec = Recorder::new(o.trace);
    out.op(
        verify_memo_hits() == memo0,
        "no verify memo hit before the cold region",
    );

    let mut ws = Workbench::new();
    let (c0, t0) = (cpu_seconds(), Instant::now());
    let opened = rec.begin("bench", "unit");
    let mut cold_calls = Calls::default();
    let prepared = grid::prepare(&mut ws, &apps, &points, frames, &mut rec, &mut cold_calls);
    let mut sim_calls = Calls::default();
    let runs = grid::simulate(&mut ws, &apps, &points, frames, &mut rec, &mut sim_calls);
    rec.end(opened);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - c0;
    check_one_thread(&mut out, wall, cpu);

    grid::record_points(&mut out, &apps, &points, &prepared, &runs);
    let totals = SimTotals::of(runs.iter().flatten());

    // After timing: one round of the seed's fault plans on the Stitch
    // points, which must keep their fault-free outputs.
    let plans = fault_plans(o.seed, &points, &runs, &mut out);
    let mut fault_calls = Calls::default();
    let faulted = fault_round(
        &mut ws,
        &apps,
        &points,
        &plans,
        frames,
        &mut rec,
        &mut fault_calls,
    );
    let retention = check_faulted(&mut out, &plans, &runs, &faulted);
    if o.trace {
        put_prepare_layers(&mut out, &rec, &apps);
        grid::put_sim_layer(&mut out, &totals, rec.self_total("simulate"));
        put_fault_layer(
            &mut out,
            &SimTotals::of(faulted.iter().flatten()),
            best_calls([&fault_calls]).0,
            stitch_ns_per_cycle(&points, &sim_calls, &runs),
            &retention,
        );
        let sim_s = best_calls([&sim_calls]).0;
        layer_probes(
            &mut ws, &apps, &points, frames, &runs, sim_s, &mut rec, &mut out,
        );
        out.put("trace.span_coverage", rec.coverage("unit"));
        // The cold region cannot repeat in one process: price the spans
        // on warm grid passes instead, alternating untraced and traced.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..PRICING_PAIRS {
            let mut calls = Calls::default();
            let mut off = Recorder::new(false);
            grid::simulate(&mut ws, &apps, &points, frames, &mut off, &mut calls);
            plain.push(calls);
            let mut calls = Calls::default();
            grid::simulate(&mut ws, &apps, &points, frames, &mut rec, &mut calls);
            traced.push(calls);
        }
        out.put(
            "trace.bench_overhead",
            best_calls(&traced).0 / best_calls(&plain).0,
        );
    } else {
        out.calls = cold_calls.0.iter().chain(&sim_calls.0).copied().collect();
        out.put(
            "setup_s",
            batches.iter().copied().fold(f64::INFINITY, f64::min),
        );
        out.put("sim_cycles", totals.cycles as f64);
        grid::put_fig12(&mut out, &points, &runs);
    }
    finish(o, "cold_grid", &mut out, &rec, memo0);
    out
}

/// One grid point's record in the sweep manifest.
#[derive(Clone, PartialEq, Debug)]
struct PointRec {
    cycles: u64,
    fps: f64,
    outputs: u64,
}

fn outputs_hash(outputs: &[Vec<u32>]) -> u64 {
    let mut h = DefaultHasher::new();
    outputs.hash(&mut h);
    h.finish()
}

fn reduce(run: &AppRun) -> PointRec {
    PointRec {
        cycles: run.summary.cycles,
        fps: run.throughput_fps,
        outputs: outputs_hash(&run.node_outputs),
    }
}

fn encode(run: &AppRun) -> Vec<u8> {
    let r = reduce(run);
    let mut rec = Rec::new();
    rec.u64(r.cycles);
    rec.f64(r.fps);
    rec.u64(r.outputs);
    rec.into_bytes()
}

fn decode(bytes: &[u8]) -> Option<PointRec> {
    let mut v = RecView::new(bytes);
    let r = PointRec {
        cycles: v.u64()?,
        fps: v.f64()?,
        outputs: v.u64()?,
    };
    v.at_end().then_some(r)
}

fn point_key(apps: &[App], p: SweepPoint) -> String {
    format!("{}-{:?}", apps[p.app].name, p.arch)
}

/// Files and bytes under `dir`, one level deep.
fn dir_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

/// `warm_store`: set-up fills a fresh artifact store and a full sweep
/// manifest of the grid. Each timed iteration runs `SESSIONS_PER_ITER`
/// fresh workbench sessions that reload every grid point from the store,
/// plus one `sweep_resumable` resume from the manifest. Afterwards one
/// more warm session simulates the reloaded grid, which must match the
/// cold records cycle for cycle.
pub fn warm_store(o: &Opts) -> Outcome {
    let memo0 = verify_memo_hits();
    let mut out = Outcome::default();
    let apps = o.apps();
    let points = Workbench::full_grid(&apps);
    let frames = o.frames();
    let mut rec = Recorder::new(o.trace);
    let (store_dir, manifest_dir) = (o.out.join("store"), o.out.join("manifest"));
    let key_of = |p: SweepPoint| point_key(&apps, p);

    let t = Instant::now();
    let opened = rec.begin("cache", "populate");
    let (store, manifest) = match (
        ArtifactStore::open(&store_dir),
        SweepManifest::open(&manifest_dir),
    ) {
        (Ok(s), Ok(m)) if s.clear().is_ok() && m.clear().is_ok() => (Arc::new(s), m),
        _ => {
            out.op(false, "opening a fresh store and manifest");
            return out;
        }
    };
    let mut ws = Workbench::new();
    ws.set_artifact_store(Arc::clone(&store));
    let prepared = grid::prepare(
        &mut ws,
        &apps,
        &points,
        frames,
        &mut rec,
        &mut Calls::default(),
    );
    let cold: Vec<Option<PointRec>> = rec
        .time("sim", "simulate", || {
            ws.sweep_resumable(
                &apps, &points, frames, 1, &manifest, key_of, encode, decode, reduce,
            )
        })
        .into_iter()
        .map(Result::ok)
        .collect();
    rec.end(opened);
    let setup_s = t.elapsed().as_secs_f64();
    let cold_outputs: Vec<Option<u64>> =
        cold.iter().map(|r| r.as_ref().map(|r| r.outputs)).collect();
    let agree = grid::oracle(&points, &cold_outputs);
    for (i, p) in points.iter().enumerate() {
        out.op(
            prepared[i] && agree[i],
            format_args!("cold {}/{:?}", apps[p.app].name, p.arch),
        );
    }

    let (hits0, misses0) = (store.hits(), store.misses());
    let units = timed_loop(o, &mut rec, |rec, calls| {
        for _ in 0..o.min_units(SESSIONS_PER_ITER) {
            let clean = calls.time(|| {
                let opened = rec.begin("cache", "session");
                let mut session = Workbench::new();
                session.set_artifact_store(Arc::clone(&store));
                let clean = points.iter().all(|p| {
                    rec.time("cache", "load", || {
                        session
                            .verify_app(&apps[p.app], p.arch, frames)
                            .is_ok_and(|r| r.is_clean())
                    })
                });
                // Teardown is part of a session's cost.
                drop(session);
                rec.end(opened);
                clean
            });
            out.op(clean, "warm session reloads every point clean");
        }
        let recomputed = std::cell::Cell::new(0);
        let resumed = calls.time(|| {
            rec.time("cache", "resume", || {
                Workbench::new().sweep_resumable(
                    &apps,
                    &points,
                    frames,
                    1,
                    &manifest,
                    key_of,
                    encode,
                    decode,
                    |run| {
                        recomputed.set(recomputed.get() + 1);
                        reduce(run)
                    },
                )
            })
        });
        let same = resumed.into_iter().map(Result::ok).eq(cold.iter().cloned());
        out.op(
            same && recomputed.get() == 0,
            "resume rebuilds every cold record from the manifest",
        );
    });
    let (hits, misses) = (store.hits() - hits0, store.misses() - misses0);
    out.op(
        misses == 0,
        format_args!("{misses} store misses while warm"),
    );

    // After timing: a warm session's reloaded grid simulates to the cold
    // records, and its accelerated outputs equal Baseline's.
    let mut check = Workbench::new();
    check.set_artifact_store(Arc::clone(&store));
    let mut pass_calls = Calls::default();
    let runs = grid::simulate(
        &mut check,
        &apps,
        &points,
        frames,
        &mut Recorder::new(false),
        &mut pass_calls,
    );
    let warm: Vec<Option<PointRec>> = runs.iter().map(|r| r.as_ref().map(reduce)).collect();
    let reloaded: Vec<bool> = vec![true; points.len()];
    grid::record_points(&mut out, &apps, &points, &reloaded, &runs);
    out.op(warm == cold, "warm grid simulates to the cold records");
    let totals = SimTotals::of(runs.iter().flatten());

    if o.trace {
        put_prepare_layers(&mut out, &rec, &apps);
        let pass_s = best_calls([&pass_calls]).0;
        grid::put_sim_layer(&mut out, &totals, pass_s);
        let iters = units.iter().filter(|u| u.traced).count().max(1) as f64;
        let sessions: Vec<f64> = rec.durations("session");
        out.put("cache.load_s", rec.self_total("load") / iters);
        out.put("cache.session_p50_ms", median(&sessions) * 1e3);
        out.put("cache.session_p95_ms", percentile(&sessions, 0.95) * 1e3);
        out.put("cache.resume_s", rec.self_total("resume") / iters);
        out.put("cache.hits", hits as f64);
        out.put("cache.misses", misses as f64);
        out.put("cache.hit_ratio", ratio(hits, hits + misses));
        let (sf, sb) = dir_size(&store_dir);
        let (mf, mb) = dir_size(&manifest_dir);
        out.put("cache.files", (sf + mf) as f64);
        out.put("cache.bytes", (sb + mb) as f64);
        out.put("cache.populate_s", setup_s);
        let configs = PatchConfig::all();
        for k in grid::distinct_kernels(&apps) {
            let spec = k.spec();
            if let Ok(program) = k.standalone() {
                let check = Some((spec.output_addr, spec.output_words as usize));
                rec.time("cache", "key", || {
                    kernel_input_key(spec.name, &program, &configs, check)
                });
            }
        }
        out.put("cache.key_s", rec.self_total("key"));
        layer_probes(
            &mut ws, &apps, &points, frames, &runs, pass_s, &mut rec, &mut out,
        );
        put_trace_loop(&mut out, &rec, &units);
    } else {
        put_unit_times(&mut out, &units);
        out.put("setup_s", setup_s);
        out.put("sim_cycles", totals.cycles as f64);
        grid::put_fig12(&mut out, &points, &runs);
    }
    finish(o, "warm_store", &mut out, &rec, memo0);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&manifest_dir);
    out
}

/// One seeded, compute-only, all-transient fault plan per Stitch point
/// of `runs` (a fault-free grid pass): a transient patch failure, a
/// transient switch failure and a configuration upset on accelerated
/// tiles, injected while the fault-free run would still be going. The
/// permanent mask stays empty, so no plan re-stitches; one op per plan
/// checks that.
fn fault_plans(
    seed: u64,
    points: &[SweepPoint],
    runs: &[Option<AppRun>],
    out: &mut Outcome,
) -> Vec<(usize, FaultPlan)> {
    let mut rng = SimRng::new(seed ^ 0x5717_C4FA_0000_0001);
    let mut plans = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let Some(run) = runs[i].as_ref().filter(|_| p.arch == Arch::Stitch) else {
            continue;
        };
        let tiles: Vec<_> = run
            .plan
            .tiles
            .iter()
            .zip(&run.plan.accel)
            .filter(|(_, a)| a.is_some())
            .map(|(t, _)| *t)
            .collect();
        let c = run.summary.cycles;
        // One fault of each kind, one in each third of the fault-free
        // run, so plans of different seeds cost alike.
        let mut plan = FaultPlan::new(rng.next_u64());
        for third in 0..3 {
            let cycle = rng.range(third * c / 3, (third + 1) * c / 3);
            let tile = tiles[rng.index(tiles.len())];
            let until = Some(cycle + rng.range(1_000, 20_000));
            let kind = match third {
                0 => FaultKind::PatchFail { tile, until },
                1 => FaultKind::SwitchFail { tile, until },
                _ => FaultKind::ConfigUpset { tile },
            };
            plan.push(cycle, kind);
        }
        out.op(
            plan.is_compute_only() && plan.failed_patches().is_empty(),
            "fault plan is compute-only and transient",
        );
        plans.push((i, plan));
    }
    plans
}

/// Runs every fault plan once on its point through `run_app_faulted`,
/// timing each call.
fn fault_round(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    plans: &[(usize, FaultPlan)],
    frames: u32,
    rec: &mut Recorder,
    calls: &mut Calls,
) -> Vec<Option<AppRun>> {
    plans
        .iter()
        .map(|(i, plan)| {
            let p = points[*i];
            calls
                .time(|| {
                    rec.time("fault", "faulted", || {
                        ws.run_app_faulted(&apps[p.app], p.arch, frames, plan)
                    })
                })
                .map_err(|e| eprintln!("perfbench: faulted {}: {e}", apps[p.app].name))
                .ok()
        })
        .collect()
}

/// One op per faulted run: it must finish with the fault-free outputs of
/// its point. Returns each run's log throughput retention.
fn check_faulted(
    out: &mut Outcome,
    plans: &[(usize, FaultPlan)],
    clean: &[Option<AppRun>],
    faulted: &[Option<AppRun>],
) -> Vec<f64> {
    let mut retention = Vec::new();
    for ((i, _), run) in plans.iter().zip(faulted) {
        let same = match (run, &clean[*i]) {
            (Some(f), Some(c)) => {
                retention.push((f.throughput_fps / c.throughput_fps).ln());
                f.node_outputs == c.node_outputs
            }
            _ => false,
        };
        out.op(same, "faulted outputs equal the fault-free outputs");
    }
    retention
}

/// Host nanoseconds per simulated cycle of the fault-free Stitch points,
/// from the per-point calls of one grid pass.
fn stitch_ns_per_cycle(points: &[SweepPoint], calls: &Calls, runs: &[Option<AppRun>]) -> f64 {
    let stitch = |p: &&SweepPoint| p.arch == Arch::Stitch;
    let wall: f64 = points
        .iter()
        .zip(&calls.0)
        .filter(|(p, _)| stitch(p))
        .map(|(_, c)| c.0)
        .sum();
    let cycles = SimTotals::of(
        points
            .iter()
            .zip(runs)
            .filter(|(p, _)| stitch(p))
            .filter_map(|(_, r)| r.as_ref()),
    )
    .cycles;
    wall * 1e9 / cycles as f64
}

/// The `fault` layer of one round of faulted runs that took `round_s`.
fn put_fault_layer(
    out: &mut Outcome,
    t: &SimTotals,
    round_s: f64,
    clean_ns_per_cycle: f64,
    retention: &[f64],
) {
    let ns_per_cycle = round_s * 1e9 / t.cycles as f64;
    out.put("fault.run_s", round_s);
    out.put("fault.host_ns_per_cycle", ns_per_cycle);
    out.put("fault.slowdown_x", ns_per_cycle / clean_ns_per_cycle);
    out.put("fault.injected", t.injected as f64);
    out.put("fault.demotions", t.demotions as f64);
    out.put("fault.watchdog_trips", t.watchdog as f64);
    out.put("fault.scrubs", t.scrubs as f64);
    out.put("fault.batched_fraction", t.batched_fraction());
    out.put("fault.cycles_per_window", t.cycles_per_window());
    out.put(
        "fault.retention",
        (retention.iter().sum::<f64>() / retention.len() as f64).exp(),
    );
}

/// `stages`: the compiler's stage split. For each distinct kernel, runs
/// the steps of `stitch_compiler::accelerate_all` one public call at a
/// time — profile, CFG and DFGs, enumerate, map, select and rewrite, and
/// the verify gate — then runs `accelerate_all` itself, whose variants
/// the replica must reproduce exactly. Runs in a fresh process so the
/// mapper's process-wide memo starts empty.
pub fn stages(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(true);
    let apps = o.apps();
    let configs = PatchConfig::all();
    let (mut candidates, mut map_calls, mut map_found, mut custom) = (0u64, 0u64, 0u64, 0u64);
    let mut obligations = 0u64;
    for k in grid::distinct_kernels(&apps) {
        let name = k.spec().name;
        let Ok(program) = k.standalone() else {
            out.op(
                false,
                format_args!("{name}: assembling the standalone program"),
            );
            continue;
        };
        let Ok(profile) = rec.time("compiler", "profile", || {
            profile_program(&program, PROFILE_BUDGET)
        }) else {
            out.op(false, format_args!("{name}: profiling"));
            continue;
        };
        let (cfg, hot, dfgs) = rec.time("compiler", "dfg", || {
            let cfg = Cfg::build(&program);
            let hot = profile.hot_blocks(&cfg, HOT_THRESHOLD);
            let dfgs: HashMap<usize, BlockDfg> = hot
                .iter()
                .map(|&b| (b, BlockDfg::build(&program, &cfg, &cfg.blocks[b])))
                .collect();
            (cfg, hot, dfgs)
        });
        let cands: HashMap<usize, Vec<_>> = rec.time("compiler", "enumerate", || {
            hot.iter()
                .map(|&b| {
                    (
                        b,
                        enumerate_candidates(&dfgs[&b], EnumerateLimits::default()),
                    )
                })
                .collect()
        });
        candidates += cands.values().map(|c| c.len() as u64).sum::<u64>();

        let mut replica = Vec::new();
        let mut gate_clean = true;
        for &config in &configs {
            let mut plans: HashMap<usize, Vec<Chosen>> = HashMap::new();
            for &b in &hot {
                let dfg = &dfgs[&b];
                let mapped: Vec<Chosen> = rec.time("compiler", "map", || {
                    cands[&b]
                        .iter()
                        .filter_map(|c| {
                            map_calls += 1;
                            let m = map_candidate(dfg, c, config).or_else(|| match config {
                                PatchConfig::Pair(c1, _) => {
                                    map_calls += 1;
                                    map_candidate(dfg, c, PatchConfig::Single(c1))
                                }
                                _ => None,
                            })?;
                            map_found += 1;
                            Some(Chosen {
                                candidate: c.clone(),
                                mapping: m,
                            })
                        })
                        .collect()
                });
                let chosen = rec.time("compiler", "rewrite", || select_candidates(dfg, mapped));
                plans.insert(b, chosen);
            }
            if plans.values().all(Vec::is_empty) {
                continue;
            }
            let Ok(rewritten) = rec.time("compiler", "rewrite", || {
                rewrite_program(&program, &cfg, &dfgs, &plans, name)
            }) else {
                out.op(false, format_args!("{name}/{config}: rewriting"));
                continue;
            };
            if rewritten.custom_count == 0 {
                continue;
            }
            let mut report = rec.time("verify", "lint", || check_program(&rewritten.program));
            for check in &rewritten.ise_checks {
                report.merge(rec.time("verify", "ise", || check_ise(check)));
            }
            obligations += rewritten.ise_checks.len() as u64;
            gate_clean &= report.is_clean();
            custom += rewritten.custom_count as u64;
            replica.push(AcceleratedKernel {
                config,
                program: rewritten.program,
                ci_controls: rewritten.ci_controls,
                custom_count: rewritten.custom_count,
                cycles: 0,
                ise_checks: rewritten.ise_checks,
            });
        }
        let real = accelerate_all(name, &program, &configs);
        let same = real.is_ok_and(|real| {
            real.iter()
                .map(accel_fingerprint)
                .eq(replica.iter().map(accel_fingerprint))
        });
        out.op(
            gate_clean && same,
            format_args!("{name}: stage replica reproduces accelerate_all"),
        );
    }
    out.put("compiler.profile_s", rec.self_total("profile"));
    out.put("compiler.dfg_s", rec.self_total("dfg"));
    out.put("compiler.enumerate_s", rec.self_total("enumerate"));
    out.put("compiler.map_s", rec.self_total("map"));
    out.put("compiler.rewrite_s", rec.self_total("rewrite"));
    out.put("compiler.candidates", candidates as f64);
    out.put("compiler.map_calls", map_calls as f64);
    out.put("compiler.map_found", map_found as f64);
    out.put("compiler.map_yield", ratio(map_found, map_calls));
    out.put("compiler.custom_instrs", custom as f64);
    out.put("verify.lint_s", rec.self_total("lint"));
    out.put("verify.ise_s", rec.self_total("ise"));
    out.put("verify.obligations", obligations as f64);
    let path = o.out.join("spans-stages.json");
    if let Err(e) = rec.write_chrome(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    out
}
