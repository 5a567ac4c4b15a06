//! `cold-build`: a seed-generated module corpus plus the 17 programs'
//! typed and untyped sources, built into an empty store at `--jobs 1`
//! and at `--jobs nproc`, then rebuilt over the full store.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use lagoon_core::EngineKind;
use lagoon_server::{build_from_map, BuildOptions, BuildReport};

use crate::calib::Calibration;
use crate::gen::{corpus, Corpus};
use crate::host::process_user_sys_s;
use crate::layers::{self, ProbeModule};
use crate::report::{kind_geomean, Outcome, Sample};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Run;

/// Library modules in the generated corpus (the smoke tests use 12).
pub const LIBS: usize = 200;
/// Entry modules whose values are checked.
pub const ENTRIES: usize = 6;
/// Reference seconds per round (one cold build and one warm rebuild); a
/// run does `--seconds / ROUND_S` rounds, so every run does the same
/// work. A round takes about half this on the reference host: the spare
/// keeps the stores a run writes, and deletes at exit, few, because the
/// filesystem's clean-up of deleted stores slows the runs that follow.
const ROUND_S: f64 = 1.0;
/// Untimed first rounds: the filesystem settles after earlier runs'
/// deletions, and the process's allocations reach steady state.
const WARMUP_ROUNDS: u64 = 1;

struct Inputs {
    corpus: Corpus,
    sources: BTreeMap<String, String>,
    entries: Vec<String>,
    /// Entry module → value under `ast-interp`.
    expected: Vec<(String, String)>,
}

fn inputs(seed: u64, libs: usize) -> Result<Inputs, String> {
    let corpus = corpus(seed, libs, ENTRIES);
    let mut sources = corpus.source_map();
    for b in lagoon_bench::all_benchmarks() {
        sources.insert(format!("fig-{}-typed", b.name), b.typed_source());
        sources.insert(format!("fig-{}-untyped", b.name), b.untyped_source());
    }
    let entries: Vec<String> = sources.keys().cloned().collect();
    // Expected values come from the reference interpreter, an engine
    // independent of the bytecode compiler the builds exercise.
    let reg = layers::registry();
    for (name, src) in &sources {
        reg.add_module(name, src);
    }
    let mut expected = Vec::new();
    for m in &corpus.entries {
        let v = reg
            .run(&m.name, EngineKind::Interp)
            .map_err(|e| format!("ast-interp {}: {e}", m.name))?;
        expected.push((m.name.clone(), v.to_string()));
    }
    Ok(Inputs {
        corpus,
        sources,
        entries,
        expected,
    })
}

fn store_files(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "lagc") {
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            files.insert(
                path.file_name()
                    .map_or(String::new(), |n| n.to_string_lossy().into_owned()),
                bytes,
            );
        }
    }
    Ok(files)
}

fn build(inputs: &Inputs, jobs: usize, dir: &Path) -> BuildReport {
    build_from_map(
        &inputs.entries,
        inputs.sources.clone(),
        &BuildOptions {
            jobs,
            cache_dir: Some(dir.to_path_buf()),
            ..BuildOptions::default()
        },
    )
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let libs = if run.small { 12 } else { LIBS };
    let mut inp = None;
    for _ in 0..run.setup_reps {
        inp = Some(out.setup(|| inputs(run.seed, libs))?);
    }
    let inp = inp.ok_or("no set-up repetitions")?;
    let modules = inp.sources.len();
    let jobs = run.host.cpus;
    out.note(format!(
        "corpus: {} library + {} entry modules + 34 program modules = {modules}",
        inp.corpus.libs.len(),
        inp.corpus.entries.len()
    ));

    let off = Tracer::new(false);
    let kinds = ["cold_jobs1", "cold_jobsN", "warm"];
    let mut cal = Calibration::default();
    let mut samples: [Sample; 3] = Default::default();
    let mut traced_samples: [Sample; 3] = Default::default();
    let (mut utilization, mut misses, mut hit_share) = (Vec::new(), 0.0, Vec::new());
    let mut cold_sys_ms = Vec::new();
    let mut last_store: Option<std::path::PathBuf> = None;
    // Each round builds one cold store, at `--jobs 1` and `--jobs nproc`
    // in turn, and rebuilds over it warm; each store is compared with the
    // previous round's, built at the other job count. Stores stay until
    // the run ends: deleting them between builds makes the filesystem's
    // own clean-up work show up in later builds.
    for round in 0..WARMUP_ROUNDS + run.rounds(ROUND_S) as u64 {
        let traced = run.tracer.enabled() && (round / 2) % 2 == 1;
        let tracer = if traced { &run.tracer } else { &off };
        let cold = (round % 2) as usize;
        let dir = run.work.join(format!("store-{round}"));
        let op = tracer.begin("bench.op", None, round);
        let mut reports = Vec::new();
        let mut raw = Vec::new();
        for k in [cold, 2] {
            let j = if k == 0 { 1 } else { jobs };
            cal.sample(3);
            let (wall, (user, sys)) = (Instant::now(), process_user_sys_s());
            let report = tracer.span("server.build", op, k as u64, || build(&inp, j, &dir));
            let (user_end, sys_end) = process_user_sys_s();
            raw.push((
                k,
                (user_end - user) * 1e3,
                (sys_end - sys) * 1e3,
                wall.elapsed().as_secs_f64() * 1e3,
            ));
            out.attempted += 1;
            if !report.success() {
                out.fail(format!(
                    "{} build failed: {:?}",
                    kinds[k],
                    report.failures()
                ));
            }
            reports.push(report);
        }
        tracer.end(op);
        let scale = cal.take_scale();
        for (k, user_ms, sys_ms, wall_ms) in raw {
            if round < WARMUP_ROUNDS {
                break;
            }
            let sample = if traced {
                &mut traced_samples[k]
            } else {
                &mut samples[k]
            };
            sample.cpu_ms.push(user_ms);
            sample.norm_ms.push(user_ms * scale);
            sample.wall_ms.push(wall_ms);
            if k == 0 && !traced {
                cold_sys_ms.push(sys_ms);
            }
        }
        if reports[0].cache_misses != modules {
            out.fail(format!(
                "{} build missed {} of {modules} modules",
                kinds[cold], reports[0].cache_misses
            ));
        }
        if reports[1].cache_misses != 0 {
            out.fail(format!(
                "warm rebuild missed {} modules",
                reports[1].cache_misses
            ));
        }
        if let Some(previous) = &last_store {
            out.attempted += 1;
            if store_files(previous)? != store_files(&dir)? {
                out.fail(format!("--jobs 1 and --jobs {jobs} stores differ"));
            }
        }
        if cold == 0 {
            misses = reports[0].cache_misses as f64;
        } else {
            utilization.push(reports[0].utilization());
        }
        let w = &reports[1];
        hit_share.push(w.cache_hits as f64 / (w.cache_hits + w.cache_misses).max(1) as f64);
        last_store = Some(dir);
    }
    let store = last_store.ok_or("no build rounds ran")?;
    let store_bytes: usize = store_files(&store)?.values().map(Vec::len).sum();

    // The built store must run every entry to its ast-interp value.
    let reg = layers::registry();
    reg.set_store_dir(Some(store.clone()));
    for (name, src) in &inp.sources {
        reg.add_module(name, src);
    }
    for (name, want) in &inp.expected {
        out.attempted += 1;
        match reg.run(name, EngineKind::Vm) {
            Ok(v) if v.to_string() == *want => {}
            Ok(v) => out.fail(format!("{name}: got {v}, expected {want}")),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }

    let med = |t: &Vec<f64>| median(t).unwrap_or(0.0);
    out.layer("build.cold_ms", med(&samples[0].wall_ms));
    out.layer("build.cold_par_ms", med(&samples[1].wall_ms));
    out.layer("build.warm_ms", med(&samples[2].wall_ms));
    out.layer("build.cold_sys_ms", med(&cold_sys_ms));
    out.layer(
        "server.build.utilization",
        median(&utilization).unwrap_or(0.0),
    );
    out.layer("server.build.cache_misses", misses);
    out.layer("core.store.hit_share", median(&hit_share).unwrap_or(0.0));
    out.layer("core.store.bytes", store_bytes as f64);
    for (kind, j, s) in [
        ("cold", 1, &samples[0]),
        ("cold", jobs, &samples[1]),
        ("warm", jobs, &samples[2]),
    ] {
        out.note(format!(
            "  build {kind:<4} jobs={j} host_cpus={} median wall {:.3} ms, user cpu {:.3} ms ({:.3} at nominal speed) over {} builds{}",
            run.host.cpus,
            med(&s.wall_ms),
            med(&s.cpu_ms),
            med(&s.norm_ms),
            s.wall_ms.len(),
            run.host.scaling_note(j)
        ));
    }

    if run.tracer.enabled() {
        out.layer(
            "bench.trace_overhead",
            kind_geomean(&traced_samples, |s| &s.norm_ms).unwrap_or(f64::NAN)
                / kind_geomean(&samples, |s| &s.norm_ms).unwrap_or(f64::NAN)
                - 1.0,
        );
        let mut modules: Vec<ProbeModule> = inp
            .corpus
            .modules()
            .map(|m| ProbeModule {
                name: m.name.clone(),
                body: m.body.clone(),
            })
            .collect();
        modules.extend(
            lagoon_bench::all_benchmarks()
                .into_iter()
                .map(|b| ProbeModule {
                    name: format!("fig-{}", b.name),
                    body: b.source.to_string(),
                }),
        );
        let probe = layers::probe_median(&run.tracer, &modules, &run.work.join("probe"), 3)?;
        out.frontend(&probe);
        // What a serial cold build spends outside every named front-end
        // layer: scheduling, worker set-up, store file I/O.
        out.layer(
            "bench.unattributed_ms",
            med(&samples[0].norm_ms) - probe.cold_total_ms(),
        );
    }
    out.samples = samples.into();
    Ok(())
}
