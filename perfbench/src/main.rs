//! The balsa-rs benchmark: two workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_job|train_job --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is the summary (`correct`, `attempted`,
//! `failed`, `metrics`): every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. The full result, with the run
//! conditions, goes to `perfbench/out/<workload>-seed<N>-trace<T>.json`
//! and the traced run's spans to `perfbench/out/<workload>.spans.tsv`.
//! See `perfbench/README.md` for the metrics and what each should move.

mod result;
mod serve;
mod stats;
mod trace;
mod wrap;

use balsa_card::HistogramEstimator;
use balsa_cost::ExpertCostModel;
use balsa_engine::ExecutionEnv;
use balsa_learn::{
    evaluate_expert_baseline, evaluate_learned, train_loop, Featurizer, LabelSource, LearnedScorer,
    ModelKind, OptimizerKind, SgdConfig, TrainBreakdown, TrainConfig, TrainOutcome, ValueModel,
};
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::{Query, Split, Workload};
use balsa_search::{BeamPlanner, DpPlanner, PlanBudget, SearchMode, WorkerPool};
use balsa_storage::{mini_imdb, DataGenConfig, Database};
use result::{Json, RunResult};
use serve::{Client, Pass, Record};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Beam width of the served learned planner (the paper's k).
const BEAM_WIDTH: usize = 20;
/// Held-out queries of the JOB random split (94 train / 19 test).
const TEST_QUERIES: usize = 19;
/// Data scale of the mini-IMDb database.
const SCALE: f64 = 1.0;
/// Untraced/traced pass pairs of the traced run (interleaved U T U T).
const TRACED_PAIRS: usize = 2;
/// Trivial pool dispatches timed for `search.pool.dispatch_us`.
const DISPATCH_REPS: usize = 2000;
/// Set-ups per untraced train_job run; its `setup_s` is their median.
/// serve_job sets up once: its set-up is mostly the served model's
/// pretraining, which is also its `train_s`.
const TRAIN_SETUP_REPEATS: usize = 5;
/// Fine-tuning iterations of train_job.
const TRAIN_ITERATIONS: usize = 1;
/// The timed serving loop stops at this multiple of `--seconds` even if
/// p99 still lacks samples (the percentile then reads NaN, a failed
/// check), so planners that keep failing cannot stall the run.
const TIMED_CAP_FACTOR: f64 = 4.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload serve_job|train_job \
             --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let mut r = RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        ..Default::default()
    };
    match args.workload.as_str() {
        "serve_job" => serve_job(&args, &mut r),
        "train_job" => train_job(&args, &mut r),
        w => {
            eprintln!("perfbench: unknown workload {w:?} (serve_job|train_job)");
            std::process::exit(2);
        }
    }
    for m in &r.metrics {
        if !m.value.is_finite() {
            r.failures.push(format!("metric {} is not finite", m.name));
            r.failed += 1;
            r.attempted += 1;
        }
    }
    r.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    r.correct = r.failed == 0;
    for f in r.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    r.failures.truncate(100);
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        r.workload, r.seed, r.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, r.full().to_text() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", r.summary().to_text());
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

/// SplitMix64: derives independent sub-seeds and shuffles from one seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, k: u64) -> u64 {
    mix(mix(seed) ^ k)
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = mix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The generated inputs of one seed: database, JOB-like and
/// Ext-JOB-like workloads, and the random split.
struct World {
    db: Arc<Database>,
    job: Workload,
    ext: Workload,
    split: Split,
}

impl World {
    fn new(seed: u64) -> Self {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: SCALE,
            seed: sub_seed(seed, 1),
        }));
        let wseed = sub_seed(seed, 2);
        let job = job_workload(db.catalog(), wseed);
        let ext = ext_job_workload(db.catalog(), wseed);
        let split = Split::random(job.queries.len(), TEST_QUERIES, sub_seed(seed, 3));
        Self {
            db,
            job,
            ext,
            split,
        }
    }
}

/// Tree-conv training with Adam, as the learning benchmark trains it
/// (20 random plans per training query, 60 pretraining epochs).
fn tree_conv_cfg(seed: u64, iterations: usize) -> TrainConfig {
    let base = TrainConfig::default();
    TrainConfig {
        model: ModelKind::TreeConv,
        mode: SearchMode::Bushy,
        beam_width: BEAM_WIDTH,
        iterations,
        pretrain_sgd: SgdConfig {
            optimizer: OptimizerKind::Adam,
            momentum: 0.9,
            lr: 0.002,
            ..base.pretrain_sgd
        },
        finetune_sgd: SgdConfig {
            optimizer: OptimizerKind::Adam,
            momentum: 0.9,
            lr: 0.001,
            epochs: base.finetune_sgd.epochs + base.finetune_sgd.epochs / 2,
            ..base.finetune_sgd
        },
        seed: sub_seed(seed, 4),
        planning_threads: threads(),
        training_threads: threads(),
        ..base
    }
}

/// Records a failed check.
fn fail(r: &mut RunResult, msg: String) {
    r.failed += 1;
    r.failures.push(msg);
}

/// Per-layer metrics that `TrainBreakdown` and the training outcome
/// provide, for the `train_loop` a workload ran.
fn train_layers(
    r: &mut RunResult,
    outcome: &TrainOutcome,
    train_s: f64,
    fine_tune_execs: usize,
    env: &ExecutionEnv,
) {
    r.metric("train_sim_h", sim_hours(outcome), "h");
    let b: &TrainBreakdown = &outcome.breakdown;
    r.metric("learn.fit.forward_s", b.forward_secs, "s");
    r.metric("learn.fit.backward_s", b.backward_secs, "s");
    r.metric("learn.featurize_s", b.featurize_secs, "s");
    r.metric(
        "train.unattributed_s",
        train_s - (b.forward_secs + b.backward_secs + b.featurize_secs + b.truecard_secs),
        "s",
    );
    r.metric(
        "learn.buffer.real",
        outcome.buffer.count(LabelSource::Real) as f64,
        "count",
    );
    r.metric(
        "learn.buffer.sim",
        outcome.buffer.count(LabelSource::Simulated) as f64,
        "count",
    );
    let timeouts: usize = outcome.trajectory.iter().map(|s| s.timeouts).sum();
    r.metric(
        "engine.timeout_frac",
        if fine_tune_execs == 0 {
            0.0
        } else {
            timeouts as f64 / fine_tune_execs as f64
        },
        "ratio",
    );
    r.metric(
        "engine.plan_cache_hit_rate",
        hit_rate(env.cache_stats()),
        "ratio",
    );
    r.metric(
        "engine.truecard_hit_rate",
        hit_rate(env.truth().cache_stats()),
        "ratio",
    );
}

/// Final simulated hours of a `train_loop`: the paper's x-axis. A
/// per-layer metric, not an end-to-end one: one unbudgeted exploratory
/// plan can add a minute of simulated execution, so it moves by about a
/// quarter (IQR over median) across seeds.
fn sim_hours(outcome: &TrainOutcome) -> f64 {
    outcome
        .trajectory
        .last()
        .map_or(f64::NAN, |it| it.sim_hours)
}

fn hit_rate((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Serves `queries` with the learned beam over `model` and the expert DP,
/// both fanning out on `pool`, on the warm engine `env`.
///
/// Untraced: one warm-up pass, then timed passes until `seconds` have
/// passed and p99 has at least ten samples beyond it (or a pass served
/// nothing, or [`TIMED_CAP_FACTOR`] × `seconds` passed); reports the
/// plan-latency and throughput metrics. Traced: a warm-up pass, then
/// [`TRACED_PAIRS`] interleaved untraced/traced passes, the traced ones
/// planning through the timing wrappers; reports the serving layers'
/// per-layer metrics per traced pass. Every pass must reproduce the
/// warm-up pass bit for bit. Returns the warm-up pass: the reference
/// records, and the cold executions' walls.
// The argument list is the serving context; both workloads build it
// from different set-ups.
#[allow(clippy::too_many_arguments)]
fn serve_stream(
    args: &Args,
    r: &mut RunResult,
    db: &Arc<Database>,
    env: &ExecutionEnv,
    pool: &WorkerPool,
    featurizer: &Featurizer,
    model: &dyn ValueModel,
    queries: &[Query],
) -> Pass {
    let hist = HistogramEstimator::new(db);
    let expert = ExpertCostModel::new(db.clone(), env.profile().weights);
    let scorer = LearnedScorer::new(featurizer, model, &hist);
    let beam = BeamPlanner::new(db, &scorer, SearchMode::Bushy, BEAM_WIDTH).with_pool(pool.clone());
    let dp = DpPlanner::new(db, &expert, &hist, SearchMode::Bushy).with_pool(pool.clone());
    let client = Client {
        queries,
        env,
        oracle: &expert,
        oracle_est: &hist,
    };
    r.condition("pool_threads", pool.threads() as f64);
    r.condition("stream_queries", queries.len() as f64);
    r.condition("beam_width", BEAM_WIDTH as f64);

    let check = |r: &mut RunResult, pass: &Pass, reference: Option<&Pass>, what: &str| {
        r.attempted += queries.len() as u64;
        for f in &pass.failures {
            fail(r, f.clone());
        }
        if let Some(reference) = reference {
            for m in serve::mismatches(&reference.records, pass, queries, what) {
                fail(r, m);
            }
        }
    };

    let warm = client.pass(&beam, &dp);
    check(r, &warm, None, "warm-up pass");
    r.condition("warmup_passes", 1.0);

    if !args.trace {
        let need = stats::min_samples(99, stats::MIN_BEYOND);
        let (mut learned_ms, mut expert_ms) = (Vec::new(), Vec::new());
        let (mut passes, mut wall) = (0usize, 0.0);
        let t0 = Instant::now();
        loop {
            let p = client.pass(&beam, &dp);
            check(r, &p, Some(&warm), "plan, cost or latency");
            learned_ms.extend_from_slice(&p.learned_ms);
            expert_ms.extend_from_slice(&p.expert_ms);
            wall += p.wall_secs;
            passes += 1;
            let done = secs(t0) >= args.seconds && learned_ms.len() >= need;
            if done || p.learned_ms.is_empty() || secs(t0) >= TIMED_CAP_FACTOR * args.seconds {
                break;
            }
        }
        let n = learned_ms.len();
        for (name, xs) in [("plan_ms", &learned_ms), ("expert_plan_ms", &expert_ms)] {
            for p in [50, 99] {
                let v = stats::percentile(xs, p).unwrap_or(f64::NAN);
                r.metric(&format!("{name}_p{p}"), v, "ms");
            }
        }
        r.metric(
            "queries_per_s",
            (passes * queries.len()) as f64 / wall,
            "1/s",
        );
        r.condition("timed_passes", passes as f64);
        r.condition("timed_wall_s", wall);
        r.condition("percentile_samples", n as f64);
        r.condition("p99_samples_beyond", stats::beyond(n, 99) as f64);
        r.condition("p50_samples_beyond", stats::beyond(n, 50) as f64);
        return warm;
    }

    let timed_card = wrap::TimedCard(&hist);
    let timed_cost = wrap::TimedCost(&expert);
    let timed_model = wrap::TimedModel(model);
    let timed_inner = LearnedScorer::new(featurizer, &timed_model, &timed_card);
    let timed_scorer = wrap::TimedScorer(&timed_inner);
    let tbeam =
        BeamPlanner::new(db, &timed_scorer, SearchMode::Bushy, BEAM_WIDTH).with_pool(pool.clone());
    let tdp =
        DpPlanner::new(db, &timed_cost, &timed_card, SearchMode::Bushy).with_pool(pool.clone());
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let mut traced: Vec<Pass> = Vec::new();
    trace::drain();
    let scored0 = wrap::SCORED_CANDIDATES.load(Ordering::SeqCst);
    for _ in 0..TRACED_PAIRS {
        let u = client.pass(&beam, &dp);
        check(r, &u, Some(&warm), "untraced plan, cost or latency");
        walls_u.push(u.wall_secs);
        trace::set_enabled(true);
        let t = client.pass(&tbeam, &tdp);
        trace::set_enabled(false);
        check(r, &t, Some(&warm), "traced plan, cost or latency");
        walls_t.push(t.wall_secs);
        traced.push(t);
    }
    let scored = wrap::SCORED_CANDIDATES.load(Ordering::SeqCst) - scored0;
    let (spans, leaves) = trace::drain();
    let totals = trace::totals(&spans, &leaves);
    let n = traced.len() as f64;
    let tot = |name: &str| totals.get(name).copied().unwrap_or_default();
    let sum = |f: fn(&Pass) -> usize| traced.iter().map(f).sum::<usize>() as f64 / n;
    let beam_t = tot("search.beam");
    r.metric("search.beam.s", beam_t.secs / n, "s");
    r.metric("search.beam.self_s", beam_t.self_secs / n, "s");
    let (states, cands) = (sum(|p| p.beam_states), sum(|p| p.beam_candidates));
    r.metric("search.beam.states", states, "count");
    r.metric("search.beam.candidates", cands, "count");
    r.metric("search.beam.kept_ratio", states / cands, "ratio");
    let sc = tot(wrap::SCORER);
    r.metric("learn.scorer.s", sc.secs / n, "s");
    r.metric("learn.scorer.self_s", sc.self_secs / n, "s");
    r.metric("learn.scorer.candidates", scored as f64 / n, "count");
    r.metric("learn.model.s", tot(wrap::MODEL).secs / n, "s");
    let dp_t = tot("search.dp");
    r.metric("search.dp.s", dp_t.secs / n, "s");
    r.metric("search.dp.self_s", dp_t.self_secs / n, "s");
    r.metric("search.dp.pairs", sum(|p| p.dp_pairs), "count");
    r.metric("search.dp.cost_calls", sum(|p| p.dp_cost_calls), "count");
    for layer in trace::LEAF_NAMES {
        let t = tot(layer);
        r.metric(&format!("{layer}.s"), t.secs / n, "s");
        r.metric(&format!("{layer}.calls"), t.calls as f64 / n, "count");
    }
    let ex = tot("engine.execute");
    r.metric("engine.execute.s", ex.secs / n, "s");
    r.metric("engine.execute.calls", ex.calls as f64 / n, "count");
    r.metric("query.verify.s", tot("query.verify").secs / n, "s");
    r.metric(
        "trace.overhead_s",
        stats::median(&walls_t) - stats::median(&walls_u),
        "s",
    );
    r.condition("traced_passes", n);
    r.condition("spans", spans.len() as f64);
    r.condition("leaf_sums", leaves.len() as f64);

    let items = vec![0u8; pool.threads()];
    let t = Instant::now();
    for _ in 0..DISPATCH_REPS {
        std::hint::black_box(pool.map(&items, |i, x| i + *x as usize));
    }
    r.metric(
        "search.pool.dispatch_us",
        secs(t) * 1e6 / DISPATCH_REPS as f64,
        "us",
    );

    let path = out_dir().join(format!("{}.spans.tsv", args.workload));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        trace::write_tsv(&spans, &leaves, &mut w)?;
        std::io::Write::flush(&mut w)
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    warm
}

/// Checks that the library's own evaluation reproduced the serving
/// client's latencies bit for bit (`what` names the side).
fn cross_check(r: &mut RunResult, what: &str, names: &[&str], got: &[f64], want: &[Option<f64>]) {
    r.attempted += got.len() as u64;
    for ((name, g), w) in names.iter().zip(got).zip(want) {
        if let Some(w) = w {
            if g.to_bits() != w.to_bits() {
                fail(r, format!("{name}: {what} latency {g} != served {w}"));
            }
        }
    }
}

/// serve_job's set-up: the generated inputs, the serving engine warmed by
/// the expert baseline, and the served model (simulation pretraining
/// only, with train_job's pretraining settings).
struct ServeSetup {
    world: World,
    stream: Workload,
    env: ExecutionEnv,
    pool: WorkerPool,
    baseline: Vec<f64>,
    outcome: TrainOutcome,
    train_s: f64,
}

impl ServeSetup {
    fn new(seed: u64) -> Self {
        let world = World::new(seed);
        // All 113 JOB-like and 24 Ext-JOB-like queries, ids = positions.
        let stream = Workload {
            kind: world.job.kind,
            queries: world
                .job
                .queries
                .iter()
                .chain(&world.ext.queries)
                .enumerate()
                .map(|(i, q)| Query {
                    id: i as u32,
                    ..q.clone()
                })
                .collect(),
        };
        let env = ExecutionEnv::postgres_sim(world.db.clone());
        let pool = WorkerPool::new(threads());
        let all: Vec<usize> = (0..stream.queries.len()).collect();
        let baseline = evaluate_expert_baseline(
            &world.db,
            &env,
            &stream,
            &all,
            SearchMode::Bushy,
            PlanBudget::UNLIMITED,
            &pool,
        )
        .expect("generated queries are connected");
        let train_env = ExecutionEnv::with_truth(
            env.truth_arc(),
            *env.profile(),
            balsa_engine::SimClock::paper_default(),
        );
        let cfg = tree_conv_cfg(seed, 0);
        let t = Instant::now();
        let outcome = train_loop(&world.db, &train_env, &world.job, &world.split, &cfg);
        let train_s = secs(t);
        Self {
            world,
            stream,
            env,
            pool,
            baseline,
            outcome,
            train_s,
        }
    }
}

fn serve_job(args: &Args, r: &mut RunResult) {
    let t = Instant::now();
    let s = ServeSetup::new(args.seed);
    let setup_s = secs(t);
    r.condition("available_parallelism", threads() as f64);
    r.condition("training_threads", threads() as f64);
    let order = shuffled(s.stream.queries.len(), sub_seed(args.seed, 5));
    let queries: Vec<Query> = order.iter().map(|&i| s.stream.queries[i].clone()).collect();
    let profile = s.env.profile();
    let featurizer = Featurizer::new(s.world.db.clone(), profile.weights, profile.bushy_hints);
    let model = &*s.outcome.model;
    let warm = &serve_stream(
        args,
        r,
        &s.world.db,
        &s.env,
        &s.pool,
        &featurizer,
        model,
        &queries,
    );
    let names: Vec<&str> = queries.iter().map(|q| q.name.as_str()).collect();
    let baseline: Vec<f64> = order.iter().map(|&i| s.baseline[i]).collect();
    let expert_served: Vec<Option<f64>> = warm
        .records
        .iter()
        .map(|x| x.map(|x| x.expert_latency_secs()))
        .collect();
    cross_check(r, "expert baseline", &names, &baseline, &expert_served);

    plan_identity(r, args, runtime_ratio(&warm.records), &warm.records);
    if !args.trace {
        r.metric("setup_s", setup_s, "s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.metric("train_s", s.train_s, "s");
        r.condition("train_sim_h", sim_hours(&s.outcome));
        return;
    }
    train_layers(r, &s.outcome, s.train_s, 0, &s.env);
    r.metric("engine.exec_s", warm.exec_secs, "s");
    r.metric("engine.exec_jobs", warm.executions as f64, "count");
    let all: Vec<usize> = order.clone();
    let hist = HistogramEstimator::new(&s.world.db);
    let t = Instant::now();
    let learned = evaluate_learned(
        &s.world.db,
        &s.env,
        &featurizer,
        model,
        &hist,
        &s.stream,
        &all,
        SearchMode::Bushy,
        BEAM_WIDTH,
        PlanBudget::UNLIMITED,
        &s.pool,
    );
    r.metric("learn.eval_s", secs(t), "s");
    let learned_served: Vec<Option<f64>> = warm
        .records
        .iter()
        .map(|x| x.map(|x| x.learned_latency_secs()))
        .collect();
    match learned {
        Ok(l) => cross_check(r, "evaluate_learned", &names, &l, &learned_served),
        Err(e) => fail(r, format!("evaluate_learned: {e}")),
    }
}

/// Records what must be bit-identical between the untraced and the
/// traced run of one seed: `runtime_vs_expert` and a digest of every
/// served plan, cost and latency. The traced run also reports the ratio
/// as a per-layer metric. (It is not an end-to-end metric: it is exact
/// for one seed but moves by a factor of two across seeds, with the
/// plan quality each seed's model reaches.)
fn plan_identity(r: &mut RunResult, args: &Args, ratio: f64, records: &[Option<Record>]) {
    r.conditions
        .insert("runtime_vs_expert".into(), Json::Num(ratio));
    let digest = records.iter().fold(0u64, |h, x| match x {
        None => mix(h ^ 0xDEAD),
        Some(x) => [
            x.learned_hash,
            x.learned_cost,
            x.expert_hash,
            x.expert_cost,
            x.learned_latency,
            x.expert_latency,
        ]
        .into_iter()
        .fold(h, |h, v| mix(h ^ v)),
    });
    r.conditions
        .insert("plans_digest".into(), Json::Str(format!("{digest:016x}")));
    if args.trace {
        r.metric("runtime_vs_expert", ratio, "ratio");
    }
}

/// Summed executed latency of the learned plans over the expert plans'.
fn runtime_ratio(records: &[Option<Record>]) -> f64 {
    if records.iter().any(Option::is_none) {
        return f64::NAN;
    }
    let (l, e) = records.iter().flatten().fold((0.0, 0.0), |(l, e), x| {
        (l + x.learned_latency_secs(), e + x.expert_latency_secs())
    });
    l / e
}

/// train_job's set-up: the generated inputs and the expert baseline
/// evaluated on a frozen engine.
struct TrainSetup {
    world: World,
    env: ExecutionEnv,
    pool: WorkerPool,
    baseline: Vec<f64>,
}

impl TrainSetup {
    fn new(seed: u64) -> Self {
        let world = World::new(seed);
        let env = ExecutionEnv::postgres_sim(world.db.clone());
        let pool = WorkerPool::new(threads());
        let all: Vec<usize> = (0..world.job.queries.len()).collect();
        let baseline = evaluate_expert_baseline(
            &world.db,
            &env,
            &world.job,
            &all,
            SearchMode::Bushy,
            PlanBudget::UNLIMITED,
            &pool,
        )
        .expect("generated queries are connected");
        Self {
            world,
            env,
            pool,
            baseline,
        }
    }
}

fn train_job(args: &Args, r: &mut RunResult) {
    let repeats = if args.trace { 1 } else { TRAIN_SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..repeats {
        drop(setup.take()); // free the previous set-up before building the next
        let t = Instant::now();
        setup = Some(TrainSetup::new(args.seed));
        setup_s.push(secs(t));
    }
    let s = setup.expect("at least one set-up");
    let db = &s.world.db;
    let (job, split) = (&s.world.job, &s.world.split);
    r.condition("available_parallelism", threads() as f64);
    r.condition("training_threads", threads() as f64);
    r.condition("setup_repeats", repeats as f64);
    r.condition("train_iterations", TRAIN_ITERATIONS as f64);
    r.condition("train_queries", split.train.len() as f64);
    r.condition("test_queries", split.test.len() as f64);

    // A fresh engine, so training materializes its true cardinalities
    // cold.
    let train_env = ExecutionEnv::postgres_sim(db.clone());
    let cfg = tree_conv_cfg(args.seed, TRAIN_ITERATIONS);
    let t = Instant::now();
    let outcome = train_loop(db, &train_env, job, split, &cfg);
    let train_s = secs(t);

    let profile = s.env.profile();
    let featurizer = Featurizer::new(db.clone(), profile.weights, profile.bushy_hints);
    let hist = HistogramEstimator::new(db);
    let model = &*outcome.model;
    let t = Instant::now();
    let learned_test = evaluate_learned(
        db,
        &s.env,
        &featurizer,
        model,
        &hist,
        job,
        &split.test,
        SearchMode::Bushy,
        BEAM_WIDTH,
        PlanBudget::UNLIMITED,
        &s.pool,
    );
    let eval_s = secs(t);
    let learned_test = match learned_test {
        Ok(l) => l,
        Err(e) => {
            fail(r, format!("evaluate_learned: {e}"));
            vec![f64::NAN; split.test.len()]
        }
    };
    r.attempted += split.test.len() as u64;
    let expert_test: Vec<f64> = split.test.iter().map(|&i| s.baseline[i]).collect();
    let ratio = learned_test.iter().sum::<f64>() / expert_test.iter().sum::<f64>();

    // Serve the selected model over the whole JOB-like workload.
    let order = shuffled(job.queries.len(), sub_seed(args.seed, 5));
    let queries: Vec<Query> = order.iter().map(|&i| job.queries[i].clone()).collect();
    let warm = &serve_stream(args, r, db, &s.env, &s.pool, &featurizer, model, &queries);
    // Stream position of each query index.
    let mut pos = vec![0; order.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    let names: Vec<&str> = split
        .test
        .iter()
        .map(|&i| job.queries[i].name.as_str())
        .collect();
    let learned_served: Vec<Option<f64>> = split
        .test
        .iter()
        .map(|&i| warm.records[pos[i]].map(|x| x.learned_latency_secs()))
        .collect();
    cross_check(
        r,
        "evaluate_learned",
        &names,
        &learned_test,
        &learned_served,
    );
    let expert_served: Vec<Option<f64>> = split
        .test
        .iter()
        .map(|&i| warm.records[pos[i]].map(|x| x.expert_latency_secs()))
        .collect();
    cross_check(r, "expert baseline", &names, &expert_test, &expert_served);

    plan_identity(r, args, ratio, &warm.records);
    if !args.trace {
        r.metric("setup_s", stats::median(&setup_s), "s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.metric("train_s", train_s, "s");
        r.condition("train_sim_h", sim_hours(&outcome));
        return;
    }
    train_layers(
        r,
        &outcome,
        train_s,
        TRAIN_ITERATIONS * split.train.len(),
        &train_env,
    );
    r.metric("engine.exec_s", outcome.breakdown.truecard_secs, "s");
    r.metric(
        "engine.exec_jobs",
        outcome.breakdown.truecard_jobs as f64,
        "count",
    );
    r.metric("learn.eval_s", eval_s, "s");
}
