//! End-to-end interval-join benchmark.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload q1-uniform --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload runs the path users take: `parse_query` → `auto_tune` →
//! `plan` → `Algorithm::run` on a default `Engine`. With `--trace 0` the
//! last stdout line carries the end-to-end metrics of untraced runs. With
//! `--trace 1` it carries the per-layer metrics: phase walls and counters
//! from the `JobChain` each untraced run returns, and reducer self times
//! from traced runs (the engine's `Tracer` attached) that alternate with
//! the untraced ones. Every output is checked against a reference from
//! another algorithm family; the command exits 1 if any iteration failed.
//! See `README.md` beside this crate for the workloads and metrics.

mod alloc;
mod spans;
mod workload;

use ij_core::JoinOutput;
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Engine, Tracer};
use spans::{self_times, SpanLog};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Expected, Setup, Tally, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("query_s", "s"),
    ("intervals_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("query_peak_heap_mb", "MB"),
    ("datagen.generate_s", "s"),
    ("plan.parse_plan_s", "s"),
    ("input.bind_s", "s"),
    ("map.wall_s", "s"),
    ("map.input_records", "count"),
    ("route.pairs_shuffled", "count"),
    ("route.pairs_per_interval", "ratio"),
    ("route.intervals_replicated", "count"),
    ("shuffle.wall_s", "s"),
    ("shuffle.bytes", "bytes"),
    ("spill.wall_s", "s"),
    ("spill.bytes", "bytes"),
    ("spill.runs", "count"),
    ("reduce.wall_s", "s"),
    ("reduce.pair_skew", "ratio"),
    ("reduce.slowest_reducer_s", "s"),
    ("reduce.median_reducer_s", "s"),
    ("sched.grants", "count"),
    ("sched.heavy_buckets", "count"),
    ("kernel.parallel_buckets", "count"),
    ("kernel.candidates", "count"),
    ("kernel.emitted", "count"),
    ("kernel.useful_ratio", "ratio"),
    ("kernel.sweep_buckets", "count"),
    ("kernel.event_sweep_buckets", "count"),
    ("kernel.merge_buckets", "count"),
    ("kernel.fallback_buckets", "count"),
    ("chain.cycles", "count"),
    ("driver.outside_phases_s", "s"),
    ("cost.sim_units", "units"),
    ("trace.overhead_frac", "ratio"),
    ("verify.s", "s"),
];

/// Set-up repeats at least this often and for at least `SETUP_MIN`, so
/// `setup_s` is a median of several.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Timed loops run at least this many iterations, whatever `--seconds`.
const MIN_ITERS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <q1-uniform|q1-sparse-spill|q4-hybrid-skew> --seed <n> \
     --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workload::find(&value).ok_or_else(bad)?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
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
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(tally) if tally.failed == 0 => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-metric samples, one per iteration.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Runs the three set-up stages once: generate, parse+plan, bind.
fn setup_once(w: &Workload, seed: u64) -> (Setup, [Duration; 3]) {
    let t = Instant::now();
    let relations = w.generate(seed);
    let generate = t.elapsed();
    let t = Instant::now();
    let (query, plan, algorithm) = w.parse_plan();
    let parse_plan = t.elapsed();
    let t = Instant::now();
    let input = Workload::bind(&query, relations);
    let bind = t.elapsed();
    let setup = Setup {
        query,
        plan,
        algorithm,
        input,
    };
    (setup, [generate, parse_plan, bind])
}

/// Times the set-up stages `SETUP_REPS` times and for at least
/// `SETUP_MIN`.
fn time_setup(w: &Workload, seed: u64, samples: &mut Samples) {
    let t_all = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || t_all.elapsed() < SETUP_MIN {
        let (_, [generate, parse_plan, bind]) = setup_once(w, seed);
        samples.push("datagen.generate_s", secs(generate));
        samples.push("plan.parse_plan_s", secs(parse_plan));
        samples.push("input.bind_s", secs(bind));
        samples.push("setup_s", secs(generate + parse_plan + bind));
        reps += 1;
    }
}

/// The per-layer numbers one run's `JobChain` and stats report.
fn record_layers(out: &JoinOutput, query_s: f64, intervals: usize, s: &mut Samples) {
    let chain = &out.chain;
    let (map, shuffle, reduce) = (
        secs(chain.total_map_wall()),
        secs(chain.total_shuffle_wall()),
        secs(chain.total_reduce_wall()),
    );
    let count = |name| chain.counter(name) as f64;
    let pairs = chain.total_pairs() as f64;
    let candidates = count(names::JOIN_CANDIDATES);
    let emitted = count(names::JOIN_EMITTED);
    for (name, value) in [
        ("map.wall_s", map),
        ("map.input_records", chain.total_records_read() as f64),
        ("route.pairs_shuffled", pairs),
        ("route.pairs_per_interval", pairs / intervals.max(1) as f64),
        (
            "route.intervals_replicated",
            out.stats.replicated_intervals.unwrap_or(0) as f64,
        ),
        ("shuffle.wall_s", shuffle),
        ("shuffle.bytes", chain.total_shuffle_bytes() as f64),
        ("spill.wall_s", secs(chain.total_spill_wall())),
        ("spill.bytes", count(names::SPILL_BYTES)),
        ("spill.runs", count(names::SPILL_RUNS)),
        ("reduce.wall_s", reduce),
        ("reduce.pair_skew", chain.worst_skew()),
        ("sched.grants", count(names::SCHED_GRANTS)),
        ("sched.heavy_buckets", count(names::SCHED_HEAVY_BUCKETS)),
        (
            "kernel.parallel_buckets",
            count(names::KERNEL_PARALLEL_BUCKETS),
        ),
        ("kernel.candidates", candidates),
        ("kernel.emitted", emitted),
        (
            "kernel.useful_ratio",
            if candidates > 0.0 {
                emitted / candidates
            } else {
                0.0
            },
        ),
        ("kernel.sweep_buckets", count(names::KERNEL_SWEEP_BUCKETS)),
        (
            "kernel.event_sweep_buckets",
            count(names::KERNEL_EVENT_SWEEP_BUCKETS),
        ),
        ("kernel.merge_buckets", count(names::KERNEL_MERGE_BUCKETS)),
        (
            "kernel.fallback_buckets",
            count(names::KERNEL_FALLBACK_BUCKETS),
        ),
        ("chain.cycles", chain.num_cycles() as f64),
        ("driver.outside_phases_s", query_s - map - shuffle - reduce),
        ("cost.sim_units", chain.total_simulated()),
    ] {
        s.push(name, value);
    }
}

/// Runs verified, untraced queries until `deadline` (and at least
/// `MIN_ITERS` times), after one untimed warm-up. With a traced pass, a
/// traced query follows each untraced one, so both see the same drift.
fn timed_loop(
    setup: &Setup,
    engine: &Engine,
    expected: &Expected,
    deadline: Instant,
    tally: &mut Tally,
    samples: &mut Samples,
    mut traced: Option<&mut TracedPass>,
) {
    let intervals = setup.input.total_tuples();
    for iter in 0.. {
        // Heap the query adds over what is live before it (the input, the
        // reference, and in a traced run the span log so far).
        let heap_before = alloc::current();
        alloc::reset_peak();
        let t = Instant::now();
        let result = setup.algorithm.run(&setup.query, &setup.input, engine);
        let query_s = secs(t.elapsed());
        let peak = alloc::peak().saturating_sub(heap_before);
        let t = Instant::now();
        let failure = tally.record(&result, expected);
        let verify_s = secs(t.elapsed());
        if let Some(f) = &failure {
            eprintln!("perfbench: iteration {iter} failed: {f}");
        }
        if iter > 0 {
            samples.push("query_s", query_s);
            samples.push("query_peak_heap_mb", peak as f64 / (1 << 20) as f64);
            samples.push("verify.s", verify_s);
            if let (Ok(out), None) = (&result, failure) {
                record_layers(out, query_s, intervals, samples);
            }
        }
        drop(result);
        if let Some(traced) = traced.as_deref_mut() {
            traced.iteration(setup, expected, tally);
        }
        if iter >= MIN_ITERS && Instant::now() >= deadline {
            break;
        }
    }
}

/// The traced pass: the benchmark's own spans around set-up and around
/// each run and verification, with the engine's tracer spans harvested
/// under each `run`. Spans of one query share its number.
struct TracedPass {
    log: SpanLog,
    engine: Engine,
    runs: u64,
}

impl TracedPass {
    /// Sets the workload up inside spans (query 0); the returned set-up
    /// serves the traced and the untraced queries alike.
    fn new(w: &Workload, seed: u64) -> (TracedPass, Setup) {
        let tracer = Arc::new(Tracer::new());
        let mut log = SpanLog::new(tracer.clone());
        let (relations, _) = log.time("generate", 0, || w.generate(seed));
        let ((query, plan, algorithm), _) = log.time("parse_plan", 0, || w.parse_plan());
        let (input, _) = log.time("bind", 0, || Workload::bind(&query, relations));
        let pass = TracedPass {
            log,
            engine: Engine::new(w.cluster()).with_tracer(tracer),
            runs: 0,
        };
        let setup = Setup {
            query,
            plan,
            algorithm,
            input,
        };
        (pass, setup)
    }

    /// One traced, verified query.
    fn iteration(&mut self, setup: &Setup, expected: &Expected, tally: &mut Tally) {
        self.runs += 1;
        let q = self.runs;
        let engine = &self.engine;
        let (result, run) = self.log.time("run", q, || {
            setup.algorithm.run(&setup.query, &setup.input, engine)
        });
        self.log.harvest(run);
        let (failure, _) = self
            .log
            .time("verify", q, || tally.record(&result, expected));
        if let Some(f) = failure {
            eprintln!("perfbench: traced iteration {q} failed: {f}");
        }
    }

    /// Medians over the traced queries of the run time, the slowest
    /// reducer's self time and the median reducer's self time, in seconds.
    fn summary(&self) -> (f64, f64, f64) {
        let selfs = self_times(&self.log.spans);
        let (mut run_s, mut slowest, mut typical) = (Vec::new(), Vec::new(), Vec::new());
        for q in 1..=self.runs {
            let spans = || {
                self.log
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(move |(s, _)| s.query == q)
            };
            run_s.extend(
                spans()
                    .filter(|(s, _)| s.name == "run")
                    .map(|(s, _)| s.dur_us() as f64 / 1e6),
            );
            let reducers: Vec<f64> = spans()
                .filter(|(s, _)| s.layer == "reduce")
                .map(|(_, &us)| us as f64 / 1e6)
                .collect();
            slowest.push(reducers.iter().copied().fold(0.0, f64::max));
            typical.push(median(&reducers));
        }
        (median(&run_s), median(&slowest), median(&typical))
    }
}

/// Median self time per query of each (layer, name) group of spans, over
/// the queries (or the set-up, query 0) the group occurs in.
fn self_time_table(log: &SpanLog) -> Vec<(String, f64)> {
    let mut groups: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, us) in log.spans.iter().zip(self_times(&log.spans)) {
        let group = groups.entry(format!("{}/{}", s.layer, s.name)).or_default();
        *group.entry(s.query).or_default() += us as f64 / 1e6;
    }
    groups
        .into_iter()
        .map(|(g, per_query)| (g, median(&per_query.into_values().collect::<Vec<_>>())))
        .collect()
}

/// The commit checked out beside the benchmark, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(r)?.trim().to_string()))
        }),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn run(args: &Args) -> Result<Tally, String> {
    let w = args.workload;
    let started = Instant::now();
    let mut samples = Samples::default();
    let (setup, _) = setup_once(w, args.seed);
    let t = Instant::now();
    let expected = w
        .reference(&setup)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let reference_s = secs(t.elapsed());
    let (mut traced, setup) = if args.trace {
        drop(setup);
        let (pass, setup) = TracedPass::new(w, args.seed);
        (Some(pass), setup)
    } else {
        (None, setup)
    };
    let engine = Engine::new(w.cluster());
    let mut tally = Tally::default();
    timed_loop(
        &setup,
        &engine,
        &expected,
        Instant::now() + Duration::from_secs_f64(args.seconds),
        &mut tally,
        &mut samples,
        traced.as_mut(),
    );
    let iterations = samples.0.get("query_s").map_or(0, Vec::len);
    let intervals = setup.input.total_tuples();
    let sizes: Vec<usize> = setup.input.relations().iter().map(|r| r.len()).collect();
    let output_count = match &expected {
        Expected::Count(n) => *n,
        Expected::Tuples(t) => t.len() as u64,
    };
    let algorithm = setup.algorithm.name();
    let plan = setup.plan;
    drop(setup);
    // Set-up is timed last, in the allocator state the queries leave
    // behind: timed in a fresh process, it moved by up to 2x between runs.
    time_setup(w, args.seed, &mut samples);

    for name in ["query_s", "setup_s", "query_peak_heap_mb"] {
        let v = samples.0.get(name).map_or(&[][..], Vec::as_slice);
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        eprintln!(
            "samples {name}: n {} min {lo} median {} max {hi}",
            v.len(),
            median(v)
        );
    }
    let query_s = samples.median("query_s");
    samples.push("intervals_per_s", intervals as f64 / query_s);
    let mut metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, samples.median(name)))
        .collect();

    let traced_runs = traced.as_ref().map_or(0, |t| t.runs);
    if let Some(traced) = traced {
        let (run_s, slowest, typical) = traced.summary();
        samples.push("reduce.slowest_reducer_s", slowest);
        samples.push("reduce.median_reducer_s", typical);
        samples.push("trace.overhead_frac", run_s / query_s - 1.0);
        println!("traced pass: median self time per query, by span");
        for (group, s) in self_time_table(&traced.log) {
            println!("  {group:<40} {s:>12.6} s");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, traced.log.jsonl()))
        {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, samples.median(name)))
            .collect();
        let share = |name| samples.median(name) / query_s;
        println!(
            "shape: reduce share {:.3}, map+shuffle share {:.3}, spill bytes {}, \
             pair skew {:.2}, cycles {}",
            share("reduce.wall_s"),
            share("map.wall_s") + share("shuffle.wall_s"),
            samples.median("spill.bytes"),
            samples.median("reduce.pair_skew"),
            samples.median("chain.cycles"),
        );
    }

    println!("{} seed {}: {} ({})", w.name, args.seed, w.query, algorithm);
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "  {:<28} {:>16.6} ratio",
        "failed_frac",
        tally.failed_frac()
    );
    println!(
        "# conditions {{\"workload\":{},\"seed\":{},\"nproc\":{},\"worker_threads\":{},\
         \"memory_budget\":{},\"relation_sizes\":{:?},\"algorithm\":{},\"partitions\":{},\
         \"per_dim\":{},\"output_count\":{},\"iterations\":{},\"traced_iterations\":{},\
         \"reference_s\":{},\"wall_s\":{},\"git_commit\":{}}}",
        json_str(w.name),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        engine.config().worker_threads,
        w.budget.map_or("null".to_string(), |b| b.to_string()),
        sizes,
        json_str(algorithm),
        plan.partitions,
        plan.per_dim,
        output_count,
        iterations,
        traced_runs,
        reference_s,
        secs(started.elapsed()),
        json_str(&git_commit()),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in workload::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload q1-uniform --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("q1-uniform", 3, 2.0, true)
        );
        assert!(parse("--workload q9 --seed 3 --seconds 2 --trace 1").is_err());
        assert!(parse("--workload q1-uniform --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload q1-uniform --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload q1-uniform --seed 3 --seconds 2").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
