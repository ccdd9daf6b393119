//! The repository's benchmark: four workloads, each run in real time
//! over loopback TCP (what a player feels), replayed in virtual time at
//! full speed (what one server carries), and replayed again with spans
//! around every layer (where the time goes). See `README.md`.

mod alloc;
mod calib;
mod compare;
mod json;
mod metrics;
mod procfs;
mod replay;
mod rt;
mod stats;
mod sut;
mod trace;
mod workload;

use json::Json;
use metrics::{Def, Values, END_TO_END, PER_LAYER};
use std::io::Write;
use std::process::ExitCode;
use workload::{Schedule, Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  matrix-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                       [--smoke] [--out FILE] [--out-trace FILE]
      Runs every workload (or the named one), checks outputs and prints
      every metric with unit, sample count, direction and regression
      bound; the last line of each workload's output is one JSON object.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
      metrics, neither reports both. --smoke is a 5 s run per workload.
      --out appends one JSON record per workload to FILE (for `compare`);
      --out-trace writes the traced replay's spans to FILE as CSV.
  matrix-benchmark calibrate
      Times the speed-reference kernel (see src/calib.rs).
  matrix-benchmark manifest
      Prints BENCHMARK.json as the metric registry defines it.
  matrix-benchmark compare A.json B.json
      Per workload and end-to-end metric: improved / unchanged /
      regressed / unresolved against the bounds; non-zero exit on any
      regression, failed op or incorrect run.";

/// The longest `--seconds` a schedule can cover (the probes' sequence
/// numbers ride in a bounded lattice track).
const MAX_SECONDS: u64 = 30;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Virtual seconds the replay measures, per real-time second of
/// `--seconds` (at least one).
const REPLAY_SHARE: f64 = 0.5;

#[derive(Debug)]
struct RunArgs {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    out_trace: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        out_trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                run.workload =
                    Some(workload::by_name(value).ok_or_else(|| format!("no workload {value:?}"))?);
            }
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..={MAX_SECONDS}, not {value:?}"))?;
            }
            "--trace" => {
                run.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--out" => run.out = Some(value.clone()),
            "--out-trace" => run.out_trace = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if run.smoke {
        run.seconds = 5;
    }
    Ok(run)
}

/// One workload's results, as printed and as written to `--out`.
struct Record {
    values: Values,
    correct: bool,
    attempted: u64,
    failed: u64,
    late: u64,
    wire_digest: u64,
    notes: Vec<String>,
}

fn run_workload(spec: &'static Spec, args: &RunArgs) -> Result<Record, String> {
    let seconds = args.seconds as f64;
    let measure_us = if args.smoke {
        2_000_000
    } else {
        ((seconds * REPLAY_SHARE).round().max(1.0) * 1e6) as u64
    };
    let horizon = rt::horizon_us(seconds).max(replay::WARMUP_VIRTUAL_US + measure_us);
    let schedule = Schedule::generate(spec, args.seed, horizon);
    let mut notes = vec![format!(
        "inputs: seed {} schedule {:#018x} ({} ops over {:.0} s)",
        args.seed,
        schedule.digest(),
        schedule.ops.len(),
        horizon as f64 / 1e6
    )];
    let mut problems: Vec<String> = Vec::new();

    let setups = if args.smoke { 1 } else { SETUPS };
    let rt = rt::run(spec, &schedule, seconds, setups)?;
    problems.extend(rt.violation.clone());
    // A late generator is the machine's doing, not the program's, and the
    // latencies already count it (they run from due times): flagged, not
    // failed.
    if rt.lateness_p99_ms > metrics::EXPECTED_LATENESS_P99_MS {
        notes.push(format!(
            "WARNING: generator lateness p99 {:.2} ms exceeds the {} ms a quiet machine keeps",
            rt.lateness_p99_ms,
            metrics::EXPECTED_LATENESS_P99_MS
        ));
    }
    notes.push(format!(
        "rt: {} probe ops attempted, {} failed, {} late (> {} ms); {} crowd ops; probes on servers {:?}; crowd followed {} switches",
        rt.attempted, rt.failed, rt.late, rt::LATE_AFTER_MS, rt.crowd_ops, rt.probe_servers, rt.crowd_switches
    ));
    if let Some(t) = stats::tail(&rt.apply_ms, 99.0).filter(|t| t.tail_p < 99.0) {
        notes.push(format!(
            "rt.probe.apply_latency_p99_ms holds p{} here: {} samples leave fewer than ten beyond p99",
            t.tail_p, t.n
        ));
    }
    if rt.apply_tail_p < 95.0 {
        notes.push(format!(
            "apply_latency_p95_ms holds p{} here: the slices are too thin for p95",
            rt.apply_tail_p
        ));
    }

    let (plain, _) = replay::run(
        spec,
        &schedule,
        replay::WARMUP_VIRTUAL_US,
        measure_us,
        false,
    );
    problems.extend(plain.violation.clone());
    let mut values = Values::new();
    let mut replay_failures = plain.whole.bad_frames + plain.whole.bad_batches;
    if args.trace != Some(true) {
        values.extend(metrics::end_to_end(spec.total_clients(), &rt, &plain)?);
    }
    if args.trace != Some(false) {
        let (traced, tracer) =
            replay::run(spec, &schedule, replay::WARMUP_VIRTUAL_US, measure_us, true);
        problems.extend(traced.violation.clone());
        replay_failures += traced.whole.bad_frames + traced.whole.bad_batches;
        // Two replays of one seed must agree on every byte and count.
        if traced.whole != plain.whole || traced.nodes != plain.nodes {
            problems.push(format!(
                "traced and untraced replay disagree: digests {:#x} vs {:#x}",
                traced.whole.wire_digest, plain.whole.wire_digest
            ));
        }
        let layers = metrics::per_layer(&rt, &traced, &plain);
        let unattributed = layers["bench.replay.unattributed_share"].value;
        if unattributed > 100.0 * metrics::MAX_UNATTRIBUTED {
            problems.push(format!(
                "{unattributed:.1}% of the traced replay is unattributed"
            ));
        }
        values.extend(layers);
        let wall_ns = traced.wall_s * 1e9;
        let mut shares: Vec<(f64, &str)> = trace::Layer::ALL
            .iter()
            .map(|l| {
                (
                    100.0 * traced.layers[*l as usize].ns as f64 / wall_ns,
                    l.name(),
                )
            })
            .filter(|(share, _)| *share >= 0.05)
            .collect();
        shares.sort_by(|a, b| b.0.total_cmp(&a.0));
        notes.push(format!(
            "traced replay, share of wall time: {}",
            shares
                .iter()
                .map(|(share, name)| format!("{name} {share:.1}%"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if let Some(path) = &args.out_trace {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            tracer
                .write_csv(std::io::BufWriter::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
            notes.push(format!("{} spans written to {path}", tracer.spans().len()));
        }
    }
    notes.push(format!(
        "replay: {} ops over {:.0} virtual s in {:.3} s; wire_digest {:#018x}; {} frames, {} items",
        plain.events,
        plain.virtual_s,
        plain.wall_s,
        plain.whole.wire_digest,
        plain.whole.frames,
        plain.whole.items
    ));
    // Every metric the registry (and so BENCHMARK.json) promises for this
    // mode must be there.
    let promised = [(Some(true), END_TO_END), (Some(false), PER_LAYER)];
    for (skipped_by, defs) in promised {
        if let Some(d) = defs
            .iter()
            .find(|d| args.trace != skipped_by && !values.contains_key(d.name))
        {
            return Err(format!("metric {} was not produced", d.name));
        }
    }
    notes.extend(problems.iter().map(|p| format!("INCORRECT: {p}")));
    Ok(Record {
        values,
        correct: problems.is_empty() && rt.failed == 0,
        attempted: rt.attempted + plain.events,
        failed: rt.failed + replay_failures,
        late: rt.late,
        wire_digest: plain.whole.wire_digest,
        notes,
    })
}

fn print_table(title: &str, defs: &[Def], values: &Values) {
    if !defs.iter().any(|d| values.contains_key(d.name)) {
        return;
    }
    println!("  {title}");
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.1}%", 100.0 * b));
        let n = if v.n > 0 {
            format!("n={}", v.n)
        } else {
            "exact".to_string()
        };
        println!(
            "    {:<46} {:>14.4} {:<6} {:<12} {} is better{}",
            d.name,
            v.value,
            d.unit,
            n,
            d.better.as_str(),
            bound
        );
    }
}

fn result_json(spec: &Spec, args: &RunArgs, rec: &Record, contract_only: bool) -> Json {
    let metrics = Json::obj(rec.values.iter().map(|(name, v)| {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        (
            *name,
            Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }));
    let mut members = vec![
        ("correct", Json::Bool(rec.correct)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", metrics),
    ];
    if !contract_only {
        members.extend([
            ("workload", Json::Str(spec.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("late", Json::Num(rec.late as f64)),
            (
                "wire_digest",
                Json::Str(format!("{:#018x}", rec.wire_digest)),
            ),
        ]);
    }
    Json::obj(members)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "matrix-benchmark: seed {}, {} s per real-time run, {cores} cores; traffic crosses loopback TCP for the probe pair only (the crowd is in-process and skips codec and socket); the executor is the thread-per-task tokio shim",
        args.seed, args.seconds
    );
    let mut all_correct = true;
    for spec in specs {
        println!("workload {}: {}", spec.name, spec.why);
        let rec = run_workload(spec, args)?;
        for note in &rec.notes {
            println!("  {note}");
        }
        print_table("end-to-end", END_TO_END, &rec.values);
        print_table("per-layer", PER_LAYER, &rec.values);
        if let Some(path) = &args.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(file, "{}", result_json(spec, args, &rec, false))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        all_correct &= rec.correct;
        println!("{}", result_json(spec, args, &rec, true));
    }
    Ok(all_correct)
}

/// The driver's command line: `run` with its own flags appended.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
/// `--seconds` the driver passes.
const RUN_SECONDS: u64 = 18;

/// `BENCHMARK.json`, generated from the registry so the two cannot
/// drift (a test compares the committed file with this).
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let metric = |d: &Def| {
        let mut members = vec![
            ("name", text(d.name)),
            ("unit", text(d.unit)),
            ("better", text(d.better.as_str())),
        ];
        members.extend(d.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(members)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", manifest().pretty());
            Ok(true)
        }
        Some("calibrate") => {
            let mut runs: Vec<f64> = (0..5_000).map(|_| calib::run() * 1e6).collect();
            runs.sort_by(f64::total_cmp);
            println!(
                "calibration kernel over {} runs: min {:.1} us, p25 {:.1} us, median {:.1} us; REFERENCE_S is {:.1} us",
                runs.len(),
                runs[0],
                runs[runs.len() / 4],
                runs[runs.len() / 2],
                calib::REFERENCE_S * 1e6
            );
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `matrix-benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS) && RUN_SECONDS <= MAX_SECONDS);
        // The longest schedule still fits the probes' sequence track.
        let probe_ops = rt::horizon_us(MAX_SECONDS as f64) / workload::PROBE_PERIOD_US;
        assert!(probe_ops < u64::from(workload::PROBE_MAX_OPS));
    }

    #[test]
    fn driver_flags_parse() {
        let args: Vec<String> = "--workload split_roam --seed 7 --seconds 18 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let run = parse_run(&args).unwrap();
        assert_eq!(run.workload.unwrap().name, "split_roam");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 18, Some(true)));
        assert!(parse_run(&["--seconds".into(), "99".into()]).is_err());
        assert!(parse_run(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_run(&["--trace".into()]).is_err());
    }
}
