//! `matrix-experiments` — regenerate the Matrix paper's tables and figures.
//!
//! Run with a subcommand (see `--help`); results print as ASCII charts and
//! tables, and CSV artefacts land in `./results/`.

use matrix_experiments::{
    ablation, densecrowd, failover, fig2, micro, overhead, predict, rings, scale, sweep, trace,
    userstudy, versus,
};
use std::io::Write;

const HELP: &str = "\
matrix-experiments — regenerate the Matrix paper's evaluation

USAGE: matrix-experiments [--seed N] [--smoke] [--flush-workers N] <command>

COMMANDS:
  fig2                 E1/E2: Figure 2a (clients/server) + 2b (queue length)
  fig2a                E1 only
  fig2b                E2 only
  versus [--smoke]     E3: Matrix vs static partitioning (BzFlag, Quake2, Daimonin)
  micro-switch         E4: client switching latency sweep
  micro-mc             E5: coordinator overhead (recompute cost + traffic share)
  micro-traffic        E6: inter-server traffic vs overlap-region size
  userstudy            E7: latency-perception proxy for the user study
  scale                E8: asymptotic scalability analysis
  sweep                E11: adaptivity scaling vs crowd size
  dense [--smoke]      E12: dense-crowd interest management (2k clients, one server)
  failover [--smoke]   E13: warm-standby failover (kill a region server mid-run)
  rings [--smoke]      E14: multi-ring AOI + grid auto-tuning vs the binary radius
  predict [--smoke]    E15: dead-reckoning suppression vs the sampled-rings pipeline
  trace [--smoke]      E16: end-to-end causal tracing + freshness SLO plane
  ablation-split       A1: split-strategy ablation
  ablation-hysteresis  A2: oscillation-prevention ablation
  all                  run everything above in order
  overhead             CI gates: telemetry on ≤ 2% / 1/64 tracing ≤ 5% over
                       off at 1 and 4 flush workers; flush at 4 workers
                       ≥ 2.5x one worker (≥ 4 cores) or ≤ 3x its time

Every command with a verdict (fig2, versus, dense … trace, overhead)
exits 1 when it fails.

`--flush-workers N` shards the dissemination flush across N workers
(E12's knob; default 1 = the sequential path). Sharding is
byte-invariant on the wire, so every verdict must hold unchanged at
any worker count.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut smoke = false;
    let mut flush_workers = 1u32;
    let mut command = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--smoke" => smoke = true,
            "--flush-workers" => {
                flush_workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--flush-workers needs an integer"));
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            cmd if command.is_none() => command = Some(cmd.to_string()),
            other => die(&format!("unexpected argument: {other}")),
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    std::fs::create_dir_all("results").ok();

    match command.as_str() {
        "fig2" => run_fig2(seed, true, true),
        "fig2a" => run_fig2(seed, true, false),
        "fig2b" => run_fig2(seed, false, true),
        "versus" => run_versus(seed, smoke),
        "micro-switch" => run_micro_switch(seed),
        "micro-mc" => run_micro_mc(seed),
        "micro-traffic" => run_micro_traffic(seed),
        "userstudy" => run_userstudy(seed),
        "scale" => run_scale(),
        "sweep" => run_sweep(seed),
        "dense" => run_dense(seed, smoke, flush_workers),
        "failover" => run_failover(seed, smoke),
        "rings" => run_rings(seed, smoke),
        "predict" => run_predict(seed, smoke),
        "trace" => run_trace(seed, smoke),
        "ablation-split" => run_ablation_split(seed),
        "ablation-hysteresis" => run_ablation_hysteresis(seed),
        "overhead" => run_overhead(),
        "all" => {
            run_fig2(seed, true, true);
            run_versus(seed, false);
            run_micro_switch(seed);
            run_micro_mc(seed);
            run_micro_traffic(seed);
            run_userstudy(seed);
            run_scale();
            run_sweep(seed);
            run_dense(seed, false, flush_workers);
            run_failover(seed, false);
            run_rings(seed, false);
            run_predict(seed, false);
            run_trace(seed, false);
            run_ablation_split(seed);
            run_ablation_hysteresis(seed);
        }
        other => die(&format!("unknown command: {other}\n\n{HELP}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn save(name: &str, content: &str) {
    let path = format!("results/{name}");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
        Ok(()) => println!("[saved {path}]"),
        Err(e) => matrix_core::emit_diag(
            "experiments",
            "save_failed",
            &[("path", &path), ("err", &e.to_string())],
        ),
    }
}

/// Reports one experiment's acceptance failure as a structured
/// diagnostic and exits non-zero (the CI contract: exit code 1 means
/// "ran fine, verdict failed").
fn acceptance_failed(experiment: &str, why: &str) -> ! {
    matrix_core::emit_diag(
        "experiments",
        "acceptance_failed",
        &[("experiment", experiment), ("why", why)],
    );
    std::process::exit(1)
}

fn run_fig2(seed: u64, a: bool, b: bool) {
    let report = fig2::run(seed);
    if a {
        println!("{}", fig2::render_2a(&report));
    }
    if b {
        println!("{}", fig2::render_2b(&report));
    }
    println!("{}", fig2::summary(&report).render());
    println!("{}", fig2::timeline(&report));
    match fig2::verdict(&report) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("fig2", &why),
    }
    save("fig2.csv", &fig2::to_csv(&report));
}

fn run_versus(seed: u64, smoke: bool) {
    let scale = if smoke {
        versus::Scale::smoke()
    } else {
        versus::Scale::full()
    };
    let rows = versus::run(seed, scale);
    let table = versus::table(&rows);
    println!("{}", table.render());
    match versus::verdict(&rows) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("versus", &why),
    }
    save("versus.csv", &table.to_csv());
}

fn run_overhead() {
    let report = overhead::run();
    println!("{}", overhead::table(&report).render());
    match overhead::verdict(&report) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("overhead", &why),
    }
}

fn run_micro_switch(seed: u64) {
    let rows = micro::run_switching(seed);
    let table = micro::switching_table(&rows);
    println!("{}", table.render());
    save("micro_switch.csv", &table.to_csv());
}

fn run_micro_mc(seed: u64) {
    let cost = micro::mc_cost_table(&micro::run_mc_cost());
    println!("{}", cost.render());
    save("micro_mc_cost.csv", &cost.to_csv());
    let share = micro::run_mc_share(seed);
    println!("{}", share.render());
    save("micro_mc_share.csv", &share.to_csv());
}

fn run_micro_traffic(seed: u64) {
    let rows = micro::run_traffic(seed);
    let table = micro::traffic_table(&rows);
    println!("{}", table.render());
    save("micro_traffic.csv", &table.to_csv());
}

fn run_userstudy(seed: u64) {
    let rows = userstudy::run(seed);
    let table = userstudy::table(&rows);
    println!("{}", table.render());
    save("userstudy.csv", &table.to_csv());
}

fn run_sweep(seed: u64) {
    let rows = sweep::run(seed);
    let table = sweep::table(&rows);
    println!("{}", table.render());
    save("sweep.csv", &table.to_csv());
}

fn run_dense(seed: u64, smoke: bool, flush_workers: u32) {
    let scale = if smoke {
        densecrowd::Scale::smoke()
    } else {
        densecrowd::Scale::full()
    };
    let rows = densecrowd::run(seed, scale, flush_workers);
    let table = densecrowd::table(&rows);
    println!("{}", table.render());
    match densecrowd::verdict(&rows) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("dense", &why),
    }
    save("densecrowd.csv", &table.to_csv());
}

fn run_failover(seed: u64, smoke: bool) {
    let scale = if smoke {
        failover::Scale::smoke()
    } else {
        failover::Scale::full()
    };
    let rows = failover::run(seed, scale);
    println!("{}", failover::table(&rows).render());
    let game = failover::config(matrix_games::GameSpec::bzflag(), true, seed, scale).game;
    match failover::verdict(&rows, &game) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("failover", &why),
    }
    save("failover.csv", &failover::to_csv(&rows));
}

fn run_rings(seed: u64, smoke: bool) {
    let scale = if smoke {
        rings::Scale::smoke()
    } else {
        rings::Scale::full()
    };
    let rows = rings::run(seed, scale);
    println!("{}", rings::table(&rows).render());
    match rings::verdict(&rows) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("rings", &why),
    }
    save("rings.csv", &rings::to_csv(&rows));
}

fn run_predict(seed: u64, smoke: bool) {
    let scale = if smoke {
        predict::Scale::smoke()
    } else {
        predict::Scale::full()
    };
    let rows = predict::run(seed, scale);
    println!("{}", predict::table(&rows).render());
    match predict::verdict(&rows, &matrix_games::GameSpec::racer()) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("predict", &why),
    }
    save("predict.csv", &predict::to_csv(&rows));
}

fn run_trace(seed: u64, smoke: bool) {
    let scale = if smoke {
        trace::Scale::smoke()
    } else {
        trace::Scale::full()
    };
    let (dense, failover, rt) = trace::run(seed, scale);
    println!("{}", trace::table(&dense).render());
    println!("{}", trace::table(&failover).render());
    println!("{}", trace::rt_table(&rt).render());
    match trace::verdict(&dense, &failover, &rt) {
        Ok(line) => println!("{line}"),
        Err(why) => acceptance_failed("trace", &why),
    }
    save("trace.csv", &trace::to_csv(&dense, &failover, &rt));
}

fn run_scale() {
    for table in scale::run() {
        println!("{}", table.render());
    }
}

fn run_ablation_split(seed: u64) {
    let rows = ablation::run_split_strategies(seed);
    let table = ablation::table("A1 — split-strategy ablation (Figure-2 workload)", &rows);
    println!("{}", table.render());
    save("ablation_split.csv", &table.to_csv());
}

fn run_ablation_hysteresis(seed: u64) {
    let rows = ablation::run_hysteresis(seed);
    let table = ablation::table(
        "A2 — oscillation-prevention ablation (borderline 280-client crowd)",
        &rows,
    );
    println!("{}", table.render());
    save("ablation_hysteresis.csv", &table.to_csv());
}
