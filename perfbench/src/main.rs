//! `perf`: the end-to-end benchmark of the transpose stack.
//!
//! ```text
//! perf --workload NAME --seed S --seconds X --trace 0|1     one workload, one pass
//! perf [--seed S] [--seconds X] [--rounds R] [--threads T]  every workload, every pass
//!      [--out FILE] [--trace-out FILE] [--check-counts]
//! ```
//!
//! With `--workload` and `--trace 0` it runs the memory pass and the
//! untraced main pass and ends with the end-to-end metrics; with
//! `--trace 1` it runs the traced pass and ends with the per-layer
//! metrics. Either way the last line of standard output is
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--workload`
//! it runs all three passes over all eight workloads, round-robin, and
//! the last line is the full report (also written to `--out`).
//! See README.md for the glossary.

mod harness;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::{Budget, EndToEnd, Traced, Yardstick};
use json::Json;
use stats::quartiles;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Scale, Workload};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    rounds: Option<usize>,
    threads: Option<usize>,
    out: Option<String>,
    trace_out: Option<String>,
    check_counts: bool,
    rss_child: Option<String>,
}

fn parse_args_from(argv: &[&str]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: None,
        rounds: None,
        threads: None,
        out: None,
        trace_out: None,
        check_counts: false,
        rss_child: None,
    };
    let mut argv = argv.iter();
    while let Some(&flag) = argv.next() {
        if flag == "--check-counts" {
            args.check_counts = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?.to_string();
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a count"));
        match flag {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 120),
            "--trace" => args.trace = Some(number()? != 0),
            "--rounds" => args.rounds = Some(number()?.max(1) as usize),
            "--threads" => args.threads = Some(number()?.clamp(1, 64) as usize),
            "--out" => args.out = Some(value),
            "--trace-out" => args.trace_out = Some(value),
            harness::RSS_CHILD_FLAG => args.rss_child = Some(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The workloads `name` selects (all of them for `None`).
fn select(name: Option<&str>) -> Result<Vec<Box<dyn Workload>>, String> {
    let mut all = workloads::all(Scale::Paper);
    let Some(name) = name else { return Ok(all) };
    match all.iter().position(|w| w.name() == name) {
        Some(i) => Ok(vec![all.swap_remove(i)]),
        None => {
            let names: Vec<_> = all.iter().map(|w| w.name()).collect();
            Err(format!("unknown workload `{name}`; the workloads are {}", names.join(", ")))
        }
    }
}

/// `{value, unit}`: the median of `samples`; with `spread`, also the
/// quartiles and sample count the paired comparison needs.
fn metric(samples: &[f64], unit: &str, spread: bool) -> Json {
    let (q1, median, q3) = quartiles(samples);
    let mut fields = vec![("value", Json::Num(median)), ("unit", Json::str(unit))];
    if spread && samples.len() > 1 {
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
        fields.push(("samples", Json::Num(samples.len() as f64)));
    }
    Json::obj(fields)
}

/// One workload's results over the passes that ran.
struct Row {
    name: &'static str,
    e2e: Option<(EndToEnd, Result<f64, String>)>,
    traced: Option<Traced>,
}

impl Row {
    /// Ops attempted; the memory pass counts as one.
    fn attempted(&self) -> u64 {
        self.e2e.as_ref().map_or(0, |(e, _)| e.tally.attempted + 1)
            + self.traced.as_ref().map_or(0, |t| t.tally.attempted)
    }

    /// Failed ops; a memory pass that did not produce a reading counts
    /// as one.
    fn failed(&self) -> u64 {
        self.e2e.as_ref().map_or(0, |(e, rss)| e.tally.failed + u64::from(rss.is_err()))
            + self.traced.as_ref().map_or(0, |t| t.tally.failed)
    }

    fn errors(&self) -> impl Iterator<Item = &String> {
        let e2e = self
            .e2e
            .iter()
            .flat_map(|(e, rss)| e.tally.first_error.iter().chain(rss.as_ref().err()));
        e2e.chain(self.traced.iter().flat_map(|t| t.tally.first_error.iter()))
    }

    /// `{metric: {value, unit, ...}}` of the main and memory passes. A
    /// metric without a sample (every op failed) is left out.
    fn e2e_json(&self, spread: bool) -> Json {
        let Some((e, rss)) = &self.e2e else { return Json::obj::<&str>([]) };
        let rss = rss.as_ref().map_or(&[][..], std::slice::from_ref);
        let samples = [&e.wall_ms[..], &e.setup_s[..], rss];
        let defined = metrics::END_TO_END.iter().zip(samples).filter(|(_, s)| !s.is_empty());
        Json::obj(defined.map(|(&(name, unit, _), s)| (name, metric(s, unit, spread))))
    }

    fn layers_json(&self) -> Json {
        let Some(t) = &self.traced else { return Json::obj::<&str>([]) };
        let values = t.layers.values().into_iter();
        Json::obj(values.map(|(name, unit, v)| (name, metric(&[v], unit, false))))
    }

    fn print(&self) {
        println!("{}  ({} ops, {} failed)", self.name, self.attempted(), self.failed());
        for e in self.errors() {
            println!("  FAILED: {e}");
        }
        for section in [self.e2e_json(true), self.layers_json()] {
            for (name, m) in section.fields() {
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let value = num("value").unwrap_or(f64::NAN);
                match (num("q1"), num("q3"), num("samples")) {
                    (Some(q1), Some(q3), Some(n)) => println!(
                        "  {name:<26} {value:>14.4} {unit:<6} [q1 {q1:.4}, q3 {q3:.4}, n={n}]"
                    ),
                    _ if value != 0.0 => println!("  {name:<26} {value:>14.4} {unit}"),
                    _ => {}
                }
            }
        }
    }
}

fn run(args: &Args, threads: usize) -> Result<ExitCode, String> {
    if let Some(name) = &args.rss_child {
        let mut w = select(Some(name))?;
        println!("{}", harness::rss_child(w[0].as_mut())?);
        return Ok(ExitCode::SUCCESS);
    }
    let mut selected = select(args.workload.as_deref())?;

    // With `--workload` the run is one pass of `--seconds`; without, every
    // pass gets `--seconds` per workload.
    let (main, traced) = match (args.trace, &args.workload) {
        (Some(t), _) => (!t, t),
        (None, Some(_)) => (true, false),
        (None, None) => (true, true),
    };
    let window = Duration::from_secs(args.seconds) * selected.len() as u32;
    let mut yardstick = Yardstick::new();
    let mut tracer = trace::Tracer::new();
    let mut rows: Vec<Row> =
        selected.iter().map(|w| Row { name: w.name(), e2e: None, traced: None }).collect();

    if main {
        // The memory pass spends part of the window, not extra time.
        let start = Instant::now();
        let rss: Vec<_> = rows.iter().map(|r| harness::memory_pass(r.name, threads)).collect();
        let budget = args.rounds.map_or(Budget::Until(start + window), Budget::Rounds);
        let e2e = harness::main_pass(&mut selected, args.seed, budget, &mut yardstick);
        for ((row, e), rss) in rows.iter_mut().zip(e2e).zip(rss) {
            row.e2e = Some((e, rss));
        }
    }
    if traced {
        // `--check-counts` splits the window over two passes and fails
        // any exact metric the second does not repeat to the bit.
        let passes = if args.check_counts { 2 } else { 1 };
        let start = Instant::now();
        for k in 1..=passes {
            let budget = match args.rounds {
                Some(r) => Budget::Rounds(r.min(3)),
                None => Budget::Until(start + window * k / passes),
            };
            let results =
                harness::traced_pass(&mut selected, args.seed, budget, &mut yardstick, &mut tracer);
            for (row, again) in rows.iter_mut().zip(results) {
                let Some(first) = &mut row.traced else {
                    row.traced = Some(again);
                    continue;
                };
                // The second pass's ops count; its samples only serve
                // the comparison.
                first.tally.attempted += again.tally.attempted;
                first.tally.failed += again.tally.failed;
                first.tally.first_error =
                    first.tally.first_error.take().or(again.tally.first_error);
                for m in first.layers.exact_mismatches(&again.layers) {
                    first.tally.attempted += 1;
                    first.tally.failed += 1;
                    first.tally.first_error.get_or_insert(format!("count not repeatable: {m}"));
                }
            }
        }
    }

    // Report.
    let yard = quartiles(&yardstick.samples_ms);
    let noisy = stats::iqr_ratio(&yardstick.samples_ms) > 0.15;
    let host = host::facts(threads);
    println!("perf: seed {} · {} s per workload and pass · host {host}", args.seed, args.seconds);
    for row in &rows {
        row.print();
    }
    println!(
        "yardstick_ms  median {:.3} [q1 {:.3}, q3 {:.3}, n={}]  noisy: {noisy}",
        yard.1,
        yard.0,
        yard.2,
        yardstick.samples_ms.len()
    );
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.chrome_trace().to_string())
            .map_err(|e| format!("{path}: {e}"))?;
    }

    let (attempted, failed) =
        rows.iter().fold((0, 0), |(a, f), r| (a + r.attempted(), f + r.failed()));
    let full = report(args, threads, host, noisy, yard, &rows);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{full}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    let last_line = if let (Some(_), [row]) = (&args.workload, rows.as_slice()) {
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", if traced { row.layers_json() } else { row.e2e_json(false) }),
        ])
    } else {
        full
    };
    println!("{last_line}");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The one schema of `--out`:
/// `{host, config, noisy, yardstick_ms, workloads: {<name>: {e2e, layers, samples, attempted, failed}}}`.
fn report(
    args: &Args,
    threads: usize,
    host: Json,
    noisy: bool,
    (q1, median, q3): (f64, f64, f64),
    rows: &[Row],
) -> Json {
    let config = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("rounds", args.rounds.map_or(Json::Null, |r| Json::Num(r as f64))),
        ("threads", Json::Num(threads as f64)),
    ]);
    let workloads = rows.iter().map(|r| {
        let samples = r.e2e.as_ref().map_or(0, |(e, _)| e.wall_ms.len());
        let fields = [
            ("e2e", r.e2e_json(true)),
            ("layers", r.layers_json()),
            ("samples", Json::Num(samples as f64)),
            ("attempted", Json::Num(r.attempted() as f64)),
            ("failed", Json::Num(r.failed() as f64)),
        ];
        (r.name, Json::obj(fields))
    });
    Json::obj([
        ("host", host),
        ("config", config),
        ("noisy", Json::Bool(noisy)),
        (
            "yardstick_ms",
            Json::obj([("q1", Json::Num(q1)), ("value", Json::Num(median)), ("q3", Json::Num(q3))]),
        ),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Puts the allocator in the state a long-running process reaches.
///
/// glibc serves a request from a fresh `mmap` while it is at least the
/// *dynamic* mmap threshold, and raises that threshold (up to 32 MiB)
/// whenever such a chunk is freed — so whether an op's big buffers are
/// mapped, zero-filled and unmapped on every op depends on what the
/// process freed earlier. Measured: `cm14-router` reads 11-12 ms after
/// any 16 MiB free and 17-20 ms without one, which made the all-workload
/// report and the one-workload runs disagree by 1.5x. Freeing one
/// untouched 31 MiB block (never resident: it does not show in
/// `peak_rss_mib`) pins the threshold at its ceiling for every mode and
/// for the memory pass's child. A no-op on other allocators.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 31 << 20]));
}

fn main() -> ExitCode {
    // Refuse ambient knobs before anything reads them.
    if let Some(var) = host::ambient_knob() {
        eprintln!("perf: {var} is set; the harness pins parallelism itself — unset it");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args_from(&argv.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    // `cuberun`'s long-lived worker pool gets T = min(nproc, 4) workers.
    // The `cubesim::par` data-plane fan-out is pinned to one thread: it
    // spawns short-lived scoped threads per call, and where the kernel
    // lands those is bimodal on this class of VM (README, "Noise") — a
    // lottery no change to the repository controls.
    settle_allocator();
    let threads = args.threads.unwrap_or_else(|| host::nproc().min(4));
    let outcome =
        cubesim::par::with_threads(1, || cuberun::with_workers(threads, || run(&args, threads)));
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{MetricDef, END_TO_END, PER_LAYER};

    fn well_formed(name: &str) -> bool {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit, better)` of every entry under `key` of BENCHMARK.json.
    fn listed<'a>(bench: &'a Json, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
        let field = |m: &'a Json, k: &str| m.get(k).and_then(Json::as_str).unwrap();
        let entries = bench.get(key).unwrap().items().iter();
        entries.map(|m| (field(m, "name"), field(m, "unit"), field(m, "better"))).collect()
    }

    fn defined(table: &'static [MetricDef]) -> Vec<(&'static str, &'static str, &'static str)> {
        table.iter().map(|&(n, u, b)| (n, u, b.as_str())).collect()
    }

    /// One main-pass round and one traced iteration of every workload at
    /// test scale, through the one `--out` schema and a parser and back;
    /// every name in it is well-formed and is one BENCHMARK.json defines.
    #[test]
    fn report_round_trips_and_uses_only_benchmark_json_names() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&bench, "end_to_end"), defined(END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), defined(PER_LAYER));

        let mut ws = workloads::all(Scale::Test);
        let mut yard = Yardstick::new();
        let e2e = harness::main_pass(&mut ws, 5, Budget::Rounds(1), &mut yard);
        let traced = harness::traced_pass(
            &mut ws,
            5,
            Budget::Rounds(1),
            &mut yard,
            &mut trace::Tracer::new(),
        );
        let rows: Vec<Row> = ws
            .iter()
            .zip(e2e.into_iter().zip(traced))
            .map(|(w, (e, t))| Row { name: w.name(), e2e: Some((e, Ok(12.5))), traced: Some(t) })
            .collect();
        let args = Args { seed: 5, rounds: Some(1), ..parse_args_from(&[]).unwrap() };
        let doc = report(&args, 2, host::facts(2), false, quartiles(&yard.samples_ms), &rows);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed, doc);

        let names: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let reported = parsed.get("workloads").unwrap().fields();
        assert_eq!(reported.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), names);
        for (workload, body) in reported {
            assert!(well_formed(workload), "{workload}");
            assert_eq!(body.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
            let keys = |section: &str| -> Vec<&str> {
                body.get(section).unwrap().fields().iter().map(|(k, _)| k.as_str()).collect()
            };
            assert_eq!(keys("e2e"), END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
            assert_eq!(keys("layers"), PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
            assert!(keys("e2e").iter().chain(&keys("layers")).all(|k| well_formed(k)));
        }
    }

    #[test]
    fn the_driver_line_carries_exactly_value_and_unit() {
        let e = EndToEnd { wall_ms: vec![1.0, 3.0], setup_s: vec![0.5], ..Default::default() };
        let row = Row { name: "w", e2e: Some((e, Ok(7.0))), traced: None };
        let line = row.e2e_json(false).to_string();
        assert_eq!(
            line,
            "{\"wall_ms\": {\"value\": 2, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mib\": {\"value\": 7, \"unit\": \"MiB\"}}"
        );
        assert!(row.e2e_json(true).to_string().contains("\"q1\": 1.5"));
        // A failed memory pass is a failed op and leaves its metric out.
        let row =
            Row { name: "w", e2e: Some((EndToEnd::default(), Err("gone".into()))), traced: None };
        assert_eq!((row.attempted(), row.failed()), (1, 1));
        assert!(row.e2e_json(false).fields().is_empty());
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = parse_args_from(&["--workload", "cm14-router", "--seed", "9", "--trace", "1"]);
        let args = args.unwrap();
        assert_eq!(
            (args.workload.as_deref(), args.seed, args.trace),
            (Some("cm14-router"), 9, Some(true))
        );
        assert!(parse_args_from(&["--seed"]).is_err());
        assert!(parse_args_from(&["--seed", "x"]).is_err());
        assert!(parse_args_from(&["--frobnicate", "1"]).is_err());
        assert!(select(Some("cm14-router")).is_ok() && select(Some("nope")).is_err());
    }
}
