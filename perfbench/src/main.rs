//! The mpest benchmark: one workload per invocation, end-to-end metrics
//! with tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sketch-inproc --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run report, also written under `perfbench/out/`.

mod check;
mod layers;
mod measure;
mod reference;
mod workloads;

use measure::{median, peak_rss_mb, quantile, windowed_quantile, Spans};
use reference::Reference;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{sample_median, Run, WORKLOADS};

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("bits_per_query", "bits"),
    ("wire_bytes_per_query", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`. A
/// layer a workload's path does not cross reads 0 there, as does a
/// protocol outside the workload's mix.
const PER_LAYER: [(&str, &str); 38] = [
    ("core.query_ms.lp", "ms"),
    ("core.query_ms.lp-baseline", "ms"),
    ("core.query_ms.l0-sample", "ms"),
    ("core.query_ms.linf-binary", "ms"),
    ("core.query_ms.hh-binary", "ms"),
    ("core.query_ms.at-least-t-join", "ms"),
    ("core.query_ms.linf-general", "ms"),
    ("core.query_ms.hh-general", "ms"),
    ("core.query_ms.exact-l1", "ms"),
    ("core.query_ms.l1-sample", "ms"),
    ("core.query_ms.sparse-matmul", "ms"),
    ("core.query_ms.linf-kappa", "ms"),
    ("core.query_ms.trivial-csr", "ms"),
    ("core.warm_views_ms", "ms"),
    ("core.apply_update_us", "us"),
    ("sketch.build_ms.lp", "ms"),
    ("sketch.build_ms.lp-baseline", "ms"),
    ("sketch.build_ms.l0-sample", "ms"),
    ("sketch.build_ms.linf-general", "ms"),
    ("sketch.cache.hits", "count"),
    ("sketch.cache.misses", "count"),
    ("comm.encode_ns_per_bit", "ns/bit"),
    ("comm.decode_ns_per_bit", "ns/bit"),
    ("comm.codec_ms_per_query", "ms"),
    ("comm.rounds_per_query", "count"),
    ("comm.messages_per_query", "count"),
    ("net.rtt_overhead_us", "us"),
    ("net.phase.decode_us", "us"),
    ("net.phase.lookup_us", "us"),
    ("net.phase.run_us", "us"),
    ("net.phase.encode_us", "us"),
    ("net.worker.queue_depth", "count"),
    ("net.reactor.wakeups_per_query", "count"),
    ("net.framing_ratio", "ratio"),
    ("net.party.overhead_ms", "ms"),
    ("net.sessions.superseded", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics(values: &BTreeMap<String, f64>, names: &[(&str, &str)]) -> String {
    object(names.iter().map(|&(name, unit)| {
        let v = values.get(name).copied().unwrap_or(0.0);
        (name, object([("value", num(v)), ("unit", string(unit))]))
    }))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn per_query(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

fn end_to_end(run: &Run) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median(&run.setup_s));
    m.insert("qps".into(), run.queries as f64 / run.query_s.max(1e-9));
    m.insert("latency_p50_ms".into(), quantile(&run.latency_ms, 0.5));
    m.insert(
        "latency_p90_ms".into(),
        windowed_quantile(&run.latency_ms, run.window, 0.9),
    );
    m.insert("update_p50_ms".into(), median(&run.update_ms));
    m.insert("bits_per_query".into(), per_query(run.bits, run.reports));
    m.insert(
        "wire_bytes_per_query".into(),
        per_query(run.wire_bytes, run.reports),
    );
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m
}

fn per_layer(args: &Args, untraced: &Run, traced: &Run, spans: &Spans) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(n, _)| (n.to_string(), 0.0))
        .collect();
    m.extend(traced.layers.clone());
    let pair = traced.pair.as_ref().expect("every run keeps its pair");
    layers::core_probe(pair, &workloads::mix(&args.workload), args.seed, &mut m);
    let bits = per_query(traced.bits, traced.reports);
    layers::codec_probe(bits, args.seed, &mut m);
    for name in [
        "core.apply_update_us",
        "net.rtt_overhead_us",
        "net.party.overhead_ms",
    ] {
        m.insert(name.into(), sample_median(traced, name));
    }
    m.insert(
        "comm.rounds_per_query".into(),
        per_query(traced.rounds, traced.reports),
    );
    m.insert(
        "comm.messages_per_query".into(),
        per_query(traced.messages, traced.reports),
    );
    m.insert(
        "net.framing_ratio".into(),
        traced.wire_bytes as f64 / traced.payload_bytes.max(1) as f64,
    );
    let (off, on) = (
        quantile(&untraced.latency_ms, 0.5),
        quantile(&traced.latency_ms, 0.5),
    );
    m.insert(
        "obs.trace_overhead_pct".into(),
        (on / off.max(1e-9) - 1.0) * 100.0,
    );
    m.insert("obs.spans".into(), spans.count() as f64);
    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    m
}

fn distribution(xs: &[f64]) -> String {
    object([
        ("samples", xs.len().to_string()),
        ("total", num(xs.iter().sum())),
        ("max", num(quantile(xs, 1.0))),
        ("p50", num(quantile(xs, 0.5))),
        ("p90", num(quantile(xs, 0.9))),
        ("p99", num(quantile(xs, 0.99))),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    // The socket workloads are chains of request and reply between
    // threads. On a shared virtual machine every hop between CPUs waits
    // for the host to wake the other CPU, which moved their latencies
    // by up to 3× between runs; on one CPU the chain never leaves it.
    // sketch-inproc is pinned too: with a worker on each of two shared
    // CPUs, a batch lasted as long as the later CPU was to come back,
    // and its p90 moved by a third between runs of the same code.
    if let Err(e) = measure::pin_to_one_cpu() {
        eprintln!("error: cannot pin to one CPU: {e}");
        return ExitCode::from(1);
    }
    let run_one = |seconds: f64, spans: &Spans| {
        workloads::run(&args.workload, args.seed, seconds, spans)
            .expect("workload names are checked")
    };
    let (main_run, values, names, overhead_runs, trace_file) = if args.trace {
        // Half the time untraced, half traced: their latency gap is the
        // tracing overhead.
        let untraced = run_one(args.seconds / 2.0, &Spans::off());
        let spans = Spans::on();
        let mut traced = run_one(args.seconds / 2.0, &spans);
        let values = per_layer(&args, &untraced, &traced, &spans);
        let _ = std::fs::create_dir_all(&out_dir);
        let path = out_dir.join(format!("{stem}.spans.jsonl"));
        let written = spans.write(&path).map(|()| path.display().to_string());
        let trace_file = written.unwrap_or_else(|e| format!("not written: {e}"));
        let gap = object([
            ("untraced_latency", distribution(&untraced.latency_ms)),
            ("traced_latency", distribution(&traced.latency_ms)),
        ]);
        // Both halves' outputs were checked; the result counts both.
        traced.tally.absorb(untraced.tally);
        (traced, values, &PER_LAYER[..], gap, trace_file)
    } else {
        let run = run_one(args.seconds, &Spans::off());
        let values = end_to_end(&run);
        (run, values, &END_TO_END[..], "null".into(), "null".into())
    };

    let pair = main_run.pair.as_ref().expect("every run keeps its pair");
    let reference = Reference::new(&pair.a, &pair.b);
    let (cases, rejected, escaped) = check::self_test(&reference, &pair.planted);
    let over_budget = main_run.tally.over_budget();
    let correct = escaped.is_empty() && over_budget.is_empty();

    let list = |items: &[String]| {
        format!(
            "[{}]",
            items
                .iter()
                .map(|s| string(s))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let ops = object(main_run.tally.by_op.iter().map(|(op, c)| {
        (
            op.as_str(),
            object([
                ("attempted", c.attempted.to_string()),
                ("failed", c.failed.to_string()),
                ("missed", c.missed.to_string()),
            ]),
        )
    }));
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = object([
        ("workload", string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "environment",
            object([
                ("nproc", nproc.to_string()),
                (
                    "commit",
                    string(&command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", string(&command_line("rustc", &["--version"]))),
            ]),
        ),
        (
            "input",
            object([
                ("a", string(&format!("{}x{}", pair.a.rows(), pair.a.cols()))),
                ("b", string(&format!("{}x{}", pair.b.rows(), pair.b.cols()))),
                ("nnz", (pair.a.nnz() + pair.b.nnz()).to_string()),
                ("planted", string(&format!("{:?}", pair.planted))),
            ]),
        ),
        ("operations", ops),
        ("latency_ms", distribution(&main_run.latency_ms)),
        (
            "latency_p90_windows",
            object([
                ("samples", main_run.window.to_string()),
                (
                    "count",
                    (main_run.latency_ms.len() / main_run.window.max(1)).to_string(),
                ),
            ]),
        ),
        ("update_ms", distribution(&main_run.update_ms)),
        ("setup_s", distribution(&main_run.setup_s)),
        ("timed_queries", main_run.queries.to_string()),
        ("timed_s", num(main_run.query_s)),
        (
            "self_test",
            object([
                ("cases", cases.to_string()),
                ("rejected", rejected.to_string()),
                ("escaped", list(&escaped)),
            ]),
        ),
        ("over_budget", list(&over_budget)),
        ("notes", list(&main_run.tally.notes)),
        ("tracing_overhead", overhead_runs),
        ("spans", string(&trace_file)),
    ]);
    let _ = std::fs::create_dir_all(&out_dir);
    let _ = std::fs::write(out_dir.join(format!("{stem}.report.json")), &report);
    println!("{}", object([("report", report)]));
    println!(
        "{}",
        object([
            ("correct", correct.to_string()),
            ("attempted", main_run.tally.attempted().to_string()),
            ("failed", main_run.tally.failed().to_string()),
            ("metrics", metrics(&values, names)),
        ])
    );
    ExitCode::SUCCESS
}
