//! The repository's benchmark: the offline codec, random GET serving and
//! live ingest, each measured end to end, with a separate traced run that
//! splits the end-to-end time into the stack's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compress-copper|serve-get|ingest-helium> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`. With `--trace 0` the run prints the
//! end-to-end metrics ([`E2E`], the same names for every workload); with
//! `--trace 1` it spends half its time untraced and half traced, and prints
//! every per-layer metric ([`LAYERS`]: 0 for a layer off the workload's
//! path) plus the tracing overhead. Either way every output is checked, human-readable lines come
//! first, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The run record (host,
//! inputs, sample counts, checks and every span) is written to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`.
//!
//! The exit code is 0 only when every check passed, every declared metric
//! was emitted and no operation failed; failures are reported first.

mod check;
mod compress;
mod host;
mod ingest;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use mdz_sim::Scale;
use report::{decl, Decl, Report};
use trace::Tracer;

/// Everything a workload needs to know about its run.
pub struct Params {
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Dataset scale; the benchmark runs at full scale, its tests smaller.
    pub scale: Scale,
    /// Where run records and temporary files go.
    pub out_dir: PathBuf,
}

impl Params {
    /// Seconds per phase: a traced run spends half untraced, half traced.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// The [`LAYERS`] rows on this workload's path; a traced run reports
    /// the others as 0.
    pub layers: &'static [Decl],
    pub run: fn(&Params, &mut Report, &mut Tracer),
}

pub const WORKLOADS: &[Workload] = &[compress::WORKLOAD, serve::WORKLOAD, ingest::WORKLOAD];

/// The end-to-end metrics every workload emits with `--trace 0`. A
/// workload's unit of work is a round of the four codec calls
/// (`compress-copper`), a GET (`serve-get`) or an acked APPEND
/// (`ingest-helium`); `throughput_mbps` counts raw f64 trajectory bytes.
pub const E2E: &[Decl] = &[
    decl("setup_s", "s"),
    decl("peak_rss_mb", "MB"),
    decl("success_rate", "ratio"),
    decl("ratio", "x"),
    decl("throughput_mbps", "MB/s"),
    decl("latency_p50_ms", "ms"),
];

/// The per-layer metrics every workload emits with `--trace 1`.
pub const LAYERS: &[Decl] = &[
    decl("e2e_s", "s"),
    decl("unattributed_s", "s"),
    decl("trace.overhead_share", "ratio"),
    // compress-copper
    decl("compress_mbps", "MB/s"),
    decl("decompress_mbps", "MB/s"),
    decl("compress_mbps_par", "MB/s"),
    decl("decompress_mbps_par", "MB/s"),
    decl("kmeans.detect_s", "s"),
    decl("kmeans.detect_runs", "count"),
    decl("kmeans.detected", "count"),
    decl("adp.trials", "count"),
    decl("encode.escape_share", "ratio"),
    decl("encode.predict_quantize_s", "s"),
    decl("encode.entropy_s", "s"),
    decl("encode.lossless_s", "s"),
    decl("encode.unattributed_s", "s"),
    decl("container_s", "s"),
    decl("decode.lossless_s", "s"),
    decl("decode.reconstruct_s", "s"),
    decl("decode.unattributed_s", "s"),
    decl("par.compress_s", "s"),
    decl("par.decompress_s", "s"),
    decl("par.compress_scaling", "x"),
    decl("par.decompress_scaling", "x"),
    // serve-get
    decl("get_p50_ms", "ms"),
    decl("get_p99_ms", "ms"),
    decl("get_rps", "req/s"),
    decl("reader.read_frames_s", "s"),
    decl("protocol.encode_frames_s", "s"),
    decl("protocol.parse_frames_s", "s"),
    decl("server.other_s", "s"),
    decl("reader.read_frames_p50_ms", "ms"),
    decl("reader.read_frames_p99_ms", "ms"),
    decl("store.cache.hit_ratio", "ratio"),
    decl("store.buffers_decoded_per_get", "count"),
    decl("protocol.encode_frames_p50_ms", "ms"),
    decl("protocol.parse_frames_p50_ms", "ms"),
    decl("server.request_p50_ms", "ms"),
    decl("server.request_p99_ms", "ms"),
    decl("net.transport_p50_ms", "ms"),
    // ingest-helium
    decl("append_mbps", "MB/s"),
    decl("append_p50_ms", "ms"),
    decl("append_p99_ms", "ms"),
    decl("staleness_p50_ms", "ms"),
    decl("staleness_p99_ms", "ms"),
    decl("archive.encode_s", "s"),
    decl("archive.recover_scan_s", "s"),
    decl("archive.io_s", "s"),
    decl("reader.refresh_s", "s"),
    decl("archive.append_store_p50_ms", "ms"),
    decl("archive.recover_scan_ms", "ms"),
    decl("reader.refresh_ms", "ms"),
    decl("append.ack_growth", "x"),
    decl("follow.empty_polls_per_append", "ratio"),
    decl("follow.reconnects", "count"),
];

/// A run that outlives this is stopped: the benchmark must end in 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

/// A phase that has not gathered the samples its metrics need when its time
/// is up runs on, but no longer than this from its start, which leaves the
/// [`WATCHDOG`] room for set-up, a second phase and the checks.
pub const PHASE_LIMIT: Duration = Duration::from_secs(100);

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

/// Runs one workload, turning a panic into a failed check.
pub fn run_workload(w: &Workload, p: &Params) -> (Report, Tracer) {
    let (active, inactive) = if p.trace { (LAYERS, E2E) } else { (E2E, LAYERS) };
    let mut report = Report::new(active, inactive);
    host::record(&mut report);
    report.note("workload", w.name);
    report.note("seed", p.seed.to_string());
    report.note("seconds", p.seconds.to_string());
    report.note("trace", (p.trace as u8).to_string());
    let mut tracer = Tracer::new(p.trace);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (w.run)(p, &mut report, &mut tracer)
    }));
    if let Err(panic) = outcome {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        report.check("workload ran to completion", false, msg);
    }
    if p.trace {
        let off_path: Vec<&str> = LAYERS
            .iter()
            .filter(|d| !w.layers.iter().any(|l| l.name == d.name))
            .map(|d| d.name)
            .collect();
        for &name in &off_path {
            report.set(name, 0.0);
        }
        report.note("layers_off_path", format!("reported as 0: {}", off_path.join(" ")));
    }
    (report, tracer)
}

fn out_dir() -> PathBuf {
    // `cargo run` points this at the package in the checkout being run.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {name}; one of {}", names.join(", "));
        std::process::exit(2);
    };
    let out_dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s; stopping", WATCHDOG.as_secs());
        std::process::exit(3);
    });

    let params = Params { seed, seconds, trace, scale: Scale::Full, out_dir: out_dir.clone() };
    let (report, tracer) = run_workload(workload, &params);

    let record = out_dir.join(format!("{name}-seed{seed}-trace{}.json", trace as u8));
    let body = format!("{{\"run\": {},\n\"spans\": {}}}\n", report.record_json(), tracer.to_json());
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    for line in report.summary_lines() {
        println!("{line}");
    }
    println!("# record: {}", record.display());
    println!("{}", report.result_line());
    let ok = report.correct() && report.failed() == 0;
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_bench::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// BENCHMARK.json declares exactly [`E2E`] and [`LAYERS`], under the
    /// same units, which every workload emits in the matching mode, and
    /// each workload's own rows are among [`LAYERS`].
    #[test]
    fn benchmark_json_matches_the_workloads() {
        let json = benchmark_json();
        let mut listed: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let mut ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        ours.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, ours);

        for (key, decls) in [("end_to_end", E2E), ("per_layer", LAYERS)] {
            let mut in_json = declared(&json, key);
            let mut in_code: Vec<(String, String)> =
                decls.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
            for (name, unit) in &in_code {
                assert!(report::valid_name(name), "{key}: bad name {name}");
                assert!(report::valid_unit(unit), "{key}: bad unit {unit} for {name}");
            }
            in_json.sort_unstable();
            in_code.sort_unstable();
            assert_eq!(in_json, in_code, "{key}");
        }
        for w in WORKLOADS {
            for d in w.layers {
                assert!(
                    LAYERS.iter().any(|l| l.name == d.name && l.unit == d.unit),
                    "{}: {} [{}] is not among LAYERS",
                    w.name,
                    d.name,
                    d.unit
                );
            }
        }
        assert!(E2E.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// Runs every workload briefly on small inputs in both modes and checks
    /// that each emits every metric of the mode, except timing percentiles
    /// too few samples support, that no end-to-end metric reads 0, and that
    /// every output check passes.
    #[test]
    fn workloads_emit_their_declared_metrics() {
        let dir = out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in WORKLOADS {
            for trace in [false, true] {
                let p = Params {
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    scale: Scale::Small,
                    out_dir: dir.clone(),
                };
                let (report, _) = run_workload(w, &p);
                if !trace {
                    for d in E2E {
                        let v = report.value(d.name);
                        assert!(v.is_none_or(|v| v > 0.0), "{}: {} reads {v:?}", w.name, d.name);
                    }
                }
                for m in report.missing() {
                    assert!(
                        report.withheld().contains(&m),
                        "{} trace={trace}: {m} not emitted",
                        w.name
                    );
                }
                assert_eq!(report.failed(), 0, "{}: {:?}", w.name, report.summary_lines());
                let failed = report.failed_checks();
                assert!(failed.is_empty(), "{} trace={trace}: {failed:?}", w.name);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload serve-get --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(ok, ("serve-get".to_string(), 3, 10.0, true));
        assert!(parse_args(&args("--workload x --seed -1 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 1")).is_err());
    }
}
