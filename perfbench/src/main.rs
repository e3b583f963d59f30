//! `perfbench` — end-to-end and per-layer benchmark of the public
//! `plan` → `tetris_core` pipeline, driven from outside on four named
//! workloads (see `README.md` in this directory).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--revision <rev>] [--source-digest <hex>]
//! ```
//!
//! One run generates its graph from the seed, writes it as an edge file,
//! and from then on the program sees only that file. With `--trace 0`
//! it prints the end-to-end metrics (`query_s`, `setup_s`,
//! `peak_rss_mb`); with `--trace 1` it alternates untraced and traced
//! query executions and prints the per-layer ledger. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is non-zero if any execution failed a check.

mod account;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use boxstore::BoxOracle;
use plan::PreparedQuery;
use tetris_core::{prepare_with_config, TetrisOutput, TetrisStats};
use workload::graphs::Graph;

use account::{median, Accounting, Reference};
use spans::Tracer;
use workloads::Workload;

/// Set-up runs in slices, one before each query execution, so its
/// samples spread over the same window as the queries. A slice repeats
/// set-up until `SETUP_SLICE_SECONDS` have passed, at most
/// `SETUP_SLICE_MAX_REPS` times; `setup_s` is the median over every
/// repetition of the run.
const SETUP_SLICE_SECONDS: f64 = 0.1;
const SETUP_SLICE_MAX_REPS: usize = 50;
/// Query executions per run at the least, whatever `--seconds` says.
const MIN_QUERY_REPS: usize = 4;
/// Repetitions of the timed gap-stream drain and of leapfrog in a
/// traced run.
const TRACED_AUX_REPS: usize = 3;
/// Largest share of a query span's wall, or of all set-up spans' wall
/// together, that their layers may leave unaccounted.
const CLOSURE_TOLERANCE: f64 = 0.10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    revision: Option<String>,
    source_digest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut revision = None;
    let mut source_digest = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--revision" => revision = Some(value()?),
            "--source-digest" => source_digest = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        revision,
        source_digest,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Per-step set-up times of one repetition.
#[derive(Default)]
struct SetupSteps {
    load: Vec<f64>,
    edges: Vec<f64>,
    plan: Vec<f64>,
    index: Vec<f64>,
    total: Vec<f64>,
}

/// Layer times of one query execution.
struct QueryTimes {
    preload: f64,
    solve: f64,
    total: f64,
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Run the workload; `Ok(true)` when every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let cfg = wl.config();
    let mut tr = Tracer::new(args.trace);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        wl.name,
        args.seed,
        u8::from(args.trace)
    );

    // Inputs: the benchmark's own work, outside every metric.
    let gen_seed = wl.generator_seed(args.seed);
    let (graph, _) = tr.time("bench.generate", None, |_, _| {
        wl.family.generate(wl.edges, gen_seed)
    });
    let input = args
        .out_dir
        .join(format!("{stem}-{}.tsv", std::process::id()));
    graph
        .save(&input)
        .map_err(|e| format!("write {}: {e}", input.display()))?;
    let (truth, truth_s) = tr.time("baseline.truth", None, |_, _| wl.query.truth(&graph));
    let (edges, vertices) = (graph.edges.len(), graph.vertices);
    drop(graph);

    // Set-up: input file → prepared query. Each slice drops the previous
    // prepared query before building the next, so one is resident.
    let mut steps = SetupSteps::default();
    let mut slot = None;
    setup_slice(&mut tr, wl, &input, &mut steps, &mut slot)?;
    let prepared = slot
        .as_ref()
        .expect("a set-up slice prepares at least once");

    // Reference listing and the workload's gap-box count.
    let aux_reps = if args.trace { TRACED_AUX_REPS } else { 1 };
    let mut lftj_s = Vec::new();
    let mut listing = Vec::new();
    for _ in 0..aux_reps {
        let ((tuples, _), s) = tr.time("baseline.lftj", None, |_, _| prepared.leapfrog());
        lftj_s.push(s);
        listing = tuples;
    }
    let reference = Reference::new(listing, prepared.sao().len(), truth);
    let mut gap_stream_s = Vec::new();
    let mut gap_boxes = 0u64;
    for _ in 0..aux_reps {
        let (n, s) = tr.time("relation.gap_stream", None, |_, _| {
            let oracle = prepared.oracle();
            let mut n = 0u64;
            oracle.for_each_box(&mut |_| n += 1);
            n
        });
        gap_stream_s.push(s);
        gap_boxes = n;
    }

    // Query executions: from here on, the peak belongs to this workload.
    let rss_reset = reset_peak_rss();
    let mut acct = Accounting::new(wl.sequential());
    let mut untraced: Vec<QueryTimes> = Vec::new();
    let mut traced: Vec<QueryTimes> = Vec::new();
    let mut traced_stats: Vec<TetrisStats> = Vec::new();
    // Execution 0 warms the allocator and caches: it is checked and
    // counted as attempted but not timed. A new execution starts only
    // while the window, less half the last execution's time, is open.
    let start = Instant::now();
    let mut rep = 0u32;
    let mut timed = 0usize;
    let mut last = 0.0;
    while timed < MIN_QUERY_REPS || start.elapsed().as_secs_f64() + last / 2.0 < args.seconds {
        let warmup = rep == 0;
        // A traced run alternates untraced and traced executions, so the
        // two halves see the same machine conditions.
        let observe = args.trace && !warmup && timed % 2 == 1;
        if !warmup {
            tr.on = args.trace;
            tr.rep = None;
            setup_slice(&mut tr, wl, &input, &mut steps, &mut slot)?;
        }
        let prepared = slot
            .as_ref()
            .expect("a set-up slice prepares at least once");
        tr.on = observe;
        tr.rep = Some(rep);
        let mut c = cfg;
        c.obs = observe;
        let (out, times) = execute(&mut tr, prepared, c);
        let failures = acct.record(
            &reference,
            &out.tuples,
            out.stats.outputs,
            out.stats.resolutions,
        );
        for f in &failures {
            eprintln!("perfbench: {} execution {rep}: {f}", wl.name);
        }
        last = times.total;
        if !warmup {
            if observe {
                traced.push(times);
                traced_stats.push(out.stats);
            } else {
                untraced.push(times);
            }
            timed += 1;
        }
        rep += 1;
    }
    let peak_rss_mb = rss_reset
        .and_then(|()| peak_rss_bytes())
        .map(|b| b as f64 / (1024.0 * 1024.0));
    tr.on = args.trace;
    tr.rep = None;
    let _ = std::fs::remove_file(&input);
    let prepared = slot.expect("a set-up slice prepares at least once");
    let setup_reps = steps.total.len();

    let query_s: Vec<f64> = untraced.iter().map(|t| t.total).collect();
    let metrics = if args.trace {
        // The knowledge base's memory ledger, after a preload of its own.
        let (mem_bytes, _) = tr.time("boxstore.mem_probe", None, |tr, id| {
            let oracle = prepared.oracle();
            let (engine, _) = tr.time("core.preload", id, |_, _| prepare_with_config(&oracle, cfg));
            let (mem, _) = tr.time("boxstore.mem_stats", id, |_, _| engine.mem_stats());
            mem.bytes
        });
        let m = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
        let counter = |f: fn(&TetrisStats) -> u64| {
            m(&traced_stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let preload_s = m(&traced.iter().map(|t| t.preload).collect::<Vec<_>>());
        let solve_s = m(&traced.iter().map(|t| t.solve).collect::<Vec<_>>());
        let traced_query_s = m(&traced.iter().map(|t| t.total).collect::<Vec<_>>());
        let resolutions = counter(|s| s.resolutions);
        let kb_queries = counter(|s| s.kb_queries);
        let gap_s = m(&gap_stream_s);
        let (nt, nu, na) = (traced.len(), untraced.len(), aux_reps);
        let count = |name, f| metric(name, Some(counter(f)), "count", nt);
        vec![
            metric("relation.load_s", median(&steps.load), "s", setup_reps),
            metric("relation.edges_s", median(&steps.edges), "s", setup_reps),
            metric("relation.index_s", median(&steps.index), "s", setup_reps),
            metric("relation.gap_stream_s", Some(gap_s), "s", na),
            metric("relation.gap_boxes", Some(gap_boxes as f64), "count", na),
            metric("plan.plan_s", median(&steps.plan), "s", setup_reps),
            metric("core.preload_s", Some(preload_s), "s", nt),
            metric("core.solve_s", Some(solve_s), "s", nt),
            metric("core.resolutions", Some(resolutions), "count", nt),
            count("core.outputs", |s| s.outputs),
            metric(
                "core.ns_per_resolution",
                account::ns_per_resolution(solve_s, resolutions),
                "ns",
                nt,
            ),
            count("core.oracle_probes", |s| s.oracle_probes),
            count("core.loaded_boxes", |s| s.loaded_boxes),
            metric(
                "boxstore.insert_s",
                Some(account::insert_s(wl.preload, preload_s, gap_s)),
                "s",
                nt,
            ),
            count("boxstore.kb_inserts", |s| s.kb_inserts),
            count("boxstore.kb_insert_skips", |s| s.kb_insert_skips),
            metric("boxstore.mem_bytes", Some(mem_bytes as f64), "bytes", 1),
            metric("boxstore.kb_queries", Some(kb_queries), "count", nt),
            count("boxstore.probe_advances", |s| s.probe_advances),
            count("boxstore.probe_repairs", |s| s.probe_repairs),
            count("boxstore.probe_full_walks", |s| s.probe_full_walks),
            metric(
                "boxstore.advance_ratio",
                account::ratio(counter(|s| s.probe_advances), kb_queries),
                "ratio",
                nt,
            ),
            count("executor.par_tasks", |s| s.par_tasks),
            count("executor.par_donations", |s| s.par_donations),
            metric("baseline.lftj_s", median(&lftj_s), "s", na),
            metric("baseline.truth_s", Some(truth_s), "s", 1),
            metric(
                "baseline.gap_vs_lftj",
                account::ratio(m(&query_s), m(&lftj_s)),
                "ratio",
                nu,
            ),
            metric(
                "obs.overhead",
                account::overhead(traced_query_s, m(&query_s)),
                "ratio",
                nt.min(nu),
            ),
        ]
    } else {
        vec![
            metric("query_s", median(&query_s), "s", query_s.len()),
            metric("setup_s", median(&steps.total), "s", setup_reps),
            metric(
                "peak_rss_mb",
                peak_rss_mb,
                "MB",
                usize::from(peak_rss_mb.is_some()),
            ),
        ]
    };

    // The closure check: the layers of each query span account for its
    // wall within the tolerance. Set-up spans last milliseconds, where one
    // preemption between two layer calls is a large share, so they must
    // close in total.
    let mut closure_ok = true;
    let mut worst_gap = 0.0f64;
    if args.trace {
        let mut checks: Vec<(String, f64)> = spans::closures(tr.spans(), "query")
            .into_iter()
            .map(|(i, c)| (format!("query span {i}"), c.unaccounted()))
            .collect();
        let setup_total = spans::Closure::total(&spans::closures(tr.spans(), "setup"));
        checks.push(("all setup spans".to_string(), setup_total.unaccounted()));
        for (what, gap) in checks {
            worst_gap = worst_gap.max(gap.abs());
            if gap.abs() > CLOSURE_TOLERANCE {
                closure_ok = false;
                eprintln!(
                    "perfbench: closure check failed: {what} leaves {:.1}% of the wall unaccounted",
                    gap * 100.0
                );
            }
        }
        let path = args.out_dir.join(format!("{stem}-spans.jsonl"));
        let file =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        spans::write_jsonl(tr.spans(), &mut w)
            .and_then(|()| std::io::Write::flush(&mut w))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans -> {} (largest unaccounted share {:.2}%)",
            tr.spans().len(),
            path.display(),
            worst_gap * 100.0
        );
    }

    let correct = acct.failed == 0 && closure_ok;
    let meta = [
        ("workload", json_str(wl.name)),
        ("family", json_str(wl.family.name())),
        ("query", json_str(wl.query.name())),
        ("preload", wl.preload.to_string()),
        ("descent", json_str(plan::descent_name(wl.descent))),
        ("threads", wl.threads().to_string()),
        ("seed", args.seed.to_string()),
        ("generator_seed", gen_seed.to_string()),
        ("edges", edges.to_string()),
        ("vertices", vertices.to_string()),
        ("input_tuples_n", prepared.input_size().to_string()),
        ("gap_boxes", gap_boxes.to_string()),
        ("outputs_z", truth.to_string()),
        (
            "resolutions",
            acct.first_resolutions().unwrap_or(0).to_string(),
        ),
        ("host_cores", host_cores().to_string()),
        ("build_profile", json_str("release")),
        ("revision", json_opt_str(args.revision.as_deref())),
        ("source_digest", json_opt_str(args.source_digest.as_deref())),
        ("trace", args.trace.to_string()),
        ("seconds", json_num(Some(args.seconds))),
        ("closure_ok", closure_ok.to_string()),
        ("closure_worst_share", json_num(Some(worst_gap))),
    ];
    let meta_json = json_object(meta.iter().map(|(k, v)| (*k, v.clone())));
    let failures = format!(
        "[{}]",
        acct.messages
            .iter()
            .map(|m| json_str(m))
            .collect::<Vec<_>>()
            .join(",")
    );
    let metric_json = |with_samples: bool| {
        json_object(metrics.iter().map(|m| {
            let mut fields = vec![("value", json_num(m.value)), ("unit", json_str(m.unit))];
            if with_samples {
                fields.push(("samples", m.samples.to_string()));
            }
            (m.name, json_object(fields))
        }))
    };
    let record = json_object([
        ("run", meta_json.clone()),
        ("correct", correct.to_string()),
        ("attempted", acct.attempted.to_string()),
        ("failed", acct.failed.to_string()),
        ("failures", failures),
        ("metrics", metric_json(true)),
        ("query_s_samples", json_list(&query_s)),
        ("setup_s_samples", json_list(&steps.total)),
    ]);
    let record_path = args.out_dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;

    for m in &metrics {
        println!(
            "{:<26} {:>16} {:<6} ({} sample{})",
            m.name,
            m.value.map_or("null".to_string(), |v| format!("{v:.6}")),
            m.unit,
            m.samples,
            if m.samples == 1 { "" } else { "s" }
        );
    }
    println!("{}", json_object([("run", meta_json)]));
    println!(
        "{}",
        json_object([
            ("correct", correct.to_string()),
            ("attempted", acct.attempted.to_string()),
            ("failed", acct.failed.to_string()),
            ("metrics", metric_json(false)),
        ])
    );
    Ok(correct)
}

/// One set-up slice: repeat set-up until the slice is over, leaving the
/// last prepared query in `slot`.
fn setup_slice(
    tr: &mut Tracer,
    wl: &Workload,
    input: &Path,
    steps: &mut SetupSteps,
    slot: &mut Option<PreparedQuery>,
) -> Result<(), String> {
    let start = Instant::now();
    for _ in 0..SETUP_SLICE_MAX_REPS {
        drop(slot.take());
        let (prepared, total) = tr.time("setup", None, |tr, id| setup(tr, id, wl, input, steps));
        *slot = Some(prepared?);
        steps.total.push(total);
        if start.elapsed().as_secs_f64() >= SETUP_SLICE_SECONDS {
            break;
        }
    }
    Ok(())
}

/// One set-up repetition: load the edge file, build the relation, plan
/// the query, build its trie indexes.
fn setup(
    tr: &mut Tracer,
    id: Option<usize>,
    wl: &Workload,
    input: &Path,
    steps: &mut SetupSteps,
) -> Result<PreparedQuery, String> {
    let (g, load) = tr.time("relation.load", id, |_, _| Graph::load(input));
    let g = g.map_err(|e| format!("load {}: {e}", input.display()))?;
    let (rel, edges) = tr.time("relation.edge_relation", id, |_, _| g.edge_relation());
    let (plan, plan_s) = tr.time("plan.plan", id, |_, _| wl.query.plan(&rel));
    let (prepared, index) = tr.time("relation.index", id, |_, _| plan.prepare());
    steps.load.push(load);
    steps.edges.push(edges);
    steps.plan.push(plan_s);
    steps.index.push(index);
    Ok(prepared)
}

/// One query execution: engine build with its preload, then the solve
/// with the listing materialized.
fn execute(
    tr: &mut Tracer,
    prepared: &PreparedQuery,
    cfg: tetris_core::TetrisConfig,
) -> (TetrisOutput, QueryTimes) {
    let ((out, preload, solve), total) = tr.time("query", None, |tr, id| {
        let (oracle, _) = tr.time("core.oracle", id, |_, _| prepared.oracle());
        let (engine, preload) =
            tr.time("core.preload", id, |_, _| prepare_with_config(&oracle, cfg));
        let (out, solve) = tr.time("core.solve", id, |_, _| engine.run());
        (out, preload, solve)
    });
    (
        out,
        QueryTimes {
            preload,
            solve,
            total,
        },
    )
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set. `None` where procfs is missing.
fn reset_peak_rss() -> Option<()> {
    std::fs::write("/proc/self/clear_refs", "5").ok()
}

/// This process's peak resident set in bytes, from procfs.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_str(s: Option<&str>) -> String {
    s.map_or("null".to_string(), json_str)
}

/// A number with all its digits, or `null` when missing or not finite.
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(Some(x))).collect();
    format!("[{}]", items.join(","))
}

fn json_object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_null() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(Some(1.25)), "1.25");
        assert_eq!(json_num(Some(f64::NAN)), "null");
        assert_eq!(json_num(None), "null");
        assert_eq!(
            json_object([("a", "1".to_string()), ("b", json_str("x"))]),
            "{\"a\":1,\"b\":\"x\"}"
        );
    }
}
