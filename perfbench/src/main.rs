//! End-to-end benchmark of the mbb reproduction, with per-layer
//! attribution.  See `perfbench/README.md` for the workloads, the metrics
//! and the layer → end-to-end map.
//!
//! ```text
//! perfbench --workload paper|corpus|tier --seed N --seconds S --trace 0|1
//! perfbench --write-digests
//! ```
//!
//! Run from the repository root.  The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  The exit code is nonzero when any output was wrong.

mod common;
mod corpus;
mod paper;
mod programs;
mod tier;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{median, peak_rss_mb, repeated_setup, Checker, Digests, DIGESTS_PATH};
use programs::{Batch, PassLayers};
use trace::Meter;

/// The end-to-end metrics, with units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("sim_mev_per_s", "Mev/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics, with units, printed by every traced run.  A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("host.calib_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("repro_s", "s"),
    ("analyze_s", "s"),
    ("report_ms_p50", "ms"),
    ("optimize_ms_p50", "ms"),
    ("search_ms_p50", "ms"),
    ("programs_per_s", "1/s"),
    ("unattributed.load_ms", "ms"),
    ("unattributed.report_ms", "ms"),
    ("unattributed.optimize_ms", "ms"),
    ("unattributed.request_ms", "ms"),
    ("core.balance.measure_ms", "ms"),
    ("core.balance.time_ms", "ms"),
    ("memsim.ns_per_access", "ns"),
    ("memsim.accesses", "count"),
    ("memsim.l1_misses", "count"),
    ("memsim.l2_misses", "count"),
    ("memsim.mem_bytes", "B"),
    ("memsim.tlb_misses", "count"),
    ("memsim.hierarchy_new_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("core.fusion_ms", "ms"),
    ("core.pipeline_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("ir.pretty_ms", "ms"),
    ("core.canon_ms", "ms"),
    ("search.ms", "ms"),
    ("search.scored", "count"),
    ("search.pruned", "count"),
    ("search.score_cache_hit_ratio", "ratio"),
    ("bench.sec21_s", "s"),
    ("bench.fig1_s", "s"),
    ("bench.fig2_s", "s"),
    ("bench.fig3_s", "s"),
    ("bench.sp_s", "s"),
    ("bench.scaling_s", "s"),
    ("bench.fig4_s", "s"),
    ("bench.fig6_s", "s"),
    ("bench.opt_s", "s"),
    ("bench.fig8_s", "s"),
    ("client.connect_ms", "ms"),
    ("server.local_hit_p50_ms", "ms"),
    ("server.fwd_hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.oncpu_p50_ms", "ms"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.route.local", "count"),
    ("server.route.forward", "count"),
    ("server.forward_errors", "count"),
    ("server.shed", "count"),
    ("server.brownout_max_level", "level"),
    ("tier.miss_share", "share"),
    ("tier.forward_share", "share"),
];

/// Span names whose per-pass self time is a per-layer metric: span name,
/// metric name, and the divisor from ms to the metric's unit.
const LAYER_SPANS: [(&str, &str, f64); 21] = [
    ("core.balance.measure", "core.balance.measure_ms", 1.0),
    ("core.balance.time", "core.balance.time_ms", 1.0),
    ("memsim.hierarchy_new", "memsim.hierarchy_new_ms", 1.0),
    ("ir.parse", "ir.parse_ms", 1.0),
    ("ir.validate", "ir.validate_ms", 1.0),
    ("core.fusion", "core.fusion_ms", 1.0),
    ("core.pipeline", "core.pipeline_ms", 1.0),
    ("core.verify", "core.verify_ms", 1.0),
    ("ir.pretty", "ir.pretty_ms", 1.0),
    ("core.canon", "core.canon_ms", 1.0),
    ("search", "search.ms", 1.0),
    ("bench.sec21", "bench.sec21_s", 1e3),
    ("bench.fig1", "bench.fig1_s", 1e3),
    ("bench.fig2", "bench.fig2_s", 1e3),
    ("bench.fig3", "bench.fig3_s", 1e3),
    ("bench.sp", "bench.sp_s", 1e3),
    ("bench.scaling", "bench.scaling_s", 1e3),
    ("bench.fig4", "bench.fig4_s", 1e3),
    ("bench.fig6", "bench.fig6_s", 1e3),
    ("bench.opt", "bench.opt_s", 1e3),
    ("bench.fig8", "bench.fig8_s", 1e3),
];

const WORKLOADS: [&str; 3] = ["paper", "corpus", "tier"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected paper, corpus or tier)"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// One pass of a batch workload over its programs; returns the requests.
type PassFn = fn(
    &mut Meter,
    &mut Batch,
    &mut PassLayers,
    &mut Checker,
    &Digests,
    &[programs::Prog],
) -> Vec<(String, Vec<String>)>;

/// What a workload run produced.
struct Outcome {
    chk: Checker,
    metrics: BTreeMap<&'static str, f64>,
    profiles: Vec<(String, mbb_obs::Profile)>,
}

/// Passes a batch run makes at least, so every per-call median has three
/// samples (a traced run: two untraced passes and one traced).
const MIN_PASSES: u64 = 3;

/// Runs passes of a batch workload until `seconds` have elapsed and at
/// least [`MIN_PASSES`] passes ran; a traced run alternates untraced and
/// traced passes.
fn run_batch(
    seconds: u64,
    trace: bool,
    chk: &mut Checker,
    mut pass: impl FnMut(
        &mut Meter,
        &mut Batch,
        &mut PassLayers,
        &mut Checker,
    ) -> Vec<(String, Vec<String>)>,
) -> (Batch, Option<Meter>) {
    let mut batch = Batch::default();
    let mut plain = Meter::plain();
    let mut traced = trace.then(Meter::traced);
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        let mut layers = PassLayers::default();
        if trace && passes % 2 == 1 {
            let m = traced.as_mut().expect("traced meter");
            let mark = m.mark();
            m.open("pass");
            pass(m, &mut batch, &mut layers, chk);
            m.close();
            layers.self_ms = m.self_ms(mark);
            batch.traced.push(layers);
        } else {
            let requests = pass(&mut plain, &mut batch, &mut layers, chk);
            if batch.requests.is_empty() {
                batch.requests = requests;
            }
        }
        passes += 1;
        if passes >= MIN_PASSES && start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    batch.check_traced_counts(chk);
    (batch, traced)
}

/// The metrics a batch workload reports, end-to-end and per layer.
fn batch_metrics(batch: &Batch, m: &mut BTreeMap<&'static str, f64>) {
    let (p50, p99, per_s) = batch.request_metrics();
    m.insert("req_p50_ms", p50);
    m.insert("req_p99_ms", p99);
    m.insert("req_per_s", per_s);
    m.insert("sim_mev_per_s", batch.sim_mev_per_s());
    m.insert("trace.overhead_ratio", batch.overhead_ratio());
    m.insert("repro_s", batch.sum_of_medians(|id| id.starts_with("paper/exp/")));
    m.insert(
        "analyze_s",
        batch.sum_of_medians(|id| {
            id.starts_with("paper/")
                && !id.starts_with("paper/exp/")
                && (id.ends_with("/report") || id.ends_with("/optimize"))
        }),
    );
    m.insert("report_ms_p50", batch.p50_ms(|id| id.ends_with("/report")));
    m.insert("optimize_ms_p50", batch.p50_ms(|id| id.ends_with("/optimize")));
    m.insert("search_ms_p50", batch.p50_ms(|id| id.ends_with("/search")));
    let programs = batch.calls.keys().filter(|id| id.ends_with("/load")).count() as f64;
    m.insert("programs_per_s", programs / batch.sum_of_medians(|id| !id.contains("/exp/")));

    let traced = &batch.traced;
    if traced.is_empty() {
        return;
    }
    for (span, metric, div) in LAYER_SPANS {
        let per_pass: Vec<f64> =
            traced.iter().map(|p| p.self_ms.get(span).copied().unwrap_or(0.0) / div).collect();
        m.insert(metric, median(&per_pass));
    }
    for (kind, metric) in [
        ("load", "unattributed.load_ms"),
        ("report", "unattributed.report_ms"),
        ("optimize", "unattributed.optimize_ms"),
    ] {
        let per_pass: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.attribution.get(kind))
            .map(|&(step, layers, n)| (step - layers) / n as f64 * 1e3)
            .collect();
        m.insert(metric, median(&per_pass));
    }
    let ns: Vec<f64> = traced
        .iter()
        .filter(|p| p.sim_accesses > 0)
        .map(|p| p.sim_secs * 1e9 / p.sim_accesses as f64)
        .collect();
    m.insert("memsim.ns_per_access", median(&ns));
    let c = traced[0].counts;
    m.insert("memsim.accesses", c.accesses as f64);
    m.insert("memsim.l1_misses", c.l1_misses as f64);
    m.insert("memsim.l2_misses", c.l2_misses as f64);
    m.insert("memsim.mem_bytes", c.mem_bytes as f64);
    m.insert("memsim.tlb_misses", c.tlb_misses as f64);
    let (scored, pruned, hits, misses) = traced[0].search;
    m.insert("search.scored", scored as f64);
    m.insert("search.pruned", pruned as f64);
    if hits + misses > 0 {
        m.insert("search.score_cache_hit_ratio", hits as f64 / (hits + misses) as f64);
    }
}

/// Runs a batch workload: 100 timed set-ups, then passes of `pass` over
/// the programs the set-up produced.
fn run_programs(
    root: &Path,
    args: &Args,
    setup: impl FnMut() -> Result<Vec<programs::Prog>, String>,
    pass: PassFn,
) -> Result<Outcome, String> {
    let stored = Digests::load(&root.join(DIGESTS_PATH))?;
    let (progs, setup_s) = repeated_setup(100, setup)?;
    let mut chk = Checker::default();
    let (batch, meter) = run_batch(args.seconds, args.trace, &mut chk, |m, b, l, c| {
        pass(m, b, l, c, &stored, &progs)
    });
    let mut metrics = BTreeMap::from([("peak_rss_mb", peak_rss_mb()), ("setup_s", setup_s)]);
    batch_metrics(&batch, &mut metrics);
    let profiles = meter.and_then(Meter::into_profile).map(|p| (args.workload.clone(), p));
    Ok(Outcome { chk, metrics, profiles: profiles.into_iter().collect() })
}

fn run_tier(args: &Args) -> Result<Outcome, String> {
    let mut chk = Checker::default();
    let pool = tier::pool(args.seed)?;
    let expected: Vec<String> = direct_results(&pool)
        .into_iter()
        .map(|r| r.map(|(text, _)| text))
        .collect::<Result<_, _>>()?;
    let (t, setup_s) = repeated_setup(3, || {
        let pool = tier::pool(args.seed)?;
        let mut t = tier::Tier::start()?;
        t.warm(&pool, &expected, &mut chk)?;
        Ok(t)
    })?;
    eprintln!("perfbench: tier set up ({setup_s:.2} s each), measuring");
    let before = tier::node_stats(&t)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let outs: Vec<tier::ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..tier::CLIENTS)
            .map(|c| {
                let (t, pool, expected) = (&t, &pool, &expected);
                s.spawn(move || {
                    tier::client_loop(t, c, args.seed, pool, expected, start, deadline, args.trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let after = tier::node_stats(&t)?;

    let mut observed = t.warm;
    let mut samples = Vec::new();
    let mut connect_ms = Vec::new();
    let mut misses = Vec::new();
    let mut profiles = Vec::new();
    let mut untraced_secs = 0.0;
    for (c, o) in outs.into_iter().enumerate() {
        chk.attempted += o.attempted;
        for f in o.failures {
            chk.fail(f);
        }
        observed.add(&o.observed);
        samples.extend(o.samples);
        connect_ms.extend(o.connect_ms);
        misses.extend(o.misses.into_iter().map(|m| (c, m)));
        untraced_secs += o.untraced_secs;
        if let Some(p) = o.profile {
            profiles.push((format!("client {c}"), p));
        }
    }
    tier::reconcile(&observed, &after, &mut chk)?;
    drop(t);
    eprintln!("perfbench: checking {} never-seen programs", misses.len());

    // Every never-seen program's result against a direct call; its
    // simulated accesses give the tier's simulation throughput.
    let fresh: Vec<tier::Req> = misses
        .iter()
        .map(|&(c, (i, ..))| tier::fresh(args.seed, c, i))
        .collect::<Result<_, _>>()?;
    let direct = direct_results(&fresh);
    let (mut accesses, mut miss_ms) = (0u64, 0.0);
    for (&(c, (i, got, ms, was_miss)), want) in misses.iter().zip(direct) {
        match want {
            Ok((want, acc)) => {
                chk.expect(common::digest(&want) == got, || {
                    format!("never-seen request {i} of client {c}: result bytes differ")
                });
                if was_miss {
                    accesses += acc;
                    miss_ms += ms;
                }
            }
            Err(e) => chk.fail(format!("direct call failed: {e}")),
        }
    }

    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss);
    let (p50, p99) = tier::latency(&samples);
    m.insert("req_p50_ms", p50);
    m.insert("req_p99_ms", p99);
    let untraced = samples.iter().filter(|s| !s.traced).count() as f64;
    // Both clients run concurrently: the closed loop's rate is requests
    // over wall time, scaled by the untraced share of client time.
    let client_secs: f64 = samples.iter().map(|s| s.ms / 1e3).sum();
    let share = if client_secs > 0.0 { untraced_secs / client_secs } else { 1.0 };
    m.insert("req_per_s", untraced / (wall * share));
    m.insert("sim_mev_per_s", accesses as f64 / (miss_ms / 1e3) / 1e6);
    m.insert("client.connect_ms", median(&connect_ms));
    m.insert("server.local_hit_p50_ms", tier::class_p50(&samples, tier::Class::LocalHit));
    m.insert("server.fwd_hit_p50_ms", tier::class_p50(&samples, tier::Class::ForwardHit));
    m.insert("server.miss_p50_ms", tier::class_p50(&samples, tier::Class::Miss));
    for (name, v) in tier::server_layers(&before, &after)? {
        m.insert(name, v);
    }
    m.insert("unattributed.request_ms", p50 - m["server.oncpu_p50_ms"]);
    let traced_ms: Vec<f64> = samples.iter().filter(|s| s.traced).map(|s| s.ms).collect();
    if !traced_ms.is_empty() {
        m.insert("trace.overhead_ratio", median(&traced_ms) / p50);
    }
    let n = samples.len() as f64;
    m.insert(
        "tier.miss_share",
        samples.iter().filter(|s| s.class == tier::Class::Miss).count() as f64 / n,
    );
    m.insert("tier.forward_share", observed.forwarded as f64 / observed.requests as f64);
    Ok(Outcome { chk, metrics: m, profiles })
}

/// Direct analysis calls for `reqs`, on one thread per client.
fn direct_results(reqs: &[tier::Req]) -> Vec<Result<(String, u64), String>> {
    let chunk = reqs.len().div_ceil(tier::CLIENTS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(tier::direct_result).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check thread panicked")).collect()
    })
}

/// Computes the expected digests under the scalar engine, the permanent
/// oracle, and writes them to `perfbench/digests.txt`.
fn write_digests(root: &Path) -> Result<(), String> {
    let _scalar = mbb_ir::runs::install(mbb_ir::Engine::Scalar);
    let opts = programs::options(mbb_ir::Engine::Scalar);
    let mut d = Digests::default();
    for (id, text) in paper::experiment_outputs() {
        d.0.insert(id, common::digest(&text));
    }
    let mut progs: Vec<(&str, programs::Prog)> =
        paper::inputs(root)?.into_iter().map(|p| ("paper", p)).collect();
    progs.extend(corpus::draw().into_iter().map(|p| ("corpus", p)));
    progs.extend(corpus::fixed(root)?.into_iter().map(|p| ("corpus", p)));
    for (workload, p) in progs {
        let prog = mbb_server::analysis::load(&p.src).map_err(|e| e.to_string())?;
        let id = |step: &str| format!("{workload}/{}/{step}", p.id);
        let a = mbb_server::analysis::report(&prog, &opts).map_err(|e| e.to_string())?;
        d.0.insert(id("report"), common::digest(&programs::rendered(&a)));
        let (a, _) = mbb_server::analysis::optimize(&prog, &opts).map_err(|e| e.to_string())?;
        d.0.insert(id("optimize"), common::digest(&programs::rendered(&a)));
        if workload == "corpus" {
            let cache = programs::fresh_score_cache();
            let out = mbb_search::search_with_cache(&prog, &Default::default(), &cache)
                .map_err(|e| e.0)?;
            d.0.insert(id("search"), common::digest(&programs::render_search(&out)));
        }
    }
    let path = root.join(DIGESTS_PATH);
    std::fs::write(&path, d.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {} digests to {}", d.0.len(), path.display());
    Ok(())
}

/// The result line: the metrics of this run's kind, in list order.
fn result_line(chk: &Checker, metrics: &BTreeMap<&'static str, f64>, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.failed == 0,
        chk.attempted,
        chk.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(".");
    if argv.iter().any(|a| a == "--write-digests") {
        return match write_digests(root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload paper|corpus|tier --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Untraced runs install no mbb-obs collector: a live one anywhere in
    // the process turns on span timing and odometer ticking everywhere.
    assert!(!mbb_obs::timing_enabled(), "no mbb-obs collector may be live");
    let calib_ms = common::host_calib_ms();
    eprintln!("perfbench: host.calib_ms {calib_ms:.3}");
    let run = match args.workload.as_str() {
        "paper" => run_programs(root, &args, || paper::setup(root), paper::pass),
        "corpus" => run_programs(root, &args, || corpus::setup(root, args.seed), corpus::pass),
        _ => run_tier(&args),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    assert!(!mbb_obs::timing_enabled(), "the benchmark left an mbb-obs collector live");
    out.metrics.insert("host.calib_ms", calib_ms);
    out.metrics.insert("ok_share", out.chk.ok_share());
    for note in &out.chk.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    if args.trace && !out.profiles.is_empty() {
        let path =
            Path::new(".bench_out").join(format!("trace-{}-{}.json", args.workload, args.seed));
        let labeled: Vec<(&str, &mbb_obs::Profile)> =
            out.profiles.iter().map(|(l, p)| (l.as_str(), p)).collect();
        let doc = mbb_bench::chrometrace::chrome_trace(&labeled);
        match std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, doc.render_compact()))
        {
            Ok(()) => eprintln!("perfbench: wrote the Chrome trace to {}", path.display()),
            Err(e) => out.chk.fail(format!("writing {}: {e}", path.display())),
        }
    }
    println!("{}", result_line(&out.chk, &out.metrics, args.trace));
    if out.chk.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for (_, metric, _) in LAYER_SPANS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }

    fn listed(doc: &mbb_bench::json::Json, key: &str) -> Vec<(String, String)> {
        let Some(mbb_bench::json::Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = mbb_bench::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> =
            listed(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn the_result_line_prints_every_metric_of_its_kind() {
        let chk = Checker { attempted: 3, failed: 1, notes: Vec::new() };
        let metrics = BTreeMap::from([("setup_s", 0.5)]);
        let line = result_line(&chk, &metrics, false);
        let doc = mbb_bench::json::Json::parse(&line).expect("the result line is JSON");
        assert_eq!(doc.get("correct"), Some(&mbb_bench::json::Json::Bool(false)));
        let Some(mbb_bench::json::Json::Obj(m)) = doc.get("metrics") else { panic!("{line}") };
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
    }
}
