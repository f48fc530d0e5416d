//! Program requests, shared by the `paper` and `corpus` workloads: one
//! program through load → report → optimize (→ search), each step a call
//! into the program's public API, timed, its output digested and its
//! simulated accesses counted.
//!
//! A traced pass makes the same calls and, after each, re-runs the layer
//! calls the step is made of (parse, validate, measure, time, pipeline,
//! verify, pretty) under their own spans.  The step's time minus the sum
//! of its layers is the step's unattributed residual.  Sub-layer probes
//! (hierarchy construction, fusion, canonical hashing) are parts of other
//! layers and are reported on their own, outside that sum.

use std::collections::BTreeMap;

use mbb_core::balance::{measure_program_balance, time_program};
use mbb_core::pipeline::{optimize as run_pipeline, verify_equivalent, OptimizeOptions};
use mbb_ir::Program;
use mbb_memsim::machine::MachineModel;
use mbb_obs::Counters;
use mbb_search::{search_with_cache, ScoreCache, SearchOptions, SearchOutcome};
use mbb_server::analysis::{self, Analysis, Options};

use crate::common::{digest, median, percentile, Checker, Digests};
use crate::trace::Meter;

/// One input program: an id naming its origin, and its source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prog {
    pub id: String,
    pub src: String,
}

/// Simulated traffic of the traced pass's measurement probes.  Must
/// repeat exactly from pass to pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub mem_bytes: u64,
    pub tlb_misses: u64,
}

/// What one traced pass measured, layer by layer.
#[derive(Debug, Default)]
pub struct PassLayers {
    /// Self time in ms per span name.
    pub self_ms: BTreeMap<String, f64>,
    pub counts: SimCounts,
    /// Seconds and accesses of the measure/time probes.
    pub sim_secs: f64,
    pub sim_accesses: u64,
    /// Per step kind: (step seconds, layer seconds, steps).
    pub attribution: BTreeMap<&'static str, (f64, f64, u64)>,
    /// Search totals: (scored, pruned, cache hits, cache misses).
    pub search: (u64, u64, u64, u64),
}

/// Per-call statistics over a run's untraced passes.
#[derive(Debug, Default)]
pub struct CallStat {
    pub secs: Vec<f64>,
    /// Seconds of the same call in traced passes (for the overhead ratio).
    pub traced_secs: Vec<f64>,
    pub accesses: Option<u64>,
    pub digest: Option<u64>,
    /// Whether the call is an analysis call (counts toward simulation
    /// throughput); loads are not.
    pub analysis: bool,
}

/// A batch workload's measurements: calls grouped into requests.
#[derive(Debug, Default)]
pub struct Batch {
    pub calls: BTreeMap<String, CallStat>,
    /// Requests in order, each the list of its call ids.
    pub requests: Vec<(String, Vec<String>)>,
    pub traced: Vec<PassLayers>,
}

impl Batch {
    /// Records one call's outcome.  Digests must match the stored digest
    /// for `id` when `stored` has one, and otherwise the first pass's
    /// output; access counts must repeat exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        chk: &mut Checker,
        stored: Option<&Digests>,
        traced: bool,
        id: &str,
        secs: f64,
        accesses: u64,
        out: Result<u64, String>,
        analysis: bool,
    ) {
        chk.attempt();
        let st = self.calls.entry(id.to_string()).or_default();
        st.analysis = analysis;
        if traced {
            st.traced_secs.push(secs);
        } else {
            st.secs.push(secs);
        }
        let d = match out {
            Ok(d) => d,
            Err(e) => return chk.fail(format!("{id}: {e}")),
        };
        match st.accesses {
            None => st.accesses = Some(accesses),
            Some(a) => chk.expect(a == accesses, || {
                format!("{id}: simulated {accesses} accesses, earlier pass {a}")
            }),
        }
        if let Some(stored) = stored {
            stored.check(chk, id, d);
        }
        match st.digest {
            None => st.digest = Some(d),
            Some(first) => {
                chk.expect(first == d, || format!("{id}: output changed between passes"))
            }
        }
    }

    fn call_median(&self, id: &str) -> f64 {
        self.calls.get(id).map_or(0.0, |c| median(&c.secs))
    }

    /// Per-request seconds: the sum of its calls' per-call medians.
    pub fn request_secs(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|(_, ids)| ids.iter().map(|id| self.call_median(id)).sum())
            .collect()
    }

    /// Sum of per-call medians over the calls whose id satisfies `pick`.
    pub fn sum_of_medians(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.calls.iter().filter(|(id, _)| pick(id)).map(|(_, c)| median(&c.secs)).sum()
    }

    /// Median over calls matching `pick` of their per-call medians, in ms.
    pub fn p50_ms(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let per_call: Vec<f64> =
            self.calls.iter().filter(|(id, _)| pick(id)).map(|(_, c)| median(&c.secs)).collect();
        median(&per_call) * 1e3
    }

    /// The end-to-end request metrics: (p50 ms, p99 ms, requests/s).
    pub fn request_metrics(&self) -> (f64, f64, f64) {
        let secs = self.request_secs();
        let total: f64 = secs.iter().sum();
        (median(&secs) * 1e3, percentile(&secs, 99.0) * 1e3, secs.len() as f64 / total)
    }

    /// Simulated Mev per host second over the analysis calls.
    pub fn sim_mev_per_s(&self) -> f64 {
        let (mut acc, mut secs) = (0u64, 0.0);
        for c in self.calls.values().filter(|c| c.analysis) {
            acc += c.accesses.unwrap_or(0);
            secs += median(&c.secs);
        }
        acc as f64 / secs / 1e6
    }

    /// Traced over untraced time of the same calls.
    pub fn overhead_ratio(&self) -> f64 {
        let (mut t, mut u) = (0.0, 0.0);
        for c in self.calls.values().filter(|c| !c.traced_secs.is_empty() && !c.secs.is_empty()) {
            t += median(&c.traced_secs);
            u += median(&c.secs);
        }
        if u > 0.0 {
            t / u
        } else {
            0.0
        }
    }

    /// Checks that every traced pass simulated identical counts.
    pub fn check_traced_counts(&self, chk: &mut Checker) {
        if let Some(first) = self.traced.first() {
            for (k, p) in self.traced.iter().enumerate().skip(1) {
                chk.attempt();
                chk.expect(p.counts == first.counts, || {
                    format!("traced pass {k}: counts {:?} differ from {:?}", p.counts, first.counts)
                });
            }
        }
    }
}

/// The analysis options every request uses (the defaults `mbbc` and the
/// server use), under `engine`.
pub fn options(engine: mbb_ir::Engine) -> Options {
    Options { engine, ..Options::default() }
}

/// The rendering the server returns for an analysis: text plus data.
pub fn rendered(a: &Analysis) -> String {
    mbb_bench::json::Json::obj([
        ("text", mbb_bench::json::Json::str(a.text.clone())),
        ("data", a.data.clone()),
    ])
    .render_compact()
}

/// A deterministic rendering of a search outcome.
pub fn render_search(out: &SearchOutcome) -> String {
    let t = &out.trace;
    format!(
        "scored {} pruned {} steps {} best {} fixed {} improved {}\nbest {:?}\nfixed {:?}\n{}",
        t.visited,
        t.pruned,
        t.steps_run,
        t.best_spec,
        t.fixed_spec,
        t.improved,
        out.best_score,
        out.fixed_score,
        mbb_ir::pretty::program(&out.program)
    )
}

/// A fresh score cache per search, so every pass does the same work.
pub fn fresh_score_cache() -> ScoreCache {
    ScoreCache::new(64 * 1024, 8)
}

/// Runs `f` and returns its value with the simulated accesses it made on
/// this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = mbb_memsim::events::so_far();
    let v = f();
    (v, mbb_memsim::events::so_far().wrapping_sub(before))
}

/// One program through load → report → optimize (→ search when
/// `search`).  Returns the call ids in order.
#[allow(clippy::too_many_arguments)]
pub fn program_request(
    m: &mut Meter,
    batch: &mut Batch,
    layers: &mut PassLayers,
    chk: &mut Checker,
    stored: Option<&Digests>,
    workload: &str,
    prog: &Prog,
    search: bool,
) -> Vec<String> {
    let traced = m.tracing();
    let opts = options(mbb_ir::Engine::Auto);
    let id = |step: &str| format!("{workload}/{}/{step}", prog.id);
    let mut ids = Vec::new();

    let (loaded, secs) = m.call("op.load", || analysis::load(&prog.src));
    let load_id = id("load");
    let loaded = loaded.map_err(|e| e.to_string());
    let out = loaded.as_ref().map(|p| digest(&mbb_core::canon::program(p))).map_err(Clone::clone);
    batch.record(chk, None, traced, &load_id, secs, 0, out, false);
    ids.push(load_id);
    let Ok(p) = loaded else { return ids };
    if traced {
        probe_load(m, layers, &prog.src, secs);
    }

    let ((rep, acc), secs) = m.call("op.report", || counting(|| analysis::report(&p, &opts)));
    let rid = id("report");
    let out = rep.map(|a| digest(&rendered(&a))).map_err(|e| e.to_string());
    batch.record(chk, stored, traced, &rid, secs, acc, out, true);
    ids.push(rid);
    if traced {
        probe_report(m, layers, &p, secs);
    }

    let ((opt, acc), secs) = m.call("op.optimize", || counting(|| analysis::optimize(&p, &opts)));
    let oid = id("optimize");
    let out = opt.map(|(a, _)| digest(&rendered(&a))).map_err(|e| e.to_string());
    batch.record(chk, stored, traced, &oid, secs, acc, out, true);
    ids.push(oid);
    if traced {
        probe_optimize(m, layers, &p, secs);
    }

    if search {
        let cache = fresh_score_cache();
        let sopts = SearchOptions::default();
        let ((res, acc), secs) =
            m.call("search", || counting(|| search_with_cache(&p, &sopts, &cache)));
        let sid = id("search");
        if let Ok(o) = &res {
            let t = &o.trace;
            let s = &mut layers.search;
            *s = (s.0 + t.visited, s.1 + t.pruned, s.2 + t.cache_hits, s.3 + t.cache_misses);
        }
        let out = res.map(|o| digest(&render_search(&o))).map_err(|e| e.0);
        batch.record(chk, stored, traced, &sid, secs, acc, out, true);
        ids.push(sid);
    }
    if traced {
        probe_parts(m, &p);
    }
    ids
}

fn attribute(layers: &mut PassLayers, kind: &'static str, step_secs: f64, layer_secs: f64) {
    let e = layers.attribution.entry(kind).or_insert((0.0, 0.0, 0));
    e.0 += step_secs;
    e.1 += layer_secs;
    e.2 += 1;
}

fn probe_load(m: &mut Meter, layers: &mut PassLayers, src: &str, step_secs: f64) {
    m.open("probe.load");
    let (parsed, t_parse) = m.call("ir.parse", || mbb_ir::parse::parse_unvalidated(src));
    let t_validate = match &parsed {
        Ok(p) => m.call("ir.validate", || mbb_ir::validate(p).is_ok()).1,
        Err(_) => 0.0,
    };
    m.close();
    attribute(layers, "load", step_secs, t_parse + t_validate);
}

/// Simulates `p` as the analyses do — `report` measures then times,
/// `optimize` times then measures — under spans, adding the measured
/// traffic to the pass counts.  Returns the seconds.
fn probe_simulate(m: &mut Meter, layers: &mut PassLayers, p: &Program, time_first: bool) -> f64 {
    let machine = MachineModel::origin2000();
    let mut secs = 0.0;
    let timed = |m: &mut Meter, layers: &mut PassLayers| {
        let ((t, acc), s) = m.call("core.balance.time", || counting(|| time_program(p, &machine)));
        std::hint::black_box(t.ok());
        layers.sim_secs += s;
        layers.sim_accesses += acc;
        s
    };
    if time_first {
        secs += timed(m, layers);
    }
    let ((b, acc), s) =
        m.call("core.balance.measure", || counting(|| measure_program_balance(p, &machine)));
    if let Ok(b) = &b {
        let r = &b.report;
        let c = &mut layers.counts;
        let level = |k: usize| r.level_stats.get(k).map_or(0, |l| l.misses());
        c.accesses += r.level_stats.first().map_or(0, |l| l.accesses());
        c.l1_misses += level(0);
        c.l2_misses += level(1);
        c.mem_bytes += r.mem_bytes();
        c.tlb_misses += r.tlb_misses;
        let mut delta = Counters { accesses: acc, tlb_misses: r.tlb_misses, ..Counters::default() };
        for (k, &bytes) in r.channel_bytes.iter().enumerate().take(delta.channel_bytes.len()) {
            delta.channel_bytes[k] = bytes;
        }
        m.annotate(delta);
    }
    layers.sim_secs += s;
    layers.sim_accesses += acc;
    secs += s;
    if !time_first {
        secs += timed(m, layers);
    }
    secs
}

fn probe_report(m: &mut Meter, layers: &mut PassLayers, p: &Program, step_secs: f64) {
    m.open("probe.report");
    let secs = probe_simulate(m, layers, p, false);
    m.close();
    attribute(layers, "report", step_secs, secs);
}

fn probe_optimize(m: &mut Meter, layers: &mut PassLayers, p: &Program, step_secs: f64) {
    m.open("probe.optimize");
    let mut secs = probe_simulate(m, layers, p, true);
    let (outcome, s) = m.call("core.pipeline", || run_pipeline(p, OptimizeOptions::default()));
    secs += s;
    let (_, s) = m.call("core.verify", || verify_equivalent(p, &outcome.program, 1e-9).is_ok());
    secs += s;
    secs += probe_simulate(m, layers, &outcome.program, true);
    let (_, s) = m.call("ir.pretty", || mbb_ir::pretty::program(&outcome.program));
    secs += s;
    m.close();
    attribute(layers, "optimize", step_secs, secs);
}

/// Parts of other layers, probed on their own: one hierarchy
/// construction, fusion-graph construction plus greedy fusion, and one
/// canonical rendering plus hash of the program.
fn probe_parts(m: &mut Meter, p: &Program) {
    m.open("probe.parts");
    m.call("memsim.hierarchy_new", || MachineModel::origin2000().hierarchy());
    m.call("core.fusion", || {
        let g = mbb_core::fusion::build_fusion_graph(p);
        mbb_core::fusion::greedy_fusion(&g)
    });
    m.call("core.canon", || mbb_core::canon::fnv1a(mbb_core::canon::program(p).as_bytes()));
    m.close();
}
