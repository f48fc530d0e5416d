//! The `tier` workload: served requests.  Three in-process
//! `mbb_server::serve` nodes on loopback form one consistent-hash ring,
//! each with as many workers as there are client connections to it, so
//! the blocking single-hop forward cannot deadlock.  A closed loop of
//! [`CLIENTS`] threads, each holding one keep-alive `Client` per node and
//! round-robining over the nodes, sends `report`/`optimize` requests for
//! a seeded pool of small programs.  Set-up warms the caches; the
//! measured phase then sends about 95% repeats (hits, about 2/3 of them
//! forwarded because the entry node does not own the key) and about 5%
//! never-seen programs (misses, which fill the cache).  Latency here is
//! protocol, routing, forwarding and cache, not simulation.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mbb_bench::json::Json;
use mbb_gen::templates;
use mbb_server::client::{request, Client};
use mbb_server::protocol::Flags;
use mbb_server::ring::Ring;
use mbb_server::server::{serve, Config, Handle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{digest, median, percentile, Checker};
use crate::programs::{options, rendered};
use crate::trace::Meter;

/// Client threads (the closed loop's concurrency).
pub const CLIENTS: usize = 2;
/// Tier nodes.
pub const NODES: usize = 3;
/// Programs in the warmed pool; each is requested as `report` and
/// `optimize`.
pub const POOL: u64 = 120;
/// Request kinds.
pub const KINDS: [&str; 2] = ["report", "optimize"];
/// Share of measured requests that carry a never-seen program, per mille.
pub const MISS_PER_MILLE: u32 = 50;
/// Length of one measured slice; a traced run alternates untraced and
/// traced slices.
const SLICE: Duration = Duration::from_millis(500);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One analysis request the clients can send.
#[derive(Clone, Debug)]
pub struct Req {
    pub kind: &'static str,
    pub src: String,
    /// The request line as sent.
    pub line: String,
    /// The tier's cache key for it.
    pub key: u64,
}

/// A program request for kind `kind`: its line and its cache key,
/// computed the way the server computes it.
pub fn make_req(kind: &'static str, src: String) -> Result<Req, String> {
    let prog = mbb_server::analysis::load(&src).map_err(|e| e.to_string())?;
    let machine = mbb_memsim::machine::MachineModel::origin2000().name;
    let canon = mbb_server::analysis::canonical_source(&prog);
    let key = mbb_core::canon::cache_key(kind, &machine, &Flags::default().key(), &canon);
    let line = request(kind, Some(&src), "origin").render_compact();
    Ok(Req { kind, src, line, key })
}

/// The source of the `k`th program of a seeded stream.  Family, nest
/// count and extent are fixed by `k`, so every seed draws the same mix of
/// program shapes and sizes; `seed` picks every other shape decision.
fn stratified(seed: u64, k: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let families = u64::from(templates::FAMILY_COUNT);
    let (k_lo, k_hi) = (*templates::K_RANGE.start(), *templates::K_RANGE.end());
    let (n_lo, n_hi) = (*templates::N_RANGE.start(), *templates::N_RANGE.end());
    let params = templates::Params {
        family: (k % families) as u8,
        k: k_lo + ((k / families) % u64::from(k_hi - k_lo + 1)) as u32,
        // 13 is coprime with the 45 extents, so extents cycle through all.
        n: n_lo + ((k * 13) % u64::from(n_hi - n_lo + 1)) as u32,
        detail: rng.next_u64(),
    };
    mbb_ir::pretty::program(&templates::generate(params, 1))
}

/// The warmed pool, a pure function of `seed`.
pub fn pool(seed: u64) -> Result<Vec<Req>, String> {
    let mut reqs = Vec::new();
    for k in 0..POOL {
        let src = stratified(seed ^ 0x5EED_0000_0000_0000, k);
        for kind in KINDS {
            reqs.push(make_req(kind, src.clone())?);
        }
    }
    Ok(reqs)
}

/// The `i`th never-seen program of client `client`, a pure function of
/// `seed`.
pub fn fresh(seed: u64, client: usize, i: u64) -> Result<Req, String> {
    let kind = KINDS[(i % KINDS.len() as u64) as usize];
    make_req(kind, stratified(seed ^ 0xF2E5_0000_0000_0000 ^ ((client as u64) << 40), i))
}

/// The result bytes a direct `mbb_server::analysis` call produces.
pub fn direct_result(req: &Req) -> Result<(String, u64), String> {
    let prog = mbb_server::analysis::load(&req.src).map_err(|e| e.to_string())?;
    let opts = options(mbb_ir::Engine::Auto);
    let before = mbb_memsim::events::so_far();
    let text = match req.kind {
        "report" => mbb_server::analysis::report(&prog, &opts).map(|a| rendered(&a)),
        _ => mbb_server::analysis::optimize(&prog, &opts).map(|(a, _)| rendered(&a)),
    }
    .map_err(|e| e.to_string())?;
    Ok((text, mbb_memsim::events::so_far().wrapping_sub(before)))
}

/// A parsed response line: the `cached` flag and the raw result bytes.
fn parse_response(line: &str) -> Result<(bool, &str), String> {
    if !line.starts_with("{\"schema\":\"mbb-serve/1\",\"ok\":true,") {
        return Err(format!("error response: {}", &line[..line.len().min(300)]));
    }
    let cached = line.contains(",\"cached\":true,");
    let at = line.find("\"result\":").ok_or("response without a result")?;
    let result = line[at + 9..].strip_suffix('}').ok_or("unterminated response")?;
    Ok((cached, result))
}

/// How a request was served, as the client sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    LocalHit,
    ForwardHit,
    Miss,
}

/// Client-observed totals, to reconcile against the servers' counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    pub requests: u64,
    pub forwarded: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Observed {
    pub fn add(&mut self, o: &Observed) {
        self.requests += o.requests;
        self.forwarded += o.forwarded;
        self.hits += o.hits;
        self.misses += o.misses;
    }
}

struct Node {
    addr: String,
    handle: Handle,
    thread: Option<JoinHandle<()>>,
}

/// A running tier.  Dropping it shuts every node down and joins it.
pub struct Tier {
    nodes: Vec<Node>,
    ring: Ring,
    /// Requests sent while warming (all misses).
    pub warm: Observed,
}

impl Drop for Tier {
    fn drop(&mut self) {
        for n in &self.nodes {
            n.handle.shutdown();
        }
        for n in &mut self.nodes {
            if let Some(t) = n.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// Reserves `n` distinct loopback ports by binding and dropping listeners.
fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr().map_err(|e| e.to_string())).collect()
}

impl Tier {
    /// Starts the nodes.
    pub fn start() -> Result<Tier, String> {
        let addrs = free_addrs(NODES)?;
        let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        let mut tier =
            Tier { nodes: Vec::new(), ring: Ring::new(&peers), warm: Observed::default() };
        for addr in &peers {
            let (tx, rx) = mpsc::channel();
            let cfg = Config {
                addr: addr.clone(),
                advertise: addr.clone(),
                peers: peers.clone(),
                workers: CLIENTS,
                ..Config::default()
            };
            let thread = std::thread::spawn(move || {
                if let Err(e) = serve(cfg, move |_, h| {
                    let _ = tx.send(h);
                }) {
                    eprintln!("perfbench: node failed: {e}");
                }
            });
            let handle = rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| format!("node {addr} did not come up"))?;
            tier.nodes.push(Node { addr: addr.clone(), handle, thread: Some(thread) });
        }
        Ok(tier)
    }

    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }

    /// Whether a request entering at node `entry` is forwarded.
    pub fn forwarded(&self, entry: usize, key: u64) -> bool {
        let owner = self.ring.owner(key).map(|i| self.ring.nodes()[i].as_str());
        owner != Some(self.nodes[entry].addr.as_str())
    }

    /// Warms the caches: every pool request once, entering at a rotating
    /// node, sent by [`CLIENTS`] threads, each checked against its
    /// expected bytes.
    pub fn warm(
        &mut self,
        pool: &[Req],
        expected: &[String],
        chk: &mut Checker,
    ) -> Result<(), String> {
        let tier = &*self;
        let parts: Vec<Result<(Observed, Vec<String>), String>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..CLIENTS).map(|c| s.spawn(move || tier.warm_part(c, pool, expected))).collect();
            handles.into_iter().map(|h| h.join().expect("warm-up thread panicked")).collect()
        });
        for part in parts {
            let (observed, failures) = part?;
            chk.attempted += observed.requests;
            for f in failures {
                chk.fail(f);
            }
            self.warm.add(&observed);
        }
        Ok(())
    }

    /// Client `c`'s share of the warm-up: every [`CLIENTS`]th request.
    fn warm_part(
        &self,
        c: usize,
        pool: &[Req],
        expected: &[String],
    ) -> Result<(Observed, Vec<String>), String> {
        let mut clients: Vec<Client> = self
            .addrs()
            .iter()
            .map(|a| Client::connect(a, IO_TIMEOUT).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let (mut observed, mut failures) = (Observed::default(), Vec::new());
        for (i, req) in pool.iter().enumerate().skip(c).step_by(CLIENTS) {
            let entry = i % NODES;
            let line = clients[entry].roundtrip_raw(&req.line).map_err(|e| e.to_string())?;
            let (cached, result) = parse_response(&line)?;
            observed.requests += 1;
            observed.forwarded += u64::from(self.forwarded(entry, req.key));
            if cached {
                observed.hits += 1;
            } else {
                observed.misses += 1;
            }
            if result != expected[i] {
                failures.push(format!("warm-up {i}: result bytes differ"));
            }
        }
        Ok((observed, failures))
    }
}

/// One measured request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    pub class: Class,
    pub traced: bool,
}

/// What one client thread saw.
#[derive(Default)]
pub struct ClientOut {
    pub samples: Vec<Sample>,
    pub observed: Observed,
    pub connect_ms: Vec<f64>,
    /// Never-seen requests, for checking after the run: the index `i`
    /// of [`fresh`], the digest of the result bytes the tier returned,
    /// the latency in ms and whether it was a cache miss.
    pub misses: Vec<(u64, u64, f64, bool)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub profile: Option<mbb_obs::Profile>,
    /// Seconds spent in untraced slices.
    pub untraced_secs: f64,
}

/// The closed loop of one client thread until `deadline`.
#[allow(clippy::too_many_arguments)]
pub fn client_loop(
    tier: &Tier,
    client: usize,
    seed: u64,
    pool: &[Req],
    expected: &[String],
    start: Instant,
    deadline: Instant,
    trace: bool,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut plain = Meter::plain();
    let mut traced = if trace { Some(Meter::traced()) } else { None };
    let mut conns = Vec::new();
    for addr in tier.addrs() {
        let t = Instant::now();
        match Client::connect(&addr, IO_TIMEOUT) {
            Ok(c) => conns.push(c),
            Err(e) => {
                out.attempted += 1;
                out.failures.push(format!("client {client}: connect {addr}: {e}"));
                return out;
            }
        }
        out.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC11E_0000 ^ client as u64);
    let mut fresh_i = 0u64;
    let mut n = client; // round-robin cursor, staggered per client
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let slice = (now - start).as_nanos() / SLICE.as_nanos();
        let in_trace = trace && slice % 2 == 1;
        let entry = n % NODES;
        n += 1;
        let fresh_req;
        let (req, want) = if rng.gen_range(0..1000u32) < MISS_PER_MILLE {
            fresh_i += 1;
            match fresh(seed, client, fresh_i) {
                Ok(r) => fresh_req = r,
                Err(e) => {
                    out.attempted += 1;
                    out.failures.push(format!("fresh program: {e}"));
                    continue;
                }
            }
            (&fresh_req, None)
        } else {
            let i = rng.gen_range(0..pool.len());
            (&pool[i], Some(expected[i].as_str()))
        };
        let fwd = tier.forwarded(entry, req.key);
        let m = if in_trace { traced.as_mut().expect("traced meter") } else { &mut plain };
        let span = if fwd { "tier.request.forward" } else { "tier.request.local" };
        let (resp, secs) = m.call(span, || conns[entry].roundtrip_raw(&req.line));
        out.attempted += 1;
        let line = match resp {
            Ok(l) => l,
            Err(e) => {
                out.failures.push(format!("request: {e}"));
                continue;
            }
        };
        let (cached, result) = match parse_response(&line) {
            Ok(x) => x,
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        let class = match (cached, fwd) {
            (false, _) => Class::Miss,
            (true, false) => Class::LocalHit,
            (true, true) => Class::ForwardHit,
        };
        out.observed.requests += 1;
        out.observed.forwarded += u64::from(fwd);
        if cached {
            out.observed.hits += 1;
        } else {
            out.observed.misses += 1;
        }
        match want {
            Some(w) if w != result => {
                out.failures.push(format!("{}: result bytes differ", req.kind))
            }
            Some(_) => {}
            None => out.misses.push((fresh_i, digest(result), secs * 1e3, !cached)),
        }
        out.samples.push(Sample { ms: secs * 1e3, class, traced: in_trace });
        if !in_trace {
            out.untraced_secs += secs;
        }
    }
    out.profile = traced.and_then(Meter::into_profile);
    out
}

/// Pulls the first sample whose exposition line starts with `name` +
/// space out of a Prometheus scrape.
fn sample(scrape: &str, name: &str) -> Result<f64, String> {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("metric {name} missing from scrape"))
}

/// The on-CPU histogram as (upper edge in seconds, cumulative count).
fn cpu_histogram(scrape: &str) -> Vec<(f64, f64)> {
    scrape
        .lines()
        .filter_map(|l| l.strip_prefix("mbb_serve_request_cpu_seconds_bucket{le=\""))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// Median of a cumulative histogram, interpolated within its bucket.
fn histogram_p50(h: &[(f64, f64)]) -> f64 {
    let total = h.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let half = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in h {
        if cum >= half {
            if !le.is_finite() {
                return lo;
            }
            return lo + (le - lo) * (half - below) / (cum - below).max(1.0);
        }
        lo = le;
        below = cum;
    }
    lo
}

/// One node's admin view: its metrics scrape, `cluster-stats` and health.
pub struct NodeStats {
    pub scrape: String,
    pub cluster: Json,
    pub health: Json,
}

/// Reads every node's admin kinds.
pub fn node_stats(tier: &Tier) -> Result<Vec<NodeStats>, String> {
    tier.addrs()
        .iter()
        .map(|addr| {
            let mut c = Client::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
            let scrape = c.metrics_text().map_err(|e| e.to_string())?;
            let mut admin = |kind: &str| -> Result<Json, String> {
                let resp = c.roundtrip(&request(kind, None, "")).map_err(|e| e.to_string())?;
                resp.get("result").cloned().ok_or_else(|| format!("{kind}: no result"))
            };
            let cluster = admin("cluster-stats")?;
            let health = admin("health")?;
            Ok(NodeStats { scrape, cluster, health })
        })
        .collect()
}

fn uint(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_f64).unwrap_or(-1.0) as u64
}

/// Tier-wide counter totals from the scrapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub local: f64,
    pub forward: f64,
    pub forward_errors: f64,
    pub forwarded_in: f64,
    pub hits: f64,
    pub misses: f64,
    pub shed: f64,
    pub brownout_max: f64,
}

pub fn totals(stats: &[NodeStats]) -> Result<Counters, String> {
    let mut c = Counters::default();
    for s in stats {
        c.local += sample(&s.scrape, "mbb_serve_route_total{dest=\"local\"}")?;
        c.forward += sample(&s.scrape, "mbb_serve_route_total{dest=\"forward\"}")?;
        c.forward_errors += sample(&s.scrape, "mbb_serve_forward_errors_total")?;
        c.forwarded_in += sample(&s.scrape, "mbb_serve_forwarded_in_total")?;
        c.hits += sample(&s.scrape, "mbb_serve_cache_hits_total")?;
        c.misses += sample(&s.scrape, "mbb_serve_cache_misses_total")?;
        c.shed += uint(s.health.get("shed_total")) as f64;
        c.brownout_max = c.brownout_max.max(uint(s.health.get("max_level")) as f64);
    }
    Ok(c)
}

/// Reconciles what the clients observed with the servers' own counters,
/// with the identities `cluster_smoke` uses.  Every identity is one
/// checked operation.
pub fn reconcile(obs: &Observed, stats: &[NodeStats], chk: &mut Checker) -> Result<(), String> {
    let t = totals(stats)?;
    let mut check = |ok: bool, what: String| {
        chk.attempt();
        chk.expect(ok, || what);
    };
    let req = obs.requests as f64;
    check(
        t.local + t.forward == req,
        format!("routing decisions {} + {} vs {req} requests", t.local, t.forward),
    );
    check(
        t.forward == obs.forwarded as f64,
        format!("forwards {} vs {} observed", t.forward, obs.forwarded),
    );
    check(t.forward_errors == 0.0, format!("{} forward errors", t.forward_errors));
    check(
        t.forwarded_in == t.forward - t.forward_errors,
        format!("forwarded in {} vs out {}", t.forwarded_in, t.forward),
    );
    check(t.hits == obs.hits as f64, format!("cache hits {} vs {} observed", t.hits, obs.hits));
    check(
        t.misses == obs.misses as f64,
        format!("cache misses {} vs {} observed", t.misses, obs.misses),
    );
    check(t.shed == 0.0, format!("{} requests shed", t.shed));
    for (ni, s) in stats.iter().enumerate() {
        let local = sample(&s.scrape, "mbb_serve_route_total{dest=\"local\"}")? as u64;
        let forward = sample(&s.scrape, "mbb_serve_route_total{dest=\"forward\"}")? as u64;
        let fwd_err = sample(&s.scrape, "mbb_serve_forward_errors_total")? as u64;
        let fwd_in = sample(&s.scrape, "mbb_serve_forwarded_in_total")? as u64;
        check(
            uint(s.cluster.get("forwarded_in")) == fwd_in,
            format!("node {ni}: cluster-stats forwarded_in"),
        );
        let Some(Json::Arr(peers)) = s.cluster.get("peers") else {
            return Err(format!("node {ni}: cluster-stats without peers"));
        };
        let (mut own, mut other, mut relayed) = (0, 0, 0);
        for p in peers {
            if p.get("self") == Some(&Json::Bool(true)) {
                own += uint(p.get("routed"));
            } else {
                other += uint(p.get("routed"));
                relayed += uint(p.get("forwarded"));
            }
        }
        check(
            own == local && other == forward && relayed == forward - fwd_err,
            format!("node {ni}: cluster-stats {own}/{other}/{relayed} vs local {local} forward {forward}"),
        );
    }
    Ok(())
}

/// Per-layer serving figures over the measured phase, from the scrapes
/// taken before and after it.
pub fn server_layers(
    before: &[NodeStats],
    after: &[NodeStats],
) -> Result<Vec<(&'static str, f64)>, String> {
    let (b, a) = (totals(before)?, totals(after)?);
    let mut hist: Vec<(f64, f64)> = Vec::new();
    for (sb, sa) in before.iter().zip(after) {
        let (hb, ha) = (cpu_histogram(&sb.scrape), cpu_histogram(&sa.scrape));
        for (k, (&(le, cb), &(_, ca))) in hb.iter().zip(&ha).enumerate() {
            if hist.len() <= k {
                hist.push((le, 0.0));
            }
            hist[k].1 += ca - cb;
        }
    }
    let hits = a.hits - b.hits;
    let lookups = hits + (a.misses - b.misses);
    Ok(vec![
        ("server.oncpu_p50_ms", histogram_p50(&hist) * 1e3),
        ("server.cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }),
        ("server.route.local", a.local - b.local),
        ("server.route.forward", a.forward - b.forward),
        ("server.forward_errors", a.forward_errors - b.forward_errors),
        ("server.shed", a.shed - b.shed),
        ("server.brownout_max_level", a.brownout_max),
    ])
}

/// Client-side latency figures of the untraced samples.
pub fn latency(samples: &[Sample]) -> (f64, f64) {
    let ms: Vec<f64> = samples.iter().filter(|s| !s.traced).map(|s| s.ms).collect();
    (median(&ms), percentile(&ms, 99.0))
}

pub fn class_p50(samples: &[Sample], class: Class) -> f64 {
    let ms: Vec<f64> =
        samples.iter().filter(|s| !s.traced && s.class == class).map(|s| s.ms).collect();
    median(&ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_requests_are_a_pure_function_of_the_seed() {
        let (a, b) = (pool(3).unwrap(), pool(3).unwrap());
        assert_eq!(a.len(), (POOL as usize) * KINDS.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line && x.key == y.key));
        assert_ne!(pool(4).unwrap()[0].line, a[0].line);
        assert_eq!(fresh(3, 1, 9).unwrap().line, fresh(3, 1, 9).unwrap().line);
        assert_ne!(fresh(3, 1, 9).unwrap().key, fresh(3, 0, 9).unwrap().key);
    }

    #[test]
    fn responses_split_into_flag_and_result_bytes() {
        let line = mbb_server::protocol::ok_response(
            mbb_server::protocol::Kind::Report,
            true,
            "{\"text\":\"x\"}",
            None,
        );
        assert_eq!(parse_response(&line).unwrap(), (true, "{\"text\":\"x\"}"));
        assert!(parse_response("{\"schema\":\"mbb-serve/1\",\"ok\":false}").is_err());
    }

    #[test]
    fn histogram_median_interpolates_within_its_bucket() {
        let h = [(1.0, 0.0), (2.0, 10.0), (4.0, 10.0), (f64::INFINITY, 10.0)];
        assert!((histogram_p50(&h) - 1.5).abs() < 1e-12);
    }
}
