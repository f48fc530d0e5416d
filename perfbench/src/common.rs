//! Pieces every workload shares: output checks, order statistics, the
//! stored digests, process memory and the host-calibration kernel.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mbb_core::canon::fnv1a;

/// Counts operations and the failed or wrong ones among them.  Every
/// mismatch the benchmark detects lands here, so `failed / attempted`
/// is the share of operations that did not produce a correct output.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the diagnostic printed to stderr.
    pub notes: Vec<String>,
}

impl Checker {
    /// Records one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failure of an already attempted operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what.into());
        }
    }

    /// Fails unless `cond` holds.
    pub fn expect(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.fail(what());
        }
    }

    /// Share of attempted operations that succeeded with a correct output.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Digest of a rendered output: the workspace's content-address hash.
pub fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// The expected output digests, produced once under the scalar engine
/// (`--write-digests`) and stored with the benchmark.  One `id hex` pair
/// per line.
#[derive(Debug, Default)]
pub struct Digests(pub BTreeMap<String, u64>);

/// Where the stored digests live, relative to the repository root.
pub const DIGESTS_PATH: &str = "perfbench/digests.txt";

impl Digests {
    pub fn load(path: &Path) -> Result<Digests, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Digests::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (id, hex) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("digests line {}: no digest", n + 1))?;
            let d =
                u64::from_str_radix(hex, 16).map_err(|e| format!("digests line {}: {e}", n + 1))?;
            map.insert(id.to_string(), d);
        }
        Ok(Digests(map))
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Expected output digests (FNV-1a of the rendered text), produced under\n\
             # the scalar engine with `--write-digests`.  One `id digest` per line.\n",
        );
        for (id, d) in &self.0 {
            out.push_str(&format!("{id} {d:016x}\n"));
        }
        out
    }

    /// Checks `got` against the stored digest for `id`; an id with no
    /// stored digest is a failure too, so a renamed output cannot pass
    /// unchecked.
    pub fn check(&self, chk: &mut Checker, id: &str, got: u64) {
        match self.0.get(id) {
            Some(&want) if want == got => {}
            Some(&want) => chk.fail(format!("{id}: digest {got:016x}, expected {want:016x}")),
            None => chk.fail(format!("{id}: no stored digest")),
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-calibration kernel: a fixed integer mixing loop whose work
/// never changes, timed five times; the median in ms.  It lets results
/// from different hosts be compared, and is context only.
pub fn host_calib_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for k in 0..(1u64 << 22) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ k);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc ^= z ^ (z >> 31);
        }
        std::hint::black_box(acc);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let v = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("at least one set-up ran"), median(&secs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_wrong_output_is_counted_as_a_failure() {
        let mut stored = Digests::default();
        stored.0.insert("paper/exp/fig4".into(), digest("right"));
        let mut chk = Checker::default();
        chk.attempt();
        stored.check(&mut chk, "paper/exp/fig4", digest("right"));
        assert_eq!(chk.failed, 0);
        chk.attempt();
        stored.check(&mut chk, "paper/exp/fig4", digest("wrong"));
        assert_eq!(chk.failed, 1);
        chk.attempt();
        stored.check(&mut chk, "paper/exp/unknown", digest("right"));
        assert_eq!(chk.failed, 2);
        assert!((chk.ok_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn digests_round_trip_through_their_file_form() {
        let mut d = Digests::default();
        d.0.insert("corpus/chain.loop/report".into(), 0x0123_4567_89ab_cdef);
        d.0.insert("paper/exp/fig1".into(), u64::MAX);
        let back = Digests::parse(&d.render()).unwrap();
        assert_eq!(back.0, d.0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
