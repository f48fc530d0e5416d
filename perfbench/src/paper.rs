//! The `paper` workload: the paper's regime.  The ten `repro` experiments
//! at `Sizes::quick()` one after another on one thread, then load →
//! report → optimize on the four `examples/programs/*.loop` — 2M-element
//! streams whose 16–32 MB working sets are far above the 4 MB L2.
//! Simulation dominates.  The inputs are fixed, so the seed is unused.

use std::path::Path;

use mbb_bench::experiments::{self as ex, Sizes};
use mbb_memsim::machine::MachineModel;

use crate::common::{digest, Checker, Digests};
use crate::programs::{program_request, Batch, PassLayers, Prog};
use crate::trace::Meter;

/// The ten experiments, in `repro`'s registry order.
pub const EXPERIMENTS: [&str; 10] =
    ["sec21", "fig1", "fig2", "fig3", "sp", "scaling", "fig4", "fig6", "opt", "fig8"];

/// The paper's own programs.
pub const PROGRAMS: [&str; 4] = ["entangled.loop", "figure6.loop", "figure7.loop", "pipeline.loop"];

/// Reads the four example programs.
pub fn inputs(root: &Path) -> Result<Vec<Prog>, String> {
    PROGRAMS
        .iter()
        .map(|name| {
            let path = root.join("examples/programs").join(name);
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Prog { id: name.to_string(), src })
        })
        .collect()
}

/// The set-up: reading and loading the inputs.
pub fn setup(root: &Path) -> Result<Vec<Prog>, String> {
    let progs = inputs(root)?;
    for p in &progs {
        mbb_server::analysis::load(&p.src).map_err(|e| format!("{}: {e}", p.id))?;
    }
    Ok(progs)
}

/// Runs experiment `name`, returning its rendered table.  Figures 2 and
/// the scaling study derive from the Figure-1 measurement of the same
/// pass, exactly as in `repro`.
fn experiment(name: &str, fig1: &mut Option<ex::Figure1>) -> String {
    let sizes = Sizes::quick();
    match name {
        "sec21" => ex::render_sec21(&ex::sec21(sizes)),
        "fig1" => {
            let f = ex::figure1(sizes);
            let out = ex::render_figure1(&f);
            *fig1 = Some(f);
            out
        }
        "fig2" => ex::render_figure2(&ex::figure2(fig1.as_ref().expect("fig1 ran first"))),
        "fig3" => ex::render_figure3(&ex::figure3(sizes)),
        "sp" => ex::render_sp_utilization(&ex::sp_utilization(sizes)),
        "scaling" => ex::render_scaling(&ex::scaling_study(fig1.as_ref().expect("fig1 ran first"))),
        "fig4" => ex::render_figure4(&ex::figure4()),
        "fig6" => ex::render_figure6(&ex::figure6(16, &MachineModel::origin2000().scaled(512))),
        "opt" => ex::render_optimizer_study(&ex::optimizer_study(sizes)),
        "fig8" => ex::render_figure8(&ex::figure8(sizes)),
        other => unreachable!("unknown experiment {other}"),
    }
}

/// All experiment outputs, for `--write-digests`.
pub fn experiment_outputs() -> Vec<(String, String)> {
    let mut fig1 = None;
    EXPERIMENTS.iter().map(|&e| (format!("paper/exp/{e}"), experiment(e, &mut fig1))).collect()
}

/// One pass: every experiment, then every program.  The whole pass is
/// one request — one reproduction of the paper — because the ten
/// experiments and four programs differ in cost by four orders of
/// magnitude, and a median over them jumps whenever two neighbours near
/// the middle swap rank.
pub fn pass(
    m: &mut Meter,
    batch: &mut Batch,
    layers: &mut PassLayers,
    chk: &mut Checker,
    stored: &Digests,
    progs: &[Prog],
) -> Vec<(String, Vec<String>)> {
    let traced = m.tracing();
    let mut ids = Vec::new();
    let mut fig1 = None;
    for &name in &EXPERIMENTS {
        let id = format!("paper/exp/{name}");
        let before = mbb_memsim::events::so_far();
        let span = format!("bench.{name}");
        let (out, secs) = m.call(&span, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| experiment(name, &mut fig1)))
        });
        let acc = mbb_memsim::events::so_far().wrapping_sub(before);
        let out = out.map(|t| digest(&t)).map_err(|_| "experiment panicked".to_string());
        batch.record(chk, Some(stored), traced, &id, secs, acc, out, true);
        ids.push(id);
    }
    for p in progs {
        ids.extend(program_request(m, batch, layers, chk, Some(stored), "paper", p, false));
    }
    vec![("paper/pass".to_string(), ids)]
}
