//! The `corpus` workload: small programs where the transformations
//! dominate.  A seeded draw of programs from `mbb_gen::templates` at
//! scale 1 (n ≤ 48, working sets that fit in L2) plus the fixed
//! `tests/corpus/*.loop`, in an order drawn from `--seed`, each through
//! load → report → optimize → search with the default beam and steps and
//! a fresh score cache.
//! Fixed per-call costs dominate: hierarchy construction, run
//! compilation, fusion, beam search, canonical hashing and verification.

use std::path::Path;

use mbb_gen::templates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{Checker, Digests};
use crate::programs::{program_request, Batch, PassLayers, Prog};
use crate::trace::Meter;

/// Generated programs in the draw.
pub const DRAW: u32 = 40;

/// The seed of the generated draw: `gen corpus --seed 11 --count 40`.
/// The draw is fixed rather than taken from `--seed` because program cost
/// depends steeply on the seed-chosen shape (one `reduce` program with a
/// seed-chosen rank can take half a pass), so per-seed draws moved the
/// pass time threefold from seed to seed.
pub const DRAW_SEED: u64 = 11;

/// The generated draw: the same per-index derivation as `gen corpus`, at
/// scale 1.
pub fn draw() -> Vec<Prog> {
    (0..DRAW)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(
                DRAW_SEED ^ (u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let prog = templates::generate(templates::sample_params(&mut rng), 1);
            Prog { id: format!("gen{k:02}"), src: mbb_ir::pretty::program(&prog) }
        })
        .collect()
}

/// The fixed part: `tests/corpus/*.loop`, by file name.
pub fn fixed(root: &Path) -> Result<Vec<Prog>, String> {
    let dir = root.join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".loop"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let path = dir.join(&name);
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Prog { id: name, src })
        })
        .collect()
}

/// The set-up: drawing the generated programs, reading the fixed ones,
/// and ordering them all by `seed` — a pure function of the seed.
pub fn setup(root: &Path, seed: u64) -> Result<Vec<Prog>, String> {
    let mut progs = draw();
    progs.extend(fixed(root)?);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..progs.len()).rev() {
        progs.swap(i, rng.gen_range(0..=i));
    }
    Ok(progs)
}

/// One pass over every program, each checked against the stored digests.
pub fn pass(
    m: &mut Meter,
    batch: &mut Batch,
    layers: &mut PassLayers,
    chk: &mut Checker,
    stored: &Digests,
    progs: &[Prog],
) -> Vec<(String, Vec<String>)> {
    progs
        .iter()
        .map(|p| {
            let ids = program_request(m, batch, layers, chk, Some(stored), "corpus", p, true);
            (format!("corpus/{}", p.id), ids)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let ids = |seed| -> Vec<String> {
            setup(&root, seed).unwrap().into_iter().map(|p| p.id).collect()
        };
        assert_eq!(setup(&root, 7).unwrap(), setup(&root, 7).unwrap());
        assert_ne!(ids(7), ids(8));
        let (mut a, mut b) = (ids(7), ids(8));
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed runs the same programs");
        assert_eq!(a.len(), DRAW as usize + fixed(&root).unwrap().len());
        for p in draw() {
            mbb_server::analysis::load(&p.src).expect("generated programs load");
        }
    }
}
