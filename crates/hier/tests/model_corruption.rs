//! The corruption matrix: systematically damage every region of a saved
//! model artifact — factor headers, digest lines, payloads, the `.fwt`
//! side file, truncations at many cut points — and assert the loader's
//! contract everywhere:
//!
//! * factor damage surfaces as a **typed [`ModelLoadError`]**, never a
//!   panic and never a silently wrong model (any payload byte flip is
//!   caught by the integrity digest);
//! * side-file damage **degrades** the model to the explicit-CSR serving
//!   path instead of refusing it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use subsparse_hier::rep::ModelLoadError;
use subsparse_hier::BasisRep;
use subsparse_linalg::{Csr, Triplets};

mod common;
use common::binary_haar;

fn example_rep(n: usize) -> BasisRep {
    let fwt = binary_haar(n);
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 + (i % 5) as f64 * 0.25);
        t.push(i, (i + 1) % n, -0.3);
    }
    BasisRep::with_fwt(Csr::identity(n), t.to_csr(), fwt)
}

struct Fixture {
    dir: PathBuf,
    stem: PathBuf,
    rep: BasisRep,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("subsparse_corruption_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        let rep = example_rep(16);
        rep.save(&stem).unwrap();
        Fixture { dir, stem, rep }
    }

    fn path(&self, suffix: &str) -> PathBuf {
        self.dir.join(format!("model{suffix}"))
    }

    fn restore(&self) {
        self.rep.save(&self.stem).unwrap();
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for suffix in [".q.mtx", ".gw.mtx", ".fwt"] {
            std::fs::remove_file(self.path(suffix)).ok();
        }
    }
}

/// Runs a load, converting any escaped panic into a test failure that
/// names the scenario.
fn load_no_panic(stem: &Path, scenario: &str) -> Result<BasisRep, ModelLoadError> {
    catch_unwind(AssertUnwindSafe(|| BasisRep::load(stem)))
        .unwrap_or_else(|_| panic!("load panicked on {scenario}"))
}

/// The byte range of the digest comment line, so flip sweeps can tell
/// self-identifying damage (digest line) from payload damage.
fn digest_line_range(bytes: &[u8]) -> std::ops::Range<usize> {
    let text = std::str::from_utf8(bytes).unwrap();
    let mut start = 0usize;
    for line in text.split_inclusive('\n') {
        if line.contains("subsparse digest fnv1a64") {
            // include the newline ending the previous line: flipping it
            // merges the digest line into its predecessor, which also
            // only disables the self-check
            return start.saturating_sub(1)..start + line.len();
        }
        start += line.len();
    }
    panic!("fixture must carry a digest line");
}

#[test]
fn factor_byte_flips_are_always_typed_errors() {
    let fx = Fixture::new("flips");
    for suffix in [".q.mtx", ".gw.mtx"] {
        let path = fx.path(suffix);
        let pristine = std::fs::read(&path).unwrap();
        let digest_range = digest_line_range(&pristine);
        let step = (pristine.len() / 60).max(1);
        for pos in (0..pristine.len()).step_by(step) {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 0x08;
            std::fs::write(&path, &damaged).unwrap();
            let scenario = format!("{suffix} byte {pos} flipped");
            match load_no_panic(&fx.stem, &scenario) {
                Err(_) => {}
                Ok(_) if digest_range.contains(&pos) => {
                    // damaging the digest line itself can only disable
                    // the self-check (legacy semantics), never corrupt
                    // the verified payload
                }
                Ok(_) => panic!("undetected corruption: {scenario}"),
            }
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(fx.rep.fwt().is_some());
    assert!(load_no_panic(&fx.stem, "pristine").is_ok());
}

#[test]
fn factor_truncations_are_always_typed_errors() {
    let fx = Fixture::new("truncate");
    for suffix in [".q.mtx", ".gw.mtx"] {
        let path = fx.path(suffix);
        let pristine = std::fs::read(&path).unwrap();
        // cut at a spread of points: inside the header, mid-payload, the
        // final byte, and the empty file
        let mut cuts: Vec<usize> = (0..8).map(|k| pristine.len() * k / 8).collect();
        cuts.push(pristine.len() - 1);
        for cut in cuts {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let scenario = format!("{suffix} truncated to {cut} bytes");
            assert!(
                load_no_panic(&fx.stem, &scenario).is_err(),
                "truncation must be detected: {scenario}"
            );
        }
        // a missing factor file is a typed I/O error
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_no_panic(&fx.stem, "missing factor"),
            Err(ModelLoadError::Io { .. })
        ));
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(load_no_panic(&fx.stem, "pristine").is_ok());
}

#[test]
fn side_file_damage_degrades_instead_of_refusing() {
    let fx = Fixture::new("sidefile");
    let path = fx.path(".fwt");
    let pristine = std::fs::read(&path).unwrap();

    // byte flips anywhere in the side file: the model always loads; a
    // flip the digest still catches demotes it to the CSR fallback
    let step = (pristine.len() / 60).max(1);
    for pos in (0..pristine.len()).step_by(step) {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x08;
        std::fs::write(&path, &damaged).unwrap();
        let scenario = format!(".fwt byte {pos} flipped");
        let back = load_no_panic(&fx.stem, &scenario)
            .unwrap_or_else(|e| panic!("side-file damage must degrade, not refuse: {e}"));
        drop(back);
    }

    // truncations: same degradation contract
    for cut in (0..8).map(|k| pristine.len() * k / 8) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let scenario = format!(".fwt truncated to {cut} bytes");
        let back = load_no_panic(&fx.stem, &scenario)
            .unwrap_or_else(|e| panic!("side-file truncation must degrade, not refuse: {e}"));
        assert!(back.fwt().is_none(), "{scenario} must drop the fast path");
    }

    // a deleted side file is the legacy layout: CSR fallback, no error
    std::fs::remove_file(&path).unwrap();
    assert!(load_no_panic(&fx.stem, "missing side file").unwrap().fwt().is_none());

    fx.restore();
    assert!(load_no_panic(&fx.stem, "pristine").unwrap().fwt().is_some());
}
