//! The metric registry and the one-line JSON result.
//!
//! `END_TO_END` and `PER_LAYER` are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints exactly the first list, a
//! traced run exactly the second, each value with its unit.

/// A metric's name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the pipeline sees; printed by untraced runs.
pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s"),
    m("extract_s", "s"),
    m("solves", "count"),
    m("rel_err", "ratio"),
    m("sparsity_x", "ratio"),
    m("peak_heap_mb", "MB"),
    m("load_s", "s"),
    m("apply_p50_us", "us"),
    m("block_vps", "vectors/s"),
];

/// Single-layer costs and counts; printed by traced runs.
pub const PER_LAYER: &[Spec] = &[
    m("layout.gen_s", "s"),
    m("substrate.build_s", "s"),
    m("substrate.solve_s", "s"),
    m("substrate.solve_share", "ratio"),
    m("substrate.batches", "count"),
    m("substrate.rhs", "count"),
    m("substrate.us_per_rhs", "us"),
    m("substrate.cg_iters", "count"),
    m("wavelet.basis_s", "s"),
    m("wavelet.assemble_s", "s"),
    m("wavelet.gw_nnz", "count"),
    m("lowrank.row_basis_s", "s"),
    m("lowrank.sweep_s", "s"),
    m("hier.threshold_s", "s"),
    m("hier.save_s", "s"),
    m("hier.save_bytes", "B"),
    m("hier.fwt_forward_us", "us"),
    m("hier.fwt_inverse_us", "us"),
    m("hier.csr_q_us", "us"),
    m("hier.gw_apply_us", "us"),
    m("hier.apply_tail_us", "us"),
    m("hier.apply_tail_pct", "%"),
    m("hier.apply_samples", "count"),
    m("hier.block_samples", "count"),
    m("linalg.apply_flops", "flop"),
    m("linalg.apply_bytes", "B"),
    m("linalg.apply_flops_per_byte", "flop/B"),
    m("linalg.par_block_vps", "vectors/s"),
    m("linalg.par_workers", "count"),
    m("linalg.exec_workers", "count"),
    m("sparsify.grade_s", "s"),
    m("sparsify.graded_cols", "count"),
    m("trace.degraded_applies", "count"),
    m("trace.solve_retries", "count"),
    m("trace.workspace_grows", "count"),
    m("trace.extract_unaccounted_s", "s"),
    m("trace.serve_unaccounted_us", "us"),
    m("trace.reconcile_err", "ratio"),
    m("trace.overhead_s", "s"),
    m("host.calib_us", "us"),
    m("threads.available", "count"),
];

#[cfg(test)]
/// A metric name as the result format allows: a letter or digit first,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// A unit as the result format allows: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Measured values by metric name, rendered against a spec list.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `specs`. A missing or non-finite value is reported as 0 and makes
/// the run incorrect.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let mut correct = correct;
    let body: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = values.get(s.name).filter(|v| v.is_finite()).unwrap_or_else(|| {
                eprintln!("error: metric {} was not measured", s.name);
                correct = false;
                0.0
            });
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", s.name, v, s.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        }
        for (i, a) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{} listed twice", a.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_rules_reject_what_the_format_forbids() {
        assert!(valid_name("hier.apply_tail_us"));
        assert!(valid_name("9x"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("vectors/s") && valid_unit("%") && valid_unit("flop/B"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", s.name, s.unit);
            assert!(BENCHMARK_JSON.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extras");
    }

    #[test]
    fn result_json_reports_every_metric_and_flags_missing_ones() {
        let specs = [m("a_s", "s"), m("b", "count")];
        let mut v = Values::default();
        v.set("a_s", 1.25);
        v.set("b", 3.0);
        v.set("a_s", 1.5);
        let line = result_json(true, 4, 0, &specs, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let mut partial = Values::default();
        partial.set("b", f64::NAN);
        assert!(result_json(true, 1, 0, &specs, &partial).starts_with("{\"correct\": false"));
    }
}
