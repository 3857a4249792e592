//! Bit-pin of the quick-scale Table I at seed 2010.
//!
//! `fixtures/table1_quick_seed2010.txt` holds the `to_bits` of all 26
//! quick-scale λ values (every component of every row, ladder order),
//! recorded before the Table I fan-out was resharded by (ladder point,
//! repetition). Any change to how rows are dispatched, folded or
//! journaled must reproduce these bits exactly; a deliberate seed break
//! has to re-record the fixture and say so.
//!
//! Both entry points are pinned: the row-by-row [`run_table1_row`] (what
//! the repo benchmark calls) and the whole-table [`run_table1`] batch
//! (what the `table1` bin calls).
//!
//! `#[ignore]` by default — a quick Table I is seconds in release but
//! minutes in debug — and run in CI's release job via
//! `cargo test -p hycap-bench --release --test table1_quick_pin -- --ignored`.

use hycap_bench::experiments::{run_table1, run_table1_row, table1_exponents, RowResult, Scale};
use hycap_sim::WorkerPool;

const SEED: u64 = 2010;
const FIXTURE: &str = include_str!("fixtures/table1_quick_seed2010.txt");

/// One fixture line per λ: `label | component | n | bits` (bits in hex).
fn render(rows: &[RowResult]) -> Vec<String> {
    let mut lines = Vec::new();
    for row in rows {
        for comp in &row.components {
            for (n, l) in comp.ns.iter().zip(&comp.lambdas) {
                lines.push(format!(
                    "{} | {} | {n} | {:016x}",
                    row.label,
                    comp.name,
                    l.to_bits()
                ));
            }
        }
    }
    lines
}

fn assert_pinned(rows: &[RowResult]) {
    let got = render(rows);
    let want: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mismatches: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        got.len() == want.len() && mismatches.is_empty(),
        "quick Table I drifted from the pinned bits ({} values, {} differ):\n{}\nfull output:\n{}",
        got.len(),
        mismatches.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
    assert_eq!(want.len(), 26, "fixture must pin all 26 quick λ values");
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn row_by_row_quick_table1_matches_pinned_bits() {
    let pool = WorkerPool::new(2);
    let rows: Vec<RowResult> = table1_exponents()
        .into_iter()
        .map(|(label, exps, with_bs, mobility)| {
            run_table1_row(label, exps, with_bs, mobility, Scale::Quick, SEED, &pool)
        })
        .collect();
    assert_pinned(&rows);
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn whole_table_quick_table1_matches_pinned_bits() {
    assert_pinned(&run_table1(Scale::Quick, SEED));
}
