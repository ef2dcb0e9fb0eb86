//! Byte pin of the paper's figures and tables: every deterministic file
//! the `paper` binary writes under `results/` — each CSV (T4's with its
//! one host-timed cell masked), and the `.det.json` twin of T3's perf
//! record — folded into one FNV-1a digest per file. A change to how the artifacts are computed or rendered
//! must move none of them.

use fib_bench::results_dir;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use std::process::Command;

const PINNED: [(&str, u64); 15] = [
    ("fig1a_paths.csv", 0x268d_36e3_200a_1161),
    ("fig1b_loads.csv", 0x0815_63fc_6a23_a07d),
    ("fig1c_lies.csv", 0x689f_8c4a_f0c1_357a),
    ("fig1d_loads.csv", 0x5f03_d1c7_47b7_5e7a),
    ("fig2_fibbing.csv", 0xc087_ce43_650c_f138),
    ("fig2_fibbing_phases.csv", 0x2fee_59da_d7ae_ff08),
    ("fig2_baseline.csv", 0x8fbd_df1a_6261_fecd),
    ("fig2_baseline_phases.csv", 0x51bf_6429_e1bb_d089),
    ("table_qoe.csv", 0x4dfc_f57f_a878_96b3),
    ("table1_control_overhead.csv", 0x0da9_68cd_d6a4_92d5),
    ("table2a_encap.csv", 0x9fc8_8fe0_0d48_80b6),
    ("table2b_state.csv", 0xa91a_e129_7c90_b49d),
    // T3's best even-ECMP cell is the better of the weight search and
    // the deployed weights, which can lie outside the searched range:
    // random-1 reads 0.600 where the search alone gave 0.800.
    ("table3_minmax_gap.csv", 0x3eb6_b65e_72f8_92d6),
    ("BENCH_table_minmax_gap.det.json", 0x79fc_f2ed_8328_c862),
    // Hashed through `mask_host_time`.
    ("table4_reaction.csv", 0xa70e_b9ad_e13f_226d),
];

/// T4's CSV with the reaction cell of its last row, weight
/// reconfiguration, read as `*`: that cell adds the host's search time
/// to a 13.25 s estimate printed to one decimal, so it depends on the
/// host's speed.
fn mask_host_time(csv: &str) -> String {
    let (head, row) = csv.trim_end().rsplit_once('\n').expect("rows above");
    let cells = row
        .strip_prefix("IGP weight reconfig,")
        .expect("the weight row is last");
    let (_, rest) = cells.split_once(',').expect("cells after the time");
    format!("{head}\nIGP weight reconfig,*,{rest}\n")
}

#[test]
fn paper_artifacts_are_pinned_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .output()
        .expect("paper runs");
    assert!(out.status.success(), "paper failed: {out:?}");
    let dir = results_dir();
    let moved: Vec<String> = PINNED
        .iter()
        .filter_map(|(file, want)| {
            let mut bytes = std::fs::read(dir.join(file)).expect("artifact written");
            if *file == "table4_reaction.csv" {
                let csv = String::from_utf8(bytes).expect("a CSV is text");
                bytes = mask_host_time(&csv).into_bytes();
            }
            let got = fnv1a(FNV_OFFSET, &bytes);
            (got != *want).then(|| format!("{file}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved: {moved:#?}");

    // No weight setting T3 reports as best does worse than the
    // deployed one.
    let t3 = std::fs::read_to_string(dir.join("table3_minmax_gap.csv")).unwrap();
    for row in t3.lines().skip(1) {
        // The topology name holds a comma: read the numbers from the end.
        let cells: Vec<&str> = row.rsplitn(6, ',').collect();
        let [even, best] = [cells[4], cells[3]].map(|c| c.parse::<f64>().unwrap());
        assert!(best <= even, "best above even ECMP: {row}");
    }
}
