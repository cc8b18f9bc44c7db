//! `results/` anchors "identical paper tables": what `repro` generates must
//! be what is checked in. CI regenerates every artifact and `diff -r`s the
//! lot; this regenerates two cheap deterministic ones so tier-1 catches a
//! stale table (or a hand-edited one) without waiting for CI.

use ocelot_bench::experiments::{fig10, table2};
use std::path::Path;

#[test]
fn checked_in_tables_are_what_head_generates() {
    let checked_in = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let scratch = std::env::temp_dir().join(format!("ocelot_results_anchor_{}", std::process::id()));
    // This file holds one test, so nothing else in the process reads the variable.
    std::env::set_var("OCELOT_RESULTS_DIR", &scratch);
    table2::print();
    fig10::print();
    for name in ["table2.json", "fig10.json"] {
        let generated = std::fs::read(scratch.join(name)).expect("experiment wrote its artifact");
        let anchored = std::fs::read(checked_in.join(name)).expect("artifact is checked in");
        assert!(
            generated == anchored,
            "results/{name} is not what HEAD generates — rerun `repro all` and commit, or explain the change"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}
