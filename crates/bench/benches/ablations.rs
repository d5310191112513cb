//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Symbolic assumptions** (NW): strip the `n = q·b + 1` relation and
//!    the non-overlap proof fails conservatively — measuring exactly what
//!    the paper's §III-D says failure costs (1.1–1.5×, never wrong
//!    results).
//! 2. **Mapnest in-place construction** (LBM): disable §V-A(e) and every
//!    cell row goes through a private buffer + copy again.
//! 3. **Allocation hoisting** (Hotspot): disable the hoisting pass and
//!    safety property 2 fails at the concat — no part can be built in the
//!    result grid.

mod common;

use arraymem_core::{compile, Options};
use arraymem_exec::{run_program, Mode};
use arraymem_workloads as w;

fn run(case: &w::Case, opts: &Options) -> std::time::Duration {
    let compiled = compile(&case.program, opts).unwrap();
    let (_, stats) = run_program(
        &compiled.program,
        &compiled.report,
        &case.inputs,
        &case.kernels,
        Mode::Memory,
        1,
    )
    .unwrap();
    stats.total_time
}

fn bench_pair(group: &str, labels: [&str; 2], case: &w::Case, opts: [&Options; 2]) {
    for (label, o) in labels.iter().zip(opts) {
        let t = common::sample(|| {
            std::hint::black_box(run(case, o));
        });
        println!("{group}/{label}  {t:>12.3?}");
    }
}

fn main() {
    // 1. NW with vs without the shape relation feeding the prover.
    let nw = w::nw::case("ablation", 16, 16, 2);
    let full = Options::optimized().with_env(nw.env.clone());
    let no_env = Options::optimized();
    bench_pair(
        "ablation/nw_assumptions",
        ["with_shape_relation", "without_shape_relation"],
        &nw,
        [&full, &no_env],
    );

    // 2. LBM with vs without the mapnest in-place rule.
    let lbm = w::lbm::case("ablation", (16, 16, 8), 4, 2);
    let full = Options::optimized().with_env(lbm.env.clone());
    let no_mapnest = Options {
        mapnest_in_place: false,
        ..full.clone()
    };
    bench_pair(
        "ablation/lbm_mapnest",
        ["in_place_rows", "private_row_copies"],
        &lbm,
        [&full, &no_mapnest],
    );

    // 3. Hotspot with vs without allocation hoisting.
    let hs = w::hotspot::case("ablation", 128, 8, 2);
    let full = Options::optimized().with_env(hs.env.clone());
    let no_hoist = Options {
        hoist: false,
        ..full.clone()
    };
    bench_pair(
        "ablation/hotspot_hoisting",
        ["hoisted_allocations", "no_hoisting"],
        &hs,
        [&full, &no_hoist],
    );
}
