//! Integration: for every benchmark, the pure value-semantics
//! interpretation, the unoptimized memory machine, and the short-circuited
//! memory machine must all agree with the hand-written reference — the
//! end-to-end statement of the paper's "memory annotations have no
//! semantic meaning" invariant.

use arraymem_core::Report;
use arraymem_exec::{run_program, Mode};
use arraymem_workloads as w;

fn check(case: &w::Case) {
    // Reference vs both memory-mode variants.
    let (u_stats, o_stats) = case.validate();
    // Pure mode vs reference, on the *source* program.
    let (pure_out, _) = run_program(
        &case.program,
        &Report::default(),
        &case.inputs,
        &case.kernels,
        Mode::Pure,
        1,
    )
    .expect("pure run");
    let (_, expect) = (case.reference)(&case.inputs);
    for (e, p) in expect.iter().zip(&pure_out) {
        assert!(
            e.approx_eq(p, case.tol.max(1e-6)),
            "{}: pure interpretation differs from reference",
            case.name
        );
    }
    // The optimizer must never *increase* copy traffic.
    assert!(
        o_stats.bytes_copied <= u_stats.bytes_copied,
        "{}: optimization increased copies",
        case.name
    );
}

#[test]
fn nw_all_versions_agree() {
    check(&w::nw::case("it", 6, 4, 2));
}

#[test]
fn lud_all_versions_agree() {
    check(&w::lud::case("it", 6, 8, 2));
}

#[test]
fn hotspot_all_versions_agree() {
    check(&w::hotspot::case("it", 24, 3, 2));
}

#[test]
fn lbm_all_versions_agree() {
    check(&w::lbm::case("it", (6, 6, 4), 2, 2));
}

#[test]
fn optionpricing_all_versions_agree() {
    check(&w::optionpricing::case("it", 256, 8, 2));
}

#[test]
fn locvolcalib_all_versions_agree() {
    check(&w::locvolcalib::case("it", 4, 16, 4, 2));
}

#[test]
fn nn_all_versions_agree() {
    check(&w::nn::case("it", 1024, 5, 2));
}

/// Different block sizes exercise different LMAD proofs.
#[test]
fn nw_various_block_sizes() {
    for (q, b) in [(2, 2), (3, 5), (5, 3), (8, 2)] {
        check(&w::nw::case("it", q, b, 2));
    }
}

#[test]
fn lud_various_block_sizes() {
    for (q, b) in [(2, 4), (4, 4), (3, 8)] {
        check(&w::lud::case("it", q, b, 2));
    }
}
