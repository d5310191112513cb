//! Failure atomicity: a run that fails — an out-of-bounds runtime index,
//! an input of the wrong length — releases every block it took, exactly
//! like a successful run. A store reused across runs stays flat however
//! many runs fail, and the next good run is bit-identical to one that
//! never saw a failure.

use arraymem_exec::{InputValue, Mode, OutputValue, Session};
use arraymem_server::{ExecRequest, Server, ServerConfig, ServerError};
use arraymem_workloads::irregular::permutation_case;

/// Outputs as raw bits: `f32` equality would equate `0.0` and `-0.0`.
fn bits(out: &[OutputValue]) -> Vec<Vec<u64>> {
    out.iter()
        .map(|o| match o {
            OutputValue::ArrayF32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
            OutputValue::ArrayF64(v) => v.iter().map(|x| x.to_bits()).collect(),
            OutputValue::ArrayI64(v) => v.iter().map(|x| *x as u64).collect(),
            OutputValue::F32(x) => vec![x.to_bits() as u64],
            OutputValue::F64(x) => vec![x.to_bits()],
            OutputValue::I64(x) => vec![*x as u64],
            OutputValue::Bool(x) => vec![*x as u64],
        })
        .collect()
}

/// `inputs` with one scatter index pointing one past the end.
fn out_of_bounds(inputs: &[InputValue]) -> Vec<InputValue> {
    let mut bad = inputs.to_vec();
    let InputValue::ArrayI64(perm) = &mut bad[2] else {
        panic!("permutation takes its index array third");
    };
    let n = perm.len() as i64;
    perm[n as usize / 2] = n;
    bad
}

/// `inputs` with the data array one element short of its declared shape.
fn wrong_length(inputs: &[InputValue]) -> Vec<InputValue> {
    let mut bad = inputs.to_vec();
    let InputValue::ArrayF32(x) = &mut bad[1] else {
        panic!("permutation takes its data array second");
    };
    x.pop();
    bad
}

#[test]
fn failed_runs_release_every_block() {
    let case = permutation_case("failures", 64, 1);
    let compiled = case.compile(true);
    let mut session = Session::new();
    let h = session
        .prepare_full(
            &compiled.program,
            &case.kernels,
            &[],
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare");
    let (good, _) = session
        .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
        .expect("good run");
    let blocks = session.store_mut().num_blocks();
    let oob = out_of_bounds(&case.inputs);
    for _ in 0..20 {
        let err = session
            .run_plan(h, &oob, &case.kernels, Mode::Memory, 1)
            .expect_err("out-of-bounds scatter index");
        assert!(err.contains("out of bounds"), "{err}");
    }
    let err = session
        .run_plan(
            h,
            &wrong_length(&case.inputs),
            &case.kernels,
            Mode::Memory,
            1,
        )
        .expect_err("wrong-length input");
    assert!(err.contains("length mismatch"), "{err}");
    assert_eq!(
        session.store_mut().num_blocks(),
        blocks,
        "failed runs grew the store"
    );
    let (again, _) = session
        .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
        .expect("good run after failures");
    assert_eq!(bits(&again), bits(&good));
}

#[test]
fn a_tenant_serves_its_next_request_after_a_wrong_length_one() {
    let case = permutation_case("failures", 64, 1);
    let compiled = case.compile(true);
    let server = Server::new(ServerConfig::default());
    let request = |inputs| ExecRequest::new(&compiled.program, &case.kernels, inputs);
    let (good, _) = server
        .execute("t", request(&case.inputs))
        .expect("good request");
    let bad = wrong_length(&case.inputs);
    match server.execute("t", request(&bad)) {
        Err(ServerError::Execution(e)) => assert!(e.contains("length mismatch"), "{e}"),
        other => panic!("expected an execution error, got {other:?}"),
    }
    let (again, _) = server
        .execute("t", request(&case.inputs))
        .expect("request after a wrong-length one");
    assert_eq!(bits(&again), bits(&good));
}
