//! Failure atomicity: a run that fails — an out-of-bounds runtime index,
//! an input of the wrong length, an integer division by zero, a
//! panicking kernel — releases every block it took, exactly like a
//! successful run. A store reused across runs stays flat however many
//! runs fail, and the next good run is bit-identical to one that never
//! saw a failure.

use arraymem_core::{compile, Compiled, Options};
use arraymem_exec::{InputValue, KernelRegistry, Mode, OutputValue, Session};
use arraymem_ir::{Builder, ElemType};
use arraymem_server::{ExecRequest, Server, ServerConfig, ServerError};
use arraymem_symbolic::Poly;
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
    let request =
        |inputs| ExecRequest::from_compiled(&compiled, &case.kernels, &[], inputs, Mode::Memory);
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

fn compile_source(src: &str) -> Compiled {
    let elab = arraymem_lang::parse_program(src).expect("parse");
    compile(&elab.program, &Options::optimized().with_env(elab.env)).expect("compile")
}

/// An integer division by zero (or `i64::MIN / -1`) is an `Err` naming
/// the statement, through a session and through a server; neither the
/// session's store nor the tenant is harmed, and the tenant's next
/// request divides correctly.
#[test]
fn integer_division_by_zero_is_an_error_naming_the_statement() {
    let compiled = compile_source("fn q(a: i64, d: i64) = let q = a / d in q");
    let kernels = KernelRegistry::new();
    let args = |a: i64, d: i64| vec![InputValue::I64(a), InputValue::I64(d)];
    let (by_zero, overflow, good) = (args(7, 0), args(i64::MIN, -1), args(7, 2));
    let mut session = Session::new();
    let r = &compiled.report;
    let h = session
        .prepare_full(&compiled.program, &kernels, &[], &r.merges, &r.par_safety)
        .expect("prepare");
    for (bad, why) in [(&by_zero, "by zero"), (&overflow, "overflow")] {
        let err = session
            .run_plan(h, bad, &kernels, Mode::Memory, 1)
            .expect_err("division must fail");
        assert!(err.contains('q') && err.contains(why), "{err}");
    }
    let (out, _) = session
        .run_plan(h, &good, &kernels, Mode::Memory, 1)
        .expect("session serves after a failed division");
    assert_eq!(out, vec![OutputValue::I64(3)]);

    let server = Server::new(ServerConfig::default());
    let request =
        |inputs| ExecRequest::from_compiled(&compiled, &kernels, &[], inputs, Mode::Memory);
    for bad in [&by_zero, &overflow] {
        match server.execute("t", request(bad)) {
            Err(ServerError::Execution(e)) => assert!(e.contains('q'), "{e}"),
            other => panic!("expected an execution error, got {other:?}"),
        }
    }
    let (out, _) = server
        .execute("t", request(&good))
        .expect("the tenant serves after a failed division");
    assert_eq!(out, vec![OutputValue::I64(3)]);
}

/// A kernel that panics costs its request one `ServerError::Execution`:
/// the run's blocks return to the arena, the tenant's lock is not
/// poisoned, and the tenant's next request is bit-identical to a clean
/// run.
#[test]
fn a_panicking_kernel_costs_one_error_not_the_tenant() {
    const MARK: i64 = -1;
    let mut bld = Builder::new("panicky");
    let n = bld.scalar_param("pn", ElemType::I64);
    let xs = bld.array_param("pxs", ElemType::I64, vec![Poly::var(n)]);
    let mut body = bld.block();
    let ys = body.map_kernel(
        "pys",
        "bump_unless_marked",
        Poly::var(n),
        vec![],
        ElemType::I64,
        vec![xs],
        vec![],
    );
    let prog = bld.finish(body.finish(vec![ys]));
    let mut env = arraymem_symbolic::Env::new();
    env.assume_ge(n, 1);
    let compiled = compile(&prog, &Options::optimized().with_env(env)).expect("compile");
    let mut kernels = KernelRegistry::new();
    kernels.register("bump_unless_marked", |ctx| {
        let v = ctx.inputs[0].get_i64(&[ctx.i]);
        assert_ne!(v, MARK, "marked input");
        ctx.out.set_i64(&[], v + 1);
    });
    let xs: Vec<i64> = (0..64).collect();
    let mut marked = xs.clone();
    marked[40] = MARK;
    let good = vec![InputValue::I64(64), InputValue::ArrayI64(xs)];
    let bad = vec![InputValue::I64(64), InputValue::ArrayI64(marked)];
    let request =
        |inputs| ExecRequest::from_compiled(&compiled, &kernels, &[], inputs, Mode::Memory);

    let clean = Server::new(ServerConfig::default());
    let (want, _) = clean.execute("t", request(&good)).expect("clean run");

    let server = Server::new(ServerConfig::default());
    server.execute("t", request(&good)).expect("warm-up run");
    let before = server.arena_stats();
    match server.execute("t", request(&bad)) {
        Err(ServerError::Execution(e)) => assert!(e.contains("marked input"), "{e}"),
        other => panic!("expected an execution error, got {other:?}"),
    }
    let after = server.arena_stats();
    assert_eq!(
        (after.parked, after.live_bytes),
        (before.parked, before.live_bytes),
        "the panicked run kept blocks"
    );
    let (again, _) = server
        .execute("t", request(&good))
        .expect("the tenant serves after a panicking kernel");
    assert_eq!(bits(&again), bits(&want));
    assert_eq!(server.tenant_stats("t").expect("tenant").runs, 2);
}
