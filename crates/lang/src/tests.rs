use crate::parse_program;
use arraymem_core::{compile, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode};

fn run_both(
    src: &str,
    inputs: &[InputValue],
) -> (
    Vec<arraymem_exec::OutputValue>,
    arraymem_exec::Stats,
    arraymem_exec::Stats,
) {
    let elab = parse_program(src).expect("parse");
    let kernels = KernelRegistry::new();
    let unopt = compile(
        &elab.program,
        &Options::default().with_env(elab.env.clone()),
    )
    .unwrap();
    let opt = compile(
        &elab.program,
        &Options::optimized().with_env(elab.env.clone()),
    )
    .unwrap();
    let (u, us) = run_program(
        &unopt.program,
        &unopt.report,
        inputs,
        &kernels,
        Mode::Memory,
        1,
    )
    .unwrap();
    let (o, os) =
        run_program(&opt.program, &opt.report, inputs, &kernels, Mode::Memory, 1).unwrap();
    assert_eq!(u, o, "unopt and opt disagree");
    (u, us, os)
}

/// The paper's Fig. 1 (left), in concrete syntax — parsed, compiled,
/// short-circuited, executed.
#[test]
fn fig1_in_concrete_syntax() {
    let src = r"
        -- add the first row to the diagonal of a flattened n*n matrix
        assume n >= 1
        fn diag_plus_row(n: i64, A: [n*n]f32) =
          let diag = A[lmad 0 + {(n : n+1)}] in
          let row  = A[lmad 0 + {(n : 1)}] in
          let X    = map (\d r -> d + r) diag row in
          let A2   = A with [lmad 0 + {(n : n+1)}] = X in
          A2
    ";
    let n = 5usize;
    let data: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let (out, us, os) = run_both(
        src,
        &[
            InputValue::I64(n as i64),
            InputValue::ArrayF32(data.clone()),
        ],
    );
    let mut expect = data;
    for i in 0..n {
        expect[i * n + i] += expect[i];
    }
    assert_eq!(out[0].as_f32s(), &expect[..]);
    // The update is short-circuited.
    assert!(us.bytes_copied > 0);
    assert_eq!(os.bytes_copied, 0);
}

#[test]
fn triplet_slices_and_concat() {
    let src = r"
        assume n >= 2
        fn halves(n: i64, A: [2*n]f32) =
          let lo = A[0 : n : 1] in
          let hi = A[n : n : 1] in
          let swapped = concat hi lo in
          swapped
    ";
    let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
    let (out, _, _) = run_both(src, &[InputValue::I64(4), InputValue::ArrayF32(data)]);
    assert_eq!(out[0].as_f32s(), &[4.0, 5.0, 6.0, 7.0, 0.0, 1.0, 2.0, 3.0]);
}

#[test]
fn loops_and_scalar_updates() {
    let src = r"
        assume n >= 1
        fn squares(n: i64) =
          let z = replicate [n] 0 in
          let out = loop (acc = z) for i < n do {
            let acc2 = acc with [i] = i * i in
            acc2
          } in
          out
    ";
    let (out, _, _) = run_both(src, &[InputValue::I64(5)]);
    assert_eq!(out[0].as_i64s(), &[0, 1, 4, 9, 16]);
}

#[test]
fn if_expressions() {
    let src = r"
        fn pick(c: bool, A: [4]i64) =
          let t = copy A in
          let r = if c then { t } else {
            let z = replicate [4] 9 in
            z
          } in
          r
    ";
    let data = vec![1i64, 2, 3, 4];
    let (out, _, _) = run_both(
        src,
        &[InputValue::Bool(true), InputValue::ArrayI64(data.clone())],
    );
    assert_eq!(out[0].as_i64s(), &data[..]);
    let (out, _, _) = run_both(src, &[InputValue::Bool(false), InputValue::ArrayI64(data)]);
    assert_eq!(out[0].as_i64s(), &[9, 9, 9, 9]);
}

#[test]
fn transforms_and_element_reads() {
    let src = r"
        fn spin(A: [3][4]i64) =
          let t = transpose A in
          let f = flatten t in
          let x = f[5] in
          let r = replicate [2] x in
          r
    ";
    let data: Vec<i64> = (0..12).collect();
    let (out, _, _) = run_both(src, &[InputValue::ArrayI64(data)]);
    // t is 4x3 with t[i][j] = A[j][i]; flat index 5 = t[1][2] = A[2][1] = 9.
    assert_eq!(out[0].as_i64s(), &[9, 9]);
}

#[test]
fn iota_map_and_arith() {
    let src = r"
        assume n >= 1
        fn affine(n: i64) =
          let xs = iota n in
          let ys = map (\x -> x * 3 + 1) xs in
          ys
    ";
    let (out, _, _) = run_both(src, &[InputValue::I64(4)]);
    assert_eq!(out[0].as_i64s(), &[1, 4, 7, 10]);
}

/// A miniature NW anti-diagonal step written in concrete syntax, with the
/// `assume` header feeding the Fig. 9 proof: the update must elide.
#[test]
fn nw_step_in_concrete_syntax() {
    let src = r"
        assume q >= 2
        assume b >= 2
        assume n = q*b + 1
        fn nw_step(n: i64, q: i64, b: i64, A: [n*n]i64) =
          let out = loop (M = A) for d < q do {
            let rv = M[lmad d*b + {(d+1 : n*b - b)}] in
            let rh = M[lmad d*b + 1 + {(d+1 : n*b - b)}] in
            let sums = map (\v h -> v + h) rv rh in
            let M2 = M with [lmad d*b + n + 1 + {(d+1 : n*b - b)}] = sums in
            M2
          } in
          out
    ";
    let elab = parse_program(src).expect("parse");
    let opt = compile(
        &elab.program,
        &Options::optimized().with_env(elab.env.clone()),
    )
    .unwrap();
    assert_eq!(
        opt.report.successes(),
        1,
        "the NW-style update should circuit: {:?}",
        opt.report.candidates
    );
}

#[test]
fn parse_errors_are_reported() {
    assert!(parse_program("fn broken(").is_err());
    assert!(parse_program("fn f(x: i64) = y").is_err(), "unbound result");
    assert!(parse_program("fn f(x: wat) = x").is_err(), "unknown type");
    assert!(
        parse_program("assume n >= fn f(n: i64) = n").is_err(),
        "malformed assume"
    );
}

/// The elaborated output always passes the IR validator (checked inside
/// parse_program) and round-trips through the pretty-printer.
#[test]
fn elaboration_validates_and_prints() {
    let src = r"
        assume n >= 1
        fn p(n: i64, A: [n]f32) =
          let B = reverse A in
          let C = copy B in
          C
    ";
    let elab = parse_program(src).unwrap();
    let text = arraymem_ir::pretty::program_to_string(&elab.program);
    assert!(text.contains("Reverse"));
}
