//! The batch workloads (nw, hotspot, histogram): rounds of reference,
//! unoptimised and optimised runs in rotating order, each variant through
//! its own persistent `Session` prepared during set-up.

use crate::paired::{
    cache_layers, check_no_builds, compile_and_call_layers, compile_traced, guarded, outputs_match,
    ref_reps, Paired, Slots, VARIANTS,
};
use crate::util::{sub_seed, Metrics, SetupTimes, Tally, Tracer, PER_LAYER};
use arraymem_core::Compiled;
use arraymem_exec::{InputValue, MemStore, Mode, OutputValue, Session, Stats};
use arraymem_workloads::{self as w, Case};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// VM worker threads for every batch run.
pub const THREADS: usize = 2;
/// Set-ups per run, the first at the start and the rest spread over the
/// run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub struct Spec {
    pub name: &'static str,
    /// Whether the inputs depend on `--seed` (nw's are a fixed function
    /// of its size).
    pub seeded: bool,
    build: fn(u64) -> Case,
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "nw" => Spec {
            name: "nw",
            seeded: false,
            build: |_| w::nw::case("2048", 128, 16, 1),
        },
        "hotspot" => Spec {
            name: "hotspot",
            seeded: true,
            build: |seed| {
                let n = 512;
                let mut c = w::hotspot::case("512", n, 16, 1);
                c.inputs[2] =
                    InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 1), n * n, 322.0, 342.0));
                c.inputs[3] =
                    InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 2), n * n, 0.0, 5.0));
                c
            },
        },
        "histogram" => Spec {
            name: "histogram",
            seeded: true,
            build: |seed| {
                let (n, bins) = (20_000, 256);
                let mut c = w::irregular::histogram_case("20k/256", n, bins, 1);
                c.inputs[2] =
                    InputValue::ArrayI64(w::data::i64s(sub_seed(seed, 3), n, 0, bins as i64));
                c.inputs[3] = InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 4), n, 0.0, 1.0));
                c
            },
        },
        _ => return None,
    })
}

/// Bytes held by a store: every block, live or on a free list.
fn store_bytes(store: &MemStore) -> u64 {
    (0..store.num_blocks())
        .map(|b| (store.len(b) * store.elem(b).size_bytes()) as u64)
        .sum()
}

/// Bytes a variant's store may hold before its session is replaced, after
/// the round, by a fresh session over the same plan cache, which one
/// untimed call warms up before the next round. Every
/// `run_plan` loads its array inputs into fresh blocks that stay on the
/// store's free lists for good, so a persistent session grows by the
/// input size per call (`exec.store.held_growth_per_call`); this bounds
/// the benchmark's memory.
const SESSION_BUDGET: u64 = 256 << 20;

struct Variant {
    compiled: Compiled,
    session: Session,
    /// Instructions of the plan prepared in set-up, and whether every
    /// later prepare returned a plan of the same length.
    instrs: usize,
    instrs_stable: bool,
    /// Store bytes after warm-up and calls since, in the first session.
    held_after_warmup: u64,
    calls: u64,
    /// Growth of the first session's store per call, once measured.
    growth: Option<f64>,
    renewals: u64,
}

impl Variant {
    /// Count one call and replace a session whose store is over budget;
    /// returns whether it did.
    fn renew_if_full(&mut self) -> bool {
        self.calls += 1;
        if store_bytes(self.session.store_mut()) < SESSION_BUDGET {
            return false;
        }
        self.note_growth();
        let cache = Arc::clone(self.session.cache());
        self.session = Session::with_cache(cache);
        self.renewals += 1;
        true
    }

    fn note_growth(&mut self) {
        if self.growth.is_none() && self.calls > 0 {
            let held = store_bytes(self.session.store_mut());
            let grown = held.saturating_sub(self.held_after_warmup);
            self.growth = Some(grown as f64 / self.calls as f64);
        }
    }

    /// One call: prepare (a cache hit after set-up; not timed), then the
    /// timed `run_plan`.
    fn call(&mut self, case: &Case) -> Result<(Vec<OutputValue>, Stats, Duration), String> {
        let c = &self.compiled;
        let h = self.session.prepare_full(
            &c.program,
            &case.kernels,
            &[],
            &c.report.merges,
            &c.report.par_safety,
        )?;
        self.instrs_stable &= self.session.plan(h).num_instrs() == self.instrs;
        let t = Instant::now();
        let (out, stats) =
            self.session
                .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, THREADS)?;
        Ok((out, stats, t.elapsed()))
    }

    /// An untimed call whose output is checked, so a new session's store
    /// is warm before it is timed.
    fn warm_up(&mut self, case: &Case, expected: &[OutputValue], v: usize, tally: &mut Tally) {
        let r = guarded(|| self.call(case));
        let ok = matches!(&r, Ok((out, _, _)) if outputs_match(expected, out, case.tol));
        tally.op(ok, || format!("warm-up {}: {:?}", VARIANTS[v], r.err()));
    }
}

struct Prepared {
    case: Case,
    ref_reps: usize,
    expected: Vec<OutputValue>,
    /// `[unopt, opt]`, over one plan cache.
    variants: [Variant; 2],
}

fn setup(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let root = tracer.open(None, 0, "setup");
    let t = Instant::now();
    let case = (spec.build)(seed);
    tracer.span(root, 0, "setup.inputs", t, Instant::now(), Vec::new());
    let t = Instant::now();
    let (_, expected) = (case.reference)(&case.inputs);
    tracer.span(root, 0, "setup.expected", t, Instant::now(), Vec::new());
    let mut variants = Vec::new();
    for (v, label) in VARIANTS.iter().enumerate() {
        let compiled = compile_traced(&case, v, tracer, root)?;
        let mut session = match variants.first() {
            Some(Variant { session, .. }) => Session::with_cache(Arc::clone(session.cache())),
            None => Session::new(),
        };
        let span = tracer.open(root, 0, &format!("prepare.{label}"));
        let handle = session.prepare_full(
            &compiled.program,
            &case.kernels,
            &[],
            &compiled.report.merges,
            &compiled.report.par_safety,
        )?;
        let instrs = session.plan(handle).num_instrs();
        tracer.close(span, vec![("instrs", instrs as f64)]);
        variants.push(Variant {
            compiled,
            session,
            instrs,
            instrs_stable: true,
            held_after_warmup: 0,
            calls: 0,
            growth: None,
            renewals: 0,
        });
    }
    let mut variants: [Variant; 2] = variants
        .try_into()
        .map_err(|_| "two variants".to_string())?;
    let ref_reps = ref_reps(&case.reference, &case.inputs);
    let span = tracer.open(root, 0, "warmup");
    for (v, var) in variants.iter_mut().enumerate() {
        var.warm_up(&case, &expected, v, tally);
        var.held_after_warmup = store_bytes(var.session.store_mut());
    }
    tracer.close(span, Vec::new());
    tracer.close(root, Vec::new());
    Ok(Prepared {
        case,
        ref_reps,
        expected,
        variants,
    })
}

pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(trace);
    let mut tally = Tally::default();
    let mut setups = SetupTimes::default();
    let Prepared {
        case,
        ref_reps,
        expected,
        mut variants,
    } = setups.time(|| setup(spec, seed, &mut tracer, &mut tally))?;
    let warm = variants[0].session.plan_stats();
    let slots = Slots {
        name: spec.name,
        reference: &case.reference,
        inputs: &case.inputs,
        reps: ref_reps,
        expected: &expected,
        tol: case.tol,
    };

    let mut paired = Paired::new(1);
    let start = Instant::now();
    let mut deadline = start + Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    while Instant::now() < deadline || paired.rounds.len() < 3 {
        // The other set-ups are spread over the run, so that `setup_s` is
        // a median over the machine's speed phases; their time is added
        // to the deadline.
        let done = setups.wall.len();
        let due = seconds * done as f64 / SETUP_REPS as f64;
        if done < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            tracer.on = trace;
            let t = Instant::now();
            drop(setups.time(|| setup(spec, seed, &mut tracer, &mut tally))?);
            deadline += t.elapsed();
        }
        n += 1;
        // In a traced run every other round is traced, so the untraced
        // rounds between them measure the tracing overhead.
        tracer.on = trace && n % 2 == 1;
        let round_span = tracer.open(None, n, "round");
        let r0 = Instant::now();
        paired.round(
            0,
            &slots,
            n,
            0,
            "run_plan",
            &mut |v| variants[v].call(&case),
            &mut tracer,
            round_span,
            &mut tally,
        );
        paired.rounds.push((r0.elapsed(), tracer.on));
        tracer.close(round_span, Vec::new());
        if n > 3 && paired.len() == 0 {
            return Err("no round completed".into());
        }
        for (v, var) in variants.iter_mut().enumerate() {
            if var.renew_if_full() {
                var.warm_up(&case, &expected, v, &mut tally);
            }
        }
    }
    tracer.on = trace;
    for var in &mut variants {
        var.note_growth();
    }

    let now = variants[0].session.plan_stats();
    paired.check(&[spec.name], &mut tally);
    check_no_builds(&warm, &now, &mut tally);
    for (v, var) in variants.iter().enumerate() {
        tally.op(var.instrs_stable, || {
            format!("{}: plan instructions changed", VARIANTS[v])
        });
    }
    let pairs = &paired.cases[0];
    if spec.name == "histogram" {
        let elided: u64 = (0..2).map(|v| pairs[0].calls[v].1.bytes_elided).sum();
        tally.op(elided == 0, || format!("histogram elided {elided} B"));
        let (lo, hi) = paired.impact_range(0);
        tally.op(lo <= 1.0 && 1.0 <= hi, || {
            format!("histogram impact interval [{lo:.4}, {hi:.4}] excludes 1.0")
        });
    }

    let mut m = Metrics::default();
    paired.ratios(&mut m);
    let peak = pairs[pairs.len() - 1].calls[1].1.peak_bytes_live;
    m.put("peak_mib", peak as f64 / (1 << 20) as f64, pairs.len());
    setups.put(&mut m);
    if trace {
        let opt = &variants[1];
        compile_and_call_layers(
            &tracer,
            std::iter::once(&opt.compiled),
            opt.instrs,
            "run_plan",
            &mut m,
        );
        paired.layers(&mut m);
        cache_layers(&warm, &now, &mut m);
        m.put(
            "exec.store.held_growth_per_call",
            opt.growth.unwrap_or(0.0),
            opt.calls as usize,
        );
        let renewals: u64 = variants.iter().map(|v| v.renewals).sum();
        m.put("exec.store.renewals", renewals as f64, 1);
        // No server runs here.
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("server.")) {
            m.put(*name, 0.0, 0);
        }
        crate::write_trace(spec.name, seed, &tracer)?;
    }
    Ok(Outcome { metrics: m, tally })
}
