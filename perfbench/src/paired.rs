//! What the batch and serve workloads share: the paired round (reference,
//! unoptimised and optimised calls in rotating order) and the metrics and
//! self-checks computed from a run's paired rounds. A batch workload has
//! one case; `serve` has one per mix case.

use crate::util::{batch_median_range, geomean, median, ms, tail, Metrics, Tally, Tracer};
use arraymem_core::{compile_observed, Compiled, Options, RemarkKind};
use arraymem_exec::{InputValue, OutputValue, PlanStats, Stats};
use arraymem_workloads::RefFn;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Variant labels, `[unopt, opt]`.
pub const VARIANTS: [&str; 2] = ["unopt", "opt"];
/// The passes of the standard pipeline, in order.
const PASSES: [&str; 8] = [
    "introduce",
    "antiunify",
    "hoist",
    "short_circuit",
    "merge",
    "cleanup",
    "par_safety",
    "release",
];
/// Largest tolerated gap between a call's wall time and the sum of its
/// program-reported children (kernel + copy + interpreter + I/O), as a
/// share of the wall time.
const CHILD_SUM_TOLERANCE: f64 = 0.05;
/// Target length of a round's reference slot: references shorter than
/// this run several times and the slot reports their median, so timer
/// granularity and one-off interrupts do not dominate short references.
const REF_SLOT: Duration = Duration::from_millis(2);

/// Compile the case's program with the optimised or unoptimised pipeline,
/// recording one span per pass from the timestamps between the
/// pipeline's observer callbacks.
pub fn compile_traced(
    case: &arraymem_workloads::Case,
    v: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<Compiled, String> {
    let opts = if v == 1 {
        Options::optimized()
    } else {
        Options::default()
    };
    let span = tracer.open(parent, 0, &format!("compile.{}", VARIANTS[v]));
    let mut marks: Vec<(String, Instant)> = Vec::new();
    let compiled = compile_observed(
        &case.program,
        &opts.with_env(case.env.clone()),
        &mut |stage, _| marks.push((stage.to_string(), Instant::now())),
    )?;
    for pair in marks.windows(2) {
        let name = format!("core.{}", pair[1].0);
        tracer.span(span, 0, &name, pair[0].1, pair[1].1, Vec::new());
    }
    tracer.close(
        span,
        vec![("remarks", compiled.compile_report.remarks.len() as f64)],
    );
    Ok(compiled)
}

/// Reference calls per slot: enough for [`REF_SLOT`], at most 256,
/// calibrated on the fastest of three calls.
pub fn ref_reps(reference: &RefFn, inputs: &[InputValue]) -> usize {
    let fastest = (0..3)
        .map(|_| reference(inputs).0)
        .min()
        .unwrap_or_default();
    let per = fastest.max(Duration::from_micros(1));
    (REF_SLOT.as_nanos().div_ceil(per.as_nanos()) as usize).clamp(1, 256)
}

pub fn outputs_match(expected: &[OutputValue], got: &[OutputValue], tol: f64) -> bool {
    expected.len() == got.len() && expected.iter().zip(got).all(|(e, g)| e.approx_eq(g, tol))
}

/// Run `f`, turning a panic into an `Err`.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// The snapshot of a call's counters attached to its span.
pub fn counters(s: &Stats) -> Vec<(&'static str, f64)> {
    vec![
        ("bytes_copied", s.bytes_copied as f64),
        ("bytes_elided", s.bytes_elided as f64),
        ("peak_bytes_live", s.peak_bytes_live as f64),
        ("num_allocs", s.num_allocs as f64),
        ("kernel_launches", s.kernel_launches as f64),
        ("pool_dispatches", s.pool_dispatches as f64),
    ]
}

/// Record the program-reported children of one call span: kernel, copy,
/// interpreter (the rest of the body) and `rest` (wall minus body: input
/// loading and result extraction, plus admission and prepare on the
/// server). Returns the children's gap to `wall` as a share of it, which
/// is 0 unless the program reports kernel + copy time exceeding its body
/// time.
pub fn call_children(
    tracer: &mut Tracer,
    span: Option<usize>,
    s: &Stats,
    wall: Duration,
    rest: &str,
) -> f64 {
    let interp = s.total_time.saturating_sub(s.kernel_time + s.copy_time);
    let io = wall.saturating_sub(s.total_time);
    tracer.children(
        span,
        &[
            ("kernel", s.kernel_time),
            ("copy", s.copy_time),
            ("interp", interp),
            (rest, io),
        ],
    );
    let sum = s.kernel_time + s.copy_time + interp + io;
    (sum.as_secs_f64() - wall.as_secs_f64()).abs() / wall.as_secs_f64()
}

/// Share of a call's body spent in the interpreter: neither in kernels
/// nor in copies.
fn interp_share(s: &Stats) -> f64 {
    let interp = s.total_time.saturating_sub(s.kernel_time + s.copy_time);
    interp.as_secs_f64() / s.total_time.as_secs_f64()
}

/// One case of a paired round: what the reference slot runs and what
/// every output is checked against.
pub struct Slots<'a> {
    pub name: &'a str,
    pub reference: &'a RefFn,
    pub inputs: &'a [InputValue],
    /// Reference calls per slot (see [`ref_reps`]).
    pub reps: usize,
    pub expected: &'a [OutputValue],
    pub tol: f64,
}

/// One case's completed paired round: the reference slot's time and each
/// variant's `(call wall, stats)`, `[unopt, opt]`.
pub struct Pair {
    pub reference: Duration,
    pub calls: [(Duration, Stats); 2],
}

impl Pair {
    fn body_ms(&self, v: usize) -> f64 {
        ms(self.calls[v].1.total_time)
    }

    /// Paired unoptimised ÷ optimised body time: the paper's "Opt. Impact".
    fn impact(&self) -> f64 {
        self.body_ms(0) / self.body_ms(1)
    }
}

/// A run's paired rounds: per case its completed pairs, and per round its
/// wall time and whether it was traced.
#[derive(Default)]
pub struct Paired {
    pub cases: Vec<Vec<Pair>>,
    pub rounds: Vec<(Duration, bool)>,
    /// Largest gap between a traced call's children and its wall time.
    pub child_gap: f64,
}

impl Paired {
    pub fn new(cases: usize) -> Paired {
        Paired {
            cases: (0..cases).map(|_| Vec::new()).collect(),
            ..Paired::default()
        }
    }

    /// One case's paired round, number `n`: the reference slot and the
    /// two variant calls in an order rotated by `n + shift`. `call(v)`
    /// runs variant `v` and returns its outputs, stats and the wall time
    /// of the call to time, which ends when `call` returns; its span is
    /// named `<prefix>.<variant>`. Every output is checked outside the
    /// timed region, each slot counts as one operation, and the pair is
    /// kept if all three succeeded.
    #[allow(clippy::too_many_arguments)]
    pub fn round(
        &mut self,
        ci: usize,
        s: &Slots,
        n: u64,
        shift: u64,
        prefix: &str,
        call: &mut dyn FnMut(usize) -> Result<(Vec<OutputValue>, Stats, Duration), String>,
        tracer: &mut Tracer,
        parent: Option<usize>,
        tally: &mut Tally,
    ) {
        let traced = tracer.on;
        let mut reference = None;
        let mut calls = [None, None];
        for slot in 0..3u64 {
            match (n + shift + slot) % 3 {
                0 => {
                    reference = reference_slot(s, tracer, parent, n);
                    tally.op(reference.is_some(), || {
                        format!("round {n} {}: reference output wrong or panicked", s.name)
                    });
                }
                k => {
                    let v = (k - 1) as usize;
                    let label = format!("{prefix}.{}", VARIANTS[v]);
                    let t = Instant::now();
                    let r = guarded(|| call(v));
                    let end = Instant::now();
                    let (out, stats, wall) = match r {
                        Ok(x) => x,
                        Err(e) => {
                            tracer.span(parent, n, &label, t, end, Vec::new());
                            tally.op(false, || format!("round {n} {} {label}: {e}", s.name));
                            continue;
                        }
                    };
                    let span = tracer.span(parent, n, &label, end - wall, end, counters(&stats));
                    let gap = call_children(tracer, span, &stats, wall, "io");
                    if traced {
                        self.child_gap = self.child_gap.max(gap);
                    }
                    let ok = outputs_match(s.expected, &out, s.tol);
                    tally.op(ok, || {
                        format!(
                            "round {n} {} {label}: output differs from reference",
                            s.name
                        )
                    });
                    if ok {
                        calls[v] = Some((wall, stats));
                    }
                }
            }
        }
        if let (Some(reference), [Some(u), Some(o)]) = (reference, calls) {
            self.cases[ci].push(Pair {
                reference,
                calls: [u, o],
            });
        }
    }

    /// Pairs kept over every case.
    pub fn len(&self) -> usize {
        self.cases.iter().map(Vec::len).sum()
    }

    /// The end-to-end ratios: per case the median over its rounds of a
    /// time over the same round's reference time, then the geometric mean
    /// over the cases.
    pub fn ratios(&self, m: &mut Metrics) {
        let ratio = |f: &dyn Fn(&Pair) -> f64| -> f64 {
            let per_case: Vec<f64> = self
                .cases
                .iter()
                .map(|ps| {
                    median(
                        &ps.iter()
                            .map(|p| f(p) / ms(p.reference))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            geomean(&per_case)
        };
        let n = self.len();
        m.put("opt_vs_ref", ratio(&|p| p.body_ms(1)), n);
        m.put("unopt_vs_ref", ratio(&|p| p.body_ms(0)), n);
        m.put("opt_call_vs_ref", ratio(&|p| ms(p.calls[1].0)), n);
    }

    /// Self-checks: every call was a plan cache hit, and each case's
    /// counters that repeat exactly ([`repeating`]) are identical across
    /// its rounds, per variant. `names` are the cases'.
    pub fn check(&self, names: &[&str], tally: &mut Tally) {
        let misses = self
            .cases
            .iter()
            .flatten()
            .flat_map(|p| &p.calls)
            .filter(|c| !c.1.plan_cache_hit)
            .count();
        tally.op(misses == 0, || {
            format!("{misses} plan cache misses after warm-up")
        });
        for (ps, name) in self.cases.iter().zip(names) {
            for (v, label) in VARIANTS.iter().enumerate() {
                let first = ps.first().map(|p| repeating(&p.calls[v].1));
                let same = ps.iter().all(|p| Some(repeating(&p.calls[v].1)) == first);
                tally.op(same, || {
                    format!("{name} {label}: peak/copied/elided bytes differ across rounds")
                });
            }
        }
        tally.op(self.child_gap <= CHILD_SUM_TOLERANCE, || {
            format!(
                "child spans miss a call's wall time by {:.1}%",
                self.child_gap * 100.0
            )
        });
    }

    /// The lowest and highest median impact of consecutive batches of
    /// rounds (see [`batch_median_range`]), per case.
    pub fn impact_range(&self, ci: usize) -> (f64, f64) {
        let imp: Vec<f64> = self.cases[ci].iter().map(Pair::impact).collect();
        batch_median_range(&imp)
    }

    /// The per-layer metrics the paired rounds give: the `exec.*` figures
    /// the program's `Stats` report, `control.*` and `trace.*`.
    ///
    /// Counters repeat exactly from round to round, so they come from each
    /// case's last round; over cases they are summed, and peaks are the
    /// largest case's. The pool's chunk counts, which do not repeat, are
    /// medians per case, summed. Body times and shares pool every
    /// optimised call.
    pub fn layers(&self, m: &mut Metrics) {
        let opt = || self.cases.iter().flatten().map(|p| &p.calls[1].1);
        let body: Vec<f64> = opt().map(|s| ms(s.total_time)).collect();
        m.put("exec.vm.body_ms.p50", median(&body), body.len());
        m.put("exec.vm.body_ms.tail", tail(&body).1, body.len());
        let share: Vec<f64> = opt().map(interp_share).collect();
        m.put("exec.vm.interp_share", median(&share), share.len());

        let last = |v: usize| {
            self.cases
                .iter()
                .filter_map(move |ps| ps.last().map(|p| &p.calls[v].1))
        };
        let sum = |v: usize, f: fn(&Stats) -> u64| last(v).map(f).sum::<u64>() as f64;
        let n = self.cases.len();
        m.put("exec.kernel_launches", sum(1, |s| s.kernel_launches), n);
        for (v, label) in VARIANTS.iter().enumerate() {
            m.put(
                format!("exec.num_copies.{label}"),
                sum(v, |s| s.num_copies),
                n,
            );
            m.put(
                format!("exec.bytes_copied.{label}"),
                sum(v, |s| s.bytes_copied),
                n,
            );
            m.put(
                format!("exec.bytes_elided.{label}"),
                sum(v, |s| s.bytes_elided),
                n,
            );
            let peak = last(v).map(|s| s.peak_bytes_live).max().unwrap_or(0);
            m.put(
                format!("exec.store.peak_bytes_live.{label}"),
                peak as f64,
                n,
            );
        }
        m.put("exec.store.num_allocs", sum(1, |s| s.num_allocs), n);
        m.put("exec.store.blocks_reused", sum(1, |s| s.blocks_reused), n);
        m.put(
            "exec.store.bytes_zeroing_elided",
            sum(1, |s| s.bytes_zeroing_elided),
            n,
        );
        m.put(
            "exec.store.carried_releases",
            sum(1, |s| s.carried_releases),
            n,
        );
        m.put(
            "exec.store.color_slab_hits",
            sum(1, |s| s.color_slab_hits),
            n,
        );
        m.put("exec.pool.dispatches", sum(1, |s| s.pool_dispatches), n);
        m.put(
            "exec.pool.maps_parallel_in_place",
            sum(1, |s| s.maps_parallel_in_place),
            n,
        );
        let per_case_median = |f: fn(&Stats) -> u64| -> f64 {
            self.cases
                .iter()
                .map(|ps| {
                    median(
                        &ps.iter()
                            .map(|p| f(&p.calls[1].1) as f64)
                            .collect::<Vec<_>>(),
                    )
                })
                .sum()
        };
        m.put(
            "exec.pool.par_chunks",
            per_case_median(|s| s.par_chunks),
            body.len(),
        );
        m.put(
            "exec.pool.par_chunks_stolen",
            per_case_median(|s| s.par_chunks_stolen),
            body.len(),
        );
        let (engaged, offered) = opt().fold((0, 0), |(e, o), s| {
            (e + s.par_workers_engaged, o + s.par_workers_offered)
        });
        m.put(
            "exec.pool.worker_utilization",
            ratio_or_zero(engaged, offered),
            body.len(),
        );

        let refs: f64 = self
            .cases
            .iter()
            .map(|ps| median(&ps.iter().map(|p| ms(p.reference)).collect::<Vec<_>>()))
            .sum();
        m.put("control.ref_ms", refs, self.len());
        let imp: Vec<f64> = self
            .cases
            .iter()
            .map(|ps| median(&ps.iter().map(Pair::impact).collect::<Vec<_>>()))
            .collect();
        let ranges: Vec<(f64, f64)> = (0..n).map(|ci| self.impact_range(ci)).collect();
        let lo: Vec<f64> = ranges.iter().map(|r| r.0).collect();
        let hi: Vec<f64> = ranges.iter().map(|r| r.1).collect();
        m.put("control.impact", geomean(&imp), self.len());
        m.put("control.impact_lo", geomean(&lo), self.len());
        m.put("control.impact_hi", geomean(&hi), self.len());

        // Median over adjacent (traced, untraced) round pairs of the
        // traced round's wall time over the untraced one's, minus one.
        let overhead: Vec<f64> = self
            .rounds
            .windows(2)
            .filter(|w| w[0].1 && !w[1].1)
            .map(|w| w[0].0.as_secs_f64() / w[1].0.as_secs_f64() - 1.0)
            .collect();
        m.put("trace.overhead_share", median(&overhead), overhead.len());
        m.put("trace.child_sum_error", self.child_gap, self.len());
    }
}

/// One reference slot: `reps` calls, each recorded as a `ref` span whose
/// `core` child is the reference's own timer (which excludes input
/// cloning). Returns the median core time, or `None` if a call panicked
/// or returned a wrong output.
fn reference_slot(
    s: &Slots,
    tracer: &mut Tracer,
    parent: Option<usize>,
    group: u64,
) -> Option<Duration> {
    let mut cores = Vec::with_capacity(s.reps);
    for _ in 0..s.reps {
        let t = Instant::now();
        let (core, out) = catch_unwind(AssertUnwindSafe(|| (s.reference)(s.inputs))).ok()?;
        let span = tracer.span(parent, group, "ref", t, Instant::now(), Vec::new());
        tracer.children(span, &[("core", core)]);
        if !outputs_match(s.expected, &out, s.tol) {
            return None;
        }
        cores.push(core);
    }
    cores.sort();
    Some(cores[cores.len() / 2])
}

/// Counters of one call that repeat exactly from call to call of one case
/// and variant: peak live bytes, bytes copied and bytes elided.
pub fn repeating(s: &Stats) -> [u64; 3] {
    [s.peak_bytes_live, s.bytes_copied, s.bytes_elided]
}

pub fn ratio_or_zero(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Remark counts of the optimised compiles, summed: circuits elided,
/// circuits rejected, blocks merged, maps proven parallel.
fn decisions<'a>(compiled: impl Iterator<Item = &'a Compiled>, m: &mut Metrics) {
    let mut d = [0u64; 4];
    for c in compiled {
        for r in &c.compile_report.remarks {
            match r.kind {
                RemarkKind::CircuitElided => d[0] += 1,
                RemarkKind::CircuitRejected(_) => d[1] += 1,
                RemarkKind::BlocksMerged => d[2] += 1,
                RemarkKind::MapParallelSafe => d[3] += 1,
                _ => {}
            }
        }
    }
    let names = [
        "core.circuits_elided",
        "core.circuits_rejected",
        "core.blocks_merged",
        "core.par_proven",
    ];
    for (name, x) in names.into_iter().zip(d) {
        m.put(name, x as f64, 1);
    }
}

/// The per-layer metrics of the compiler and of the plan: pass self times
/// (optimised compiles), decision counts, cold plan builds and the
/// instruction count summed over `instrs` (optimised plans); then the
/// self times of the children of the optimised calls, whose spans are
/// named `<prefix>.opt`.
pub fn compile_and_call_layers<'a>(
    tracer: &Tracer,
    compiled: impl Iterator<Item = &'a Compiled>,
    instrs: usize,
    prefix: &str,
    m: &mut Metrics,
) {
    for pass in PASSES {
        let xs = tracer.self_ms_under(&format!("core.{pass}"), "compile.opt");
        m.put(format!("core.{pass}_ms"), median(&xs), xs.len());
    }
    decisions(compiled, m);
    let build = tracer.self_ms("prepare.opt");
    m.put("exec.plan.build_ms", median(&build), build.len());
    m.put("exec.plan.instrs", instrs as f64, 1);
    for (child, metric) in [
        ("interp", "exec.vm.interp_ms"),
        ("kernel", "exec.kernel_ms"),
        ("copy", "exec.copy_ms.opt"),
        ("io", "exec.io_ms"),
    ] {
        let xs = tracer.self_ms_under(child, &format!("{prefix}.opt"));
        m.put(metric, median(&xs), xs.len());
    }
    let xs = tracer.self_ms_under("copy", &format!("{prefix}.unopt"));
    m.put("exec.copy_ms.unopt", median(&xs), xs.len());
}

/// The plan cache's metrics: plans built in all, the share of prepares
/// after warm-up (`warm`) that were hits, and stampedes coalesced.
pub fn cache_layers(warm: &PlanStats, now: &PlanStats, m: &mut Metrics) {
    m.put("exec.cache.builds", now.builds as f64, 1);
    let (hits, builds) = (now.cache_hits - warm.cache_hits, now.builds - warm.builds);
    m.put(
        "exec.cache.hit_ratio",
        ratio_or_zero(hits, hits + builds),
        (hits + builds) as usize,
    );
    m.put(
        "exec.cache.stampedes_coalesced",
        now.stampedes_coalesced as f64,
        1,
    );
}

/// Self-check: the plan cache built nothing after warm-up.
pub fn check_no_builds(warm: &PlanStats, now: &PlanStats, tally: &mut Tally) {
    let builds = now.builds - warm.builds;
    tally.op(builds == 0, || {
        format!("plan cache built {builds} plans after warm-up")
    });
}
