//! The serve workload: one `Server` (one execution slot, one VM thread)
//! and two tenants, driven by a seeded request mix in three phases:
//!
//! 1. open loop — Poisson arrivals at [`RATE_RPS`] from two sender
//!    threads, each request timed from when it was due;
//! 2. closed loop — two clients, each sending its next request when the
//!    previous one completes (`server.capacity_rps`);
//! 3. paired — one thread rotating reference, unoptimised and optimised
//!    calls per mix case through the server, for the reference-paired
//!    ratios the batch workloads report.

use crate::batch::Outcome;
use crate::paired::{
    cache_layers, call_children, check_no_builds, compile_and_call_layers, compile_traced,
    counters, guarded, outputs_match, ref_reps, repeating, Paired, Slots, VARIANTS,
};
use crate::util::{mean, median, ms, sub_seed, tail, Metrics, SetupTimes, Tally, Tracer};
use arraymem_core::Compiled;
use arraymem_exec::{ArenaStats, InputValue, KernelRegistry, Mode, OutputValue, Session, Stats};
use arraymem_server::{
    AdmissionMetrics, ExecRequest, Server, ServerConfig, ServerError, TenantStats,
};
use arraymem_workloads::{self as w, Case, RefFn};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate: about half the lowest closed-loop capacity
/// measured on a 2-core VM (283 to 636 requests/s across runs).
pub const RATE_RPS: f64 = 150.0;
/// Latency limit for `server.slo_share`.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// One request in this many carries an out-of-bounds scatter index (2%).
/// All come from the second tenant, at a seeded position in the middle
/// three fifths of each block of this many requests, so two never come
/// close together: a failed request leaves its blocks live in the
/// tenant's store until that tenant's next success, and the arena peak
/// should show that leak the same way on every seed.
const BAD_EVERY: usize = 50;
/// Sender threads in the open loop and clients in the closed loop.
const SENDERS: usize = 2;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Shares of `--seconds` spent in the open-loop and closed-loop phases;
/// the paired phase takes the rest.
const OPEN_SHARE: f64 = 0.45;
const CLOSED_SHARE: f64 = 0.35;
/// Length of one closed-loop slice (see [`PARKED_BUDGET`]).
const CLOSED_SLICE: Duration = Duration::from_millis(500);
/// Set-ups after each phase, besides the one at the start; `setup_s` is
/// the median of all of them, so it covers the machine's speed phases.
const SETUPS_PER_PHASE: usize = 3;
/// Open-loop requests' span groups start here; paired rounds count from 1.
const REQUEST_GROUPS: u64 = 1_000_000;

/// One case of the mix, shareable across sender threads (the reference
/// closure stays on the main thread).
struct MixCase {
    name: String,
    /// `[unopt, opt]`.
    compiled: [Compiled; 2],
    /// Instructions of each variant's plan, lowered in set-up.
    instrs: [usize; 2],
    kernels: KernelRegistry,
    inputs: Vec<InputValue>,
    expected: Vec<OutputValue>,
    tol: f64,
    /// Reference calls per paired round (see [`ref_reps`]).
    ref_reps: usize,
}

impl MixCase {
    fn request<'a>(&'a self, v: usize, inputs: &'a [InputValue]) -> ExecRequest<'a> {
        ExecRequest::from_compiled(&self.compiled[v], &self.kernels, &[], inputs, Mode::Memory)
    }
}

struct Mix {
    cases: Vec<MixCase>,
    /// Permutation inputs with one out-of-bounds scatter index.
    bad_inputs: Vec<InputValue>,
    server: Server,
    /// Admission and arena figures of the servers already replaced.
    retired: Retired,
}

/// Buffers a server's arena may hold parked before the server is
/// replaced, at the next phase, slice or round boundary, by a fresh
/// server over the same plan cache. Every execution loads its array
/// inputs into fresh buffers that end up parked in the arena for good, so
/// a server grows by the input size per request
/// (`server.arena.parked_per_request`); this bounds the benchmark's
/// memory.
const PARKED_BUDGET: usize = 1500;

#[derive(Default)]
struct Retired {
    /// Servers replaced for being over [`PARKED_BUDGET`].
    renewals: u64,
    arena_peak: u64,
    queued: u64,
    rejected: u64,
    peak_in_flight: usize,
}

impl Mix {
    fn new_server() -> Server {
        Server::new(ServerConfig {
            max_in_flight: 1,
            threads: 1,
            ..ServerConfig::default()
        })
    }

    /// Every case and variant once per tenant, outputs checked.
    fn warm_up(&mut self, tally: &mut Tally) {
        for tenant in TENANTS {
            for c in &self.cases {
                for (v, label) in VARIANTS.iter().enumerate() {
                    let r = guarded(|| {
                        let req = c.request(v, &c.inputs);
                        self.server.execute(tenant, req).map_err(|e| e.to_string())
                    });
                    let ok = matches!(&r, Ok((out, _)) if outputs_match(&c.expected, out, c.tol));
                    tally.op(ok, || {
                        format!("warm-up {} {label} on {tenant} failed", c.name)
                    });
                }
            }
        }
    }

    /// Replace a server whose arena is over budget.
    fn renew_if_full(&mut self, tally: &mut Tally) {
        if self.server.arena_stats().parked >= PARKED_BUDGET {
            self.retired.renewals += 1;
            self.renew(tally);
        }
    }

    /// Replace the server by a fresh one over the same plan cache,
    /// keeping the old one's figures and warming the new one up.
    fn renew(&mut self, tally: &mut Tally) {
        let cache = Arc::clone(self.server.cache());
        let old = std::mem::replace(
            &mut self.server,
            Server::with_cache(Mix::new_server().config(), cache),
        );
        let (adm, arena) = (old.admission_metrics(), old.arena_stats());
        let r = &mut self.retired;
        r.arena_peak = r.arena_peak.max(arena.peak_bytes_live);
        r.queued += adm.queued;
        r.rejected += adm.rejected;
        r.peak_in_flight = r.peak_in_flight.max(adm.peak_in_flight);
        self.warm_up(tally);
    }

    /// `(arena peak, queued, rejected, peak in flight)` over every server
    /// of the run.
    fn totals(&self) -> (u64, u64, u64, usize) {
        let (adm, arena, r) = (
            self.server.admission_metrics(),
            self.server.arena_stats(),
            &self.retired,
        );
        (
            r.arena_peak.max(arena.peak_bytes_live),
            r.queued + adm.queued,
            r.rejected + adm.rejected,
            r.peak_in_flight.max(adm.peak_in_flight),
        )
    }

    /// Self-check: the plan the server's cache holds for each case and
    /// variant has as many instructions as the one lowered in set-up.
    fn check_instrs(&self, tally: &mut Tally) {
        for c in &self.cases {
            for (v, label) in VARIANTS.iter().enumerate() {
                let p = &c.compiled[v];
                let instrs = self
                    .server
                    .cache()
                    .prepare_full(
                        &p.program,
                        &c.kernels,
                        &[],
                        &p.report.merges,
                        &p.report.par_safety,
                    )
                    .map(|(plan, _)| plan.num_instrs());
                tally.op(instrs == Ok(c.instrs[v]), || {
                    format!("{} {label}: plan instructions changed", c.name)
                });
            }
        }
    }
}

/// Index of the permutation case in the mix.
const PERMUTATION: usize = 3;

fn mix_cases(seed: u64) -> Vec<Case> {
    let mut hotspot = w::hotspot::case("128", 128, 8, 1);
    hotspot.inputs[2] =
        InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 11), 128 * 128, 322.0, 342.0));
    hotspot.inputs[3] =
        InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 12), 128 * 128, 0.0, 5.0));
    let n = 10_000;
    let mut permutation = w::irregular::permutation_case("10k", n, 1);
    permutation.inputs[1] = InputValue::ArrayF32(w::data::f32s(sub_seed(seed, 13), n, -1.0, 1.0));
    permutation.inputs[2] =
        InputValue::ArrayI64(w::irregular::permutation_data(sub_seed(seed, 14), n));
    vec![
        w::nw::case("256", 16, 16, 1),
        w::lud::case("128", 8, 16, 1),
        hotspot,
        permutation,
        w::locvolcalib::case("small", 16, 64, 16, 1),
    ]
}

/// Build the mix, its server and (kept apart, as they are not `Sync`) the
/// cases' reference closures.
fn setup(seed: u64, tracer: &mut Tracer, tally: &mut Tally) -> Result<(Mix, Vec<RefFn>), String> {
    let root = tracer.open(None, 0, "setup");
    let t = Instant::now();
    let raw = mix_cases(seed);
    let mut bad_inputs = raw[PERMUTATION].inputs.clone();
    if let InputValue::ArrayI64(perm) = &mut bad_inputs[2] {
        let lane = w::data::rng(sub_seed(seed, 15)).usize_in(perm.len());
        perm[lane] = perm.len() as i64;
    }
    tracer.span(root, 0, "setup.inputs", t, Instant::now(), Vec::new());
    let mut cases = Vec::new();
    let mut references = Vec::new();
    // Cold lowerings outside the server, for `exec.plan.*` and the
    // instruction check (the server's own builds happen in the warm-up).
    let mut session = Session::new();
    for case in raw {
        let t = Instant::now();
        let (_, expected) = (case.reference)(&case.inputs);
        tracer.span(root, 0, "setup.expected", t, Instant::now(), Vec::new());
        let mut compiled = Vec::new();
        let mut instrs = [0; 2];
        for (v, label) in VARIANTS.iter().enumerate() {
            let c = compile_traced(&case, v, tracer, root)?;
            let span = tracer.open(root, 0, &format!("prepare.{label}"));
            let h = session.prepare_full(
                &c.program,
                &case.kernels,
                &[],
                &c.report.merges,
                &c.report.par_safety,
            )?;
            instrs[v] = session.plan(h).num_instrs();
            tracer.close(span, vec![("instrs", instrs[v] as f64)]);
            compiled.push(c);
        }
        let Case {
            name,
            inputs,
            kernels,
            reference,
            tol,
            ..
        } = case;
        let ref_reps = ref_reps(&reference, &inputs);
        references.push(reference);
        cases.push(MixCase {
            name,
            compiled: compiled
                .try_into()
                .map_err(|_| "two variants".to_string())?,
            instrs,
            kernels,
            inputs,
            expected,
            tol,
            ref_reps,
        });
    }
    let mut mix = Mix {
        cases,
        bad_inputs,
        server: Mix::new_server(),
        retired: Retired::default(),
    };
    // Every plan is built here, before timing starts.
    let span = tracer.open(root, 0, "warmup");
    mix.warm_up(tally);
    tracer.close(span, Vec::new());
    tracer.close(root, Vec::new());
    Ok((mix, references))
}

/// One request of the seeded mix.
#[derive(Clone, Copy)]
struct Request {
    case: usize,
    tenant: usize,
    bad: bool,
    /// Offset of its due time from the phase start (open loop only).
    due: Duration,
}

fn requests(seed: u64, n_cases: usize, count: usize, rate: f64) -> Vec<Request> {
    let mut rng = w::data::rng(seed);
    let mut due = 0.0;
    let mut bad_at = 0;
    (0..count)
        .map(|i| {
            if i % BAD_EVERY == 0 {
                bad_at = i + BAD_EVERY / 5 + rng.usize_in(BAD_EVERY * 3 / 5);
            }
            // Exponential inter-arrival gaps make a Poisson process.
            due += -(1.0 - rng.f64_unit()).ln() / rate;
            let bad = i == bad_at;
            Request {
                case: if bad {
                    PERMUTATION
                } else {
                    rng.usize_in(n_cases)
                },
                tenant: if bad { 1 } else { rng.usize_in(TENANTS.len()) },
                bad,
                due: Duration::from_secs_f64(due),
            }
        })
        .collect()
}

/// What one served request did.
struct Served {
    req: Request,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
    /// Outcome matched the expectation: correct outputs, or a typed
    /// execution error for a bad request.
    ok: bool,
    stats: Option<Stats>,
    error: Option<String>,
}

fn serve_one(mix: &Mix, req: Request, due: Instant) -> Served {
    let c = &mix.cases[req.case];
    let inputs = if req.bad { &mix.bad_inputs } else { &c.inputs };
    let sent = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        mix.server
            .execute(TENANTS[req.tenant], c.request(1, inputs))
    }));
    let done = Instant::now();
    let (ok, stats, error) = match r {
        Ok(Ok((out, stats))) => {
            let ok = !req.bad && outputs_match(&c.expected, &out, c.tol);
            (
                ok,
                Some(stats),
                (!ok).then(|| format!("{}: wrong output", c.name)),
            )
        }
        Ok(Err(ServerError::Execution(e))) if req.bad => (true, None, Some(e)),
        Ok(Err(e)) => (false, None, Some(format!("{}: {e}", c.name))),
        Err(_) => (false, None, Some(format!("{}: panicked", c.name))),
    };
    Served {
        req,
        due,
        sent,
        done,
        ok,
        stats,
        error,
    }
}

fn open_loop(mix: &Mix, reqs: &[Request]) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&req) = reqs.get(i) else { break };
                let due = start + req.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let served = serve_one(mix, req, due);
                out.lock()
                    .expect("no sender panics holding the lock")
                    .push(served);
            });
        }
    });
    out.into_inner().expect("senders joined")
}

/// Closed-loop clients until `deadline`, taking requests from `reqs`
/// (cyclically) from index `from`.
fn closed_loop(
    mix: &Mix,
    reqs: &[Request],
    from: usize,
    deadline: Instant,
) -> (Vec<Served>, Duration) {
    let next = AtomicUsize::new(from);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| {
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let req = reqs[i % reqs.len()];
                    let served = serve_one(mix, req, Instant::now());
                    out.lock()
                        .expect("no client panics holding the lock")
                        .push(served);
                }
            });
        }
    });
    (out.into_inner().expect("clients joined"), start.elapsed())
}

/// The paired phase until `deadline`: per round, each mix case's paired
/// round through the server, the tenants taking turns by round.
fn paired_phase(
    mix: &mut Mix,
    references: &[RefFn],
    deadline: Instant,
    trace: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Paired {
    let mut paired = Paired::new(mix.cases.len());
    let mut n = 0u64;
    while Instant::now() < deadline || paired.rounds.len() < 3 {
        n += 1;
        tracer.on = trace && n % 2 == 1;
        let r0 = Instant::now();
        let tenant = TENANTS[n as usize % TENANTS.len()];
        for (ci, c) in mix.cases.iter().enumerate() {
            let slots = Slots {
                name: &c.name,
                reference: &references[ci],
                inputs: &c.inputs,
                reps: c.ref_reps,
                expected: &c.expected,
                tol: c.tol,
            };
            let server = &mix.server;
            let mut call = |v: usize| {
                let t = Instant::now();
                let (out, stats) = server
                    .execute(tenant, c.request(v, &c.inputs))
                    .map_err(|e| e.to_string())?;
                Ok((out, stats, t.elapsed()))
            };
            paired.round(
                ci, &slots, n, ci as u64, "execute", &mut call, tracer, None, tally,
            );
        }
        paired.rounds.push((r0.elapsed(), tracer.on));
        mix.renew_if_full(tally);
    }
    tracer.on = trace;
    paired
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(trace);
    let mut tally = Tally::default();
    let mut setups = SetupTimes::default();
    let (mut mix, references) = setups.time(|| setup(seed, &mut tracer, &mut tally))?;
    // The other set-ups run after each phase.
    let mut setup_again = |tracer: &mut Tracer, tally: &mut Tally| -> Result<(), String> {
        for _ in 0..SETUPS_PER_PHASE {
            drop(setups.time(|| setup(seed, tracer, tally))?);
        }
        Ok(())
    };
    let warm = mix.server.plan_stats();

    let adm0 = mix.server.admission_metrics();
    let parked0 = mix.server.arena_stats().parked;
    let count = (seconds * OPEN_SHARE * RATE_RPS).ceil() as usize;
    let open = open_loop(
        &mix,
        &requests(sub_seed(seed, 21), mix.cases.len(), count, RATE_RPS),
    );
    let open_admission = (adm0, mix.server.admission_metrics());
    let open_arena = (parked0, mix.server.arena_stats(), mix.server.global_stats());
    setup_again(&mut tracer, &mut tally)?;

    // Closed loop in slices, so a full server is replaced between them;
    // only the slices' own time counts towards capacity.
    let closed_reqs = requests(sub_seed(seed, 22), mix.cases.len(), 4096, RATE_RPS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let (mut closed, mut closed_wall) = (Vec::new(), Duration::ZERO);
    while Instant::now() < deadline {
        mix.renew_if_full(&mut tally);
        let slice_end = deadline.min(Instant::now() + CLOSED_SLICE);
        let (served, wall) = closed_loop(&mix, &closed_reqs, closed.len(), slice_end);
        closed.extend(served);
        closed_wall += wall;
    }
    let loops = Loops {
        open,
        closed,
        closed_wall,
        open_admission,
        open_arena,
    };
    setup_again(&mut tracer, &mut tally)?;
    // A fresh server, so that no tenant store holds the blocks of a failed
    // loop request, which would raise the peak of that tenant's next call.
    mix.renew(&mut tally);
    let deadline =
        Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE - CLOSED_SHARE));
    let paired = paired_phase(
        &mut mix,
        &references,
        deadline,
        trace,
        &mut tracer,
        &mut tally,
    );
    setup_again(&mut tracer, &mut tally)?;

    let now = mix.server.plan_stats();
    let names: Vec<&str> = mix.cases.iter().map(|c| c.name.as_str()).collect();
    paired.check(&names, &mut tally);
    check_no_builds(&warm, &now, &mut tally);
    mix.check_instrs(&mut tally);
    loops.check(&mix, &paired, &mut tally);
    let (arena_peak, _, rejected, _) = mix.totals();
    tally.op(rejected == 0, || format!("{rejected} requests refused"));

    let mut m = Metrics::default();
    paired.ratios(&mut m);
    m.put("peak_mib", arena_peak as f64 / (1 << 20) as f64, 1);
    setups.put(&mut m);

    if trace {
        for (i, s) in loops.open.iter().enumerate() {
            let group = REQUEST_GROUPS + i as u64;
            let span = tracer.span(None, group, "request", s.due, s.done, Vec::new());
            tracer.span(span, group, "sender_late", s.due, s.sent, Vec::new());
            let snapshot = s.stats.as_ref().map(counters).unwrap_or_default();
            let exec = tracer.span(span, group, "execute", s.sent, s.done, snapshot);
            if let Some(stats) = &s.stats {
                call_children(&mut tracer, exec, stats, s.done - s.sent, "server");
            }
        }
        let instrs = mix.cases.iter().map(|c| c.instrs[1]).sum();
        let opt = mix.cases.iter().map(|c| &c.compiled[1]);
        compile_and_call_layers(&tracer, opt, instrs, "execute", &mut m);
        paired.layers(&mut m);
        cache_layers(&warm, &now, &mut m);
        // A server's stores are private: its growth shows as parked buffers.
        m.put("exec.store.held_growth_per_call", 0.0, 0);
        m.put("exec.store.renewals", mix.retired.renewals as f64, 1);
        loops.layers(&mix, &mut m);
        crate::write_trace("serve", seed, &tracer)?;
    }
    Ok(Outcome { metrics: m, tally })
}

/// What the open- and closed-loop phases observed.
struct Loops {
    open: Vec<Served>,
    closed: Vec<Served>,
    closed_wall: Duration,
    /// Admission metrics before and after the open loop.
    open_admission: (AdmissionMetrics, AdmissionMetrics),
    /// Parked buffers before the open loop, and the arena and global
    /// stats after it (one server serves the whole open loop).
    open_arena: (usize, ArenaStats, TenantStats),
}

impl Loops {
    /// Self-checks: every request's outcome was the expected one, and
    /// every successful request was a plan cache hit that copied and
    /// elided the bytes its case's optimised calls did in the paired
    /// phase. Its peak must equal theirs too, except that a failed request
    /// leaves its blocks live in its tenant's store until that tenant's
    /// next success, whose peak they raise: so at most one request per
    /// bad request may read higher, and none lower.
    fn check(&self, mix: &Mix, paired: &Paired, tally: &mut Tally) {
        let mut differ = vec![0usize; mix.cases.len()];
        let (mut raised, mut lowered, mut bad) = (0, 0, 0);
        for s in self.open.iter().chain(&self.closed) {
            tally.op(s.ok, || s.error.clone().unwrap_or_default());
            bad += usize::from(s.req.bad);
            let (Some(stats), Some(p)) = (&s.stats, paired.cases[s.req.case].first()) else {
                continue;
            };
            let [peak, copied, elided] = repeating(stats);
            let [paired_peak, paired_copied, paired_elided] = repeating(&p.calls[1].1);
            if !stats.plan_cache_hit || (copied, elided) != (paired_copied, paired_elided) {
                differ[s.req.case] += 1;
            }
            raised += usize::from(peak > paired_peak);
            lowered += usize::from(peak < paired_peak);
        }
        for (c, d) in mix.cases.iter().zip(differ) {
            tally.op(d == 0, || {
                format!(
                    "{}: {d} loop requests missed the plan cache or differ from \
                     the paired phase in bytes copied or elided",
                    c.name
                )
            });
        }
        tally.op(raised <= bad && lowered == 0, || {
            format!(
                "loop peaks: {raised} above the paired phase's after {bad} bad \
                 requests, {lowered} below"
            )
        });
    }

    /// The `server.*` metrics.
    fn layers(&self, mix: &Mix, m: &mut Metrics) {
        let Loops {
            open,
            closed,
            closed_wall,
            open_admission: (adm0, adm1),
            open_arena: (parked0, arena, global),
        } = self;
        // Absolute times: what a client sees, but unbounded (see README).
        let lat: Vec<f64> = open.iter().map(|s| ms(s.done - s.due)).collect();
        m.put("server.latency_ms.p50", median(&lat), lat.len());
        m.put("server.latency_ms.tail", tail(&lat).1, lat.len());
        let met = open
            .iter()
            .filter(|s| s.ok && ms(s.done - s.due) <= LATENCY_LIMIT_MS)
            .count();
        m.put(
            "server.slo_share",
            met as f64 / open.len() as f64,
            open.len(),
        );
        let completed = closed.iter().filter(|s| s.ok).count();
        m.put(
            "server.capacity_rps",
            completed as f64 / closed_wall.as_secs_f64(),
            completed,
        );

        let (_, queued_total, rejected, peak_in_flight) = mix.totals();
        let queued = adm1.queued - adm0.queued;
        let wait = adm1.total_queue_wait.saturating_sub(adm0.total_queue_wait);
        let mean_wait = if queued > 0 {
            ms(wait) / queued as f64
        } else {
            0.0
        };
        m.put("server.queue_wait_ms", mean_wait, queued as usize);
        m.put("server.queued", queued_total as f64, 1);
        m.put("server.rejected", rejected as f64, 1);
        m.put("server.peak_in_flight", peak_in_flight as f64, 1);
        let overhead: Vec<f64> = open
            .iter()
            .filter_map(|s| {
                s.stats
                    .as_ref()
                    .map(|st| ms(s.done - s.due) - ms(st.total_time))
            })
            .collect();
        m.put("server.overhead_ms.p50", median(&overhead), overhead.len());
        let late: Vec<f64> = open.iter().map(|s| ms(s.sent - s.due)).collect();
        m.put("server.sender_late_ms", mean(&late), late.len());
        let bad = open.iter().filter(|s| s.req.bad && s.ok).count();
        m.put(
            "server.bad_input_errors",
            bad as f64,
            open.iter().filter(|s| s.req.bad).count(),
        );
        // The open loop's server, after the open loop.
        m.put(
            "server.arena.adopted_cross_tenant",
            arena.adopted_cross_tenant as f64,
            1,
        );
        m.put(
            "server.arena.bytes_scrubbed",
            global.stats.bytes_cross_tenant_scrubbed as f64,
            1,
        );
        m.put("server.arena.parked_end", arena.parked as f64, 1);
        let parked = arena.parked.saturating_sub(*parked0) as f64;
        m.put(
            "server.arena.parked_per_request",
            parked / open.len() as f64,
            open.len(),
        );
        m.put("server.arena.live_bytes_end", arena.live_bytes as f64, 1);
    }
}
