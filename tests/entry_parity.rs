//! One compiled program, three ways to run it, one behaviour.
//!
//! The one-shot `run_program(&c.program, &c.report, …)`, a server request
//! built with `ExecRequest::from_compiled`, and a session's
//! `prepare_full` + `run_plan` all lower every record of the compile
//! report. Over the quick dataset of every workload, at 1 and 2 workers,
//! they must agree on outputs and on the mechanism counters those
//! records drive: peak live bytes, carried releases, merged blocks and
//! maps run parallel in place.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_exec::{run_program, Mode, Session, Stats};
use arraymem_server::{ExecRequest, Server, ServerConfig};

/// The counters the report's records decide.
fn mechanism(s: &Stats) -> [u64; 4] {
    [
        s.peak_bytes_live,
        s.carried_releases,
        s.blocks_merged,
        s.maps_parallel_in_place,
    ]
}

#[test]
fn every_entry_point_lowers_the_whole_report() {
    for threads in [1usize, 2] {
        let server = Server::new(ServerConfig {
            threads,
            ..ServerConfig::default()
        });
        for benchmark in KNOWN_BENCHMARKS {
            let case = &table_cases(benchmark, true).expect("known benchmark")[0];
            let c = case.compile(true);
            let label = format!("{benchmark}/{} at {threads} threads", case.dataset);
            let (k, inputs) = (&case.kernels, &case.inputs[..]);

            let one_shot = run_program(&c.program, &c.report, inputs, k, Mode::Memory, threads)
                .unwrap_or_else(|e| panic!("{label}: run_program: {e}"));
            let req = ExecRequest::from_compiled(&c, k, &[], inputs, Mode::Memory);
            let served = server
                .execute(benchmark, req)
                .unwrap_or_else(|e| panic!("{label}: server: {e}"));
            let mut session = Session::new();
            let r = &c.report;
            let h = session
                .prepare_full(&c.program, k, &[], &r.merges, &r.par_safety)
                .unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
            let prepared = session
                .run_plan(h, inputs, k, Mode::Memory, threads)
                .unwrap_or_else(|e| panic!("{label}: run_plan: {e}"));

            for (route, (out, stats)) in [("run_program", &one_shot), ("server", &served)] {
                assert!(
                    *out == prepared.0,
                    "{label}: {route} outputs differ from prepare_full + run_plan"
                );
                assert_eq!(
                    mechanism(stats),
                    mechanism(&prepared.1),
                    "{label}: {route} counters (peak, carried, merged, parallel in place) \
                     differ from prepare_full + run_plan"
                );
            }
        }
    }
}
