//! Execution instrumentation, including the checked-mode sanitizer's
//! structured diagnostics.

use std::time::Duration;

/// One sanitizer finding from a `Mode::Checked` run. Every variant names
/// the statement involved, the cell's flat offset in its memory block,
/// and the index function(s) through which the cell was addressed —
/// enough to debug a fuzzer counterexample without a rerun.
#[derive(Clone, Debug)]
pub enum Diagnostic {
    /// A statement read a cell no statement ever wrote, in a block that
    /// was recycled without zero-filling (validates the store's zero-fill
    /// elision: the compiler promised the block is fully written first).
    UninitRead {
        /// Name bound by the reading statement.
        stm: String,
        block: usize,
        /// Flat element offset within the block.
        offset: i64,
        /// Index function of the read.
        ixfn: String,
    },
    /// A statement read a cell of a block the release plan had already
    /// returned to the free list (the plan claimed its last use passed).
    UseAfterRelease {
        stm: String,
        block: usize,
        offset: i64,
        ixfn: String,
        /// Name bound by the statement after which the block was released.
        released_after: String,
    },
    /// Two different iterations of one parallel map wrote the same cell —
    /// their write footprints were supposed to be disjoint rows.
    MapRace {
        /// Name bound by the map statement.
        stm: String,
        block: usize,
        offset: i64,
        iter_a: i64,
        iter_b: i64,
        /// Index function of the map's result.
        ixfn: String,
    },
    /// The pre-dispatch re-proof of a `par_safety`-approved map found two
    /// iterations whose concrete write footprints share a cell: the
    /// symbolic chunk-disjointness verdict was wrong (or forced). The map
    /// was executed serially instead.
    ParOverlap {
        /// Name bound by the map statement.
        stm: String,
        block: usize,
        offset: i64,
        iter_a: i64,
        iter_b: i64,
        /// Index function of the map's result.
        ixfn: String,
    },
    /// Two arrays sharing one merged memory block have concretely
    /// intersecting footprints — the merge pass's symbolic non-overlap
    /// verdict was wrong (or forced).
    MergeOverlap {
        /// The surviving block of the merge.
        host: String,
        /// The block whose tenants were moved into `host`.
        victim: String,
        /// Smallest flat offset common to both footprints.
        offset: i64,
        /// Concrete LMAD of the victim-tenant footprint.
        victim_ixfn: String,
        /// Concrete LMAD of the resident footprint it intersects.
        resident_ixfn: String,
    },
    /// A gather read or scatter write presented a runtime index outside
    /// the addressed array's extent. Checked mode records the finding and
    /// continues (the access is skipped); the unchecked evaluators abort
    /// with an error instead.
    IndexOutOfBounds {
        /// Name bound by the gather/scatter statement.
        stm: String,
        /// Position in the index array holding the offending index.
        lane: i64,
        /// The out-of-range index value that was read.
        index: i64,
        /// Number of addressable elements in the array the index targets.
        extent: i64,
    },
    /// A short-circuited construction's concrete write footprint
    /// intersects a recorded later-use footprint of the destination
    /// memory — the symbolic non-overlap verdict was wrong (or forced).
    CircuitOverlap {
        /// Root array of the short-circuited web.
        root: String,
        /// Name bound by the circuit-point statement.
        stm: String,
        /// Smallest flat offset common to both footprints.
        offset: i64,
        /// Concrete LMAD the web writes through.
        write_ixfn: String,
        /// Concrete LMAD of the conflicting destination use.
        use_ixfn: String,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnostic::UninitRead {
                stm,
                block,
                offset,
                ixfn,
            } => write!(
                f,
                "uninitialized read: {stm} read never-written cell {offset} of recycled \
                 block #{block} via {ixfn}"
            ),
            Diagnostic::UseAfterRelease {
                stm,
                block,
                offset,
                ixfn,
                released_after,
            } => write!(
                f,
                "use after release: {stm} read cell {offset} of block #{block} via {ixfn}, \
                 but the plan released the block after {released_after}"
            ),
            Diagnostic::MapRace {
                stm,
                block,
                offset,
                iter_a,
                iter_b,
                ixfn,
            } => write!(
                f,
                "map race: iterations {iter_a} and {iter_b} of {stm} both write cell \
                 {offset} of block #{block} (result index function {ixfn})"
            ),
            Diagnostic::ParOverlap {
                stm,
                block,
                offset,
                iter_a,
                iter_b,
                ixfn,
            } => write!(
                f,
                "parallel overlap: iterations {iter_a} and {iter_b} of {stm} would both write \
                 cell {offset} of block #{block} (result index function {ixfn}); the \
                 parallel-safety verdict was wrong and the map ran serially"
            ),
            Diagnostic::MergeOverlap {
                host,
                victim,
                offset,
                victim_ixfn,
                resident_ixfn,
            } => write!(
                f,
                "merge overlap: block {victim} merged into {host}, but tenant footprint \
                 {victim_ixfn} intersects resident footprint {resident_ixfn} at offset {offset}"
            ),
            Diagnostic::IndexOutOfBounds {
                stm,
                lane,
                index,
                extent,
            } => write!(
                f,
                "index out of bounds: {stm} read runtime index {index} (lane {lane}) against \
                 an extent of {extent} elements; the access was skipped"
            ),
            Diagnostic::CircuitOverlap {
                root,
                stm,
                offset,
                write_ixfn,
                use_ixfn,
            } => write!(
                f,
                "short-circuit overlap: eliding {root} at {stm} writes {write_ixfn}, which \
                 intersects destination use {use_ixfn} at offset {offset}"
            ),
        }
    }
}

/// Counters and timers collected by one program execution. The benchmark
/// tables are computed from wall time; the byte counters let tests assert
/// the *mechanism* (short-circuiting removed this many copied bytes), not
/// just the symptom.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Bytes allocated by `alloc` statements and temporaries.
    pub bytes_allocated: u64,
    pub num_allocs: u64,
    /// Allocations served from the store's free list (last-use driven
    /// recycling) instead of the heap.
    pub blocks_reused: u64,
    /// Bytes of zero-fill skipped because the block was recycled.
    pub bytes_zeroing_elided: u64,
    /// Allocations served by adopting a block from the shared
    /// cross-tenant arena (a subset of `blocks_reused`).
    pub arena_blocks_adopted: u64,
    /// Bytes zeroed on cross-tenant adoption: recycled contents never
    /// cross a tenant boundary, so the zero-fill elision is forfeited
    /// there and the scrub cost counted here instead.
    pub bytes_cross_tenant_scrubbed: u64,
    /// High-water mark of bytes simultaneously live in the store during
    /// the program body (inputs included) — the quantity block merging
    /// reduces.
    pub peak_bytes_live: u64,
    /// Memory blocks the merge pass folded into another allocation (a
    /// compile-time property of the executed plan).
    pub blocks_merged: u64,
    /// Carried releases that fired: a loop's dead ping-pong block was
    /// returned to its color's slab inside the body instead of living to
    /// the end-of-run sweep (the coloring pass's `CarriedRelease`
    /// records, guarded concretely per iteration).
    pub carried_releases: u64,
    /// Colored allocations served from their color's slab (a subset of
    /// `blocks_reused`): the previous iteration's carried release coming
    /// straight back.
    pub color_slab_hits: u64,
    /// Map statements that went through the persistent worker pool
    /// (small trip counts run inline and are not counted).
    pub pool_dispatches: u64,
    /// Kernel mapnests that executed **parallel and in place**: dispatched
    /// to the pool writing their result memory directly, under a
    /// `par_safety` proof, with no private-row buffer.
    pub maps_parallel_in_place: u64,
    /// Work-stealing chunks claimed across all pool dispatches.
    pub par_chunks: u64,
    /// Chunks claimed by a worker other than the dispatching thread.
    pub par_chunks_stolen: u64,
    /// Per-dispatch worker utilization, summed: participants that claimed
    /// at least one chunk…
    pub par_workers_engaged: u64,
    /// …out of the worker slots offered to those dispatches.
    pub par_workers_offered: u64,
    /// Checked mode: `par_safety`-approved maps whose pre-dispatch
    /// concrete enumeration confirmed chunk-wise disjoint writes.
    pub par_checks_verified: u64,
    /// Bytes moved by update/concat copies and mapnest result copies.
    pub bytes_copied: u64,
    pub num_copies: u64,
    /// Bytes whose copy was *elided* by short-circuiting.
    pub bytes_elided: u64,
    pub num_elided: u64,
    /// Kernel instances launched.
    pub kernel_launches: u64,
    /// Time spent inside kernels / lambda bodies.
    pub kernel_time: Duration,
    /// Time spent in copies the optimizer targets.
    pub copy_time: Duration,
    /// Total execution wall time of the program body.
    pub total_time: Duration,
    /// Checked mode: shadow cells marked or inspected.
    pub cells_checked: u64,
    /// Checked mode: short-circuit checks whose recorded footprints all
    /// evaluated to concrete LMADs and came out conflict-free (every
    /// write × later-use pair disjoint; vacuously so when the optimizer
    /// recorded no later uses). Counted per execution of the circuit
    /// statement's block, so loop-scoped circuits count per iteration.
    pub circuits_verified: u64,
    /// Checked mode: footprint-justified merges whose recorded pairs all
    /// evaluated concretely and came out disjoint.
    pub merges_verified: u64,
    /// Checked mode: sanitizer findings (empty on a clean run).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics dropped beyond the per-run cap.
    pub diagnostics_suppressed: u64,
    /// Whether this run's `prepare_full` was answered from the session's plan
    /// cache (the harness asserts warm runs never re-lower).
    pub plan_cache_hit: bool,
    /// Time the session spent lowering the plan for this run (zero on a
    /// cache hit).
    pub plan_build_time: Duration,
}

impl Stats {
    pub fn reset(&mut self) {
        *self = Stats::default();
    }

    /// Fold another run's figures into this accumulator — the server's
    /// per-tenant and global aggregation. Counters and durations sum;
    /// `peak_bytes_live` takes the max (runs against one store are
    /// sequential, so the peak-of-peaks is the store's true high-water
    /// mark); diagnostics append; `plan_cache_hit` ANDs (true only if
    /// *every* merged run was answered from the cache).
    ///
    /// `other` is destructured exhaustively, with no `..` rest pattern:
    /// adding a field to `Stats` without deciding how it aggregates is a
    /// compile error at this site (and in the mirror-image unit test).
    pub fn merge(&mut self, other: &Stats) {
        let Stats {
            bytes_allocated,
            num_allocs,
            blocks_reused,
            bytes_zeroing_elided,
            arena_blocks_adopted,
            bytes_cross_tenant_scrubbed,
            peak_bytes_live,
            blocks_merged,
            carried_releases,
            color_slab_hits,
            pool_dispatches,
            maps_parallel_in_place,
            par_chunks,
            par_chunks_stolen,
            par_workers_engaged,
            par_workers_offered,
            par_checks_verified,
            bytes_copied,
            num_copies,
            bytes_elided,
            num_elided,
            kernel_launches,
            kernel_time,
            copy_time,
            total_time,
            cells_checked,
            circuits_verified,
            merges_verified,
            diagnostics,
            diagnostics_suppressed,
            plan_cache_hit,
            plan_build_time,
        } = other;
        self.bytes_allocated += bytes_allocated;
        self.num_allocs += num_allocs;
        self.blocks_reused += blocks_reused;
        self.bytes_zeroing_elided += bytes_zeroing_elided;
        self.arena_blocks_adopted += arena_blocks_adopted;
        self.bytes_cross_tenant_scrubbed += bytes_cross_tenant_scrubbed;
        self.peak_bytes_live = self.peak_bytes_live.max(*peak_bytes_live);
        self.blocks_merged += blocks_merged;
        self.carried_releases += carried_releases;
        self.color_slab_hits += color_slab_hits;
        self.pool_dispatches += pool_dispatches;
        self.maps_parallel_in_place += maps_parallel_in_place;
        self.par_chunks += par_chunks;
        self.par_chunks_stolen += par_chunks_stolen;
        self.par_workers_engaged += par_workers_engaged;
        self.par_workers_offered += par_workers_offered;
        self.par_checks_verified += par_checks_verified;
        self.bytes_copied += bytes_copied;
        self.num_copies += num_copies;
        self.bytes_elided += bytes_elided;
        self.num_elided += num_elided;
        self.kernel_launches += kernel_launches;
        self.kernel_time += *kernel_time;
        self.copy_time += *copy_time;
        self.total_time += *total_time;
        self.cells_checked += cells_checked;
        self.circuits_verified += circuits_verified;
        self.merges_verified += merges_verified;
        self.diagnostics.extend(diagnostics.iter().cloned());
        self.diagnostics_suppressed += diagnostics_suppressed;
        self.plan_cache_hit = self.plan_cache_hit && *plan_cache_hit;
        self.plan_build_time += *plan_build_time;
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "alloc: {} B in {} blocks | copied: {} B in {} copies | elided: {} B in {} copies",
            self.bytes_allocated,
            self.num_allocs,
            self.bytes_copied,
            self.num_copies,
            self.bytes_elided,
            self.num_elided
        )?;
        writeln!(
            f,
            "reused: {} blocks | zeroing elided: {} B | pool dispatches: {}",
            self.blocks_reused, self.bytes_zeroing_elided, self.pool_dispatches
        )?;
        if self.arena_blocks_adopted > 0 {
            writeln!(
                f,
                "arena adopted: {} blocks | cross-tenant scrubbed: {} B",
                self.arena_blocks_adopted, self.bytes_cross_tenant_scrubbed
            )?;
        }
        writeln!(
            f,
            "peak live: {} B | merged blocks: {}",
            self.peak_bytes_live, self.blocks_merged
        )?;
        if self.carried_releases > 0 {
            writeln!(
                f,
                "carried releases: {} | color slab hits: {}",
                self.carried_releases, self.color_slab_hits
            )?;
        }
        writeln!(
            f,
            "parallel in-place maps: {} | chunks: {} ({} stolen) | workers engaged/offered: {}/{}",
            self.maps_parallel_in_place,
            self.par_chunks,
            self.par_chunks_stolen,
            self.par_workers_engaged,
            self.par_workers_offered
        )?;
        write!(
            f,
            "kernel: {:?} ({} launches) | copy: {:?} | total: {:?}",
            self.kernel_time, self.kernel_launches, self.copy_time, self.total_time
        )?;
        if self.cells_checked > 0 || !self.diagnostics.is_empty() {
            write!(
                f,
                "\nchecked: {} cells | {} circuit checks verified | {} parallel maps verified \
                 | {} diagnostics",
                self.cells_checked,
                self.circuits_verified,
                self.par_checks_verified,
                self.diagnostics.len() as u64 + self.diagnostics_suppressed
            )?;
            for d in &self.diagnostics {
                write!(f, "\n  {d}")?;
            }
        }
        Ok(())
    }
}
