//! Sharded parallel-in-run execution: conservative-lookahead cells with a
//! deterministic cross-cell merge.
//!
//! A sharded run partitions the simulated estate into `C` **cells**. Each
//! cell is an ordinary serial [`Engine`] — its own timer-wheel calendar,
//! request/job slabs and labeled RNG streams seeded from
//! [`mix_seed`]`(seed, cell)` — driving one copy of the machine with its own
//! slice of the client population. Cells advance independently inside a
//! conservative-lookahead window `W` equal to the cross-cell forwarding
//! latency `L`: a message sent at time `t` arrives no earlier than `t + L`,
//! so events inside the current window can never be invalidated by a peer.
//!
//! At each window barrier the cells' outboxes are drained and every cell's
//! inbound messages are merged in `(arrival, src_cell, seq)` order — a total
//! order, because `seq` is a per-source counter — then injected as absolute
//! timers ([`Engine::inject_timer_at`]). The merge is pure sorting over
//! value types, so the result is byte-identical regardless of how many
//! worker threads carried the cells or how their phase-A writes interleaved.
//!
//! Determinism contract: for a fixed `(seed, spec, workload)` the run is
//! byte-reproducible across reruns, worker-thread counts and
//! snapshot/resume at any barrier. The *cell count* is part of the
//! workload's identity — `C` cells draw from `C` independent RNG streams —
//! so golden hashes are recorded per shard count; `--shards 1` runs the
//! untouched serial engine and reproduces the historical goldens by
//! construction. See DESIGN.md § "Sharded execution".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use simcore::snap::{SnapError, SnapReader, SnapWriter};
use simcore::{DetHashMap, SimDuration, SimTime};

use crate::driver::{Driver, EngineCtx, Outcome, ResponseInfo};
use crate::engine::Engine;
use crate::ids::{ClientId, RequestClassId, RequestId};
use crate::metrics::RunReport;
use crate::overload::ShedReason;

/// Timer token reserved for barrier-injected cross-cell messages. Bit 61
/// alone: disjoint from per-user tokens (< 2^32), coalesced wake buckets
/// (bit 62) and the loadgen sentinel tokens (top three values of `u64`).
pub const SHARD_TOKEN: u64 = 1 << 61;

/// Client-id bit marking a request forwarded from another cell; bits 32..61
/// carry the home cell, bits 0..32 the home-local client id.
const FOREIGN_BIT: u64 = 1 << 63;

/// Synthetic [`RequestId`] namespace returned for crossed submits (the real
/// id is assigned by the destination cell's engine).
const SYNTH_REQ_BASE: u64 = 1 << 63;

/// Derives the RNG seed for `cell` from the run seed. Cell 0 keeps the run
/// seed itself, so a one-cell sharded run samples the caller's stream;
/// higher cells get splitmix-scrambled, statistically independent seeds.
pub fn mix_seed(seed: u64, cell: u32) -> u64 {
    if cell == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(cell));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the routing tuple. Routing must not consume engine RNG — a
/// crossed submit would otherwise shift every later draw in the cell — so
/// cross-cell decisions hash `(cell, client, per-cell submit ordinal)`.
fn route_hash(cell: u32, client: u64, ordinal: u64) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    for chunk in [u64::from(cell), client, ordinal] {
        for byte in chunk.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// What a cross-cell message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A request crossing to another cell: execute it there.
    Call {
        /// Home-local client id (fits in 32 bits).
        client: u64,
        /// Request class index.
        class: u32,
    },
    /// The completion of a crossed request, returning home.
    Reply {
        /// Home-local client id.
        client: u64,
        /// Request class index.
        class: u32,
        /// How the request ended at the executing cell.
        outcome: Outcome,
    },
}

/// A timestamped inter-cell message. `(arrival, src, seq)` is the merge
/// key; `seq` is a per-source counter, making the key a total order.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Simulated arrival instant at the destination cell.
    pub arrival: SimTime,
    /// Sending cell.
    pub src: u32,
    /// Destination cell.
    pub dst: u32,
    /// Per-source message ordinal.
    pub seq: u64,
    /// The message body.
    pub payload: Payload,
}

impl Msg {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.arrival, self.src, self.seq)
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Msg {}
impl PartialOrd for Msg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Msg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of cells (1 = serial semantics, still windowed).
    pub cells: u32,
    /// Probability, in permille, that a root submit is forwarded to a
    /// remote cell — the cross-shard RPC rate.
    pub cross_permille: u32,
    /// Cross-cell forwarding latency; doubles as the lookahead window.
    pub latency: SimDuration,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            cells: 1,
            cross_permille: 50,
            latency: SimDuration::from_millis(1),
        }
    }
}

/// Window-synchronization policy of a sharded run. Conservative lookahead
/// is the only sync loop; the type stays only so the benchmark harness
/// compiles unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// One barrier round per base window: the always-on lockstep loop.
    #[default]
    Conservative,
}

/// Synchronization counters of a sharded run, accumulated across
/// [`ShardedRun::run`] calls. Deterministic: a pure function of
/// (seed, spec, workload), independent of the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Barrier rounds executed (one per window).
    pub rounds: u64,
    /// Base windows covered by those rounds.
    pub windows: u64,
    /// Lockstep barrier crossings per worker (every worker crosses the
    /// same sequence, so this is sync cost, not thread count × cost).
    pub barriers: u64,
    /// Always zero; stays only so the benchmark fingerprints are unchanged.
    pub rollbacks: u64,
    /// Always zero; stays only so the benchmark fingerprints are unchanged.
    pub replayed_events: u64,
}

/// A crossed request awaiting its [`Payload::Reply`] at the home cell.
#[derive(Debug, Clone, Copy)]
struct Parked {
    class: u32,
    submitted_at: SimTime,
}

/// Per-cell shard bookkeeping, owned by the cell's [`ShardDriver`].
#[derive(Debug)]
pub struct ShardState {
    cell: u32,
    cells: u32,
    cross_permille: u32,
    latency: SimDuration,
    /// Root submits seen, crossed or not — the routing-hash ordinal.
    submit_seq: u64,
    /// Messages emitted by this cell — the `(arrival, src, seq)` seq.
    msg_seq: u64,
    /// Synthetic request ids handed to the inner driver for crossed submits.
    synth_seq: u64,
    /// Messages produced during the current window, drained at the barrier.
    outbox: Vec<Msg>,
    /// Injected messages awaiting their [`SHARD_TOKEN`] timer, min-first.
    pending: BinaryHeap<Reverse<Msg>>,
    /// Crossed requests in flight, keyed by home-local client id.
    parked: DetHashMap<u64, Parked>,
}

impl ShardState {
    fn new(cell: u32, spec: &ShardSpec) -> Self {
        ShardState {
            cell,
            cells: spec.cells,
            cross_permille: spec.cross_permille,
            latency: spec.latency,
            submit_seq: 0,
            msg_seq: 0,
            synth_seq: 0,
            outbox: Vec::new(),
            pending: BinaryHeap::new(),
            parked: DetHashMap::default(),
        }
    }
}

/// The engine surface handed to the inner driver: everything passes through
/// to the cell's engine except `submit`, which may park the request and
/// forward it as a cross-cell [`Payload::Call`] instead.
struct CellCtx<'a> {
    ctx: &'a mut dyn EngineCtx,
    st: &'a mut ShardState,
}

impl EngineCtx for CellCtx<'_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) {
        debug_assert!(
            token >> 61 != 1,
            "driver timer token {token:#x} collides with the shard-token namespace"
        );
        self.ctx.set_timer(after, token);
    }

    fn submit(&mut self, class: u32, client: u64) -> RequestId {
        let st = &mut *self.st;
        if st.cells > 1 && st.cross_permille > 0 {
            let h = route_hash(st.cell, client, st.submit_seq);
            st.submit_seq += 1;
            if h % 1000 < u64::from(st.cross_permille) {
                assert!(
                    client < 1 << 32,
                    "crossable client ids must fit in 32 bits, got {client}"
                );
                let now = self.ctx.now();
                let dst = {
                    // Spread over the other cells; a second hash round keeps
                    // the destination independent of the crossing decision.
                    let pick = (h >> 10) % u64::from(st.cells - 1);
                    let dst = pick as u32;
                    if dst >= st.cell { dst + 1 } else { dst }
                };
                let prev = st.parked.insert(
                    client,
                    Parked {
                        class,
                        submitted_at: now,
                    },
                );
                assert!(
                    prev.is_none(),
                    "client {client} already has a crossed request in flight"
                );
                st.outbox.push(Msg {
                    arrival: now + st.latency,
                    src: st.cell,
                    dst,
                    seq: st.msg_seq,
                    payload: Payload::Call { client, class },
                });
                st.msg_seq += 1;
                st.synth_seq += 1;
                return RequestId(SYNTH_REQ_BASE | (st.synth_seq - 1));
            }
        }
        self.ctx.submit(class, client)
    }

    fn rng(&mut self) -> &mut simcore::Rng {
        self.ctx.rng()
    }

    fn reset_metrics(&mut self) {
        self.ctx.reset_metrics();
    }

    fn request_stop(&mut self) {
        self.ctx.request_stop();
    }

    fn completed_requests(&self) -> u64 {
        self.ctx.completed_requests()
    }
}

/// Wraps a cell's workload driver, intercepting shard-token timers (message
/// delivery), crossed submits, and foreign-request completions.
#[derive(Debug)]
pub struct ShardDriver<D> {
    inner: D,
    st: ShardState,
}

impl<D: Driver> ShardDriver<D> {
    /// Wraps `inner` as the driver for `cell` of a [`ShardSpec`] run.
    pub fn new(inner: D, cell: u32, spec: &ShardSpec) -> Self {
        ShardDriver {
            inner,
            st: ShardState::new(cell, spec),
        }
    }

    /// The wrapped workload driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Crossed requests currently awaiting a reply from a remote cell.
    pub fn crossed_in_flight(&self) -> usize {
        self.st.parked.len()
    }

    /// Messages this cell has emitted over the whole run.
    pub fn messages_sent(&self) -> u64 {
        self.st.msg_seq
    }
}

impl<D: Driver> Driver for ShardDriver<D> {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        let ShardDriver { inner, st } = self;
        inner.start(&mut CellCtx { ctx, st });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        if token == SHARD_TOKEN {
            let Reverse(msg) = self
                .st
                .pending
                .pop()
                .expect("shard timer fired with no pending message");
            debug_assert_eq!(
                msg.arrival,
                ctx.now(),
                "pending-queue head out of step with its timer"
            );
            match msg.payload {
                Payload::Call { client, class } => {
                    // Execute the forwarded request here, tagged with its
                    // provenance so the completion is routed home.
                    let foreign = FOREIGN_BIT | (u64::from(msg.src) << 32) | client;
                    ctx.submit(class, foreign);
                }
                Payload::Reply {
                    client,
                    class,
                    outcome,
                } => {
                    let parked = self
                        .st
                        .parked
                        .remove(&client)
                        .filter(|p| p.class == class)
                        .expect("reply for a request that was never crossed");
                    let resp = ResponseInfo {
                        request: RequestId(SYNTH_REQ_BASE),
                        client: ClientId(client),
                        class: RequestClassId(class),
                        latency: ctx.now().saturating_since(parked.submitted_at),
                        outcome,
                    };
                    let ShardDriver { inner, st } = self;
                    inner.on_response(resp, &mut CellCtx { ctx, st });
                }
            }
        } else {
            let ShardDriver { inner, st } = self;
            inner.on_timer(token, &mut CellCtx { ctx, st });
        }
    }

    fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
        if resp.client.0 & FOREIGN_BIT != 0 {
            let home = ((resp.client.0 >> 32) & 0x1fff_ffff) as u32;
            let client = resp.client.0 & 0xffff_ffff;
            let st = &mut self.st;
            st.outbox.push(Msg {
                arrival: ctx.now() + st.latency,
                src: st.cell,
                dst: home,
                seq: st.msg_seq,
                payload: Payload::Reply {
                    client,
                    class: resp.class.0,
                    outcome: resp.outcome,
                },
            });
            st.msg_seq += 1;
        } else {
            let ShardDriver { inner, st } = self;
            inner.on_response(resp, &mut CellCtx { ctx, st });
        }
    }
}

/// A [`Driver`] whose run-time state can be serialized into a snapshot —
/// what a [`ShardedRun`] needs from its workload to checkpoint at a
/// barrier. Implemented by the `loadgen` generators.
pub trait SnapDriver: Driver {
    /// Serializes the driver's run-time state.
    fn driver_snap_save(&self, w: &mut SnapWriter);
    /// Restores state captured by [`SnapDriver::driver_snap_save`] into an
    /// identically configured driver.
    fn driver_snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// One cell: a serial engine plus its wrapped driver.
struct Cell<D> {
    engine: Engine,
    driver: ShardDriver<D>,
}

/// A sharded run: `C` cells advanced in lockstep lookahead windows by up to
/// `workers` OS threads, with deterministic cross-cell message merge at
/// every barrier.
pub struct ShardedRun<D> {
    cells: Vec<Cell<D>>,
    spec: ShardSpec,
    /// Next barrier instant (the exclusive end of the current window).
    window_end: SimTime,
    started: bool,
    stats: SyncStats, // simlint: allow(S1) — observability counters, not run identity
}

impl<D: Driver + Send> ShardedRun<D> {
    /// Builds a run from per-cell `(engine, driver)` pairs. The engines must
    /// be freshly constructed with seeds [`mix_seed`]`(seed, cell)`; drivers
    /// are the per-cell workload slices (e.g. `users / C` closed-loop users
    /// each).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match `spec.cells`, is zero, or
    /// exceeds the 2^16 cell-id space; or if `spec.latency` is zero (a zero
    /// lookahead window cannot make progress).
    pub fn new(cells: Vec<(Engine, D)>, spec: ShardSpec) -> Self {
        assert!(!cells.is_empty(), "a sharded run needs at least one cell");
        assert_eq!(cells.len(), spec.cells as usize, "cell count != spec.cells");
        assert!(spec.cells <= 1 << 16, "cell-id space is 16 bits");
        assert!(
            !spec.latency.is_zero(),
            "cross-cell latency is the lookahead window and must be positive"
        );
        let cells = cells
            .into_iter()
            .enumerate()
            .map(|(i, (engine, inner))| Cell {
                engine,
                driver: ShardDriver::new(inner, i as u32, &spec),
            })
            .collect();
        ShardedRun {
            cells,
            spec,
            window_end: SimTime::ZERO + spec.latency,
            started: false,
            stats: SyncStats::default(),
        }
    }

    /// Builder kept only so the benchmark harness compiles unchanged:
    /// conservative lookahead is the only policy, so this returns `self`.
    #[must_use]
    pub fn with_policy(self, _policy: WindowPolicy) -> Self {
        self
    }

    /// Synchronization counters accumulated so far.
    pub fn sync_stats(&self) -> SyncStats {
        self.stats
    }

    /// The run's configuration.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Per-cell engines, in cell order.
    pub fn engines(&self) -> impl Iterator<Item = &Engine> {
        self.cells.iter().map(|c| &c.engine)
    }

    /// Per-cell wrapped drivers, in cell order.
    pub fn drivers(&self) -> impl Iterator<Item = &ShardDriver<D>> {
        self.cells.iter().map(|c| &c.driver)
    }

    /// Latest cell clock — the run's notion of "now".
    pub fn now(&self) -> SimTime {
        self.cells
            .iter()
            .map(|c| c.engine.now())
            .max()
            .expect("non-empty")
    }

    /// Total calendar events handled across all cells.
    pub fn events_processed(&self) -> u64 {
        self.cells.iter().map(|c| c.engine.events_processed()).sum()
    }

    /// The machine-wide merged measurement report (see
    /// [`Engine::merged_report`]).
    pub fn report(&self) -> RunReport {
        let engines: Vec<&Engine> = self.cells.iter().map(|c| &c.engine).collect();
        Engine::merged_report(&engines)
    }

    /// Advances the run until `until`, every cell stops, or the whole
    /// system goes idle — whichever comes first — using up to `workers`
    /// threads, one barrier round per base window. The result is
    /// byte-identical for any `workers >= 1` (see DESIGN.md § "Sharded
    /// execution" for the argument).
    ///
    /// May be called repeatedly (the run resumes at the next window
    /// barrier), including after [`ShardedRun::snap_restore`].
    pub fn run(&mut self, until: SimTime, workers: usize) {
        let n = self.cells.len();
        let workers = workers.clamp(1, n);
        let window = self.spec.latency;
        let start_t = self.window_end;
        let started = self.started;
        let inboxes: Vec<Mutex<Vec<Msg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let idle: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let final_t = AtomicU64::new(start_t.as_nanos());
        let windows_run = AtomicU64::new(0);
        let chunk_len = n.div_ceil(workers);
        // `chunks_mut` can yield fewer chunks than `workers` when the cell
        // count doesn't divide evenly; size the barrier by actual chunks.
        let barrier = Barrier::new(n.div_ceil(chunk_len));

        std::thread::scope(|s| {
            for (wi, chunk) in self.cells.chunks_mut(chunk_len).enumerate() {
                let base = wi * chunk_len;
                let inboxes = &inboxes;
                let idle = &idle;
                let barrier = &barrier;
                let final_t = &final_t;
                let windows_run = &windows_run;
                s.spawn(move || {
                    let mut t = start_t;
                    let mut first = !started;
                    let mut windows = 0u64;
                    loop {
                        let target = t.min(until);
                        // Phase A: advance owned cells to the barrier and
                        // publish their outboxes. Only the per-destination
                        // inbox mutex is shared; cell state is worker-local.
                        for cell in chunk.iter_mut() {
                            if !cell.engine.is_stopped() {
                                if first {
                                    cell.engine.run(&mut cell.driver, target);
                                } else {
                                    cell.engine.run_resumed(&mut cell.driver, target);
                                }
                            }
                            for msg in cell.driver.st.outbox.drain(..) {
                                inboxes[msg.dst as usize]
                                    .lock()
                                    .expect("inbox lock")
                                    .push(msg);
                            }
                        }
                        first = false;
                        barrier.wait();
                        // Phase B: merge owned cells' inbound messages in
                        // (arrival, src, seq) order — a total order, so the
                        // phase-A interleaving is irrelevant — and probe for
                        // idleness. No two workers touch the same cell.
                        for (ci, cell) in chunk.iter_mut().enumerate() {
                            let mut msgs = std::mem::take(
                                &mut *inboxes[base + ci].lock().expect("inbox lock"),
                            );
                            msgs.sort_unstable();
                            for msg in msgs {
                                cell.engine.inject_timer_at(msg.arrival, SHARD_TOKEN);
                                cell.driver.st.pending.push(Reverse(msg));
                            }
                            let cell_idle = cell.engine.is_stopped()
                                || cell.engine.next_event_time().is_none();
                            idle[base + ci].store(cell_idle, Ordering::Release);
                        }
                        barrier.wait();
                        windows += 1;
                        // Every worker sees identical flags here, so the
                        // stop decision cannot depend on the worker count.
                        if target >= until
                            || idle.iter().all(|f| f.load(Ordering::Acquire))
                        {
                            if base == 0 {
                                final_t.store(t.as_nanos(), Ordering::Release);
                                windows_run.store(windows, Ordering::Release);
                            }
                            break;
                        }
                        t += window;
                    }
                });
            }
        });

        self.window_end = SimTime::from_nanos(final_t.load(Ordering::Acquire));
        self.started = true;
        let windows = windows_run.load(Ordering::Acquire);
        self.stats.rounds += windows;
        self.stats.windows += windows;
        self.stats.barriers += windows * 2;
    }
}

impl<D: SnapDriver + Send> ShardedRun<D> {
    /// Serializes the whole sharded run at a window barrier: spec
    /// fingerprint, windowing cursor, then per cell the engine snapshot,
    /// the inner driver's state and the shard bookkeeping (pending
    /// messages in `(arrival, src, seq)` order, parked requests in client
    /// order).
    ///
    /// Must be called between [`ShardedRun::run`] calls — outboxes are
    /// drained at every barrier, which the snapshot asserts.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.section("sharded-run");
        w.u32(self.spec.cells);
        w.u32(self.spec.cross_permille);
        w.u64(self.spec.latency.as_nanos());
        w.u64(self.window_end.as_nanos());
        w.bool(self.started);
        for cell in &self.cells {
            cell.engine.snap_save(w);
            cell.driver.inner.driver_snap_save(w);
            save_shard_state(&cell.driver.st, w);
        }
    }

    /// Restores a run captured by [`ShardedRun::snap_save`] into an
    /// identically constructed `ShardedRun` (same spec, same engine and
    /// driver builders).
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("sharded-run")?;
        let cells = r.u32()?;
        let cross = r.u32()?;
        let latency = SimDuration::from_nanos(r.u64()?);
        if cells != self.spec.cells
            || cross != self.spec.cross_permille
            || latency != self.spec.latency
        {
            return Err(SnapError::Corrupt(format!(
                "snapshot is of a {cells}-cell run (cross {cross}‰, window {latency}), \
                 this run has {} cells (cross {}‰, window {})",
                self.spec.cells, self.spec.cross_permille, self.spec.latency
            )));
        }
        self.window_end = SimTime::from_nanos(r.u64()?);
        self.started = r.bool()?;
        for cell in &mut self.cells {
            cell.engine.snap_restore(r)?;
            cell.driver.inner.driver_snap_restore(r)?;
            restore_shard_state(&mut cell.driver.st, r)?;
        }
        Ok(())
    }
}

/// Serializes one cell's shard bookkeeping for [`ShardedRun::snap_save`].
fn save_shard_state(st: &ShardState, w: &mut SnapWriter) {
    assert!(
        st.outbox.is_empty(),
        "snapshot must be taken at a barrier (outbox drained)"
    );
    w.section("shard-state");
    w.u64(st.submit_seq);
    w.u64(st.msg_seq);
    w.u64(st.synth_seq);
    let mut pending: Vec<Msg> = st.pending.iter().map(|r| r.0).collect();
    pending.sort_unstable();
    w.usize(pending.len());
    for msg in &pending {
        w.u64(msg.arrival.as_nanos());
        w.u32(msg.src);
        w.u32(msg.dst);
        w.u64(msg.seq);
        match msg.payload {
            Payload::Call { client, class } => {
                w.u8(0);
                w.u64(client);
                w.u32(class);
            }
            Payload::Reply {
                client,
                class,
                outcome,
            } => {
                w.u8(1);
                w.u64(client);
                w.u32(class);
                w.u8(encode_outcome(outcome));
            }
        }
    }
    let mut clients: Vec<u64> = st.parked.keys().copied().collect();
    clients.sort_unstable();
    w.usize(clients.len());
    for &client in &clients {
        let p = st.parked[&client];
        w.u64(client);
        w.u32(p.class);
        w.u64(p.submitted_at.as_nanos());
    }
}

/// Restores state written by [`save_shard_state`], clearing (but keeping
/// the capacity of) the live collections.
fn restore_shard_state(st: &mut ShardState, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    r.section("shard-state")?;
    st.submit_seq = r.u64()?;
    st.msg_seq = r.u64()?;
    st.synth_seq = r.u64()?;
    st.outbox.clear();
    st.pending.clear();
    for _ in 0..r.usize()? {
        let arrival = SimTime::from_nanos(r.u64()?);
        let src = r.u32()?;
        let dst = r.u32()?;
        let seq = r.u64()?;
        let payload = match r.u8()? {
            0 => Payload::Call {
                client: r.u64()?,
                class: r.u32()?,
            },
            1 => Payload::Reply {
                client: r.u64()?,
                class: r.u32()?,
                outcome: decode_outcome(r.u8()?)?,
            },
            k => {
                // simlint: allow(H3) — error path; a corrupt snapshot aborts the run
                return Err(SnapError::Corrupt(format!("unknown payload kind {k}")));
            }
        };
        st.pending.push(Reverse(Msg {
            arrival,
            src,
            dst,
            seq,
            payload,
        }));
    }
    st.parked.clear();
    for _ in 0..r.usize()? {
        let client = r.u64()?;
        let class = r.u32()?;
        let submitted_at = SimTime::from_nanos(r.u64()?);
        st.parked.insert(
            client,
            Parked {
                class,
                submitted_at,
            },
        );
    }
    Ok(())
}

fn encode_outcome(o: Outcome) -> u8 {
    match o {
        Outcome::Ok => 0,
        Outcome::TimedOut => 1,
        Outcome::Shed => 2,
        Outcome::ShedByPolicy(ShedReason::QueueFull) => 3,
        Outcome::ShedByPolicy(ShedReason::QueueDeadline) => 4,
        Outcome::ShedByPolicy(ShedReason::Concurrency) => 5,
        Outcome::ShedByPolicy(ShedReason::Priority) => 6,
    }
}

fn decode_outcome(v: u8) -> Result<Outcome, SnapError> {
    Ok(match v {
        0 => Outcome::Ok,
        1 => Outcome::TimedOut,
        2 => Outcome::Shed,
        3 => Outcome::ShedByPolicy(ShedReason::QueueFull),
        4 => Outcome::ShedByPolicy(ShedReason::QueueDeadline),
        5 => Outcome::ShedByPolicy(ShedReason::Concurrency),
        6 => Outcome::ShedByPolicy(ShedReason::Priority),
        // simlint: allow(H3) — error path; a corrupt snapshot aborts the run
        k => return Err(SnapError::Corrupt(format!("unknown outcome code {k}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_identity_and_spread() {
        assert_eq!(mix_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..8).map(|c| mix_seed(42, c)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "cells {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn route_hash_is_stable() {
        assert_eq!(route_hash(1, 7, 0), route_hash(1, 7, 0));
        assert_ne!(route_hash(1, 7, 0), route_hash(1, 7, 1));
        assert_ne!(route_hash(0, 7, 0), route_hash(1, 7, 0));
    }

    #[test]
    fn msg_order_is_total_on_key() {
        let m = |ns: u64, src: u32, seq: u64| Msg {
            arrival: SimTime::from_nanos(ns),
            src,
            dst: 0,
            seq,
            payload: Payload::Call { client: 0, class: 0 },
        };
        let mut v = [m(5, 1, 0), m(5, 0, 9), m(3, 2, 2), m(5, 0, 1)];
        v.sort_unstable();
        let keys: Vec<(u64, u32, u64)> =
            v.iter().map(|m| (m.arrival.as_nanos(), m.src, m.seq)).collect();
        assert_eq!(keys, vec![(3, 2, 2), (5, 0, 1), (5, 0, 9), (5, 1, 0)]);
    }

    #[test]
    fn outcome_codec_round_trips() {
        for code in 0..=6u8 {
            assert_eq!(encode_outcome(decode_outcome(code).unwrap()), code);
        }
        assert!(decode_outcome(7).is_err());
    }

    #[test]
    fn token_namespaces_are_disjoint() {
        assert_eq!(SHARD_TOKEN >> 61, 1);
        // Per-user tokens.
        assert_eq!((u64::from(u32::MAX)) >> 61, 0);
        // Coalesced wake-bucket tokens (bit 62).
        assert_eq!((1u64 << 62) >> 61, 2);
        // Loadgen sentinel tokens live in the top three values.
        assert_eq!(u64::MAX >> 61, 7);
    }
}
