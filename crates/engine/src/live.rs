//! A real multi-threaded runtime executing the same [`Topology`] the
//! simulator models: one OS thread per operator instance, bounded
//! crossbeam channels between them, and the online reconfiguration
//! protocol of paper §3.4 running over actual message passing.
//!
//! The simulator (`sim.rs`) answers *performance* questions with a
//! controlled cost model; this runtime answers *functional* ones — it
//! executes user operators for real, under real thread interleavings,
//! with real backpressure. The reconfiguration wave (SEND_RECONF →
//! ACK → PROPAGATE → MIGRATE with tuple buffering) is the same
//! algorithm, here exercised against genuine concurrency instead of
//! deterministic windows: every instance, source or operator, applies
//! the per-instance rules of `wave.rs` and only adds the channel I/O
//! ([`WorkerCtx::on_wave`]), and the wave driver
//! ([`LiveRuntime::reconfigure_with_deadline`]) does the same around
//! the coordinator of `wave.rs`. "Servers" are placement tags: transfers
//! between instances with different tags are counted as remote, so
//! locality statistics remain meaningful even though everything runs
//! in one process.
//!
//! Termination is by end-of-stream tokens: an exhausted (or stopped)
//! source sends `Eos` to every successor instance; an operator
//! forwards `Eos` once it has received one from every predecessor
//! instance and holds no tuple buffered for in-flight state — so
//! [`LiveRuntime::join`] returns exactly when the pipeline has fully
//! drained.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::checkpoint::ClusterCheckpoint;
use crate::fault::{ControlClass, ControlFate, FaultInjector, FaultPlan};
use crate::key::Key;
use crate::obs::{Counter, MetricsRegistry, SpanRecorder, SpanSampler};
use crate::operator::{OpContext, Operator, StateValue};
use crate::reconfig::{ReconfigError, WaveConfig};
use crate::router::{push_dest_run, DestRun, HashRouter, KeyRouter};
use crate::sim::{PairObserver, Placement};
use crate::topology::{EdgeId, Grouping, PoId, PoKind, SourceRate, Topology, TupleSource};
use crate::tuple::{tuple_run_len, Tuple};
use crate::wave::{split_plan, Addressing, Admit, Heard, WaveCoordinator, WaveInstance, WaveMsg};

/// Milliseconds per window of [`WaveConfig`] deadlines and injected
/// [`ControlFate::Delay`]s in the live runtime.
const WINDOW_MS: u64 = 100;

/// `n` windows of wall-clock time.
fn windows(n: u64) -> Duration {
    Duration::from_millis(n.saturating_mul(WINDOW_MS))
}

/// Keys and their moved state carried by one ⑥ `Migrate` message.
type MigratedKeys = Vec<(Key, Option<StateValue>)>;

/// Messages on an instance's inbox. Data and control share one FIFO
/// channel per receiver (like a TCP connection in Storm), so per-
/// sender ordering guarantees hold for `Eos`.
enum Msg {
    /// One data tuple: the wire form of a send when batching is off
    /// (`batch_size <= 1`). Processed exactly like a 1-tuple `Batch`.
    Data(Tuple),
    /// A run of data tuples coalesced by the sender (one channel
    /// message instead of `len()`); the receiver processes them in
    /// order, so FIFO semantics are identical to `len()` `Data`s.
    Batch(Vec<Tuple>),
    /// ③, ⑤ or a forced apply, handled alike at sources and operators
    /// by [`WorkerCtx::on_wave`].
    Wave(WaveMsg),
    /// ⑥ Migrated state for the keys this instance now owns, bundled
    /// per sender: one message per destination per wave, in the order
    /// the sender's plan lists the keys.
    Migrate(MigratedKeys),
    /// End of stream from one predecessor instance.
    Eos,
    /// Snapshot request: reply with a clone of the keyed state.
    StateProbe(Sender<HashMap<Key, StateValue>>),
    /// Fault injection: the instance "crashes" — keyed state, queued
    /// messages and any staged wave configuration are lost — then
    /// respawns with the carried checkpoint state.
    Crash {
        restore: HashMap<Key, StateValue>,
    },
}

/// Worker → coordinator notifications: how far an instance, named by
/// its global index, got. ④ `Acked` after staging, `Applied` after
/// forwarding the wave, `Exited` once its `Eos` tokens are out.
type CoordMsg = (usize, Heard);

/// Per-edge transfer counters shared with the caller.
#[derive(Debug, Default)]
struct EdgeCounters {
    local: AtomicU64,
    remote: AtomicU64,
}

/// An instrumentation registration for the live runtime:
/// `(operator, instance, out edge, observed field, observer)`.
pub type LiveObserver = (PoId, usize, EdgeId, usize, Box<dyn PairObserver>);

/// The per-edge observer slots a worker holds.
type ObserverSlots = HashMap<usize, Vec<(usize, Box<dyn PairObserver>)>>;

/// A reconfiguration for the live runtime, in instance coordinates.
pub struct LiveReconfig {
    /// `(sender po, out edge, new router)` — installed on every
    /// instance of the sender operator.
    pub routers: Vec<(PoId, EdgeId, Arc<dyn KeyRouter>)>,
    /// `(operator, key, old instance, new instance)` state transfers.
    pub migrations: Vec<(PoId, Key, usize, usize)>,
}

impl std::fmt::Debug for LiveReconfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveReconfig")
            .field("router_updates", &self.routers.len())
            .field("migrations", &self.migrations.len())
            .finish()
    }
}

/// Final report of one operator instance after shutdown.
#[derive(Debug)]
pub struct InstanceReport {
    /// The operator this instance belonged to.
    pub po: PoId,
    /// Instance index within the operator.
    pub instance: usize,
    /// Keyed state at shutdown (empty for sources and stateless).
    pub state: HashMap<Key, StateValue>,
    /// Tuples processed (for sources: tuples emitted).
    pub processed: u64,
}

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Bounded capacity of each instance inbox (backpressure).
    pub channel_capacity: usize,
    /// Data-plane batching: tuples per destination are coalesced into
    /// `Msg::Batch` sends of up to this many tuples. Buffers are
    /// flushed when full, whenever the worker would otherwise block on
    /// an empty inbox, whenever a source has routed a staged batch (or
    /// made a few generator calls since) and the buffer's receiver is
    /// parked on an empty inbox (send buffers are work-conserving: no
    /// tuple waits for a batch to fill while its receiver idles), and
    /// on every control-plane boundary
    /// (staging a `Reconf`, forwarding `Propagate`, answering a
    /// `StateProbe`, sending `Eos`) so per-sender FIFO ordering
    /// relative to control messages is preserved. `0` or `1` disables
    /// batching: each tuple travels as its own `Msg::Data`. That only
    /// changes the wire form; receivers process every message through
    /// the same columnar path.
    pub batch_size: usize,
    /// Observability registry. When set, the runtime registers its
    /// hot-path counters (tuples routed/remote, migrations, migration
    /// bytes, batch sends/flushes) there; workers feed them with
    /// relaxed atomic increments.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Span tracing: a deterministic per-key sampler selecting the
    /// tuples whose per-hop latency is measured. Sources stamp sampled
    /// tuples with a monotonic origin time; every hop records queue
    /// wait and processing time into `span_*` histograms of
    /// [`metrics`](Self::metrics) (see
    /// [`SpanMetricName`](crate::SpanMetricName)), split by local vs.
    /// remote hop and tagged with the active routing epoch. `None`
    /// (the default) disables tracing: the hot path pays one
    /// never-taken branch per tuple.
    pub span_sampler: Option<SpanSampler>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 8_192,
            batch_size: 64,
            metrics: None,
            span_sampler: None,
        }
    }
}

/// Hot-path instruments shared by every worker. Detached (unexported)
/// counters when no registry is attached, so increments never branch.
struct LiveHot {
    tuples_routed: Counter,
    tuples_remote: Counter,
    migrations_sent: Counter,
    migration_bytes: Counter,
    batch_sends: Counter,
    batch_tuples: Counter,
    batch_control_flushes: Counter,
    batch_drops: Counter,
    batch_dropped_tuples: Counter,
    late_forwarded: Counter,
}

impl LiveHot {
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        let counter = |name: &str, help: &str| {
            registry.map_or_else(Counter::detached, |reg| reg.counter(name, help))
        };
        Self {
            tuples_routed: counter(
                "live_tuples_routed_total",
                "tuples sent on all edges by the live runtime",
            ),
            tuples_remote: counter(
                "live_tuples_remote_total",
                "live tuples that crossed a server boundary",
            ),
            migrations_sent: counter(
                "live_migrations_total",
                "key states shipped by live reconfiguration waves",
            ),
            migration_bytes: counter(
                "live_migration_bytes_total",
                "bytes of key state shipped by live waves",
            ),
            batch_sends: counter(
                "live_batch_sends_total",
                "coalesced Batch messages sent on the live data plane",
            ),
            batch_tuples: counter(
                "live_batch_tuples_total",
                "tuples carried inside live Batch messages",
            ),
            batch_control_flushes: counter(
                "live_batch_control_flushes_total",
                "send-buffer flushes forced by control-plane boundaries",
            ),
            batch_drops: counter(
                "live_batch_drops_total",
                "Batch messages lost mid-flight to fault injection",
            ),
            batch_dropped_tuples: counter(
                "live_batch_dropped_tuples_total",
                "tuples lost inside fault-dropped Batch messages",
            ),
            late_forwarded: counter(
                "live_late_forwarded_total",
                "stragglers forwarded from old to new key owners",
            ),
        }
    }
}

/// Static routing description of one out edge (shared by the
/// instances of its sender operator).
struct OutInfo {
    edge: usize,
    dest_po: usize,
    field: Option<usize>,
    local_or_shuffle: bool,
    router: Arc<dyn KeyRouter>,
}

/// Everything workers share.
struct WorkerShared {
    inboxes: Vec<Sender<Msg>>,
    server: Vec<usize>,
    edges: Vec<EdgeCounters>,
    stop: AtomicBool,
    coord: Sender<CoordMsg>,
    outs: Vec<Vec<OutInfo>>,
    addr: Addressing,
    /// Fault injector consulted for every control message: ③/⑤ by the
    /// wave driver, ⑥ by the sending worker.
    fault: Mutex<Option<FaultInjector>>,
    /// `true` when the installed fault plan schedules data-plane batch
    /// drops. Gates the injector lock out of the batch send path: the
    /// hot path pays one relaxed load, never a mutex, unless batch
    /// faults are actually armed.
    batch_faults: AtomicBool,
    /// One flag per instance, raised while the instance is blocked on
    /// an empty inbox (after its idle flush) and lowered when it
    /// wakes. Sources read them to hand partial batches to receivers
    /// that have nothing else to do (the channel has no `len()`).
    parked: Vec<AtomicBool>,
    /// Data-plane batch size (≤ 1 disables batching).
    batch_size: usize,
    /// Hot-path observability counters (see [`LiveHot`]).
    hot: LiveHot,
    /// Span sampler (see [`LiveConfig::span_sampler`]); `None` keeps
    /// every span branch on the hot path never-taken.
    sampler: Option<SpanSampler>,
    /// Registry span histograms are registered in (each worker owns a
    /// [`SpanRecorder`]; idempotent registration shares the buckets).
    span_metrics: Option<Arc<MetricsRegistry>>,
    /// The runtime's monotonic clock epoch: all span timestamps are
    /// nanoseconds since this instant, so they are comparable across
    /// worker threads.
    clock: Instant,
    /// Routing epoch, bumped when a reconfiguration wave completes.
    /// Workers read it (relaxed) when recording span observations, so
    /// latency histograms are split before/after each wave.
    epoch: AtomicU64,
}

impl WorkerShared {
    /// What the injector (if armed) decides about one control message.
    fn control_fate(&self, class: ControlClass) -> ControlFate {
        (self.fault.lock().as_mut()).map_or(ControlFate::Deliver, |inj| inj.on_control(class))
    }
}

/// Nanoseconds since the runtime clock's epoch.
fn span_now_ns(clock: &Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// Sends one coalesced batch, consulting the armed fault injector
/// first: a dropped batch is lost on the wire with every tuple in it
/// (at-most-once), accounted by the `live_batch_drop*` counters.
fn send_batch(shared: &WorkerShared, dest_idx: usize, batch: Vec<Tuple>) {
    shared.hot.batch_sends.inc();
    shared.hot.batch_tuples.add(batch.len() as u64);
    if shared.batch_faults.load(Ordering::Relaxed) {
        let dropped = shared
            .fault
            .lock()
            .as_mut()
            .is_some_and(|inj| inj.on_batch_send());
        if dropped {
            shared.hot.batch_drops.inc();
            shared.hot.batch_dropped_tuples.add(batch.len() as u64);
            return;
        }
    }
    let _ = shared.inboxes[dest_idx].send(Msg::Batch(batch));
}

/// Per-worker context: routing, and this instance's side of the wave.
struct WorkerCtx {
    po_idx: usize,
    my_idx: usize,
    /// The wave rules (Algorithm 1) for this instance.
    wave: WaveInstance<Tuple>,
    rr: usize,
    overrides: HashMap<usize, Arc<dyn KeyRouter>>,
    /// Per out edge: the destination instances on this worker's server
    /// when the edge is local-or-shuffle (empty otherwise, or when no
    /// destination instance is local). Placement is fixed for the
    /// runtime's life, so the list is computed once.
    locals: Vec<Vec<usize>>,
    /// Per-destination send buffers (indexed by global instance), the
    /// data-plane batching of `LiveConfig::batch_size`. Edge counters
    /// and observers fire at route time with bulk adds, so locality
    /// statistics do not depend on the batch size.
    out_buf: Vec<Vec<Tuple>>,
    batch: usize,
    /// Scratch column of routing keys extracted from a staged batch.
    key_buf: Vec<Key>,
    /// Scratch `(dest, len)` runs produced by `route_batch`.
    run_buf: Vec<DestRun>,
}

impl WorkerCtx {
    fn new(po_idx: usize, instance: usize, shared: &WorkerShared) -> Self {
        let my_idx = shared.addr.instances(po_idx).start + instance;
        let locals = shared.outs[po_idx]
            .iter()
            .map(|out| {
                let dests = shared.addr.instances(out.dest_po);
                (0..dests.len())
                    .filter(|&i| {
                        out.local_or_shuffle
                            && shared.server[dests.start + i] == shared.server[my_idx]
                    })
                    .collect()
            })
            .collect();
        Self {
            po_idx,
            my_idx,
            wave: WaveInstance::new(shared.addr.preds[po_idx]),
            rr: instance,
            overrides: HashMap::new(),
            locals,
            out_buf: vec![Vec::new(); shared.inboxes.len()],
            batch: shared.batch_size,
            key_buf: Vec::new(),
            run_buf: Vec::new(),
        }
    }

    /// Flushes every non-empty send buffer. `control` marks flushes
    /// forced by a control-plane boundary (counted separately); those
    /// must happen *before* the control message is sent so per-sender
    /// FIFO ordering — data routed under the old configuration arrives
    /// ahead of `Propagate`/`Eos` — is preserved.
    fn flush_outputs(&mut self, shared: &WorkerShared, control: bool) {
        if self.batch <= 1 {
            return;
        }
        let mut flushed = false;
        for dest_idx in 0..self.out_buf.len() {
            if self.out_buf[dest_idx].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.out_buf[dest_idx]);
            send_batch(shared, dest_idx, batch);
            flushed = true;
        }
        if control && flushed {
            shared.hot.batch_control_flushes.inc();
        }
    }

    /// Sends every non-empty buffer whose receiver is parked on an
    /// empty inbox: holding those tuples for a fuller batch only adds
    /// latency, since the receiver has no backlog to amortize the send
    /// against. A busy receiver's buffer keeps filling to `batch_size`.
    fn flush_parked(&mut self, shared: &WorkerShared) {
        for dest_idx in 0..self.out_buf.len() {
            if !self.out_buf[dest_idx].is_empty() && shared.parked[dest_idx].load(Ordering::Relaxed)
            {
                let batch = std::mem::take(&mut self.out_buf[dest_idx]);
                send_batch(shared, dest_idx, batch);
            }
        }
    }

    /// Drops buffered tuples (crash semantics: unsent output dies with
    /// the instance, at-most-once).
    fn discard_outputs(&mut self) {
        for buf in &mut self.out_buf {
            buf.clear();
        }
    }

    /// ③ and ⑤ at any instance, source or operator: the channel I/O
    /// around [`WaveInstance`]. An apply flushes data routed under the
    /// old tables, swaps the tables, ships ⑥ out of `state`, forwards ⑤
    /// and tells the coordinator; a ⑤ that applies nothing is ignored.
    fn on_wave(
        &mut self,
        shared: &WorkerShared,
        state: &mut HashMap<Key, StateValue>,
        msg: WaveMsg,
    ) {
        let applied = match msg {
            WaveMsg::Reconf(staged) => {
                self.flush_outputs(shared, true);
                self.wave.stage(staged);
                let _ = shared.coord.send((self.my_idx, Heard::Acked));
                return;
            }
            WaveMsg::Propagate => self.wave.propagate(false),
            WaveMsg::ForceApply => self.wave.propagate(true),
        };
        let Some(staged) = applied else {
            return;
        };
        // Tuples routed under the old tables stay ahead of the ⑤ this
        // apply forwards, in every channel (per-sender FIFO).
        self.flush_outputs(shared, true);
        for (edge, router) in staged.routers {
            self.overrides.insert(edge.index(), router);
        }
        // ⑥ bundled per destination: one message per peer, so a wave
        // never needs more free inbox slots at a peer than it has
        // destinations. The injector still decides per key, in plan
        // order.
        let mut bundles: Vec<(usize, MigratedKeys)> = Vec::new();
        for (key, dest) in staged.send {
            let moved = state.remove(&key);
            let fate = shared.control_fate(ControlClass::Migrate);
            // A dropped ⑥ loses the moved state (at-most-once); the new
            // owner adopts the key with fresh state when it drains.
            if matches!(fate, ControlFate::Drop) {
                continue;
            }
            shared.hot.migrations_sent.inc();
            shared
                .hot
                .migration_bytes
                .add(moved.as_ref().map_or(0, StateValue::size_bytes));
            match bundles.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, keys)) => keys.push((key, moved)),
                None => bundles.push((dest, vec![(key, moved)])),
            }
        }
        for (dest, keys) in bundles {
            let _ = shared.inboxes[dest].send(Msg::Migrate(keys));
        }
        for &succ in &shared.addr.successors[self.po_idx] {
            let _ = shared.inboxes[succ].send(Msg::Wave(WaveMsg::Propagate));
        }
        let _ = shared.coord.send((self.my_idx, Heard::Applied));
    }

    /// Shuts the instance down and reports. The final partial batches
    /// precede the `Eos` tokens in every successor's channel
    /// (per-sender FIFO).
    fn finish(
        mut self,
        shared: &WorkerShared,
        state: HashMap<Key, StateValue>,
        processed: u64,
    ) -> InstanceReport {
        self.flush_outputs(shared, true);
        for &succ in &shared.addr.successors[self.po_idx] {
            let _ = shared.inboxes[succ].send(Msg::Eos);
        }
        let _ = shared.coord.send((self.my_idx, Heard::Exited));
        InstanceReport {
            po: PoId(self.po_idx),
            instance: self.my_idx - shared.addr.instances(self.po_idx).start,
            state,
            processed,
        }
    }

    /// Routes a batch of tuples on every out edge, one edge after
    /// another. A fields-grouped edge extracts its key column once and
    /// routes it whole ([`KeyRouter::route_batch`] — one route per run
    /// of equal keys); a shuffle or local-or-shuffle edge assigns
    /// round-robin over the column. Edge and hot counters get one
    /// relaxed add per edge per batch instead of one contended RMW per
    /// tuple.
    ///
    /// Each tuple reaches the instance that routing it alone would
    /// pick: the round-robin counter is strided over the shuffle
    /// edges, so tuple `i` draws on each of them the value it would
    /// draw if every edge were routed per tuple. Only the order of
    /// sends *across* edges differs, which no receiver can observe
    /// unless two edges connect the same pair of operators.
    fn route_out_batch(&mut self, shared: &WorkerShared, tuples: &mut [Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let outs = &shared.outs[self.po_idx];
        let my_server = shared.server[self.my_idx];
        // One clock read per batch covers every span hop stamp in it;
        // sampler off ⇒ the whole block is skipped.
        let hop_now = shared.sampler.as_ref().map(|_| span_now_ns(&shared.clock));
        let rr_base = self.rr;
        let rr_stride = outs.iter().filter(|o| o.field.is_none()).count();
        let mut rr_edge = 0;
        let mut runs = std::mem::take(&mut self.run_buf);
        for (out, locals) in outs.iter().zip(&self.locals) {
            let dests = shared.addr.instances(out.dest_po);
            let dest_parallelism = dests.len();
            runs.clear();
            match out.field {
                Some(field) => {
                    self.key_buf.clear();
                    self.key_buf.extend(tuples.iter().map(|t| t.key(field)));
                    self.overrides
                        .get(&out.edge)
                        .unwrap_or(&out.router)
                        .route_batch(&self.key_buf, dest_parallelism, &mut runs);
                }
                None => {
                    rr_edge += 1;
                    for i in 0..tuples.len() {
                        let rr = rr_base.wrapping_add(i * rr_stride + rr_edge);
                        let dest = if locals.is_empty() {
                            rr % dest_parallelism
                        } else {
                            locals[rr % locals.len()]
                        };
                        push_dest_run(&mut runs, 0, dest as u32, 1);
                    }
                }
            }

            let (mut local, mut remote) = (0u64, 0u64);
            let mut offset = 0usize;
            for run in &runs {
                let len = run.len as usize;
                let dest_idx = dests.start + run.dest as usize;
                let remote_hop = shared.server[dest_idx] != my_server;
                if remote_hop {
                    remote += u64::from(run.len);
                } else {
                    local += u64::from(run.len);
                }
                if let Some(now) = hop_now {
                    // One predictable branch per tuple: at 1/64 sampling
                    // the stamp is almost never taken, and the plain pass
                    // beats re-detecting key runs just to share it. The
                    // stamp is per edge: it is copied into this edge's
                    // buffers below, before the next edge restamps.
                    for t in &mut tuples[offset..offset + len] {
                        if t.is_span_sampled() {
                            t.set_span_hop(now, remote_hop);
                        }
                    }
                }
                let mut rest = &tuples[offset..offset + len];
                offset += len;
                if self.batch <= 1 {
                    for &tuple in rest {
                        let _ = shared.inboxes[dest_idx].send(Msg::Data(tuple));
                    }
                    continue;
                }
                // Append the run in chunks sized to the remaining buffer
                // room, so batch boundaries land exactly where per-tuple
                // pushes would put them.
                while !rest.is_empty() {
                    let buf = &mut self.out_buf[dest_idx];
                    let take = rest.len().min(self.batch - buf.len());
                    buf.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if buf.len() >= self.batch {
                        let batch = std::mem::replace(buf, Vec::with_capacity(self.batch));
                        send_batch(shared, dest_idx, batch);
                    }
                }
            }
            // One deferred add per counter per edge — the contended
            // atomics are the dominant per-tuple cost this removes.
            let counters = &shared.edges[out.edge];
            if local > 0 {
                counters.local.fetch_add(local, Ordering::Relaxed);
            }
            if remote > 0 {
                counters.remote.fetch_add(remote, Ordering::Relaxed);
                shared.hot.tuples_remote.add(remote);
            }
        }
        self.run_buf = runs;
        self.rr = rr_base.wrapping_add(tuples.len() * rr_stride);
        shared
            .hot
            .tuples_routed
            .add((tuples.len() * outs.len()) as u64);
    }
}

/// A running multi-threaded deployment of a [`Topology`].
///
/// # Example
///
/// ```
/// use streamloc_engine::{
///     CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement,
///     SourceRate, Topology, Tuple,
/// };
///
/// let mut builder = Topology::builder();
/// let s = builder.source("S", 2, SourceRate::Saturate, |i| {
///     let mut left = 1000u32;
///     let mut c = i as u64;
///     Box::new(move || {
///         if left == 0 {
///             return None;
///         }
///         left -= 1;
///         c += 1;
///         Some(Tuple::new([Key::new(c % 8)], 0))
///     })
/// });
/// let a = builder.stateful("A", 2, CountOperator::factory());
/// builder.connect(s, a, Grouping::fields(0));
/// let topology = builder.build()?;
///
/// let placement = Placement::aligned(&topology, 2);
/// let runtime = LiveRuntime::start(topology, placement, 2, LiveConfig::default());
/// let reports = runtime.join();
/// let counted: u64 = reports
///     .iter()
///     .flat_map(|r| r.state.values())
///     .filter_map(|v| v.as_count())
///     .sum();
/// assert_eq!(counted, 2000);
/// # Ok::<(), streamloc_engine::BuildTopologyError>(())
/// ```
pub struct LiveRuntime {
    shared: Arc<WorkerShared>,
    handles: Vec<JoinHandle<InstanceReport>>,
    coord_rx: Receiver<CoordMsg>,
    last_checkpoint: Option<ClusterCheckpoint>,
    checkpoint_seq: u64,
}

impl std::fmt::Debug for LiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRuntime")
            .field("instances", &self.instances())
            .finish_non_exhaustive()
    }
}

impl LiveRuntime {
    /// Deploys `topology` on `servers` placement tags and starts every
    /// instance thread.
    ///
    /// # Panics
    ///
    /// Panics if the placement references servers outside
    /// `0..servers`.
    #[must_use]
    pub fn start(
        topology: Topology,
        placement: Placement,
        servers: usize,
        config: LiveConfig,
    ) -> Self {
        Self::start_with_observers(topology, placement, servers, config, Vec::new())
    }

    /// Like [`start`](Self::start), additionally installing pair
    /// observers: `(operator, instance, out edge, observed field,
    /// observer)` — the §3.2 instrumentation for live deployments.
    /// The observed field is normally the routed field of the edge;
    /// see [`Simulation::add_pair_observer`] for the
    /// through-stateless case.
    ///
    /// [`Simulation::add_pair_observer`]: crate::Simulation::add_pair_observer
    ///
    /// # Panics
    ///
    /// Panics if the placement references servers outside
    /// `0..servers`.
    #[must_use]
    pub fn start_with_observers(
        topology: Topology,
        placement: Placement,
        servers: usize,
        config: LiveConfig,
        observers: Vec<LiveObserver>,
    ) -> Self {
        assert!(servers > 0, "at least one server tag");
        let n_pos = topology.operator_count();
        let addr = Addressing::new(&topology);
        let n_instances = addr.total();

        let (inboxes, receivers): (Vec<_>, Vec<Receiver<Msg>>) = (0..n_instances)
            .map(|_| bounded(config.channel_capacity))
            .unzip();
        let mut server = Vec::with_capacity(n_instances);
        for po_idx in 0..n_pos {
            for i in 0..addr.instances(po_idx).len() {
                let tag = placement.server(PoId(po_idx), i).0;
                assert!(tag < servers, "placement server out of range");
                server.push(tag);
            }
        }
        // Bounded: per wave attempt a worker sends at most one Ack and
        // one Applied, plus one lifetime Exited; with the default retry
        // budget this capacity is never reached, so workers never block
        // on coordinator notifications.
        let (coord_tx, coord_rx) = bounded(8 * n_instances + 16);

        let mut outs: Vec<Vec<OutInfo>> = Vec::with_capacity(n_pos);
        for po_idx in 0..n_pos {
            outs.push(
                topology
                    .out_edges(PoId(po_idx))
                    .iter()
                    .map(|&eid| {
                        let e = topology.edge(eid);
                        let (field, router, los): (Option<usize>, Arc<dyn KeyRouter>, bool) =
                            match e.grouping() {
                                Grouping::Fields { field, router } => {
                                    (Some(*field), Arc::clone(router), false)
                                }
                                Grouping::LocalOrShuffle => (None, Arc::new(HashRouter), true),
                                Grouping::Shuffle => (None, Arc::new(HashRouter), false),
                            };
                        OutInfo {
                            edge: eid.index(),
                            dest_po: e.to().index(),
                            field,
                            local_or_shuffle: los,
                            router,
                        }
                    })
                    .collect(),
            );
        }
        let state_fields: Vec<Option<usize>> = (0..n_pos)
            .map(|po_idx| topology.state_field(PoId(po_idx)))
            .collect();
        let shared = Arc::new(WorkerShared {
            inboxes,
            server,
            edges: (0..topology.edges().len())
                .map(|_| EdgeCounters::default())
                .collect(),
            stop: AtomicBool::new(false),
            coord: coord_tx,
            outs,
            addr,
            fault: Mutex::new(None),
            batch_faults: AtomicBool::new(false),
            parked: (0..n_instances).map(|_| AtomicBool::new(false)).collect(),
            batch_size: config.batch_size,
            hot: LiveHot::new(config.metrics.as_deref()),
            sampler: config.span_sampler,
            span_metrics: config.metrics.clone(),
            clock: Instant::now(),
            epoch: AtomicU64::new(0),
        });

        type ObserverEntry = (EdgeId, usize, Box<dyn PairObserver>);
        let mut observer_map: HashMap<(usize, usize), Vec<ObserverEntry>> = HashMap::new();
        for (po, instance, edge, field, obs) in observers {
            observer_map
                .entry((po.index(), instance))
                .or_default()
                .push((edge, field, obs));
        }

        let Topology { pos, .. } = topology;
        let mut handles = Vec::with_capacity(n_instances);
        // Receivers are in global index order, as the loop visits them.
        let mut receivers = receivers.into_iter();
        for (po_idx, po) in pos.into_iter().enumerate() {
            for instance in 0..po.parallelism {
                let ctx = WorkerCtx::new(po_idx, instance, &shared);
                let shared = Arc::clone(&shared);
                let rx = receivers.next().expect("one receiver per instance");
                match &po.kind {
                    PoKind::Source { factory, rate } => {
                        let gen = factory(instance);
                        let rate = *rate;
                        handles.push(std::thread::spawn(move || {
                            source_loop(ctx, gen, rate, shared, rx)
                        }));
                    }
                    PoKind::Operator { factory, stateful } => {
                        let op = factory(instance);
                        let stateful = *stateful;
                        let state_field = state_fields[po_idx];
                        let obs = observer_map.remove(&(po_idx, instance)).unwrap_or_default();
                        handles.push(std::thread::spawn(move || {
                            operator_loop(ctx, op, stateful, state_field, obs, shared, rx)
                        }));
                    }
                }
            }
        }

        Self {
            shared,
            handles,
            coord_rx,
            last_checkpoint: None,
            checkpoint_seq: 0,
        }
    }

    /// Number of instance threads.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.shared.addr.total()
    }

    /// Locality of `edge` so far: local transfers / all transfers
    /// (1.0 when idle).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is unknown.
    #[must_use]
    pub fn edge_locality(&self, edge: EdgeId) -> f64 {
        let counters = &self.shared.edges[edge.index()];
        let local = counters.local.load(Ordering::Relaxed);
        let remote = counters.remote.load(Ordering::Relaxed);
        if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        }
    }

    /// Snapshot of one instance's keyed state (blocks briefly).
    #[must_use]
    pub fn probe_state(&self, po: PoId, instance: usize) -> Option<HashMap<Key, StateValue>> {
        self.probe(self.shared.addr.instances(po.index()).start + instance)
    }

    /// Snapshot of instance `idx`'s keyed state (blocks briefly).
    fn probe(&self, idx: usize) -> Option<HashMap<Key, StateValue>> {
        let (tx, rx) = bounded(1);
        if self.shared.inboxes[idx].send(Msg::StateProbe(tx)).is_err() {
            return None;
        }
        rx.recv().ok()
    }

    /// Runs the online reconfiguration protocol (③–⑥ of Algorithm 1)
    /// and blocks until every instance has applied its new routing
    /// tables. Data keeps flowing throughout; tuples for keys whose
    /// state is still in flight are buffered at their new owner.
    ///
    /// Equivalent to [`reconfigure_with_deadline`] with the default
    /// [`WaveConfig`].
    ///
    /// [`reconfigure_with_deadline`]: Self::reconfigure_with_deadline
    ///
    /// # Panics
    ///
    /// Panics if the wave fails — e.g. the pipeline drains (sources
    /// exhaust and instances shut down) while the wave is still
    /// propagating, or the deadline and every retry are exhausted.
    pub fn reconfigure(&self, plan: LiveReconfig) {
        if let Err(e) = self.reconfigure_with_deadline(plan, WaveConfig::default()) {
            panic!("live reconfiguration failed: {e}");
        }
    }

    /// Sends one ③ or ⑤ through the injector (if armed): a dropped
    /// message is recovered by the next attempt, a delayed one waits in
    /// `timers` for its configured number of windows. A failed send
    /// marks the instance as exited, so the wave never waits on it.
    fn send_control(
        &self,
        coord: &mut WaveCoordinator,
        timers: &mut Vec<(Instant, usize, Msg)>,
        class: ControlClass,
        idx: usize,
        msg: Msg,
    ) {
        match self.shared.control_fate(class) {
            ControlFate::Deliver => {
                if self.shared.inboxes[idx].send(msg).is_err() {
                    coord.hear(idx, Heard::Exited);
                }
            }
            ControlFate::Drop => {}
            ControlFate::Delay(d) => timers.push((Instant::now() + windows(d.max(1)), idx, msg)),
        }
    }

    /// Runs the reconfiguration wave under a deadline with bounded
    /// retries. The wave coordinator of `wave.rs`, shared with the
    /// simulator, decides every step; this method does the channel I/O
    /// and keeps time, one window being 100 ms:
    ///
    /// * Each attempt sends ③ `SEND_RECONF` to every instance not yet
    ///   applied and collects the acks. A lost ③ makes the attempt miss
    ///   its deadline, and the retry sends it again.
    /// * Then ⑤ `PROPAGATE` goes to the roots, the paper's progressive
    ///   wave, unless some instance already applied or exited: that
    ///   one never sends its ⑤ again, so every straggler is
    ///   force-applied and forwards the wave downstream.
    /// * An instance that exits (or whose inbox is gone) counts as
    ///   done: its `Eos` tokens are out and it holds no state to move.
    ///
    /// Attempt `k` may take `max(2, deadline_windows × backoff^k)`
    /// windows. A [`ControlFate::Delay`] of `d` windows holds the
    /// message in a timer queue for `d × 100 ms` while acks keep being
    /// collected. The live runtime never rolls a wave back.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::Timeout`] when every attempt missed its
    /// deadline; [`ReconfigError::Nack`] when the wave completed with
    /// some participants exited, so not as sent.
    pub fn reconfigure_with_deadline(
        &self,
        plan: LiveReconfig,
        wave: WaveConfig,
    ) -> Result<(), ReconfigError> {
        let addr = &self.shared.addr;
        // Split the plan per instance once, so retries can resend it.
        let staged = split_plan(
            addr.total(),
            plan.routers.iter().flat_map(|(po, edge, router)| {
                (addr.instances(po.index())).map(move |idx| (idx, *edge, Arc::clone(router)))
            }),
            plan.migrations.iter().map(|&(po, key, old, new)| {
                let base = addr.instances(po.index()).start;
                (base + old, key, base + new)
            }),
        );

        let started = Instant::now();
        let mut coord = WaveCoordinator::new(addr.total(), &addr.roots, wave, 0);
        // Discard coordinator leftovers of earlier waves; exits are
        // permanent and kept.
        while let Ok((idx, news)) = self.coord_rx.try_recv() {
            if news == Heard::Exited {
                coord.hear(idx, news);
            }
        }

        // Delay-injected control messages wait here with their real
        // due time instead of blocking the coordinator; they are
        // delivered from the ④/⑥ collection loops as they come due.
        let mut timers: Vec<(Instant, usize, Msg)> = Vec::new();
        loop {
            let deadline = started + windows(coord.deadline());
            for idx in coord.to_stage().into_iter().rev() {
                let msg = Msg::Wave(WaveMsg::Reconf(staged[idx].clone()));
                self.send_control(&mut coord, &mut timers, ControlClass::SendReconf, idx, msg);
            }
            if self.collect(&mut coord, &mut timers, deadline, Heard::Acked) {
                // ⑤ goes through the injector; a forced apply is the
                // recovery from lost ones, so it is sent directly.
                let (step, targets) = coord.release();
                for idx in targets {
                    let msg = Msg::Wave(step.clone());
                    if matches!(step, WaveMsg::Propagate) {
                        let class = ControlClass::Propagate;
                        self.send_control(&mut coord, &mut timers, class, idx, msg);
                    } else if self.shared.inboxes[idx].send(msg).is_err() {
                        coord.hear(idx, Heard::Exited);
                    }
                }
                if self.collect(&mut coord, &mut timers, deadline, Heard::Applied) {
                    break;
                }
            }
            let now = started.elapsed().as_millis() as u64 / WINDOW_MS;
            if !coord.retry(now) {
                return Err(coord.failure());
            }
        }
        // Bump the routing epoch: span observations recorded from here
        // on ran under the new tables. Use the epoch the manager
        // stamped on its tables when available (keeps live and manager
        // numbering aligned), but never go backwards.
        let stamped = plan
            .routers
            .iter()
            .filter_map(|(_, _, r)| r.epoch())
            .max()
            .unwrap_or(0);
        let next = (self.shared.epoch.load(Ordering::Relaxed) + 1).max(stamped);
        self.shared.epoch.store(next, Ordering::Relaxed);
        coord.outcome().expect("every instance applied or exited")
    }

    /// Collects worker notifications into `coord` until every instance
    /// got as far as `goal` or `deadline` passes, delivering queued
    /// delay-injected control messages as they come due. Returns
    /// whether the goal was met.
    fn collect(
        &self,
        coord: &mut WaveCoordinator,
        timers: &mut Vec<(Instant, usize, Msg)>,
        deadline: Instant,
        goal: Heard,
    ) -> bool {
        while coord.pending(goal) > 0 {
            // Deliver the delayed messages that came due, except to
            // instances that finished the wave (stale); a failed send
            // marks the target as exited.
            let now = Instant::now();
            let (due, waiting) = std::mem::take(timers).into_iter().partition(|t| t.0 <= now);
            *timers = waiting;
            for (_, idx, msg) in due {
                let stale = coord.heard(idx) >= Heard::Applied;
                if !stale && self.shared.inboxes[idx].send(msg).is_err() {
                    coord.hear(idx, Heard::Exited);
                }
            }
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            // Wake for the earliest queued delayed message, if sooner.
            let wait = (timers.iter().map(|t| t.0).min())
                .map_or(left, |due| due.saturating_duration_since(now).min(left));
            match self.coord_rx.recv_timeout(wait) {
                Ok((idx, news)) => coord.hear(idx, news),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        coord.pending(goal) == 0
    }

    /// Arms fault injection: [`DropControl`] / [`DelayControl`] events
    /// fire against the control messages of subsequent waves (③/⑤ at
    /// the wave driver, ⑥ at the sending worker). `CrashPoi` and
    /// `KillManager` events are simulator-driven; crash live instances
    /// explicitly with [`crash_instance`](Self::crash_instance).
    ///
    /// [`DropControl`]: crate::FaultEvent::DropControl
    /// [`DelayControl`]: crate::FaultEvent::DelayControl
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        // Arm the batch-send hook before the injector is visible, so a
        // concurrent sender that sees the gate up always finds the
        // injector installed.
        self.shared
            .batch_faults
            .store(plan.has_batch_faults(), Ordering::Relaxed);
        *self.shared.fault.lock() = Some(FaultInjector::new(plan));
    }

    /// Snapshots every instance's keyed state into a
    /// [`ClusterCheckpoint`] and keeps it as the respawn point for
    /// [`crash_instance`](Self::crash_instance). Blocks briefly (one
    /// state probe per instance). Routing tables are not captured: a
    /// respawned live instance re-fetches the *current* tables from
    /// the manager, not the checkpoint's.
    pub fn checkpoint_now(&mut self) -> ClusterCheckpoint {
        let n = self.instances();
        let states = (0..n)
            .map(|idx| self.probe(idx).unwrap_or_default())
            .collect();
        self.checkpoint_seq += 1;
        let cp = ClusterCheckpoint {
            window_index: self.checkpoint_seq,
            states,
            routers: vec![Vec::new(); n],
        };
        self.last_checkpoint = Some(cp.clone());
        cp
    }

    /// The snapshot [`crash_instance`](Self::crash_instance) respawns
    /// from, if [`checkpoint_now`](Self::checkpoint_now) was called.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&ClusterCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Crashes one instance: its keyed state, queued inbox messages
    /// and any staged wave configuration are lost, then it respawns
    /// from the last [`checkpoint_now`](Self::checkpoint_now) snapshot
    /// (empty state if none was taken). Crashed sources stay down — a
    /// restarted generator would replay its stream. At-most-once:
    /// state updates since the checkpoint and queued tuples are gone.
    pub fn crash_instance(&self, po: PoId, instance: usize) {
        let idx = self.shared.addr.instances(po.index()).start + instance;
        let restore = self
            .last_checkpoint
            .as_ref()
            .and_then(|cp| cp.states.get(idx).cloned())
            .unwrap_or_default();
        let _ = self.shared.inboxes[idx].send(Msg::Crash { restore });
    }

    /// Asks saturating sources to stop; finite sources stop on their
    /// own when exhausted.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the pipeline to drain (all `Eos` tokens delivered)
    /// and returns every instance's final report, sorted by
    /// `(operator, instance)`. Infinite sources must be stopped with
    /// [`stop`](Self::stop) first.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn join(self) -> Vec<InstanceReport> {
        let mut reports: Vec<InstanceReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        reports.sort_by_key(|r| (r.po.index(), r.instance));
        reports
    }
}

/// Generator calls between a source's checks for parked receivers
/// while it stages a batch (see [`WorkerCtx::flush_parked`]).
const PARKED_CHECK: usize = 8;

fn source_loop(
    mut ctx: WorkerCtx,
    mut gen: Box<dyn TupleSource>,
    rate: SourceRate,
    shared: Arc<WorkerShared>,
    rx: Receiver<Msg>,
) -> InstanceReport {
    let mut emitted = 0u64;
    let mut stage: Vec<Tuple> = Vec::with_capacity(64);
    // A source holds no keyed state for a wave to ship.
    let mut no_state = HashMap::new();
    let mut exhausted = false;
    let mut down = false;
    let batch_sleep = match rate {
        SourceRate::Saturate => None,
        SourceRate::PerSecond(r) => Some(std::time::Duration::from_secs_f64(
            64.0 / r.max(1.0),
        )),
    };
    loop {
        // Participate in the control plane between batches, and once
        // more when the stream ends (common race: a wave started just
        // as the stream ran dry).
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Wave(msg) => ctx.on_wave(&shared, &mut no_state, msg),
                Msg::StateProbe(reply) => {
                    ctx.flush_outputs(&shared, true);
                    let _ = reply.send(HashMap::new());
                }
                // A crashed source stays down: restarting the
                // generator would replay its whole stream.
                Msg::Crash { .. } => {
                    ctx.discard_outputs();
                    down = true;
                }
                Msg::Data(_) | Msg::Batch(_) | Msg::Migrate(_) | Msg::Eos => {}
            }
        }
        if exhausted || down || shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // Stage up to one batch of generated tuples, then route them
        // as a column: the batch-first data plane begins at the source.
        stage.clear();
        for i in 0..64 {
            // A generator may block between tuples (a paced stream), and
            // a receiver that was busy when the last batch was routed
            // has likely parked since: hand it what is held for it now,
            // not a whole stage later.
            if i > 0 && i % PARKED_CHECK == 0 {
                ctx.flush_parked(&shared);
            }
            match gen.next_tuple() {
                Some(tuple) => stage.push(tuple),
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        emitted += stage.len() as u64;
        // Span origin: sampled tuples get their birth timestamp here,
        // once, before entering the data plane. Sampling is decided on
        // the field the (first) fields-grouped out edge routes on.
        if let Some(sampler) = &shared.sampler {
            if let Some(field) = shared.outs[ctx.po_idx].iter().find_map(|o| o.field) {
                sampler.stamp_batch(&mut stage, field, span_now_ns(&shared.clock));
            }
        }
        ctx.route_out_batch(&shared, &mut stage);
        // A source never blocks on its inbox — its generator blocks
        // instead — so the idle trigger never fires here; without this
        // a partial buffer would wait for `batch_size` more tuples.
        ctx.flush_parked(&shared);
        if exhausted {
            continue;
        }
        if let Some(d) = batch_sleep {
            // A rate-limited source is about to idle: hand off what it
            // has so downstream latency stays bounded by the rate, not
            // by the batch size.
            ctx.flush_outputs(&shared, false);
            std::thread::sleep(d);
        }
    }
    ctx.finish(&shared, no_state, emitted)
}

/// Span recording at one operator instance (see
/// [`LiveConfig::span_sampler`]).
struct HopSpans {
    /// This worker's recorder; idempotent registry registration shares
    /// the histograms across workers.
    rec: SpanRecorder,
    /// Sinks also record the end-to-end latency of each sampled tuple.
    is_sink: bool,
    /// Scratch `(hop_send_ns, remote, origin_ns)` stamps collected from
    /// a batch before processing (dispatch consumes the batch).
    sampled: Vec<(u64, bool, u64)>,
}

/// An operator instance's data path: the operator, its keyed state,
/// and the worker context whose wave rules (Algorithm 1) decide which
/// key runs reach the operator.
struct DataPath {
    op: Box<dyn Operator>,
    stateful: bool,
    state_field: Option<usize>,
    state: HashMap<Key, StateValue>,
    /// Tuples handed to the operator so far.
    processed: u64,
    observers: ObserverSlots,
    emitted: Vec<Tuple>,
    ctx: WorkerCtx,
    /// `None` when the sampler is off: the hot path pays one
    /// never-taken branch per message.
    spans: Option<HopSpans>,
}

impl DataPath {
    /// Handles one data message: processes its tuples and records the
    /// span hops of the sampled ones. Queue wait is per sender stamp;
    /// processing time is an equal share of the batch's dispatch, since
    /// columnar processing has no per-tuple boundary to time. Tuples
    /// buffered or forwarded by a migration are recorded on arrival
    /// too.
    fn receive(&mut self, shared: &WorkerShared, tuples: &[Tuple]) {
        let arrive = self.spans.as_mut().and_then(|spans| {
            spans.sampled.clear();
            for t in tuples {
                if let Some((sent, remote)) = t.span_hop() {
                    spans.sampled.push((sent, remote, t.span_origin_ns()));
                }
            }
            (!spans.sampled.is_empty()).then(|| span_now_ns(&shared.clock))
        });
        self.process_batch(shared, tuples);
        if let (Some(spans), Some(arrive)) = (self.spans.as_mut(), arrive) {
            let po_idx = self.ctx.po_idx;
            let done = span_now_ns(&shared.clock);
            let per_tuple = done.saturating_sub(arrive) / tuples.len() as u64;
            let epoch = shared.epoch.load(Ordering::Relaxed);
            for &(sent, remote, origin) in &spans.sampled {
                spans.rec.record_hop(
                    po_idx,
                    epoch,
                    remote,
                    arrive.saturating_sub(sent),
                    per_tuple,
                );
                if spans.is_sink {
                    spans
                        .rec
                        .record_end(po_idx, epoch, done.saturating_sub(origin));
                }
            }
        }
    }

    /// The data path, the only way a tuple reaches the operator. Walks
    /// the batch in runs of equal state keys. A run whose key awaits
    /// migrated state is buffered, a run whose key's state left is
    /// forwarded to its new owner, and every other run costs one state
    /// lookup and one [`Operator::on_batch`] dispatch. Observers see
    /// coalesced runs, and the emitted tuples are routed once per
    /// batch.
    fn process_batch(&mut self, shared: &WorkerShared, tuples: &[Tuple]) {
        self.emitted.clear();
        let Some(field) = self.state_field else {
            // No routed input field: no per-key state, no migrations,
            // no observers. One dispatch covers the whole batch.
            let mut op_ctx = OpContext {
                state: None,
                routing_key: None,
                emitted: &mut self.emitted,
            };
            self.op.on_batch(tuples, &mut op_ctx);
            self.processed += tuples.len() as u64;
            self.ctx.route_out_batch(shared, &mut self.emitted);
            return;
        };
        // Outside a wave no key is buffered or forwarded, and none
        // starts or stops being so while a batch is processed: one
        // check per batch spares every run the two lookups.
        let quiet = self.ctx.wave.is_quiet();
        // Output accumulates across runs and is routed once per batch:
        // routing is order-preserving and appends per destination, so
        // deferring it to the batch boundary leaves every buffer and
        // send boundary exactly where per-run routing would put them —
        // while paying the routing setup (key column, run detection,
        // counter adds) once per batch instead of once per run.
        let mut rest = tuples;
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(tuple_run_len(rest, field));
            rest = tail;
            let key = run[0].key(field);
            if !quiet {
                match self.ctx.wave.admit(key, run) {
                    Admit::Process => {}
                    Admit::Buffer { .. } => continue,
                    Admit::Forward(owner) => {
                        shared.hot.late_forwarded.add(run.len() as u64);
                        let msg = match run {
                            [tuple] => Msg::Data(*tuple),
                            _ => Msg::Batch(run.to_vec()),
                        };
                        let _ = shared.inboxes[owner].send(msg);
                        continue;
                    }
                }
            }
            self.processed += run.len() as u64;
            let run_start = self.emitted.len();
            {
                let state_slot = if self.stateful {
                    Some(
                        self.state
                            .entry(key)
                            .or_insert_with(|| self.op.init_state()),
                    )
                } else {
                    None
                };
                let mut op_ctx = OpContext {
                    state: state_slot,
                    routing_key: Some(key),
                    emitted: &mut self.emitted,
                };
                self.op.on_batch(run, &mut op_ctx);
            }
            // Derived output inherits the input's span origin, so a
            // span follows the tuple's lineage across transforming
            // operators. One branch per key run: sampling is per key,
            // so the run head decides for the whole run's output.
            if run[0].is_span_sampled() {
                let origin = run[0].span_origin_ns();
                for t in &mut self.emitted[run_start..] {
                    t.set_span_origin(origin);
                }
            }
            if !self.observers.is_empty() {
                for out in &shared.outs[self.ctx.po_idx] {
                    let Some(slots) = self.observers.get_mut(&out.edge) else {
                        continue;
                    };
                    for (obs_field, obs) in slots {
                        // Emitted tuples within a run may still vary
                        // in the observed field; coalesce the emitted
                        // runs too so each costs one observe.
                        let mut out_rest = &self.emitted[run_start..];
                        while !out_rest.is_empty() {
                            let out_len = tuple_run_len(out_rest, *obs_field);
                            obs.observe_run(key, out_rest[0].key(*obs_field), out_len as u64);
                            out_rest = &out_rest[out_len..];
                        }
                    }
                }
            }
        }
        self.ctx.route_out_batch(shared, &mut self.emitted);
    }
}

fn operator_loop(
    ctx: WorkerCtx,
    op: Box<dyn Operator>,
    stateful: bool,
    state_field: Option<usize>,
    observers: Vec<(EdgeId, usize, Box<dyn PairObserver>)>,
    shared: Arc<WorkerShared>,
    rx: Receiver<Msg>,
) -> InstanceReport {
    let (my_idx, preds) = (ctx.my_idx, shared.addr.preds[ctx.po_idx]);
    let mut slots: ObserverSlots = HashMap::new();
    for (e, f, o) in observers {
        slots.entry(e.index()).or_default().push((f, o));
    }
    let mut dp = DataPath {
        op,
        stateful,
        state_field,
        state: HashMap::new(),
        processed: 0,
        observers: slots,
        emitted: Vec::new(),
        spans: shared.sampler.map(|_| HopSpans {
            rec: SpanRecorder::new(shared.span_metrics.clone()),
            is_sink: shared.outs[ctx.po_idx].is_empty(),
            sampled: Vec::new(),
        }),
        ctx,
    };
    let mut eos_seen = 0usize;

    // Once every predecessor `Eos` is in but keys are still buffered
    // awaiting a `Migrate`, the loop switches to a bounded-patience
    // drain: if the state transfer was lost (fault injection, crashed
    // sender), the orphaned keys are adopted after the grace period
    // instead of hanging `join()` forever.
    let mut draining = false;
    loop {
        // Drain the inbox opportunistically; only once it runs dry are
        // the send buffers flushed and the thread allowed to block —
        // so batches fill under load but never sit on an idle worker.
        let msg = match rx.try_recv() {
            Ok(m) => m,
            Err(crossbeam::channel::TryRecvError::Disconnected) => break,
            Err(crossbeam::channel::TryRecvError::Empty) => {
                dp.ctx.flush_outputs(&shared, false);
                let parked = &shared.parked[my_idx];
                parked.store(true, Ordering::Relaxed);
                let woke = if draining {
                    rx.recv_timeout(Duration::from_millis(500)).ok()
                } else {
                    rx.recv().ok()
                };
                parked.store(false, Ordering::Relaxed);
                match woke {
                    Some(m) => m,
                    None => break,
                }
            }
        };
        match msg {
            Msg::Data(tuple) => dp.receive(&shared, std::slice::from_ref(&tuple)),
            Msg::Batch(tuples) => dp.receive(&shared, &tuples),
            Msg::Wave(msg) => dp.ctx.on_wave(&shared, &mut dp.state, msg),
            Msg::Migrate(moves) => {
                for (key, moved) in moves {
                    if let Some(moved) = moved {
                        dp.state.insert(key, moved);
                    }
                    if let Some(buffered) = dp.ctx.wave.release(key) {
                        dp.process_batch(&shared, &buffered);
                    }
                }
            }
            Msg::Eos => eos_seen += 1,
            Msg::StateProbe(reply) => {
                // Checkpoint boundary: buffered output is handed off
                // before the state snapshot is taken.
                dp.ctx.flush_outputs(&shared, true);
                let _ = reply.send(dp.state.clone());
            }
            Msg::Crash { restore } => {
                // Everything volatile is lost; respawn from the
                // checkpoint the coordinator carried over.
                dp.ctx.discard_outputs();
                dp.ctx.wave.reset();
                dp.state = restore;
                // Queued messages die with the instance — except the
                // stream-lifecycle `Eos` tokens (a respawned instance
                // still knows its predecessors finished) and state
                // probes, which must always be answered.
                while let Ok(m) = rx.try_recv() {
                    match m {
                        Msg::Eos => eos_seen += 1,
                        Msg::StateProbe(reply) => {
                            let _ = reply.send(dp.state.clone());
                        }
                        _ => {}
                    }
                }
            }
        }
        if eos_seen >= preds {
            if !dp.ctx.wave.holds_tuples() {
                break;
            }
            draining = true;
        }
    }
    // Adopt keys still buffered for a `Migrate` that never came (lost
    // transfer): their state starts fresh — at-most-once — but no
    // tuple is silently discarded.
    for (_, buffered) in dp.ctx.wave.take_orphans() {
        dp.process_batch(&shared, &buffered);
    }
    dp.ctx.finish(&shared, dp.state, dp.processed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountOperator, IdentityOperator};
    use crate::router::{ModuloRouter, ShiftedRouter};
    use crate::topology::Topology;
    use std::collections::HashSet;

    /// The keys source `i` of an `n`-source [`chain`] emits, in order:
    /// `total / n` steps of an additive walk, modulo `keys`.
    fn chain_keys(i: usize, n: usize, keys: u64, total: u64) -> impl Iterator<Item = u64> {
        let mut c = i as u64;
        (0..total / n as u64).map(move |_| {
            c = c.wrapping_add(0x9e37_79b9);
            c % keys
        })
    }

    /// `n` sources emitting [`chain_keys`] as `(k, k)` tuples at
    /// `rate`, then `A` (counts, fields 0) → `B` (fields 1).
    fn chain_with(
        n: usize,
        keys: u64,
        total: u64,
        rate: SourceRate,
        b_op: crate::operator::OperatorFactory,
    ) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, rate, move |i| {
            let mut stream = chain_keys(i, n, keys, total);
            Box::new(move || {
                stream
                    .next()
                    .map(|k| Tuple::new([Key::new(k), Key::new(k)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, b_op);
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    /// A saturating [`chain_with`] counting at both hops.
    fn chain(n: usize, keys: u64, total: u64) -> Topology {
        chain_with(
            n,
            keys,
            total,
            SourceRate::Saturate,
            CountOperator::factory(),
        )
    }

    fn counts_of(reports: &[InstanceReport], po: PoId) -> HashMap<Key, u64> {
        let mut out = HashMap::new();
        for r in reports.iter().filter(|r| r.po == po) {
            for (&k, v) in &r.state {
                *out.entry(k).or_insert(0) += v.as_count().unwrap();
            }
        }
        out
    }

    /// [`chain`] with sources rate-limited to 50k tuples/s each, so
    /// the stream comfortably outlives a reconfiguration wave.
    fn paced_chain(n: usize, keys: u64, total: u64) -> Topology {
        let rate = SourceRate::PerSecond(50_000.0);
        chain_with(n, keys, total, rate, CountOperator::factory())
    }

    /// Swaps hop A→B of a [`chain`] to modulo routing with the matching
    /// migrations: the new owner of key k is instance k % n, the old
    /// one is by hash.
    fn hash_to_modulo(n: usize, keys: u64) -> LiveReconfig {
        let migrations: Vec<(PoId, Key, usize, usize)> = (0..keys)
            .map(|k| {
                let key = Key::new(k);
                let old = HashRouter.route(key, n) as usize;
                let new = (k % n as u64) as usize;
                (PoId(2), key, old, new)
            })
            .filter(|&(_, _, old, new)| old != new)
            .collect();
        assert!(!migrations.is_empty());
        LiveReconfig {
            routers: vec![(PoId(1), EdgeId(1), Arc::new(ModuloRouter))],
            migrations,
        }
    }

    /// Polls `cond` every millisecond for up to `limit`.
    fn wait_for(limit: Duration, cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !cond() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn finite_pipeline_drains_and_counts_everything() {
        let total = 30_000u64;
        let topo = chain(3, 12, total);
        let placement = Placement::aligned(&topo, 3);
        let rt = LiveRuntime::start(topo, placement, 3, LiveConfig::default());
        let reports = rt.join();
        let a_counts = counts_of(&reports, PoId(1));
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(a_counts.values().sum::<u64>(), total);
        assert_eq!(b_counts.values().sum::<u64>(), total);
        // Keys identical across the two hops (same key used twice).
        assert_eq!(a_counts, b_counts);
    }

    #[test]
    fn stop_halts_infinite_sources() {
        let mut b = Topology::builder();
        let s = b.source("S", 2, SourceRate::Saturate, |i| {
            let mut c = i as u64;
            Box::new(move || {
                c += 1;
                Some(Tuple::new([Key::new(c % 5)], 0))
            })
        });
        let a = b.stateful("A", 2, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(topo, placement, 2, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        rt.stop();
        let reports = rt.join();
        let emitted: u64 = reports
            .iter()
            .filter(|r| r.po == PoId(0))
            .map(|r| r.processed)
            .sum();
        let counted: u64 = counts_of(&reports, PoId(1)).values().sum();
        assert!(emitted > 0);
        assert_eq!(emitted, counted, "every emitted tuple counted");
    }

    #[test]
    fn unique_key_ownership() {
        let topo = chain(4, 32, 20_000);
        let placement = Placement::aligned(&topo, 4);
        let rt = LiveRuntime::start(topo, placement, 4, LiveConfig::default());
        let reports = rt.join();
        let mut seen = std::collections::HashSet::new();
        for r in reports.iter().filter(|r| r.po == PoId(2)) {
            for &k in r.state.keys() {
                assert!(seen.insert(k), "key {k} owned twice");
            }
        }
    }

    #[test]
    fn live_reconfiguration_conserves_counts() {
        let n = 3;
        let keys = 9u64;
        let total = 60_000u64;
        let topo = paced_chain(n, keys, total);
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.reconfigure(hash_to_modulo(n, keys));

        let reports = rt.join();
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(
            b_counts.values().sum::<u64>(),
            total,
            "no tuple lost or double counted across live migration"
        );
        // Ownership matches the new table.
        for r in reports.iter().filter(|r| r.po == PoId(2)) {
            for &k in r.state.keys() {
                assert_eq!(
                    r.instance,
                    (k.value() % n as u64) as usize,
                    "key {k} at wrong owner after live migration"
                );
            }
        }
    }

    #[test]
    fn span_sampling_records_hop_histograms_split_by_epoch() {
        use crate::obs::{SpanMetricName, SpanPhase};

        let n = 3;
        let keys = 9u64;
        let total = 40_000u64;
        let topo = paced_chain(n, keys, total);
        let placement = Placement::aligned(&topo, n);
        let registry = Arc::new(MetricsRegistry::new());
        let rt = LiveRuntime::start(
            topo,
            placement,
            n,
            LiveConfig {
                metrics: Some(Arc::clone(&registry)),
                span_sampler: Some(SpanSampler::new(7, 2)),
                ..LiveConfig::default()
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        rt.reconfigure(hash_to_modulo(n, keys));
        let reports = rt.join();

        // Sampling must not perturb the data plane.
        let b_counts = counts_of(&reports, PoId(2));
        let expected = (total / n as u64) * n as u64;
        assert_eq!(b_counts.values().sum::<u64>(), expected);

        let span_names: Vec<SpanMetricName> = registry
            .histograms()
            .iter()
            .filter(|(_, snap)| snap.total > 0)
            .filter_map(|(name, _)| SpanMetricName::parse(name))
            .collect();
        assert!(!span_names.is_empty(), "sampled run must populate span histograms");
        for phase in [SpanPhase::Queue, SpanPhase::Proc, SpanPhase::EndToEnd] {
            assert!(
                span_names.iter().any(|nm| nm.phase == phase),
                "phase {phase:?} missing"
            );
        }
        // End-to-end latency lands only at the sink operator.
        assert!(span_names
            .iter()
            .filter(|nm| nm.phase == SpanPhase::EndToEnd)
            .all(|nm| nm.po == 2));
        // The wave completion bumps the routing epoch: observations
        // recorded before and after it land in distinct histograms.
        let mut epochs: Vec<u64> = span_names.iter().map(|nm| nm.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        assert!(
            epochs.len() >= 2,
            "epoch tagging must split pre/post-wave observations, got {epochs:?}"
        );
    }

    #[test]
    fn locality_counters_track_placement() {
        // Everything on one server tag: all transfers are local.
        let topo = chain(3, 6, 5_000);
        let placement = Placement::aligned(&topo, 1);
        let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let one_server_locality = rt.edge_locality(EdgeId(1));
        let _ = rt.join();
        assert_eq!(one_server_locality, 1.0);

        // Aligned modulo routing on 3 servers: (k, k) tuples stay put
        // on the A→B hop.
        let mut b = Topology::builder();
        let s = b.source("S", 3, SourceRate::Saturate, |i| {
            let mut left = 5_000u32;
            let key = Key::new(i as u64);
            Box::new(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some(Tuple::new([key, key], 0))
            })
        });
        let a = b.stateful("A", 3, CountOperator::factory());
        let bb = b.stateful("B", 3, CountOperator::factory());
        b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        let hop = b.connect(a, bb, Grouping::fields_with(1, Arc::new(ModuloRouter)));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 3);
        let rt = LiveRuntime::start(topo, placement, 3, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let hop_locality = rt.edge_locality(hop);
        let _ = rt.join();
        assert_eq!(hop_locality, 1.0, "aligned modulo must stay local");
    }

    /// Shared pair-count map standing in for a sketch: observer totals
    /// must come out identical whether fed per tuple (`observe`) or in
    /// coalesced runs (`observe_run`).
    #[derive(Clone, Default)]
    struct PairCounts(Arc<Mutex<HashMap<(Key, Key), u64>>>);

    impl PairObserver for PairCounts {
        fn observe(&mut self, input: Key, output: Key) {
            *self.0.lock().entry((input, output)).or_insert(0) += 1;
        }

        fn observe_run(&mut self, input: Key, output: Key, count: u64) {
            *self.0.lock().entry((input, output)).or_insert(0) += count;
        }
    }

    /// Runs a topology and reduces it to a fully deterministic
    /// fingerprint: every instance's sorted `(key, count)` state,
    /// every edge's `(local, remote)` transfer totals, and the sorted
    /// pair-observation totals of operator `A`'s out edge.
    type Fingerprint = (
        Vec<(usize, usize, Vec<(Key, u64)>)>,
        Vec<(u64, u64)>,
        Vec<((Key, Key), u64)>,
    );

    fn run_fingerprint(topo: Topology, servers: usize, config: LiveConfig) -> Fingerprint {
        let placement = Placement::aligned(&topo, servers);
        let pairs = PairCounts::default();
        let observers: Vec<LiveObserver> = (0..topo.po(PoId(1)).parallelism())
            .map(|i| {
                (
                    PoId(1),
                    i,
                    EdgeId(1),
                    1,
                    Box::new(pairs.clone()) as Box<dyn PairObserver>,
                )
            })
            .collect();
        let rt = LiveRuntime::start_with_observers(topo, placement, servers, config, observers);
        let shared = Arc::clone(&rt.shared);
        let reports = rt.join();
        let mut states = Vec::new();
        for r in &reports {
            let mut kv: Vec<(Key, u64)> = r
                .state
                .iter()
                .map(|(&k, v)| (k, v.as_count().unwrap()))
                .collect();
            kv.sort_unstable();
            states.push((r.po.index(), r.instance, kv));
        }
        let edges = shared
            .edges
            .iter()
            .map(|e| {
                (
                    e.local.load(Ordering::Relaxed),
                    e.remote.load(Ordering::Relaxed),
                )
            })
            .collect();
        let mut pair_counts: Vec<((Key, Key), u64)> =
            pairs.0.lock().iter().map(|(&p, &c)| (p, c)).collect();
        pair_counts.sort_unstable();
        (states, edges, pair_counts)
    }

    /// The [`Fingerprint`] a [`chain`] run on an aligned placement
    /// must produce, folded from [`chain_keys`] without the runtime:
    /// each key counted at its [`HashRouter`] owner on both hops, each
    /// transfer local exactly when sender and receiver share a server,
    /// and one `(k, k)` pair observed on `A`'s out edge per tuple.
    fn chain_oracle(n: usize, keys: u64, total: u64, servers: usize) -> Fingerprint {
        let mut owned: Vec<HashMap<Key, u64>> = vec![HashMap::new(); n];
        let mut edges = vec![(0u64, 0u64); 2];
        let mut hop = |edge: usize, from: usize, to: usize| {
            if from % servers == to % servers {
                edges[edge].0 += 1;
            } else {
                edges[edge].1 += 1;
            }
        };
        for i in 0..n {
            for k in chain_keys(i, n, keys, total) {
                let key = Key::new(k);
                // Both hops route the same key (fields 0 and 1 are equal).
                let a = HashRouter.route(key, n) as usize;
                let b = HashRouter.route(key, n) as usize;
                hop(0, i, a);
                hop(1, a, b);
                *owned[a].entry(key).or_insert(0) += 1;
            }
        }
        let sorted = |m: &HashMap<Key, u64>| {
            let mut kv: Vec<(Key, u64)> = m.iter().map(|(&k, &c)| (k, c)).collect();
            kv.sort_unstable();
            kv
        };
        let mut states = Vec::new();
        for po in 0..3 {
            for (i, m) in owned.iter().enumerate() {
                // Sources hold no state.
                let kv = if po == 0 { Vec::new() } else { sorted(m) };
                states.push((po, i, kv));
            }
        }
        let mut pairs: Vec<((Key, Key), u64)> =
            owned.iter().flatten().map(|(&k, &c)| ((k, k), c)).collect();
        pairs.sort_unstable();
        (states, edges, pairs)
    }

    #[test]
    fn every_batch_size_matches_the_oracle() {
        // The reference is a pure fold of the generators, not another
        // runtime mode: operator state, per-edge locality and pair
        // observations must come out exactly as folded, whether tuples
        // travel one per message or in batches of up to 1024.
        let (n, keys, total) = (3, 12, 30_000);
        let oracle = chain_oracle(n, keys, total, n);
        for batch_size in [1, 2, 64, 1024] {
            let config = LiveConfig {
                batch_size,
                ..LiveConfig::default()
            };
            assert_eq!(
                run_fingerprint(chain(n, keys, total), n, config),
                oracle,
                "batch_size={batch_size}: state or locality stats diverged from the fold"
            );
        }
    }

    /// `n` sources emitting [`chain_keys`] as `(k, (5k + 1) % keys)`,
    /// then `A` (counts, fields 0) → `B` (counts, fields 1). Unlike in
    /// [`chain`], the A→B hop is not trivially local.
    fn crossed_chain(n: usize, keys: u64, total: u64, rate: SourceRate) -> Topology {
        let mut b = Topology::builder();
        let s = b.source("S", n, rate, move |i| {
            let mut stream = chain_keys(i, n, keys, total);
            Box::new(move || {
                stream
                    .next()
                    .map(|k| Tuple::new([Key::new(k), Key::new((5 * k + 1) % keys)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, bb, Grouping::fields(1));
        b.build().unwrap()
    }

    /// `topo` in the simulator, on the same aligned `n`-server
    /// placement the live runtime gets.
    fn simulation(topo: Topology, n: usize) -> crate::sim::Simulation {
        let placement = Placement::aligned(&topo, n);
        let cluster = crate::cluster::ClusterSpec::lan_10g(n);
        crate::sim::Simulation::new(topo, cluster, placement, crate::sim::SimConfig::default())
    }

    /// Per instance of operator `po`, its `(key, count)` state.
    type InstanceCounts = Vec<HashMap<Key, u64>>;

    fn sim_counts(sim: &crate::sim::Simulation, po: PoId) -> InstanceCounts {
        (sim.poi_ids(po).into_iter())
            .map(|poi| {
                (sim.poi_state(poi).iter())
                    .map(|(&k, v)| (k, v.as_count().unwrap()))
                    .collect()
            })
            .collect()
    }

    fn live_counts(reports: &[InstanceReport], po: PoId) -> InstanceCounts {
        (reports.iter().filter(|r| r.po == po))
            .map(|r| {
                (r.state.iter())
                    .map(|(&k, v)| (k, v.as_count().unwrap()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn simulator_and_live_runtime_count_the_same_locality() {
        let (n, keys, total) = (3, 12, 30_000);
        let mut sim = simulation(crossed_chain(n, keys, total, SourceRate::Saturate), n);
        let windows = sim.run_until_drained(1_000);
        assert!(windows < 1_000, "simulation never drained");
        let topo = crossed_chain(n, keys, total, SourceRate::Saturate);
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        // Every instance announces its exit after its last send, so
        // the counters are final once all have (without consuming
        // `rt` the way `join` does).
        let mut exited = HashSet::new();
        while exited.len() < rt.instances() {
            match rt.coord_rx.recv_timeout(Duration::from_secs(30)) {
                Ok((idx, Heard::Exited)) => {
                    exited.insert(idx);
                }
                Ok(_) => {}
                Err(e) => panic!("live pipeline never drained: {e:?}"),
            }
        }
        // The fold: a tuple from source i with keys (k, k') crosses
        // S→A locally when hash(k) lands on server i, and A→B locally
        // when hash(k) and hash(k') land on the same server.
        let mut fold = [(0u64, 0u64); 2];
        for i in 0..n {
            for k in chain_keys(i, n, keys, total) {
                let a = HashRouter.route(Key::new(k), n) as usize;
                let b = HashRouter.route(Key::new((5 * k + 1) % keys), n) as usize;
                for (edge, local) in [(0, i == a), (1, a == b)] {
                    let (l, r) = &mut fold[edge];
                    *if local { l } else { r } += 1;
                }
            }
        }
        for (e, (local, remote)) in fold.into_iter().enumerate() {
            let edge = EdgeId(e);
            let expected = local as f64 / (local + remote) as f64;
            assert!(expected > 0.0 && expected < 1.0, "edge {e} is one-sided");
            let sim_locality = sim.metrics().edge_locality(edge, 0);
            assert_eq!(sim_locality, expected, "sim, edge {e}");
            assert_eq!(rt.edge_locality(edge), expected, "live, edge {e}");
        }
        let _ = rt.join();
    }

    #[test]
    fn simulator_and_live_runtime_agree_across_a_migrating_wave() {
        let (n, keys, total) = (3, 12, 60_000);
        let live_plan = hash_to_modulo(n, keys);

        // The simulator's sources emit 2000 tuples per window each, so
        // the wave starts two windows into a ten-window stream.
        let rate = SourceRate::PerSecond(20_000.0);
        let mut sim = simulation(crossed_chain(n, keys, total, rate), n);
        sim.run(2);
        assert!(sim.metrics().total_emitted() < total, "stream already over");
        let (a, b) = (sim.poi_ids(PoId(1)), sim.poi_ids(PoId(2)));
        let plan = crate::reconfig::ReconfigPlan {
            routers: (a.iter())
                .map(|&p| (p, EdgeId(1), Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
                .collect(),
            migrations: (live_plan.migrations.iter())
                .map(|&(_, key, old, new)| (b[old], key, b[new]))
                .collect(),
        };
        sim.start_reconfiguration(plan).unwrap();
        let windows = sim.run_until_drained(1_000);
        assert!(windows < 1_000, "simulation never drained");

        let topo = crossed_chain(n, keys, total, SourceRate::PerSecond(50_000.0));
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        std::thread::sleep(Duration::from_millis(20));
        rt.reconfigure(live_plan);
        let reports = rt.join();

        // The fold: A keeps hash routing, B's keys end at k % n with
        // every tuple of the stream counted once.
        let mut fold = vec![vec![HashMap::new(); n]; 2];
        for i in 0..n {
            for k in chain_keys(i, n, keys, total) {
                let (ka, kb) = (Key::new(k), Key::new((5 * k + 1) % keys));
                let a = HashRouter.route(ka, n) as usize;
                let b = (kb.value() % n as u64) as usize;
                *fold[0][a].entry(ka).or_insert(0) += 1;
                *fold[1][b].entry(kb).or_insert(0) += 1;
            }
        }
        for (po, expected) in [PoId(1), PoId(2)].into_iter().zip(&fold) {
            let live = live_counts(&reports, po);
            let mut owners = HashSet::new();
            for key in live.iter().flat_map(HashMap::keys) {
                assert!(owners.insert(key), "key {key} of {po:?} has two owners");
            }
            assert_eq!(&live, expected, "live counts of {po:?}");
            assert_eq!(&sim_counts(&sim, po), expected, "sim counts of {po:?}");
        }
    }

    #[test]
    fn shuffle_and_fan_out_edges_deliver_like_the_fold() {
        // S →shuffle→ P →local-or-shuffle→ Q, and Q feeds two counting
        // sinks on different fields. Every edge kind goes through the
        // batch router; every count is checked against a fold.
        let (n, keys, total) = (3, 12, 30_000u64);
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::Saturate, move |i| {
            let mut stream = chain_keys(i, n, keys, total);
            Box::new(move || {
                stream
                    .next()
                    .map(|k| Tuple::new([Key::new(k), Key::new(k % 5)], 0))
            })
        });
        let p = b.stateless("P", n, IdentityOperator::factory());
        let q = b.stateless("Q", n, IdentityOperator::factory());
        let c0 = b.stateful("C0", n, CountOperator::factory());
        let c1 = b.stateful("C1", n, CountOperator::factory());
        let shuffle = b.connect(s, p, Grouping::Shuffle);
        let los = b.connect(p, q, Grouping::LocalOrShuffle);
        b.connect(q, c0, Grouping::fields(0));
        b.connect(q, c1, Grouping::fields(1));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());
        let shared = Arc::clone(&rt.shared);
        let reports = rt.join();

        // Source i's round-robin counter starts at i and advances
        // before each pick, so its j-th tuple goes to P#(i + 1 + j).
        let mut per_p = vec![0u64; n];
        let mut shuffle_local = 0u64;
        let mut sinks = vec![vec![HashMap::<Key, u64>::new(); n]; 2];
        for i in 0..n {
            for (j, k) in chain_keys(i, n, keys, total).enumerate() {
                let dest = (i + 1 + j) % n;
                per_p[dest] += 1;
                shuffle_local += u64::from(dest == i);
                for (field, key) in [Key::new(k), Key::new(k % 5)].into_iter().enumerate() {
                    let owner = HashRouter.route(key, n) as usize;
                    *sinks[field][owner].entry(key).or_insert(0) += 1;
                }
            }
        }
        let processed = |po: PoId| -> Vec<u64> {
            reports
                .iter()
                .filter(|r| r.po == po)
                .map(|r| r.processed)
                .collect()
        };
        assert_eq!(processed(p), per_p, "shuffle assignment changed");
        // Q has an instance on every server, so each P instance keeps
        // its whole output local.
        assert_eq!(processed(q), per_p);
        let edge = |e: EdgeId| {
            let c = &shared.edges[e.index()];
            (
                c.local.load(Ordering::Relaxed),
                c.remote.load(Ordering::Relaxed),
            )
        };
        assert_eq!(edge(shuffle), (shuffle_local, total - shuffle_local));
        assert_eq!(edge(los), (total, 0), "local-or-shuffle went remote");
        for (sink, expected) in [c0, c1].into_iter().zip(&sinks) {
            let states: Vec<HashMap<Key, u64>> = reports
                .iter()
                .filter(|r| r.po == sink)
                .map(|r| {
                    r.state
                        .iter()
                        .map(|(&k, v)| (k, v.as_count().unwrap()))
                        .collect()
                })
                .collect();
            assert_eq!(&states, expected, "sink {sink:?} counts diverged");
        }
    }

    #[test]
    fn batch_counters_account_for_every_tuple() {
        let total = 20_000u64;
        let metrics = Arc::new(MetricsRegistry::new());
        let topo = chain(2, 8, total);
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(
            topo,
            placement,
            2,
            LiveConfig {
                batch_size: 64,
                metrics: Some(Arc::clone(&metrics)),
                ..LiveConfig::default()
            },
        );
        let _ = rt.join();
        let get = |name: &str| {
            metrics
                .snapshot()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        // Two hops, every tuple crosses both: routed == 2 × total, and
        // in batch mode every routed tuple travels inside a batch.
        assert_eq!(get("live_tuples_routed_total"), 2 * total);
        assert_eq!(get("live_batch_tuples_total"), 2 * total);
        let sends = get("live_batch_sends_total");
        assert!(sends > 0, "no batches sent");
        assert!(
            sends < 2 * total,
            "batching did not coalesce ({sends} sends for {} tuples)",
            2 * total
        );
    }

    #[test]
    fn unbatched_mode_sends_no_batches() {
        let metrics = Arc::new(MetricsRegistry::new());
        let topo = chain(2, 8, 5_000);
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(
            topo,
            placement,
            2,
            LiveConfig {
                batch_size: 1,
                metrics: Some(Arc::clone(&metrics)),
                ..LiveConfig::default()
            },
        );
        let _ = rt.join();
        let snap = metrics.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("live_batch_sends_total"), Some(0));
        assert_eq!(get("live_batch_tuples_total"), Some(0));
    }

    /// A [`CountOperator`] that tallies which entry point each tuple
    /// came through: per-tuple `process` or run-wise `on_batch`.
    struct EntryTally {
        process: Arc<AtomicU64>,
        on_batch: Arc<AtomicU64>,
    }

    impl Operator for EntryTally {
        fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
            self.process.fetch_add(1, Ordering::Relaxed);
            CountOperator.process(tuple, ctx);
        }

        fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
            self.on_batch
                .fetch_add(tuples.len() as u64, Ordering::Relaxed);
            CountOperator.on_batch(tuples, ctx);
        }
    }

    #[test]
    fn migrating_wave_keeps_every_tuple_on_the_batch_path() {
        // Instances that shipped state keep forwarding those keys until
        // the next wave; their later batches must still be dispatched
        // run by run, never one tuple at a time. And by per-sender FIFO
        // every tuple routed by the old tables reaches its old owner
        // ahead of the last ⑤, so a progressive wave forwards none.
        let (n, keys, total) = (3, 9, 30_000);
        let process = Arc::new(AtomicU64::new(0));
        let on_batch = Arc::new(AtomicU64::new(0));
        let (p, b) = (Arc::clone(&process), Arc::clone(&on_batch));
        let factory: crate::operator::OperatorFactory = Box::new(move |_| {
            Box::new(EntryTally {
                process: Arc::clone(&p),
                on_batch: Arc::clone(&b),
            })
        });
        let topo = chain_with(n, keys, total, SourceRate::PerSecond(50_000.0), factory);
        let placement = Placement::aligned(&topo, n);
        let metrics = Arc::new(MetricsRegistry::new());
        let config = LiveConfig {
            metrics: Some(Arc::clone(&metrics)),
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::start(topo, placement, n, config);
        std::thread::sleep(Duration::from_millis(20));
        rt.reconfigure(hash_to_modulo(n, keys));
        let reports = rt.join();
        assert_eq!(
            process.load(Ordering::Relaxed),
            0,
            "tuples left the batch path"
        );
        let snap = metrics.snapshot();
        let forwarded = snap.iter().find(|(n, _)| n == "live_late_forwarded_total");
        assert_eq!(
            forwarded.map(|(_, v)| *v),
            Some(0),
            "a straggler was forwarded"
        );
        assert_eq!(on_batch.load(Ordering::Relaxed), total);
        let b_counts = counts_of(&reports, PoId(2));
        assert_eq!(b_counts.values().sum::<u64>(), total);
        assert_eq!(b_counts, counts_of(&reports, PoId(1)));
    }

    /// An operator that only tallies the tuples it processes.
    struct Tally(Arc<AtomicU64>);

    impl Operator for Tally {
        fn process(&mut self, _tuple: Tuple, _ctx: &mut OpContext<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn source_hands_partial_batches_to_parked_receivers() {
        // One stage of 64 tuples split over two receivers fills neither
        // send buffer; the generator then blocks. Both receivers are
        // parked on empty inboxes, so the source must hand the partial
        // buffers over instead of holding them until the stream moves.
        let (go_tx, go_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let gates = Mutex::new(Some((go_rx, release_rx)));
        let seen = Arc::new(AtomicU64::new(0));
        let tally = Arc::clone(&seen);
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, move |_| {
            let (go, release) = gates.lock().take().expect("one source instance");
            let mut next = 0usize;
            Box::new(move || {
                if next == 0 {
                    let _ = go.recv();
                }
                if next == 64 {
                    let _ = release.recv();
                    return None;
                }
                next += 1;
                Some(Tuple::new([Key::new(next as u64 % 8)], 0))
            })
        });
        let a = b.stateless(
            "A",
            2,
            Box::new(move |_| Box::new(Tally(Arc::clone(&tally))) as Box<dyn Operator>),
        );
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 2);
        let rt = LiveRuntime::start(topo, placement, 2, LiveConfig::default());
        let receivers = &rt.shared.parked[1..];
        assert!(
            wait_for(Duration::from_secs(5), || receivers
                .iter()
                .all(|p| p.load(Ordering::Relaxed))),
            "receivers never parked"
        );
        go_tx.send(()).unwrap();
        let delivered = wait_for(Duration::from_secs(5), || {
            seen.load(Ordering::Relaxed) == 64
        });
        let before_release = seen.load(Ordering::Relaxed);
        release_tx.send(()).unwrap();
        let _ = rt.join();
        assert!(
            delivered,
            "only {before_release} of 64 tuples reached the parked receivers \
             while the generator blocked"
        );
        assert_eq!(seen.load(Ordering::Relaxed), 64);
    }

    /// Tallies the tuples it receives; its first batch signals `entered`
    /// and then blocks until `unblock` fires, keeping the instance busy.
    struct BusyOnce {
        seen: Arc<AtomicU64>,
        gate: Option<(Sender<()>, Receiver<()>)>,
    }

    impl Operator for BusyOnce {
        fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
            self.on_batch(std::slice::from_ref(&tuple), ctx);
        }

        fn on_batch(&mut self, tuples: &[Tuple], _ctx: &mut OpContext<'_>) {
            self.seen.fetch_add(tuples.len() as u64, Ordering::Relaxed);
            if let Some((entered, unblock)) = self.gate.take() {
                let _ = entered.send(());
                let _ = unblock.recv();
            }
        }
    }

    #[test]
    fn source_hands_held_tuples_to_a_receiver_that_parks_mid_stage() {
        // Stage 1 reaches the parked receiver, which then stays busy
        // while stage 2 is routed, so stage 2 is held (half a buffer).
        // The receiver parks once released; the generator makes
        // `PARKED_CHECK` more calls and then blocks. Stage 2 must be
        // handed over meanwhile, not when stage 3 is routed.
        let (go_tx, go_rx) = bounded::<()>(1);
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (unblock_tx, unblock_rx) = bounded::<()>(1);
        let (held_tx, held_rx) = bounded::<()>(1);
        let (resume_tx, resume_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let gates = Mutex::new(Some((go_rx, entered_rx, held_tx, resume_rx, release_rx)));
        let seen = Arc::new(AtomicU64::new(0));
        let tally = Arc::clone(&seen);
        let busy = Mutex::new(Some((entered_tx, unblock_rx)));
        let last = 128 + PARKED_CHECK;
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, move |_| {
            let (go, entered, held, resume, release) =
                gates.lock().take().expect("one source instance");
            let mut next = 0usize;
            Box::new(move || {
                match next {
                    0 => {
                        let _ = go.recv();
                    }
                    // Stage 2 starts only once the receiver is busy.
                    64 => {
                        let _ = entered.recv();
                    }
                    // Stage 2 has been routed.
                    128 => {
                        let _ = held.send(());
                        let _ = resume.recv();
                    }
                    n if n == last => {
                        let _ = release.recv();
                        return None;
                    }
                    _ => {}
                }
                next += 1;
                Some(Tuple::new([Key::new(0)], 0))
            })
        });
        let a = b.stateless(
            "A",
            1,
            Box::new(move |_| {
                Box::new(BusyOnce {
                    seen: Arc::clone(&tally),
                    gate: busy.lock().take(),
                }) as Box<dyn Operator>
            }),
        );
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 1);
        let config = LiveConfig {
            batch_size: 128,
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::start(topo, placement, 1, config);
        let parked = &rt.shared.parked[1];
        let is_parked = || parked.load(Ordering::Relaxed);
        assert!(
            wait_for(Duration::from_secs(5), is_parked),
            "receiver never parked"
        );
        go_tx.send(()).unwrap();
        held_rx.recv().unwrap();
        let held_back = seen.load(Ordering::Relaxed);
        unblock_tx.send(()).unwrap();
        let reparked = wait_for(Duration::from_secs(5), is_parked);
        resume_tx.send(()).unwrap();
        let delivered = wait_for(Duration::from_secs(5), || {
            seen.load(Ordering::Relaxed) == 128
        });
        let before_release = seen.load(Ordering::Relaxed);
        release_tx.send(()).unwrap();
        let _ = rt.join();
        assert_eq!(held_back, 64, "stage 2 was not held for the busy receiver");
        assert!(reparked, "receiver never parked again");
        assert!(
            delivered,
            "only {before_release} of 128 tuples reached the parked receiver \
             while the generator blocked"
        );
        assert_eq!(seen.load(Ordering::Relaxed), last as u64);
    }

    #[test]
    fn wave_migrating_more_keys_than_an_inbox_holds_completes() {
        // Every key of A moves to the other instance: each peer ships
        // 8× its inbox capacity in state while the other does the same.
        // Per-key ⑥ messages would fill both inboxes and block both
        // peers on each other; one bundle per destination cannot.
        let capacity = 4;
        let keys = 16 * capacity as u64;
        // Keys 0..keys once each, then a slow trickle of one filler
        // key, so the source keeps serving the control plane.
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::PerSecond(6_400.0), move |_| {
            let mut next = 0u64;
            Box::new(move || {
                next += 1;
                Some(Tuple::new([Key::new((next - 1).min(keys))], 0))
            })
        });
        let a = b.stateful("A", 2, CountOperator::factory());
        let edge = b.connect(s, a, Grouping::fields_with(0, Arc::new(ModuloRouter)));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 2);
        let config = LiveConfig {
            channel_capacity: capacity,
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::start(topo, placement, 2, config);
        let counted = || {
            (0..2)
                .filter_map(|i| rt.probe_state(a, i))
                .map(|st| st.keys().filter(|k| k.value() < keys).count() as u64)
                .sum::<u64>()
        };
        assert!(
            wait_for(Duration::from_secs(5), || counted() == keys),
            "the keys never reached A"
        );

        let migrations = (0..keys)
            .map(|k| {
                let old = (k % 2) as usize;
                (a, Key::new(k), old, 1 - old)
            })
            .collect();
        let wave = WaveConfig {
            deadline_windows: 20,
            max_retries: 0,
            backoff: 1,
        };
        let result = rt.reconfigure_with_deadline(
            LiveReconfig {
                routers: vec![(PoId(0), edge, Arc::new(ShiftedRouter::new(1)))],
                migrations,
            },
            wave,
        );
        // On failure the peers are wedged and `join` would hang.
        assert_eq!(result, Ok(()), "the wave deadlocked on full inboxes");
        rt.stop();
        let reports = rt.join();
        for r in reports.iter().filter(|r| r.po == a) {
            let moved: Vec<_> = r.state.iter().filter(|(k, _)| k.value() < keys).collect();
            assert_eq!(moved.len() as u64, keys / 2);
            for (k, v) in moved {
                assert_eq!(r.instance as u64, (k.value() + 1) % 2, "key {k} not moved");
                assert_eq!(
                    v.as_count(),
                    Some(1),
                    "key {k} lost or duplicated its count"
                );
            }
        }
    }

    #[test]
    fn probe_state_sees_live_counts() {
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::Saturate, |_| {
            Box::new(|| Some(Tuple::new([Key::new(1)], 0)))
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 1);
        let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let snapshot = rt.probe_state(PoId(1), 0).expect("instance alive");
        assert!(snapshot.get(&Key::new(1)).and_then(StateValue::as_count) > Some(0));
        rt.stop();
        let _ = rt.join();
    }

    #[test]
    fn an_idle_source_ignores_a_stray_propagate() {
        // Nothing is staged anywhere, so a ⑤ must not make the source
        // apply: no `Applied` and no ⑤ forwarded downstream.
        let mut b = Topology::builder();
        let s = b.source("S", 1, SourceRate::PerSecond(10_000.0), |_| {
            Box::new(|| Some(Tuple::new([Key::new(1)], 0)))
        });
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, 1);
        let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
        rt.shared.inboxes[0]
            .send(Msg::Wave(WaveMsg::Propagate))
            .unwrap();
        let deadline = Instant::now() + Duration::from_millis(200);
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match rt.coord_rx.recv_timeout(left) {
                Ok((idx, Heard::Applied)) => panic!("instance {idx} applied an unstaged wave"),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        rt.stop();
        let _ = rt.join();
    }
}
