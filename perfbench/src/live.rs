//! The live run: the trained chain on `LiveRuntime` threads, its
//! reconfiguration waves, the correctness oracle, and the data-plane
//! layer ledger.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamloc_core::{ManagerConfig, PairTracker, RoutingTable};
use streamloc_engine::obs::{MetricsRegistry, SpanMetricName, SpanPhase};
use streamloc_engine::{
    CountOperator, Counter, DestRun, Grouping, HashRouter, InstanceReport, Key, KeyRouter,
    LiveConfig, LiveObserver, LiveReconfig, LiveRuntime, OpContext, Operator, PairObserver,
    Placement, PoId, ReconfigError, SourceRate, SpanSampler, StateValue, Topology, Tuple,
    WaveConfig,
};

use crate::affinity;
use crate::setup::{Column, LiveStream, Trained, SERVERS, TRAIN_WEEKS};
use crate::stats::{median, quantile, registry_p50};
use crate::{Report, PACED_RATE};

/// Tuples a source stages per call into the data plane (the runtime's
/// own staging size); the generator publishes progress at this grain.
const STAGE: u64 = 64;
/// Shares of `--seconds`: each loaded segment (before and after the
/// waves) holds as many tuples as `NOMINAL_CAPACITY`, or the paced rate,
/// delivers in `LOADED` of it; the open-loop latency segment lasts
/// `PACED` of it.
const LOADED: f64 = 0.35;
const PACED: f64 = 0.2;
/// Saturated throughput (tuples/s) measured before the waves on a
/// 2-vCPU host, 1.4-2.2M.
const NOMINAL_CAPACITY: f64 = 2.0e6;
/// Equal bursts a loaded segment is split into; its throughput is their
/// median.
const BURSTS: u64 = 5;
/// Open-loop time after the backlog is gone before latency counts.
const SETTLE: Duration = Duration::from_millis(500);
/// Seconds of open-loop load the live weeks allow for draining the
/// backlog before the latency segment.
const DRAIN_SLACK: f64 = 2.0;
/// Latency quantiles are taken per interval of due time of this length,
/// over intervals with at least `MIN_INTERVAL_SAMPLES` samples, and
/// reported as their median across intervals: a stall of the shared
/// host spoils the intervals it hits, not the figure.
const LATENCY_INTERVAL_NS: u64 = 250_000_000;
const MIN_INTERVAL_SAMPLES: usize = 1_000;
/// How often a holding generator checks for the next burst.
const HOLD_POLL: Duration = Duration::from_micros(200);
/// Open-loop time the `paced` workload's latency skips at the start.
const WARM_UP: Duration = Duration::from_millis(300);
/// Back-to-back waves per run; the reported wave time is their median.
const WAVES: usize = 15;
/// 1-in-n span sampling of the traced run.
const SPAN_SAMPLING: u64 = 64;
/// Backlog (tuples generated but not yet seen by the sink) below which
/// a wave may start.
const DRAIN_BACKLOG: u64 = 2_048;
/// Tuples of the pre-wave stream timed through each layer by the
/// ledger.
const LEDGER_TUPLES: usize = 1 << 20;

/// Stream state shared between one source's generator and the
/// measuring thread.
#[derive(Default)]
struct SourceProbe {
    /// Tuples generated so far (updated every `STAGE` tuples).
    progress: AtomicU64,
    /// Tuples generated before switching to the post-wave week
    /// (`u64::MAX` until the switch).
    switched_at: AtomicU64,
    /// Worst lateness against the open-loop schedule, in nanoseconds.
    lag_max_ns: AtomicU64,
}

/// Flags the measuring thread raises; generators read them every
/// `STAGE` tuples.
#[derive(Default)]
struct Control {
    /// Replay the post-wave week from now on.
    post_week: AtomicBool,
    /// Saturating bursts started so far: a generator that sees this
    /// grow emits its next `burst` tuples as fast as it can, then holds
    /// (while `hold` is up) or follows the open-loop schedule at
    /// `PACED_RATE`.
    bursts: AtomicU64,
    /// Up during a saturated segment: no tuples between its bursts.
    hold: AtomicBool,
}

/// One source's replay of a week: its columns in order, wrapping
/// around at the end.
#[derive(Clone)]
struct Replay {
    columns: Vec<Column>,
    column: usize,
    pos: usize,
}

impl Replay {
    fn new(columns: Vec<Column>) -> Self {
        Self {
            columns,
            column: 0,
            pos: 0,
        }
    }

    fn len(&self) -> u64 {
        self.columns.iter().map(|c| c.len() as u64).sum()
    }

    #[inline]
    fn next(&mut self) -> (Key, Key) {
        let column = &self.columns[self.column];
        let (loc, tag) = column[self.pos];
        self.pos += 1;
        if self.pos == column.len() {
            self.pos = 0;
            self.column = (self.column + 1) % self.columns.len();
        }
        (Key::new(loc.into()), Key::new(tag.into()))
    }

    /// Adds the per-key counts of the first `n` tuples of the replay.
    fn fold(&self, n: u64, loc: &mut HashMap<Key, u64>, tag: &mut HashMap<Key, u64>) {
        let (cycles, rest) = (n / self.len(), n % self.len());
        let pairs = self.columns.iter().flat_map(|c| c.iter());
        for (i, &(l, t)) in pairs.enumerate() {
            let c = cycles + u64::from((i as u64) < rest);
            if c == 0 {
                break;
            }
            *loc.entry(Key::new(l.into())).or_default() += c;
            *tag.entry(Key::new(t.into())).or_default() += c;
        }
    }
}

/// A source's generator: replays its share of the pre-wave week, then
/// of the post-wave week. Key field 2 carries each tuple's due time
/// (ns since `clock`): its slot in the open-loop schedule, which does
/// not slow when the system slows, or its generation time when
/// saturating.
struct Generator {
    pre: Replay,
    post: Replay,
    emitted: u64,
    switched: bool,
    control: Arc<Control>,
    probe: Arc<SourceProbe>,
    clock: Instant,
    /// Schedule spacing of this source, and its offset against the
    /// other sources' slots.
    gap_ns: f64,
    offset_ns: f64,
    /// While paced: the due time (ns) of tuple number `base`, and `base`.
    schedule: Option<(f64, u64)>,
    /// Tuples per burst (a multiple of `STAGE`), bursts seen, and the
    /// tuple count at which the current burst ends.
    burst: u64,
    bursts: u64,
    burst_end: u64,
    now_ns: u64,
    lag_max_ns: u64,
    /// CPU to pin the source thread to on the first call.
    cpu: Option<usize>,
}

impl Generator {
    fn next(&mut self) -> Tuple {
        if self.emitted.is_multiple_of(STAGE) {
            if let Some(cpu) = self.cpu.take() {
                affinity::pin(cpu);
            }
            self.probe.progress.store(self.emitted, Ordering::Relaxed);
            if !self.switched && self.control.post_week.load(Ordering::Relaxed) {
                self.switched = true;
                self.probe
                    .switched_at
                    .store(self.emitted, Ordering::Relaxed);
            }
            let mut bursts = self.control.bursts.load(Ordering::Relaxed);
            // Between the bursts of a saturated segment, emit nothing
            // until the next burst or the end of the segment.
            while bursts == self.bursts
                && self.emitted >= self.burst_end
                && self.control.hold.load(Ordering::Relaxed)
            {
                self.schedule = None;
                std::thread::sleep(HOLD_POLL);
                bursts = self.control.bursts.load(Ordering::Relaxed);
            }
            self.now_ns = self.clock.elapsed().as_nanos() as u64;
            if bursts != self.bursts {
                self.bursts = bursts;
                self.burst_end = self.emitted + self.burst;
            }
            let paced = self.emitted >= self.burst_end;
            if paced && self.schedule.is_none() {
                self.schedule = Some((self.now_ns as f64 + self.offset_ns, self.emitted));
            } else if !paced {
                self.schedule = None;
            }
        }
        let (loc, tag) = if self.switched {
            self.post.next()
        } else {
            self.pre.next()
        };
        let due = match self.schedule {
            None => self.now_ns,
            Some((start, base)) => {
                let due = (start + (self.emitted - base) as f64 * self.gap_ns) as u64;
                let mut now = self.clock.elapsed().as_nanos() as u64;
                if now < due {
                    // Sleep, never spin: the tag's other threads share
                    // its CPU with this one.
                    std::thread::sleep(Duration::from_nanos(due - now));
                    now = self.clock.elapsed().as_nanos() as u64;
                }
                let lag = now.saturating_sub(due);
                if lag > self.lag_max_ns {
                    self.lag_max_ns = lag;
                    self.probe.lag_max_ns.fetch_max(lag, Ordering::Relaxed);
                }
                due
            }
        };
        self.emitted += 1;
        Tuple::new([loc, tag, Key::new(due.max(1))], 0)
    }
}

/// An operator whose instance thread is pinned to `cpu` on the first
/// call (the runtime calls each instance on its own thread).
struct Pinned<O> {
    inner: O,
    cpu: Option<usize>,
}

impl<O> Pinned<O> {
    fn pin(&mut self) {
        if let Some(cpu) = self.cpu.take() {
            affinity::pin(cpu);
        }
    }
}

impl<O: Operator> Operator for Pinned<O> {
    fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
        self.pin();
        self.inner.process(tuple, ctx);
    }

    fn init_state(&self) -> StateValue {
        self.inner.init_state()
    }

    fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
        self.pin();
        self.inner.on_batch(tuples, ctx);
    }
}

/// The `B` operator: a `CountOperator` that also counts the tuples it
/// has seen and records, for every tuple due within `window` (ns since
/// `clock`, from inclusive, to exclusive), its latency interval and sink
/// time minus due time.
struct LatencySink {
    inner: CountOperator,
    clock: Instant,
    window: Arc<(AtomicU64, AtomicU64)>,
    seen: Arc<AtomicU64>,
    /// `(due / LATENCY_INTERVAL_NS, sink time minus due time in ns)`,
    /// saturated at `u32::MAX`.
    latency_ns: Vec<(u32, u32)>,
    out: Arc<Mutex<Vec<(u32, u32)>>>,
}

impl LatencySink {
    fn record(&mut self, tuples: &[Tuple]) {
        self.seen.fetch_add(tuples.len() as u64, Ordering::Relaxed);
        let window = self.window.0.load(Ordering::Relaxed)..self.window.1.load(Ordering::Relaxed);
        let due = |t: &Tuple| t.key(2).value();
        // Read the clock only when some tuple is due inside the window.
        if !tuples.iter().any(|t| window.contains(&due(t))) {
            return;
        }
        let now = self.clock.elapsed().as_nanos() as u64;
        for t in tuples.iter().filter(|t| window.contains(&due(t))) {
            let ns = now.saturating_sub(due(t));
            let interval = u32::try_from(due(t) / LATENCY_INTERVAL_NS).unwrap_or(u32::MAX);
            self.latency_ns
                .push((interval, u32::try_from(ns).unwrap_or(u32::MAX)));
        }
    }
}

impl Operator for LatencySink {
    fn process(&mut self, tuple: Tuple, ctx: &mut OpContext<'_>) {
        self.record(std::slice::from_ref(&tuple));
        self.inner.process(tuple, ctx);
    }

    fn init_state(&self) -> StateValue {
        self.inner.init_state()
    }

    fn on_batch(&mut self, tuples: &[Tuple], ctx: &mut OpContext<'_>) {
        self.record(tuples);
        self.inner.on_batch(tuples, ctx);
    }
}

impl Drop for LatencySink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.append(&mut self.latency_ns);
        }
    }
}

/// Fallback counters attached to one deployed table pair.
#[derive(Default)]
struct Fallbacks {
    a: (Counter, Counter),
    b: (Counter, Counter),
}

impl Fallbacks {
    fn total(&self) -> u64 {
        self.a.0.get() + self.a.1.get() + self.b.0.get() + self.b.1.get()
    }
}

fn deployed(table: &RoutingTable, counters: &(Counter, Counter), epoch: u64) -> RoutingTable {
    let mut t = table.clone();
    t.attach_fallback_counters(counters.0.clone(), counters.1.clone());
    t.set_epoch(epoch);
    t
}

/// Owner of `key` under `table` with `instances` instances, without
/// touching the table's fallback counters.
fn owner(table: &RoutingTable, key: Key, instances: usize) -> usize {
    match table.get(key) {
        Some(i) if (i as usize) < instances => i as usize,
        _ => HashRouter.route(key, instances) as usize,
    }
}

/// Every key whose owner differs between two tables of `po`.
fn migrations(po: PoId, old: &RoutingTable, new: &RoutingTable) -> Vec<(PoId, Key, usize, usize)> {
    let keys: HashSet<Key> = old.iter().chain(new.iter()).map(|(k, _)| k).collect();
    let mut moves: Vec<_> = keys
        .into_iter()
        .filter_map(|k| {
            let (from, to) = (owner(old, k, SERVERS), owner(new, k, SERVERS));
            (from != to).then_some((po, k, from, to))
        })
        .collect();
    moves.sort_by_key(|&(_, k, _, _)| k);
    moves
}

/// What one live run measured.
pub struct Outcome {
    servers: usize,
    emitted: u64,
    pre_wave_tps: f64,
    post_wave_tps: f64,
    wave_s: f64,
    migrated_keys: usize,
    pre_locality: f64,
    post_locality: f64,
    imbalance: f64,
    /// Sink-minus-due latency p50, p90 and p99 (us, medians over
    /// intervals), sample count and interval count.
    latency_us: [f64; 3],
    latency_samples: usize,
    latency_intervals: usize,
    gen_lag_max_us: f64,
    week_passes: f64,
    registry: Arc<MetricsRegistry>,
    fallbacks: u64,
    distinct_pairs: usize,
    tracker_capacity: usize,
    /// Routing epoch after the last wave.
    final_epoch: u64,
}

impl Outcome {
    pub fn report_end_to_end(&self, report: &mut Report) {
        report.metric("locality", self.post_locality, "share");
        report.metric("imbalance", self.imbalance, "ratio");
        report.metric("migrated_keys", self.migrated_keys as f64, "count");
        report.metric("latency_p50_us", self.latency_us[0], "us");
        report.metric("latency_p90_us", self.latency_us[1], "us");
        // Wall-clock rates and times that drift by up to a third with the
        // shared 2-vCPU host's load, too much to bound: printed by name
        // with their units, and reported by a traced run as `live.*`.
        let unbounded = [
            ("pre_wave_tps", self.pre_wave_tps, "tuples/s"),
            ("post_wave_tps", self.post_wave_tps, "tuples/s"),
            ("wave_s", self.wave_s, "s"),
        ];
        for (name, value, unit) in unbounded {
            println!("{name:<40} {value:>16.4} {unit} (not bounded)");
        }
        println!(
            "{} latency samples in {} intervals; waves {WAVES} (median); week passes {:.3}; pre-wave locality {:.4}; \
             hash fallbacks {:.4} of lookups; tracker pairs {:.3} of capacity",
            self.latency_samples,
            self.latency_intervals,
            self.week_passes,
            self.pre_locality,
            self.fallback_share(),
            self.distinct_pairs as f64 / self.tracker_capacity as f64,
        );
    }

    /// Share of table lookups (both hops) that fell back to hashing.
    fn fallback_share(&self) -> f64 {
        self.fallbacks as f64 / (2 * self.emitted).max(1) as f64
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    }
}

/// Tuples of a loaded segment over all `servers` sources: a fixed
/// amount of work, so that every run of a seed times the same tuples.
/// Saturated, each burst is a whole number of `STAGE`s per source.
fn segment_len(saturate: bool, seconds: f64, servers: usize) -> u64 {
    if saturate {
        let per_burst = LOADED * seconds * NOMINAL_CAPACITY / (servers as u64 * BURSTS) as f64;
        (per_burst / STAGE as f64).ceil() as u64 * STAGE * servers as u64 * BURSTS
    } else {
        (LOADED * seconds * PACED_RATE) as u64
    }
}

/// Tuples of each live week: enough that no run replays any of it
/// twice. The pre-wave week runs one loaded segment, then the open-loop
/// drain, settle and latency segments; the post-wave week the waves and
/// one loaded segment.
pub fn week_len(seconds: f64) -> usize {
    let paced = PACED_RATE * (PACED * seconds + SETTLE.as_secs_f64() + DRAIN_SLACK);
    segment_len(true, seconds, SERVERS) as usize + paced as usize
}

/// What every live run of one invocation shares.
#[derive(Clone, Copy)]
pub struct Deployment<'a> {
    pub trained: &'a Trained,
    pub stream: &'a LiveStream,
    /// CPUs the server tags are pinned to, in turn.
    pub cpus: &'a [usize],
    pub seed: u64,
    pub seconds: f64,
}

/// Runs the chain on `servers` tags for about `seconds`, table-routed
/// from the start with pair trackers on `A`, then drains:
///
/// 1. `segment_len` tuples under the workload's load (a saturating
///    burst, or the open-loop schedule), timed from the start until the
///    sinks have seen them — `pre_wave_tps`;
/// 2. open-loop load until the backlog is gone, then `PACED` of the
///    time on idle queues — latency (the `paced` workload also counts
///    its first segment);
/// 3. `WAVES` back-to-back waves alternating between the two weeks'
///    tables, ending on the later week's, with the stream on the later
///    week from the first wave on — wave time (median);
/// 4. `segment_len` more tuples under the workload's load, timed from
///    the end of the last wave — `post_wave_tps`.
///
/// Waves run on drained queues because `LiveRuntime` ships migrations
/// between peer instances with blocking sends: a wave whose peers both
/// have full inboxes deadlocks. On one tag (nothing can migrate) only
/// step 1 runs, and the tables give way to hash routing.
#[allow(clippy::too_many_lines)]
pub fn run(
    deployment: &Deployment<'_>,
    saturate: bool,
    traced: bool,
    servers: usize,
    report: &mut Report,
) -> Outcome {
    let Deployment {
        trained,
        stream,
        cpus,
        seed,
        seconds,
    } = *deployment;
    let wave = servers > 1;
    let clock = Instant::now();
    let control = Arc::new(Control::default());
    let segment = segment_len(saturate, seconds, servers);
    // Latency window: the paced workload counts from the end of its
    // warm-up; the saturating one from when its backlog is gone.
    let warm_up = WARM_UP.as_nanos() as u64;
    let window = Arc::new((
        AtomicU64::new(if saturate { u64::MAX } else { warm_up }),
        AtomicU64::new(u64::MAX),
    ));
    let latency = Arc::new(Mutex::new(Vec::new()));
    let seen: Vec<Arc<AtomicU64>> = (0..servers).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let probes: Vec<Arc<SourceProbe>> = (0..servers)
        .map(|_| {
            let p = SourceProbe::default();
            p.switched_at.store(u64::MAX, Ordering::Relaxed);
            Arc::new(p)
        })
        .collect();
    // Each source replays its own share of the week; a single source
    // replays all of them.
    let shares = |week: &[Column]| -> Vec<Replay> {
        if servers == week.len() {
            week.iter()
                .map(|c| Replay::new(vec![Arc::clone(c)]))
                .collect()
        } else {
            vec![Replay::new(week.to_vec()); servers]
        }
    };
    let (pre, post) = (shares(&stream.pre), shares(&stream.post));

    // Tables as deployed, with fallback counters attached. As deployed,
    // tables built from one week route the next: the stream replays week
    // w before the waves and week w + 1 after them, under the tables of
    // weeks w - 1 and w.
    let fallbacks = Fallbacks::default();
    let (ta0, tb0) = &trained.weeks[TRAIN_WEEKS - 3].tables;
    let (ta1, tb1) = &trained.weeks[TRAIN_WEEKS - 2].tables;
    let route = |t: &RoutingTable, c: &(Counter, Counter), epoch| -> Arc<dyn KeyRouter> {
        if wave {
            Arc::new(deployed(t, c, epoch))
        } else {
            Arc::new(HashRouter)
        }
    };

    // Server tag `i` (instance `i` of every operator) runs on CPU
    // `cpus[i]`, wrapping around when there are fewer CPUs than tags.
    let tag_cpus: Vec<Option<usize>> = (0..servers)
        .map(|i| (!cpus.is_empty()).then(|| cpus[i % cpus.len()]))
        .collect();
    let gap_ns = 1e9 * servers as f64 / PACED_RATE;
    let gens: Vec<Mutex<Option<Generator>>> = (0..servers)
        .map(|i| {
            Mutex::new(Some(Generator {
                pre: pre[i].clone(),
                post: post[i].clone(),
                emitted: 0,
                switched: false,
                control: Arc::clone(&control),
                probe: Arc::clone(&probes[i]),
                clock,
                gap_ns,
                offset_ns: gap_ns * i as f64 / servers as f64,
                schedule: None,
                burst: segment / (servers as u64 * BURSTS),
                bursts: 0,
                burst_end: 0,
                now_ns: 0,
                lag_max_ns: 0,
                cpu: tag_cpus[i],
            }))
        })
        .collect();
    let mut builder = Topology::builder();
    let s = builder.source("S", servers, SourceRate::Saturate, move |i| {
        let mut g = gens[i]
            .lock()
            .expect("generator lock")
            .take()
            .expect("one source per generator");
        Box::new(move || Some(g.next()))
    });
    let a_cpus = tag_cpus.clone();
    let a = builder.stateful(
        "A",
        servers,
        Box::new(move |i| {
            Box::new(Pinned {
                inner: CountOperator::new(),
                cpu: a_cpus[i],
            })
        }),
    );
    let (sink_window, sink_out, sink_seen) =
        (Arc::clone(&window), Arc::clone(&latency), seen.clone());
    let b = builder.stateful(
        "B",
        servers,
        Box::new(move |i| {
            Box::new(Pinned {
                inner: LatencySink {
                    inner: CountOperator::new(),
                    clock,
                    window: Arc::clone(&sink_window),
                    seen: Arc::clone(&sink_seen[i]),
                    latency_ns: Vec::new(),
                    out: Arc::clone(&sink_out),
                },
                cpu: tag_cpus[i],
            })
        }),
    );
    let e_sa = builder.connect(s, a, Grouping::fields_with(0, route(ta0, &fallbacks.a, 0)));
    let e_ab = builder.connect(a, b, Grouping::fields_with(1, route(tb0, &fallbacks.b, 0)));
    let topology = builder.build().expect("valid chain");

    let capacity = ManagerConfig::default().sketch_capacity;
    let trackers: Vec<Arc<PairTracker>> =
        (0..servers).map(|_| PairTracker::new(capacity)).collect();
    let observers: Vec<LiveObserver> = trackers
        .iter()
        .enumerate()
        .map(|(i, t)| (a, i, e_ab, 1, Box::new(t.handle()) as Box<dyn PairObserver>))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        metrics: Some(Arc::clone(&registry)),
        span_sampler: traced.then(|| SpanSampler::new(seed, SPAN_SAMPLING)),
        ..LiveConfig::default()
    };
    let placement = Placement::aligned(&topology, servers);
    let routed = registry.counter("live_tuples_routed_total", "");
    // Wave `i` moves to the later week's tables when `i` is even and
    // back when odd; its tables carry routing epoch `i + 1`.
    let forward = migrations(a, ta0, ta1)
        .into_iter()
        .chain(migrations(b, tb0, tb1))
        .collect::<Vec<_>>();
    let migrated_keys = forward.len();
    let plan = |i: usize| {
        let ((ta, tb), moves) = if i.is_multiple_of(2) {
            ((ta1, tb1), forward.clone())
        } else {
            (
                (ta0, tb0),
                forward
                    .iter()
                    .map(|&(po, k, from, to)| (po, k, to, from))
                    .collect(),
            )
        };
        let epoch = i as u64 + 1;
        LiveReconfig {
            routers: vec![
                (s, e_sa, route(ta, &fallbacks.a, epoch)),
                (a, e_ab, route(tb, &fallbacks.b, epoch)),
            ],
            migrations: moves,
        }
    };
    let sampler = Sampler {
        probes: &probes,
        seen: &seen,
    };

    let runtime =
        LiveRuntime::start_with_observers(topology, placement, servers, config, observers);
    let pre_bursts = sampler.loaded(&control, saturate, segment);
    let pre_locality = runtime.edge_locality(e_ab);
    let mut waves: Vec<(f64, Result<(), ReconfigError>)> = Vec::new();
    let mut post_bursts = Vec::new();
    let mut at_wave = (pre_locality, 0u64);
    if wave {
        sampler.drain();
        std::thread::sleep(SETTLE);
        if saturate {
            window
                .0
                .store(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_secs_f64(seconds * PACED));
        window
            .1
            .store(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);

        control.post_week.store(true, Ordering::Relaxed);
        for i in 0..WAVES {
            let tw = Instant::now();
            let result = runtime.reconfigure_with_deadline(plan(i), WaveConfig::default());
            waves.push((tw.elapsed().as_secs_f64(), result));
        }
        // Hop transfers so far: all routed tuples minus those the
        // sources routed (their progress).
        at_wave = (
            runtime.edge_locality(e_ab),
            routed.get().saturating_sub(sampler.progress()),
        );
        post_bursts = sampler.loaded(&control, saturate, segment);
    }
    runtime.stop();
    let final_locality = runtime.edge_locality(e_ab);
    let reports = runtime.join();
    let mega = |r: &[f64]| {
        r.iter()
            .map(|x| format!("{:.3}", x / 1e6))
            .collect::<Vec<_>>()
    };
    println!(
        "burst tuples/s (M): before the waves {:?}, after {:?}",
        mega(&pre_bursts),
        mega(&post_bursts)
    );

    // Oracle: per-key counts at A and B equal a pure fold of the
    // emitted stream, every key has exactly one owner (the one the
    // last deployed tables name), and nothing was lost.
    let emitted_by: Vec<u64> = (0..servers)
        .map(|i| {
            reports
                .iter()
                .find(|r| r.po == s && r.instance == i)
                .map_or(0, |r| r.processed)
        })
        .collect();
    let emitted: u64 = emitted_by.iter().sum();
    let (mut want_a, mut want_b) = (HashMap::new(), HashMap::new());
    // Largest share of its week any source replayed in one segment
    // (above 1 the replay wrapped around).
    let mut week_passes = 0f64;
    for i in 0..servers {
        let switched = probes[i]
            .switched_at
            .load(Ordering::Relaxed)
            .min(emitted_by[i]);
        pre[i].fold(switched, &mut want_a, &mut want_b);
        post[i].fold(emitted_by[i] - switched, &mut want_a, &mut want_b);
        week_passes = week_passes
            .max(switched as f64 / pre[i].len() as f64)
            .max((emitted_by[i] - switched) as f64 / post[i].len() as f64);
    }
    let failed_waves = waves.iter().filter(|w| w.1.is_err()).count() as u64;
    for (_, r) in &waves {
        if let Err(e) = r {
            eprintln!("wave failed: {e}");
        }
    }
    let (final_a, final_b) = if wave { (ta1, tb1) } else { (ta0, tb0) };
    let check_owner = wave && failed_waves == 0;
    check_state(
        report,
        "A",
        &reports,
        a,
        &want_a,
        |k| owner(final_a, k, servers),
        check_owner,
    );
    check_state(
        report,
        "B",
        &reports,
        b,
        &want_b,
        |k| owner(final_b, k, servers),
        check_owner,
    );
    let counted = count(&reports, b);
    report.check(emitted == counted, || {
        format!("{emitted} tuples emitted but {counted} counted at the sink")
    });
    report.ops(
        emitted + waves.len() as u64,
        emitted.abs_diff(counted) + failed_waves,
    );

    let b_loads: Vec<f64> = reports
        .iter()
        .filter(|r| r.po == b)
        .map(|r| r.processed as f64)
        .collect();
    let imbalance = b_loads.iter().copied().fold(0.0, f64::max) * b_loads.len() as f64
        / b_loads.iter().sum::<f64>().max(1.0);
    // Locality of the hop transfers routed after the last wave.
    let (l1, n1) = (at_wave.0, at_wave.1 as f64);
    let n = emitted as f64;
    let mut latency = std::mem::take(&mut *latency.lock().expect("latency lock"));
    latency.sort_unstable();
    let intervals: Vec<[f64; 3]> = latency
        .chunk_by(|x, y| x.0 == y.0)
        .filter(|c| c.len() >= MIN_INTERVAL_SAMPLES)
        .map(|c| {
            let mut ns: Vec<u32> = c.iter().map(|s| s.1).collect();
            [0.5, 0.9, 0.99].map(|q| quantile(&mut ns, q) / 1e3)
        })
        .collect();
    let latency_us = [0, 1, 2].map(|k| median(&intervals.iter().map(|i| i[k]).collect::<Vec<_>>()));
    Outcome {
        servers,
        emitted,
        pre_wave_tps: median(&pre_bursts),
        post_wave_tps: median(&post_bursts),
        wave_s: median(&waves.iter().map(|w| w.0).collect::<Vec<_>>()),
        migrated_keys,
        pre_locality,
        post_locality: (final_locality * n - l1 * n1) / (n - n1).max(1.0),
        imbalance,
        latency_us,
        latency_samples: latency.len(),
        latency_intervals: intervals.len(),
        gen_lag_max_us: probes
            .iter()
            .map(|p| p.lag_max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0) as f64
            / 1e3,
        week_passes,
        registry,
        fallbacks: fallbacks.total(),
        distinct_pairs: trackers.iter().map(|t| t.snapshot().len()).sum(),
        tracker_capacity: capacity * servers,
        final_epoch: waves.len() as u64,
    }
}

/// Reads the generators' progress and the sinks' counts.
struct Sampler<'a> {
    probes: &'a [Arc<SourceProbe>],
    seen: &'a [Arc<AtomicU64>],
}

impl Sampler<'_> {
    fn progress(&self) -> u64 {
        self.probes
            .iter()
            .map(|p| p.progress.load(Ordering::Relaxed))
            .sum()
    }

    fn seen(&self) -> u64 {
        self.seen.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Tuples generated but not yet seen by a sink.
    fn backlog(&self) -> u64 {
        self.progress().saturating_sub(self.seen())
    }

    /// Waits (up to 10 s) until the backlog is below `DRAIN_BACKLOG`.
    fn drain(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.backlog() > DRAIN_BACKLOG && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs a loaded segment of `n` tuples as `BURSTS` equal bursts
    /// (saturating with the sources holding in between, or on the
    /// open-loop schedule), each timed from its start until the sinks
    /// have seen that many more tuples (less those a holding source may
    /// still buffer), with the backlog drained before each. Returns the
    /// bursts' tuples/s.
    fn loaded(&self, control: &Control, saturate: bool, n: u64) -> Vec<f64> {
        let n = n / BURSTS;
        // Tuples a holding source may leave in its per-destination send
        // buffers: the runtime flushes a saturating source's buffers
        // only when they are full.
        let stuck = (self.probes.len().pow(2) * (LiveConfig::default().batch_size - 1)) as u64;
        control.hold.store(saturate, Ordering::Relaxed);
        let rates = (0..BURSTS)
            .map(|_| {
                self.drain();
                let (start, from) = (Instant::now(), self.seen());
                if saturate {
                    control.bursts.fetch_add(1, Ordering::Relaxed);
                }
                while self.seen() < from + n - stuck {
                    std::thread::sleep(Duration::from_millis(1));
                }
                (self.seen() - from) as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        control.hold.store(false, Ordering::Relaxed);
        rates
    }
}

fn count(reports: &[InstanceReport], po: PoId) -> u64 {
    reports
        .iter()
        .filter(|r| r.po == po)
        .flat_map(|r| r.state.values().filter_map(StateValue::as_count))
        .sum()
}

/// Checks one operator's final state against the fold: exact counts,
/// one owner per key, and (after a wave) the owner the tables name.
fn check_state(
    report: &mut Report,
    name: &str,
    reports: &[InstanceReport],
    po: PoId,
    want: &HashMap<Key, u64>,
    owner: impl Fn(Key) -> usize,
    check_owner: bool,
) {
    let mut seen: HashMap<Key, (usize, u64)> = HashMap::new();
    let mut dup = 0usize;
    let mut misplaced = 0usize;
    for r in reports.iter().filter(|r| r.po == po) {
        for (&k, v) in &r.state {
            let c = v.as_count().unwrap_or(0);
            if c == 0 {
                continue;
            }
            if seen.insert(k, (r.instance, c)).is_some() {
                dup += 1;
            }
            if check_owner && owner(k) != r.instance {
                misplaced += 1;
            }
        }
    }
    let wrong = want
        .iter()
        .filter(|(k, &c)| seen.get(k).map(|&(_, got)| got) != Some(c))
        .count()
        + seen.keys().filter(|k| !want.contains_key(k)).count();
    report.check(dup == 0, || {
        format!("{name}: {dup} keys owned by more than one instance")
    });
    report.check(misplaced == 0, || {
        format!("{name}: {misplaced} keys not at their table owner")
    });
    report.check(wrong == 0, || {
        format!("{name}: {wrong} keys differ from the fold of the stream")
    });
}

/// Merges the span histograms of `phase` at operator `po` and epoch
/// `epoch` (local and remote hops) and returns their median in ns.
fn span_p50(registry: &MetricsRegistry, phase: SpanPhase, po: usize, epoch: u64) -> f64 {
    let mut merged: Option<streamloc_engine::obs::HistogramSnapshot> = None;
    for (name, h) in registry.histograms() {
        let Some(n) = SpanMetricName::parse(&name) else {
            continue;
        };
        if n.phase != phase || n.po != po || n.epoch != epoch {
            continue;
        }
        merged = Some(match merged {
            None => h,
            Some(mut m) => {
                for (a, b) in m.counts.iter_mut().zip(&h.counts) {
                    *a += b;
                }
                m.total += h.total;
                m.sum += h.sum;
                m
            }
        });
    }
    merged.as_ref().map_or(f64::NAN, registry_p50)
}

/// Data-plane layer costs timed on the workload's own columns.
struct Ledger {
    route_ns_per_key: f64,
    runs_per_key: f64,
    observe_ns_per_pair: f64,
    tuples: usize,
}

/// Replays the first `LEDGER_TUPLES` of the pre-wave stream the way the
/// runtime sees it: each source stages `STAGE` tuples and routes their
/// location column (`route_batch`, hop S→A); each `A` instance gets
/// batches of up to 64, observes one pair run per run of equal
/// `(location, hashtag)` (`observe_run`) and routes the hashtag column
/// (`route_batch`, hop A→B).
fn ledger(trained: &Trained, stream: &LiveStream) -> Ledger {
    let (ta, tb) = &trained.weeks[TRAIN_WEEKS - 3].tables;
    let batch = LiveConfig::default().batch_size;
    let mut runs: Vec<DestRun> = Vec::new();
    let mut keys: Vec<Key> = Vec::new();
    let (mut route_ns, mut n_runs, mut n_keys) = (0u128, 0usize, 0usize);

    // Hop S→A, and the batches each A instance receives.
    let mut inbox: Vec<Vec<Vec<(Key, Key)>>> = vec![Vec::new(); SERVERS];
    let mut bufs: Vec<Vec<(Key, Key)>> = vec![Vec::new(); SERVERS];
    let mut n = 0;
    for column in &stream.pre {
        let mine: Vec<(Key, Key)> = column
            .iter()
            .take(LEDGER_TUPLES / SERVERS)
            .map(|&(l, t)| (Key::new(l.into()), Key::new(t.into())))
            .collect();
        n += mine.len();
        for stage in mine.chunks(STAGE as usize) {
            keys.clear();
            keys.extend(stage.iter().map(|p| p.0));
            runs.clear();
            let t = Instant::now();
            ta.route_batch(std::hint::black_box(&keys), SERVERS, &mut runs);
            route_ns += t.elapsed().as_nanos();
            n_runs += runs.len();
            n_keys += keys.len();
            let mut off = 0;
            for r in &runs {
                for &p in &stage[off..off + r.len as usize] {
                    let buf = &mut bufs[r.dest as usize];
                    buf.push(p);
                    if buf.len() == batch {
                        inbox[r.dest as usize].push(std::mem::take(buf));
                    }
                }
                off += r.len as usize;
            }
        }
    }
    for (dest, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            inbox[dest].push(buf);
        }
    }

    // Pair observation and hop A→B at each A instance.
    let capacity = ManagerConfig::default().sketch_capacity;
    let mut observe_ns = 0u128;
    for batches in &inbox {
        let tracker = PairTracker::new(capacity);
        let mut handle = tracker.handle();
        for b in batches {
            let t = Instant::now();
            let mut rest = &b[..];
            while !rest.is_empty() {
                let len = rest.iter().take_while(|p| **p == rest[0]).count();
                handle.observe_run(rest[0].0, rest[0].1, len as u64);
                rest = &rest[len..];
            }
            observe_ns += t.elapsed().as_nanos();
            keys.clear();
            keys.extend(b.iter().map(|p| p.1));
            runs.clear();
            let t = Instant::now();
            tb.route_batch(std::hint::black_box(&keys), SERVERS, &mut runs);
            route_ns += t.elapsed().as_nanos();
            n_runs += runs.len();
            n_keys += keys.len();
        }
        std::hint::black_box(tracker.total());
    }
    Ledger {
        route_ns_per_key: route_ns as f64 / n_keys as f64,
        runs_per_key: n_runs as f64 / n_keys as f64,
        observe_ns_per_pair: observe_ns as f64 / n as f64,
        tuples: n,
    }
}

/// Per-layer metrics of the live workloads, from the traced run's span
/// histograms and registry counters, the untraced run, a one-tag
/// baseline and the layer ledger, whose measured cost comes from the
/// `saturated` run.
pub fn report_layers(
    deployment: &Deployment<'_>,
    untraced: &Outcome,
    traced: &Outcome,
    saturated: &Outcome,
    report: &mut Report,
) {
    let (a, b) = (1usize, 2usize);
    report.metric("live.pre_wave_tps", untraced.pre_wave_tps, "tuples/s");
    report.metric("live.post_wave_tps", untraced.post_wave_tps, "tuples/s");
    report.metric("workloads.gen_lag_max_us", traced.gen_lag_max_us, "us");
    report.metric("workloads.week_passes", untraced.week_passes, "ratio");
    let l = ledger(deployment.trained, deployment.stream);
    report.metric(
        "routing_table.route_batch_ns_per_key",
        l.route_ns_per_key,
        "ns",
    );
    report.metric("routing_table.runs_per_key", l.runs_per_key, "ratio");
    report.metric(
        "routing_table.fallback_share",
        untraced.fallback_share(),
        "share",
    );
    report.metric("tracker.observe_ns_per_pair", l.observe_ns_per_pair, "ns");
    report.metric(
        "tracker.distinct_pairs",
        untraced.distinct_pairs as f64,
        "count",
    );
    report.metric(
        "tracker.capacity_share",
        untraced.distinct_pairs as f64 / untraced.tracker_capacity as f64,
        "share",
    );
    let sends = traced.counter("live_batch_sends_total").max(1);
    report.metric(
        "live.tuples_per_send",
        traced.counter("live_batch_tuples_total") as f64 / sends as f64,
        "tuples",
    );
    report.metric(
        "live.control_flushes",
        traced.counter("live_batch_control_flushes_total") as f64,
        "count",
    );
    report.metric(
        "live.migrations",
        traced.counter("live_migrations_total") as f64,
        "count",
    );
    report.metric(
        "live.migration_bytes",
        traced.counter("live_migration_bytes_total") as f64,
        "bytes",
    );
    for (po, name) in [(a, "A"), (b, "B")] {
        // e0: before the first wave; e1: after the last one.
        for (label, epoch) in [("e0", 0), ("e1", traced.final_epoch)] {
            let proc_ns = span_p50(&traced.registry, SpanPhase::Proc, po, epoch);
            let queue_ns = span_p50(&traced.registry, SpanPhase::Queue, po, epoch);
            report.metric(format!("live.proc_ns_p50.{name}.{label}"), proc_ns, "ns");
            report.metric(format!("live.queue_ns_p50.{name}.{label}"), queue_ns, "ns");
        }
    }
    report.metric("live.pre_wave_locality", untraced.pre_locality, "share");
    report.metric("live.wave_ms", untraced.wave_s * 1e3, "ms");
    for (name, value) in ["p50", "p90", "p99"].iter().zip(untraced.latency_us) {
        report.metric(format!("live.latency_{name}_us"), value, "us");
    }
    report.metric(
        "live.latency_samples",
        untraced.latency_samples as f64,
        "count",
    );
    report.metric(
        "live.latency_intervals",
        untraced.latency_intervals as f64,
        "count",
    );
    report.metric(
        "obs.tracing_overhead",
        1.0 - traced.pre_wave_tps / untraced.pre_wave_tps,
        "share",
    );

    // Layer ledger: predicted CPU ns per tuple from the timed layers
    // against the measured cost, with every core busy.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let threads = (3 * saturated.servers) as f64;
    let busy = cores.min(threads);
    let predicted = 2.0 * l.route_ns_per_key + l.observe_ns_per_pair;
    let measured = busy * 1e9 / saturated.pre_wave_tps;
    println!(
        "ledger over {} tuples: route_batch x2 {:.1} + observe_run {:.1} = {predicted:.1} ns/tuple predicted; \
         measured {measured:.1} ns/tuple ({busy} busy threads)",
        l.tuples,
        2.0 * l.route_ns_per_key,
        l.observe_ns_per_pair
    );
    report.metric("ledger.wave.predicted_ns_per_tuple", predicted, "ns");
    report.metric("ledger.wave.measured_ns_per_tuple", measured, "ns");
    report.metric(
        "ledger.wave.residual_ns_per_tuple",
        measured - predicted,
        "ns",
    );

    // The same job on one server tag: three threads.
    let mut scratch = Report::default();
    let single = run(deployment, true, false, 1, &mut scratch);
    for e in scratch.errors {
        report.check(false, || format!("one-tag baseline: {e}"));
    }
    report.metric("live.single_instance_tps", single.pre_wave_tps, "tuples/s");
}
