//! Set-up: stream generation and manager training.
//!
//! The Twitter-like generator stands in for the paper's Oct 2015 –
//! May 2016 crawl: Zipf-skewed, correlated `(location, hashtag)` pairs
//! whose correlations drift weekly. `TRAIN_WEEKS` weeks are generated
//! from the seed and fed to a `Simulation` of the benchmark's chain one
//! week at a time; after each week the repository's `Manager` rebuilds
//! its tables (`Manager::reconfigure`, timed). The first rebuild is
//! cold, later ones are warm-started. The last two weeks become the
//! live run's stream before and after its waves, routed by the tables
//! of the week before each. The live run replays those two weeks
//! generated again with as many tweets per day as its segments can
//! consume (`live_stream`): the generator draws each day from a seed of
//! its own, so the training weeks are a prefix of every live day.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use streamloc_core::{Manager, ManagerConfig, PairTracker, ReconfigSummary, RoutingTable};
use streamloc_engine::{
    ClusterSpec, CountOperator, EdgeId, Grouping, Key, Placement, PoId, SimConfig, Simulation,
    SourceRate, Topology, Tuple,
};
use streamloc_partition::{KeyGraph, MultilevelPartitioner, Partition, Partitioner};
use streamloc_sketch::SpaceSaving;
use streamloc_workloads::{TwitterConfig, TwitterWorkload, DAYS_PER_WEEK};

use crate::stats::median;
use crate::Report;

/// Server tags (and instances per operator) of the deployment.
pub const SERVERS: usize = 2;
/// Weeks the manager is trained on; the live run replays the last two
/// under the tables of the two weeks before them.
pub const TRAIN_WEEKS: usize = 4;
/// Simulated 100 ms windows per week; the source rate makes every
/// window emit exactly a 35th of the week.
const WINDOWS_PER_WEEK: usize = 35;
/// Windows skipped after a rebuild before measuring simulated
/// locality, so the wave it started has finished.
const WAVE_WINDOWS: usize = 5;
/// A key space the manager is trained on, and the training weeks' size.
#[derive(Debug, Clone, Copy)]
pub struct Space {
    locations: usize,
    hashtags: usize,
    tuples_per_day: usize,
}

/// Key space of the live runs: the generator's defaults of 300
/// locations, 30 000 hashtags and 10 000 tweets a day. A live wave
/// ships migrations between peer instances with blocking sends, and
/// deadlocks once one direction exceeds the receiver's free inbox
/// capacity (8192 messages by default); on this space each direction
/// carries a few thousand keys.
pub const LIVE: Space = Space {
    locations: 300,
    hashtags: 30_000,
    tuples_per_day: 10_000,
};

/// Key space of the rebuild measurement: order 10^5 hashtags, and twice
/// the default day, so the tables hold about 30 000 keys (the rebuild
/// prototype measured about 40 000).
pub const LARGE: Space = Space {
    locations: 1_000,
    hashtags: 100_000,
    tuples_per_day: 20_000,
};

/// One source's share of a live week: every `SERVERS`-th tweet of each
/// day, as `(location, hashtag)` key values (all below 2^32, so half
/// the memory of a pair of keys).
pub type Column = Arc<Vec<(u32, u32)>>;

/// The live run's stream: per source, the week replayed before the
/// waves (`TRAIN_WEEKS - 2`) and the one after them.
pub struct LiveStream {
    pub pre: Vec<Column>,
    pub post: Vec<Column>,
    pub tuples_per_day: usize,
}

/// Per-phase timings of one replayed rebuild (milliseconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct RebuildLedger {
    merge_ms: f64,
    graph_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
    table_ms: f64,
    expected_locality: f64,
}

/// One trained week.
pub struct Week {
    /// Tables the manager built from this week: `(A, B)`.
    pub tables: (RoutingTable, RoutingTable),
    rebuild_ms: f64,
    summary: Option<ReconfigSummary>,
    /// Simulated locality / B imbalance while this week ran under the
    /// previous week's tables.
    sim_locality: f64,
    sim_imbalance: f64,
    ledger: Option<RebuildLedger>,
}

/// The trained deployment.
pub struct Trained {
    pub weeks: Vec<Week>,
    failed_rebuilds: u64,
    /// `(emitted, counted at A, counted at B)` by the simulation at
    /// each week boundary, before that week's rebuild.
    conservation: Vec<(u64, u64, u64)>,
}

fn stream(seed: u64, space: Space) -> TwitterWorkload {
    TwitterWorkload::new(TwitterConfig {
        locations: space.locations,
        hashtags: space.hashtags,
        tuples_per_day: space.tuples_per_day,
        seed,
        ..TwitterConfig::default()
    })
}

/// Generates the live weeks on the live key space with at least
/// `week_len` tweets each (one thread per week).
pub fn live_stream(seed: u64, week_len: usize) -> LiveStream {
    let tuples_per_day = week_len.div_ceil(DAYS_PER_WEEK);
    let space = Space {
        tuples_per_day,
        ..LIVE
    };
    let week = |w: usize| -> Vec<Column> {
        let mut gen = stream(seed, space);
        let per_source = tuples_per_day * DAYS_PER_WEEK / SERVERS + DAYS_PER_WEEK;
        let mut shares: Vec<Vec<(u32, u32)>> = (0..SERVERS)
            .map(|_| Vec::with_capacity(per_source))
            .collect();
        let narrow = |k: Key| u32::try_from(k.value()).expect("key values fit in 32 bits");
        for d in 0..DAYS_PER_WEEK {
            for (j, (loc, tag)) in gen.day(w * DAYS_PER_WEEK + d).into_iter().enumerate() {
                shares[j % SERVERS].push((narrow(loc), narrow(tag)));
            }
        }
        shares.into_iter().map(Arc::new).collect()
    };
    let (pre, post) = std::thread::scope(|s| {
        let pre = s.spawn(|| week(TRAIN_WEEKS - 2));
        let post = week(TRAIN_WEEKS - 1);
        (pre.join().expect("generator thread"), post)
    });
    LiveStream {
        pre,
        post,
        tuples_per_day,
    }
}

/// Builds the simulated chain; source `i` emits every `SERVERS`-th
/// tuple of `all`, starting at `i`.
fn sim_chain(all: Arc<Vec<(Key, Key)>>, week_len: usize) -> (Simulation, PoId, PoId, EdgeId) {
    let per_window = (week_len / WINDOWS_PER_WEEK / SERVERS) as f64;
    let mut b = Topology::builder();
    let s = b.source(
        "S",
        SERVERS,
        SourceRate::PerSecond(per_window * 10.0),
        move |i| {
            let all = Arc::clone(&all);
            let mut next = i;
            Box::new(move || {
                let &(loc, tag) = all.get(next)?;
                next += SERVERS;
                Some(Tuple::new([loc, tag], 0))
            })
        },
    );
    let a = b.stateful("A", SERVERS, CountOperator::factory());
    let bb = b.stateful("B", SERVERS, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    let hop = b.connect(a, bb, Grouping::fields(1));
    let topo = b.build().expect("valid chain");
    let placement = Placement::aligned(&topo, SERVERS);
    let sim = Simulation::new(
        topo,
        ClusterSpec::lan_10g(SERVERS),
        placement,
        SimConfig::default(),
    );
    (sim, a, bb, hop)
}

/// Generates the weeks of `space` and trains the manager on them. With
/// `ledger`, extra pair trackers observe the same pairs as the
/// manager's, and each rebuild is replayed phase by phase through the
/// public layer functions.
pub fn train(seed: u64, space: Space, ledger: bool) -> Trained {
    let mut gen = stream(seed, space);
    let all: Arc<Vec<(Key, Key)>> = Arc::new((0..TRAIN_WEEKS).flat_map(|w| gen.week(w)).collect());
    let (mut sim, a, b, hop) = sim_chain(Arc::clone(&all), DAYS_PER_WEEK * space.tuples_per_day);
    let config = ManagerConfig::default();
    let mut manager = Manager::attach(&mut sim, config.clone());
    let b_pois = sim.poi_ids(b);

    let probes: Vec<Arc<PairTracker>> = if ledger {
        sim.poi_ids(a)
            .into_iter()
            .map(|poi| {
                let t = PairTracker::new(config.sketch_capacity);
                sim.add_pair_observer(poi, hop, 1, Box::new(t.handle()));
                t
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut weeks = Vec::with_capacity(TRAIN_WEEKS);
    let mut failed_rebuilds = 0;
    let mut conservation = Vec::with_capacity(TRAIN_WEEKS);
    let mut prev_parts: HashMap<(bool, Key), u32> = HashMap::new();
    for _ in 0..TRAIN_WEEKS {
        let skip = sim.metrics().windows().len() + WAVE_WINDOWS;
        sim.run(WINDOWS_PER_WEEK);
        let sim_locality = sim.metrics().edge_locality(hop, skip);
        let sim_imbalance = sim.metrics().load_imbalance(&b_pois, skip);
        let counted = |po: PoId| -> u64 {
            sim.poi_ids(po)
                .into_iter()
                .flat_map(|poi| sim.poi_state(poi).values().filter_map(|v| v.as_count()))
                .sum()
        };
        let emitted: u64 = sim.metrics().windows().iter().map(|w| w.emitted).sum();
        conservation.push((emitted, counted(a), counted(b)));
        let snaps: Vec<SpaceSaving<(Key, Key)>> = probes.iter().map(|t| t.snapshot()).collect();
        probes.iter().for_each(|t| t.reset());

        let t = Instant::now();
        let result = manager.reconfigure(&mut sim);
        let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
        let summary = match result {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("rebuild failed: {e}");
                failed_rebuilds += 1;
                None
            }
        };
        let tables = (
            manager.table_for(a).cloned().unwrap_or_default(),
            manager.table_for(b).cloned().unwrap_or_default(),
        );
        let ledger = ledger.then(|| replay(&snaps, config.sketch_capacity, &mut prev_parts));
        weeks.push(Week {
            tables,
            rebuild_ms,
            summary,
            sim_locality,
            sim_imbalance,
            ledger,
        });
    }
    Trained {
        weeks,
        failed_rebuilds,
        conservation,
    }
}

/// Replays one rebuild through the layers the manager composes:
/// SpaceSaving merge, key-graph build, multilevel partitioning (cold,
/// and warm from the previous replay's assignment) and table build.
fn replay(
    snaps: &[SpaceSaving<(Key, Key)>],
    capacity: usize,
    prev_parts: &mut HashMap<(bool, Key), u32>,
) -> RebuildLedger {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let alpha = ManagerConfig::default().alpha;
    let seed = ManagerConfig::default().seed;

    let t = Instant::now();
    let mut merged = snaps[0].clone();
    for s in &snaps[1..] {
        merged = SpaceSaving::merged(&merged, s, capacity);
    }
    let merge_ms = ms(t);

    let t = Instant::now();
    let mut kg: KeyGraph<Key, Key> = KeyGraph::new();
    for e in merged.iter() {
        let &(ka, kb) = e.key;
        kg.add_pair(ka, kb, e.count);
    }
    let (graph, left, right) = kg.into_graph();
    let graph_ms = ms(t);

    let partitioner = MultilevelPartitioner::default();
    let t = Instant::now();
    let cold = partitioner.partition(&graph, SERVERS, alpha, seed);
    let cold_ms = ms(t);

    let mut hint = vec![u32::MAX; graph.vertex_count()];
    for (side, ids) in [(false, &left), (true, &right)] {
        for (k, &v) in ids {
            if let Some(&p) = prev_parts.get(&(side, *k)) {
                hint[v as usize] = p;
            }
        }
    }
    // The first week has no assignment to start from and stays cold, as
    // in the manager; only later weeks are reported.
    let t = Instant::now();
    let warm: Partition = if prev_parts.is_empty() {
        cold
    } else {
        partitioner.partition_with_hint(&graph, SERVERS, alpha, seed, &hint)
    };
    let warm_ms = ms(t);

    let t = Instant::now();
    let table_a: RoutingTable = left.iter().map(|(&k, &v)| (k, warm.part(v))).collect();
    let table_b: RoutingTable = right.iter().map(|(&k, &v)| (k, warm.part(v))).collect();
    std::hint::black_box((&table_a, &table_b));
    let table_ms = ms(t);

    prev_parts.clear();
    prev_parts.extend(left.iter().map(|(&k, &v)| ((false, k), warm.part(v))));
    prev_parts.extend(right.iter().map(|(&k, &v)| ((true, k), warm.part(v))));
    RebuildLedger {
        merge_ms,
        graph_ms,
        cold_ms,
        warm_ms,
        table_ms,
        expected_locality: warm.locality(&graph),
    }
}

impl Trained {
    /// Rebuild times of the warm-started weeks (all but the first).
    pub fn warm_rebuild_ms(&self) -> Vec<f64> {
        self.weeks[1..].iter().map(|w| w.rebuild_ms).collect()
    }

    /// Counts lost by the simulation at the last week boundary (emitted
    /// minus counted, over `A` and `B`): the simulator's migration
    /// replaces state the destination already holds.
    pub fn sim_lost_counts(&self) -> u64 {
        self.conservation
            .last()
            .map_or(0, |&(e, a, b)| e.saturating_sub(a) + e.saturating_sub(b))
    }

    /// Checks the training run and counts its rebuilds as operations.
    pub fn check(&self, report: &mut Report) {
        report.ops(self.weeks.len() as u64, self.failed_rebuilds);
        for (week, &(emitted, a, b)) in self.conservation.iter().enumerate() {
            if a != emitted || b != emitted {
                println!(
                    "simulation week {week}: {emitted} tuples emitted, {a} counted at A, {b} at B"
                );
            }
        }
        for (i, w) in self.weeks.iter().enumerate() {
            report.check(!w.tables.0.is_empty() && !w.tables.1.is_empty(), || {
                format!("week {i}: the manager built an empty table")
            });
        }
    }

    /// Per-layer metrics of the rebuild: the replayed ledger, the
    /// manager's own residual, and simulated locality and balance.
    pub fn report_layers(&self, report: &mut Report) {
        let warm: Vec<&Week> = self.weeks[1..].iter().collect();
        let ledgers: Vec<RebuildLedger> = warm.iter().filter_map(|w| w.ledger).collect();
        let pick =
            |f: fn(&RebuildLedger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
        let rebuild = median(&self.warm_rebuild_ms());
        let merge = pick(|l| l.merge_ms);
        let graph = pick(|l| l.graph_ms);
        let warm_ms = pick(|l| l.warm_ms);
        let table = pick(|l| l.table_ms);
        report.metric("manager.rebuild_ms", rebuild, "ms");
        report.metric(
            "manager.rebuild_samples",
            self.warm_rebuild_ms().len() as f64,
            "count",
        );
        report.metric("sketch.merge_ms", merge, "ms");
        report.metric("partition.graph_build_ms", graph, "ms");
        report.metric("partition.cold_ms", pick(|l| l.cold_ms), "ms");
        report.metric("partition.warm_ms", warm_ms, "ms");
        report.metric("routing_table.build_ms", table, "ms");
        report.metric(
            "manager.residual_ms",
            rebuild - (merge + graph + warm_ms + table),
            "ms",
        );
        report.metric(
            "partition.replay_locality",
            pick(|l| l.expected_locality),
            "share",
        );
        let summaries: Vec<&ReconfigSummary> =
            warm.iter().filter_map(|w| w.summary.as_ref()).collect();
        let avg = |f: fn(&ReconfigSummary) -> f64| {
            summaries.iter().map(|s| f(s)).sum::<f64>() / summaries.len().max(1) as f64
        };
        report.metric(
            "partition.expected_locality",
            avg(|s| s.expected_locality),
            "share",
        );
        report.metric(
            "manager.table_entries",
            avg(|s| s.table_entries as f64),
            "count",
        );
        report.metric(
            "manager.migrations_per_week",
            avg(|s| s.migrations as f64),
            "count",
        );
        let sim_weeks = &self.weeks[1..];
        let n = sim_weeks.len() as f64;
        report.metric(
            "sim.locality",
            sim_weeks.iter().map(|w| w.sim_locality).sum::<f64>() / n,
            "share",
        );
        report.metric(
            "sim.imbalance",
            sim_weeks.iter().map(|w| w.sim_imbalance).sum::<f64>() / n,
            "ratio",
        );
    }
}
