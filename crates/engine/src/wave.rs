//! The reconfiguration wave (paper §3.4, Algorithm 1), written once
//! for both runtimes.
//!
//! Both halves of the protocol are sans-IO: they own the wave's state
//! and answer each input with what to do, but send, charge and move
//! nothing. The simulator (`reconfig.rs`) and the live runtime
//! (`live.rs`) keep their own I/O and call them for every rule.
//! [`WaveInstance`] is one instance's side: stage ③, count ⑤ and apply
//! on the last one (or on a forced apply), admit each key run, release
//! a key's buffer when its ⑥ arrives, and reset on a crash or restore.
//! [`WaveCoordinator`] is the manager's side: whom to stage, where to
//! release ⑤, when an attempt has failed and whether to retry.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::key::Key;
use crate::reconfig::{ReconfigError, WaveConfig};
use crate::router::KeyRouter;
use crate::topology::{EdgeId, Topology};

/// Where the wave's messages go, computed once per deployment. Both
/// runtimes name instance `i` of operator `po` by the global index
/// `instances(po).start + i`.
pub(crate) struct Addressing {
    /// Global index of each operator's first instance, then the total.
    bases: Vec<usize>,
    /// Instances of the operators without inputs, where ⑤ starts.
    pub(crate) roots: Vec<usize>,
    /// Per operator: where its ⑤ and `Eos` go, once per out edge.
    pub(crate) successors: Vec<Vec<usize>>,
    /// Per operator: the ⑤ per wave (and `Eos`) an instance receives.
    pub(crate) preds: Vec<usize>,
}

impl Addressing {
    pub(crate) fn new(topo: &Topology) -> Self {
        let mut bases = vec![0];
        for po in &topo.pos {
            bases.push(bases[bases.len() - 1] + po.parallelism);
        }
        let mut preds = vec![0; topo.pos.len()];
        for edge in &topo.edges {
            preds[edge.to.index()] += topo.pos[edge.from.index()].parallelism;
        }
        let instances = |po: usize| bases[po]..bases[po + 1];
        let roots = (0..preds.len())
            .filter(|&po| preds[po] == 0)
            .flat_map(instances)
            .collect();
        let successors = (topo.out_edges.iter())
            .map(|out| {
                out.iter()
                    .flat_map(|e| instances(topo.edges[e.index()].to.index()))
                    .collect()
            })
            .collect();
        Self {
            bases,
            roots,
            successors,
            preds,
        }
    }

    /// Number of instances in the deployment.
    pub(crate) fn total(&self) -> usize {
        self.bases[self.bases.len() - 1]
    }

    /// Global indices of operator `po`'s instances.
    pub(crate) fn instances(&self, po: usize) -> Range<usize> {
        self.bases[po]..self.bases[po + 1]
    }
}

/// The per-instance payload of a ③ `SEND_RECONF` message. Instances
/// are named by their global index (operator base + instance).
#[derive(Clone, Default)]
pub(crate) struct StagedReconf {
    /// New routers for this instance's out edges.
    pub(crate) routers: Vec<(EdgeId, Arc<dyn KeyRouter>)>,
    /// Keys whose state this instance ships, with their new owner.
    pub(crate) send: Vec<(Key, usize)>,
    /// Keys whose state this instance receives (spent by staging).
    pub(crate) receive: Vec<Key>,
}

/// Splits a plan of `(instance, edge, router)` updates and `(old owner,
/// key, new owner)` migrations into one [`StagedReconf`] per instance.
pub(crate) fn split_plan(
    n: usize,
    routers: impl IntoIterator<Item = (usize, EdgeId, Arc<dyn KeyRouter>)>,
    migrations: impl IntoIterator<Item = (usize, Key, usize)>,
) -> Vec<StagedReconf> {
    let mut staged = vec![StagedReconf::default(); n];
    for (idx, edge, router) in routers {
        staged[idx].routers.push((edge, router));
    }
    for (from, key, to) in migrations {
        staged[from].send.push((key, to));
        staged[to].receive.push(key);
    }
    staged
}

/// The wave's control messages as an instance receives them.
#[derive(Clone)]
pub(crate) enum WaveMsg {
    /// ③ A new configuration to stage.
    Reconf(StagedReconf),
    /// ⑤ One predecessor instance (or the manager) has switched.
    Propagate,
    /// Apply now, without the ⑤ still outstanding (the live
    /// coordinator's recovery when they were lost).
    ForceApply,
}

/// What an instance does with a run of tuples sharing one state key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// The key is owned here: process the run.
    Process,
    /// The key's state is on its way here: the run was buffered.
    Buffer {
        /// The key's buffer was empty before this run.
        first: bool,
    },
    /// The key's state left: send the run to this instance, its owner.
    Forward(usize),
}

/// One instance's side of the wave protocol, generic over the buffered
/// tuple type `B`.
pub(crate) struct WaveInstance<B> {
    /// Predecessor instances, each of which sends one ⑤.
    preds: usize,
    staged: Option<StagedReconf>,
    /// ⑤ still expected before the staged configuration applies.
    awaiting: usize,
    /// Keys whose state is on its way here, with the tuples buffered
    /// for each until its ⑥ arrives.
    pending: HashMap<Key, Vec<B>>,
    /// Keys this instance shipped, with their new owner, until the
    /// next [`stage`](Self::stage).
    departed: HashMap<Key, usize>,
}

impl<B: Clone> WaveInstance<B> {
    /// An idle instance with `preds` predecessor instances (0 for a
    /// root, which waits for the manager's single ⑤).
    pub(crate) fn new(preds: usize) -> Self {
        Self {
            preds,
            staged: None,
            awaiting: 0,
            pending: HashMap::new(),
            departed: HashMap::new(),
        }
    }

    /// ③ Stages `staged` and opens a buffer per receive-list key.
    /// Stragglers of the previous wave are assumed drained by now, so
    /// its departed keys are forgotten.
    pub(crate) fn stage(&mut self, mut staged: StagedReconf) {
        self.departed.clear();
        for key in std::mem::take(&mut staged.receive) {
            self.pending.entry(key).or_default();
        }
        self.awaiting = self.preds.max(1);
        self.staged = Some(staged);
    }

    /// ⑤ Counts one propagate, or with `force` every one still
    /// outstanding (a forced apply). The last one returns the staged
    /// configuration, once, and records its sent keys as departed.
    /// Duplicate or stale ones (after a crash, a delay or a restarted
    /// wave) return `None`.
    pub(crate) fn propagate(&mut self, force: bool) -> Option<StagedReconf> {
        if self.awaiting == 0 {
            return None;
        }
        self.awaiting = if force { 0 } else { self.awaiting - 1 };
        if self.awaiting > 0 {
            return None;
        }
        let staged = self.staged.take()?;
        for &(key, owner) in &staged.send {
            self.departed.insert(key, owner);
        }
        Some(staged)
    }

    /// `true` when every run would be processed, so a caller may skip
    /// [`admit`](Self::admit).
    pub(crate) fn is_quiet(&self) -> bool {
        self.pending.is_empty() && self.departed.is_empty()
    }

    /// Decides what happens to `run`, tuples whose state key is `key`:
    /// buffered (a copy is kept) while the key's state is on its way
    /// here, else forwarded if it left, else processed.
    pub(crate) fn admit(&mut self, key: Key, run: &[B]) -> Admit {
        if let Some(buf) = self.pending.get_mut(&key) {
            let first = buf.is_empty();
            buf.extend_from_slice(run);
            return Admit::Buffer { first };
        }
        match self.departed.get(&key) {
            Some(&owner) => Admit::Forward(owner),
            None => Admit::Process,
        }
    }

    /// ⑥ `key`'s state arrived: stops buffering it and returns what was
    /// buffered, in arrival order (`None` if nothing was expected).
    pub(crate) fn release(&mut self, key: Key) -> Option<Vec<B>> {
        self.pending.remove(&key)
    }

    /// Keys still waiting for their state.
    pub(crate) fn buffered_keys(&self) -> usize {
        self.pending.len()
    }

    /// `true` while some key has tuples buffered.
    pub(crate) fn holds_tuples(&self) -> bool {
        self.pending.values().any(|buf| !buf.is_empty())
    }

    /// Gives up on every ⑥ still expected: stops buffering and returns
    /// the keys holding tuples with their tuples, sorted by key.
    pub(crate) fn take_orphans(&mut self) -> Vec<(Key, Vec<B>)> {
        let mut orphans: Vec<_> = (self.pending.drain())
            .filter(|(_, buf)| !buf.is_empty())
            .collect();
        orphans.sort_unstable_by_key(|&(key, _)| key);
        orphans
    }

    /// Forgets all wave state. Returns how many buffered tuples it lost.
    pub(crate) fn reset(&mut self) -> usize {
        let lost = self.pending.values().map(Vec::len).sum();
        *self = Self::new(self.preds);
        lost
    }

    /// Reverts this instance's part of a wave: forgets all wave state,
    /// then forwards each buffered key to `old_owner(key)` if the wave
    /// was moving it here. Returns every buffer, sorted by key.
    pub(crate) fn roll_back(
        &mut self,
        old_owner: impl Fn(Key) -> Option<usize>,
    ) -> Vec<(Key, Vec<B>)> {
        let mut buffered: Vec<_> = self.pending.drain().collect();
        self.reset();
        buffered.sort_by_key(|&(key, _)| key);
        for &(key, _) in &buffered {
            if let Some(owner) = old_owner(key) {
                self.departed.insert(key, owner);
            }
        }
        buffered
    }

    /// `key`'s owner was settled outside the wave: stops buffering and
    /// forwarding it, and returns what was buffered.
    pub(crate) fn settle(&mut self, key: Key) -> Option<Vec<B>> {
        self.departed.remove(&key);
        self.pending.remove(&key)
    }
}

/// The furthest a coordinator has heard one instance get in the
/// running wave. An exited instance counts as done: its `Eos` tokens
/// are out and it holds no state the wave could move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Heard {
    Nothing,
    Acked,
    Applied,
    Exited,
}

/// The manager's side of the wave: it records what each instance
/// reported and decides whom to stage, where to release ⑤, when an
/// attempt has failed and whether to retry. Time is counted in
/// windows, which each runtime defines.
pub(crate) struct WaveCoordinator {
    /// Per instance; moves back only in [`reset`](Self::reset).
    heard: Vec<Heard>,
    roots: Vec<usize>,
    wave: WaveConfig,
    attempt: u32,
    /// Window by which the current attempt must complete.
    deadline: u64,
    nacked: bool,
}

impl WaveCoordinator {
    /// Attempt 0 of a wave over `n` instances, started at window `now`.
    pub(crate) fn new(n: usize, roots: &[usize], wave: WaveConfig, now: u64) -> Self {
        let mut coord = Self {
            heard: vec![Heard::Nothing; n],
            roots: roots.to_vec(),
            wave,
            attempt: 0,
            deadline: 0,
            nacked: false,
        };
        coord.start_attempt(now);
        coord
    }

    /// Gives the current attempt `deadline_windows · backoff^attempt`
    /// windows from `now`, and at least 2: ③ and ⑤ take a hop each.
    fn start_attempt(&mut self, now: u64) {
        let growth = self.wave.backoff.max(1).saturating_pow(self.attempt);
        let horizon = self.wave.deadline_windows.saturating_mul(growth).max(2);
        self.deadline = now.saturating_add(horizon);
        self.nacked = false;
    }

    pub(crate) fn attempt(&self) -> u32 {
        self.attempt
    }

    pub(crate) fn deadline(&self) -> u64 {
        self.deadline
    }

    pub(crate) fn heard(&self, idx: usize) -> Heard {
        self.heard[idx]
    }

    /// Records `news` of instance `idx`; older news changes nothing.
    pub(crate) fn hear(&mut self, idx: usize, news: Heard) {
        self.heard[idx] = self.heard[idx].max(news);
    }

    /// Instances not yet heard to reach `goal`.
    pub(crate) fn pending(&self, goal: Heard) -> usize {
        self.heard.iter().filter(|&&h| h < goal).count()
    }

    /// ③ goes to every instance not yet applied (or exited).
    pub(crate) fn to_stage(&self) -> Vec<usize> {
        (0..self.heard.len())
            .filter(|&idx| self.heard[idx] < Heard::Applied)
            .collect()
    }

    /// What releases the wave once the acks are in, and to whom: ⑤
    /// `Propagate` at the roots (the paper's progressive wave) while no
    /// instance got past `Acked`, else `ForceApply` at every instance
    /// still to apply, as one that applied or exited sends no more ⑤.
    pub(crate) fn release(&self) -> (WaveMsg, Vec<usize>) {
        if self.heard.iter().all(|&h| h <= Heard::Acked) {
            (WaveMsg::Propagate, self.roots.clone())
        } else {
            (WaveMsg::ForceApply, self.to_stage())
        }
    }

    /// The wave's result once every instance applied or exited: `Nack`
    /// if some exited, since the wave could not complete as sent.
    pub(crate) fn outcome(&self) -> Option<Result<(), ReconfigError>> {
        match self.pending(Heard::Applied) {
            0 if self.heard.contains(&Heard::Exited) => Some(Err(ReconfigError::Nack)),
            0 => Some(Ok(())),
            _ => None,
        }
    }

    /// A participant lost its staged configuration: the attempt fails.
    pub(crate) fn nack(&mut self) {
        self.nacked = true;
    }

    /// `true` once the attempt was nacked or `now` reached its deadline.
    pub(crate) fn expired(&self, now: u64) -> bool {
        self.nacked || now >= self.deadline
    }

    /// Why the current attempt failed.
    pub(crate) fn failure(&self) -> ReconfigError {
        if self.nacked {
            ReconfigError::Nack
        } else {
            ReconfigError::Timeout {
                attempt: self.attempt,
            }
        }
    }

    /// Starts the next attempt at window `now`, or returns `false`
    /// (changing nothing) once `max_retries` retries are spent.
    pub(crate) fn retry(&mut self, now: u64) -> bool {
        if self.attempt >= self.wave.max_retries {
            return false;
        }
        self.attempt += 1;
        self.start_attempt(now);
        true
    }

    /// After a rollback every instance but the exited starts over.
    pub(crate) fn reset(&mut self) {
        for h in &mut self.heard {
            if *h != Heard::Exited {
                *h = Heard::Nothing;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ModuloRouter;

    fn k(v: u64) -> Key {
        Key::new(v)
    }

    fn plan(send: &[(u64, usize)], receive: &[u64]) -> StagedReconf {
        StagedReconf {
            routers: vec![(EdgeId(0), Arc::new(ModuloRouter) as Arc<dyn KeyRouter>)],
            send: send.iter().map(|&(key, to)| (k(key), to)).collect(),
            receive: receive.iter().map(|&key| k(key)).collect(),
        }
    }

    #[test]
    fn applies_on_the_last_propagate_and_not_before() {
        let mut w = WaveInstance::<u32>::new(3);
        w.stage(plan(&[(1, 4)], &[]));
        assert!(w.propagate(false).is_none());
        assert!(w.propagate(false).is_none());
        let applied = w.propagate(false).expect("third propagate applies");
        assert_eq!(applied.routers.len(), 1);
        assert_eq!(applied.send, vec![(k(1), 4)]);
        assert!(applied.receive.is_empty());
    }

    #[test]
    fn a_root_applies_on_the_managers_single_propagate() {
        let mut w = WaveInstance::<u32>::new(0);
        w.stage(plan(&[], &[]));
        assert!(w.propagate(false).is_some());
    }

    #[test]
    fn duplicate_and_stale_propagates_return_nothing() {
        let mut w = WaveInstance::<u32>::new(1);
        assert!(w.propagate(false).is_none(), "nothing staged");
        assert!(w.propagate(true).is_none(), "nothing staged");
        w.stage(plan(&[], &[]));
        assert!(w.propagate(false).is_some());
        assert!(w.propagate(false).is_none(), "duplicate");
        assert!(w.propagate(true).is_none(), "already applied");
    }

    #[test]
    fn force_apply_does_not_wait_for_outstanding_propagates() {
        let mut w = WaveInstance::<u32>::new(4);
        w.stage(plan(&[(2, 1)], &[]));
        assert!(w.propagate(false).is_none());
        let applied = w.propagate(true).expect("forced");
        assert_eq!(applied.send, vec![(k(2), 1)]);
        assert_eq!(w.admit(k(2), &[7]), Admit::Forward(1));
        assert!(w.propagate(false).is_none(), "late propagate after forcing");
    }

    #[test]
    fn restaging_clears_departed_keys() {
        let mut w = WaveInstance::<u32>::new(1);
        w.stage(plan(&[(5, 2)], &[]));
        w.propagate(false).unwrap();
        assert_eq!(w.admit(k(5), &[1]), Admit::Forward(2));
        assert!(!w.is_quiet());
        w.stage(plan(&[], &[]));
        assert_eq!(w.admit(k(5), &[1]), Admit::Process);
        assert!(w.is_quiet());
    }

    #[test]
    fn admit_prefers_buffer_then_forward_then_process() {
        let mut w = WaveInstance::<u32>::new(1);
        // Key 3 is both received and sent: buffering wins.
        w.stage(plan(&[(3, 7)], &[3]));
        w.propagate(false).unwrap();
        assert_eq!(w.admit(k(3), &[1]), Admit::Buffer { first: true });
        assert_eq!(w.release(k(3)), Some(vec![1]));
        assert_eq!(w.admit(k(3), &[2]), Admit::Forward(7));
        assert_eq!(w.admit(k(4), &[3]), Admit::Process);
    }

    #[test]
    fn release_returns_buffered_tuples_in_arrival_order() {
        let mut w = WaveInstance::<u32>::new(1);
        w.stage(plan(&[], &[9]));
        assert_eq!(w.buffered_keys(), 1);
        assert!(!w.holds_tuples());
        assert_eq!(w.admit(k(9), &[1, 2]), Admit::Buffer { first: true });
        assert_eq!(w.admit(k(9), &[3]), Admit::Buffer { first: false });
        assert!(w.holds_tuples());
        assert_eq!(w.release(k(9)), Some(vec![1, 2, 3]));
        assert_eq!(w.release(k(9)), None);
        assert_eq!(w.admit(k(9), &[4]), Admit::Process);
    }

    #[test]
    fn orphans_come_back_sorted_without_empty_buffers() {
        let mut w = WaveInstance::<u32>::new(1);
        w.stage(plan(&[], &[8, 2, 5]));
        w.admit(k(8), &[1]);
        w.admit(k(2), &[2, 3]);
        let orphans = w.take_orphans();
        assert_eq!(orphans, vec![(k(2), vec![2, 3]), (k(8), vec![1])]);
        assert_eq!(w.buffered_keys(), 0, "key 5 is no longer awaited");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut w = WaveInstance::<u32>::new(2);
        w.stage(plan(&[(1, 3)], &[6]));
        w.admit(k(6), &[1, 2]);
        w.propagate(true).unwrap();
        w.admit(k(6), &[3]);
        assert_eq!(w.reset(), 3);
        assert!(w.is_quiet());
        assert_eq!(w.buffered_keys(), 0);
        assert!(w.propagate(false).is_none());
        assert!(w.propagate(true).is_none());
    }

    #[test]
    fn roll_back_forwards_buffered_keys_to_their_old_owner() {
        let mut w = WaveInstance::<u32>::new(1);
        w.stage(plan(&[(1, 3)], &[4, 2]));
        w.admit(k(4), &[1]);
        let buffered = w.roll_back(|key| (key == k(4)).then_some(0));
        assert_eq!(buffered, vec![(k(2), vec![]), (k(4), vec![1])]);
        assert!(w.propagate(false).is_none(), "staged configuration dropped");
        assert_eq!(w.admit(k(4), &[2]), Admit::Forward(0));
        assert_eq!(w.admit(k(2), &[2]), Admit::Process);
        assert_eq!(w.settle(k(4)), None);
        assert!(w.is_quiet());
    }

    #[test]
    fn split_plan_hands_each_instance_its_part() {
        let router: Arc<dyn KeyRouter> = Arc::new(ModuloRouter);
        let staged = split_plan(
            3,
            [(0, EdgeId(1), Arc::clone(&router))],
            [(1, k(5), 2), (1, k(6), 0)],
        );
        assert_eq!(staged[0].routers.len(), 1);
        assert_eq!(staged[0].receive, vec![k(6)]);
        assert_eq!(staged[1].send, vec![(k(5), 2), (k(6), 0)]);
        assert!(staged[1].receive.is_empty());
        assert_eq!(staged[2].receive, vec![k(5)]);
    }

    #[test]
    fn addressing_names_every_instance_once() {
        use crate::operator::IdentityOperator;
        use crate::topology::{Grouping, SourceRate};
        // S(2) feeds A(3) and B(1); A feeds B too.
        let mut b = Topology::builder();
        let s = b.source("S", 2, SourceRate::Saturate, |_| Box::new(|| None));
        let a = b.stateless("A", 3, IdentityOperator::factory());
        let bb = b.stateless("B", 1, IdentityOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(s, bb, Grouping::Shuffle);
        b.connect(a, bb, Grouping::Shuffle);
        let addr = Addressing::new(&b.build().unwrap());
        assert_eq!(addr.total(), 6);
        assert_eq!([0, 1, 2].map(|po| addr.instances(po)), [0..2, 2..5, 5..6]);
        assert_eq!(addr.roots, vec![0, 1]);
        assert_eq!(addr.successors, vec![vec![2, 3, 4, 5], vec![5], vec![]]);
        assert_eq!(addr.preds, vec![0, 2, 5]);
    }

    const WAVE: WaveConfig = WaveConfig {
        deadline_windows: 4,
        max_retries: 2,
        backoff: 3,
    };

    fn hear_all(c: &mut WaveCoordinator, n: usize, news: Heard) {
        for idx in 0..n {
            c.hear(idx, news);
        }
    }

    #[test]
    fn staging_skips_applied_and_exited_instances() {
        let mut c = WaveCoordinator::new(5, &[0], WAVE, 0);
        assert_eq!(c.to_stage(), vec![0, 1, 2, 3, 4]);
        c.hear(1, Heard::Acked);
        c.hear(2, Heard::Applied);
        c.hear(4, Heard::Exited);
        assert_eq!(c.to_stage(), vec![0, 1, 3]);
    }

    #[test]
    fn duplicate_news_is_idempotent_and_never_moves_back() {
        let mut c = WaveCoordinator::new(2, &[0], WAVE, 0);
        c.hear(0, Heard::Acked);
        c.hear(0, Heard::Acked);
        assert_eq!(c.pending(Heard::Acked), 1, "instance 1 has not acked");
        c.hear(0, Heard::Applied);
        c.hear(0, Heard::Applied);
        c.hear(0, Heard::Acked);
        assert_eq!(c.heard(0), Heard::Applied);
        assert_eq!(c.pending(Heard::Applied), 1);
        c.hear(0, Heard::Exited);
        c.hear(0, Heard::Applied);
        assert_eq!(c.heard(0), Heard::Exited);
    }

    #[test]
    fn release_goes_to_the_roots_until_an_instance_got_past_acked() {
        let mut c = WaveCoordinator::new(4, &[0, 1], WAVE, 0);
        hear_all(&mut c, 4, Heard::Acked);
        assert!(matches!(c.release(), (WaveMsg::Propagate, to) if to == [0, 1]));
        c.hear(2, Heard::Applied);
        assert!(matches!(c.release(), (WaveMsg::ForceApply, to) if to == [0, 1, 3]));

        // An exited instance never sends its ⑤ either.
        let mut c = WaveCoordinator::new(3, &[0], WAVE, 0);
        hear_all(&mut c, 3, Heard::Acked);
        c.hear(0, Heard::Exited);
        assert!(matches!(c.release(), (WaveMsg::ForceApply, to) if to == [1, 2]));
    }

    /// Windows each attempt gets, for attempts `0..=max_retries`.
    fn schedule(deadline_windows: u64, backoff: u64) -> Vec<u64> {
        let wave = WaveConfig {
            deadline_windows,
            max_retries: 3,
            backoff,
        };
        let mut c = WaveCoordinator::new(1, &[0], wave, 100);
        let mut now = 100;
        let mut horizons = Vec::new();
        loop {
            assert!(!c.expired(c.deadline() - 1));
            assert!(c.expired(c.deadline()));
            horizons.push(c.deadline() - now);
            now = c.deadline();
            if !c.retry(now) {
                return horizons;
            }
        }
    }

    #[test]
    fn every_attempt_gets_deadline_times_backoff_powers_and_at_least_two_windows() {
        assert_eq!(schedule(4, 3), [4, 12, 36, 108]);
        assert_eq!(schedule(16, 2), [16, 32, 64, 128]);
        assert_eq!(schedule(0, 2), [2, 2, 2, 2]);
        assert_eq!(schedule(1, 2), [2, 2, 4, 8]);
        assert_eq!(schedule(1, 3), [2, 3, 9, 27]);
        assert_eq!(schedule(5, 0), [5, 5, 5, 5], "backoff 0 counts as 1");
        let huge = u64::MAX - 100;
        assert_eq!(schedule(u64::MAX, 2)[..1], [huge], "saturates");
    }

    #[test]
    fn exhausted_retries_are_reported_once() {
        let mut c = WaveCoordinator::new(1, &[0], WAVE, 0);
        assert_eq!(c.failure(), ReconfigError::Timeout { attempt: 0 });
        assert!(c.retry(4));
        assert!(c.retry(16));
        assert_eq!(c.attempt(), 2);
        let deadline = c.deadline();
        assert!(!c.retry(52), "max_retries = 2 spent");
        assert!(!c.retry(60), "giving up is final");
        assert_eq!((c.attempt(), c.deadline()), (2, deadline));
        assert_eq!(c.failure(), ReconfigError::Timeout { attempt: 2 });

        let once = WaveConfig {
            max_retries: 0,
            ..WAVE
        };
        assert!(!WaveCoordinator::new(1, &[0], once, 0).retry(4));
    }

    #[test]
    fn a_nack_fails_the_attempt_and_the_retry_clears_it() {
        let mut c = WaveCoordinator::new(2, &[0], WAVE, 0);
        assert!(!c.expired(3));
        c.nack();
        assert!(c.expired(0));
        assert_eq!(c.failure(), ReconfigError::Nack);
        assert!(c.retry(1));
        assert!(!c.expired(1));
        assert_eq!(c.failure(), ReconfigError::Timeout { attempt: 1 });
    }

    #[test]
    fn completion_with_an_exited_instance_is_a_nack() {
        let mut c = WaveCoordinator::new(3, &[0], WAVE, 0);
        assert_eq!(c.outcome(), None);
        c.hear(0, Heard::Applied);
        c.hear(1, Heard::Applied);
        assert_eq!(c.outcome(), None, "instance 2 still to apply");
        c.hear(2, Heard::Exited);
        assert_eq!(c.outcome(), Some(Err(ReconfigError::Nack)));

        let mut c = WaveCoordinator::new(2, &[0], WAVE, 0);
        hear_all(&mut c, 2, Heard::Applied);
        assert_eq!(c.outcome(), Some(Ok(())));
    }

    #[test]
    fn a_reset_after_a_rollback_keeps_exits() {
        let mut c = WaveCoordinator::new(4, &[0], WAVE, 0);
        c.hear(0, Heard::Acked);
        c.hear(1, Heard::Applied);
        c.hear(2, Heard::Exited);
        c.reset();
        let heard = [0, 1, 2, 3].map(|idx| c.heard(idx));
        assert_eq!(
            heard,
            [
                Heard::Nothing,
                Heard::Nothing,
                Heard::Exited,
                Heard::Nothing
            ]
        );
        assert_eq!(c.to_stage(), vec![0, 1, 3]);

        // Without exits, the retry after a reset releases from the
        // roots again, as the first attempt did.
        let mut c = WaveCoordinator::new(2, &[0], WAVE, 0);
        hear_all(&mut c, 2, Heard::Applied);
        c.reset();
        hear_all(&mut c, 2, Heard::Acked);
        assert!(matches!(c.release(), (WaveMsg::Propagate, to) if to == [0]));
    }
}
