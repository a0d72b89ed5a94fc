//! The per-instance rules of the reconfiguration wave (paper §3.4,
//! Algorithm 1), written once for both runtimes.
//!
//! [`WaveInstance`] is sans-IO: it owns one instance's wave state and
//! answers each input with what to do, but sends, charges and moves
//! nothing. The simulator (`reconfig.rs`) and the live runtime
//! (`live.rs`) keep their own I/O and call it for every rule: stage ③,
//! count ⑤ and apply on the last one (or on a forced apply), admit each
//! key run (process, buffer or forward), release a key's buffer when
//! its ⑥ arrives, and reset on a crash or restore.

use std::collections::HashMap;
use std::sync::Arc;

use crate::key::Key;
use crate::router::KeyRouter;
use crate::topology::EdgeId;

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
}
