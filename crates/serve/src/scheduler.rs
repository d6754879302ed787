//! Work-stealing queue fabric: per-worker deques, a delayed (retry
//! backoff) heap, and the wakeup condvar.
//!
//! Jobs are ids; all job state lives in the service's job table. A
//! worker pops due retries first, then the front of its own deque, then
//! steals from the *back* of a sibling's deque. Stale ids (jobs that
//! went terminal while queued, e.g. cancelled) are skipped by the
//! executor, so queues never need compaction.
//!
//! Wakeups cannot be lost: every push bumps a wake sequence number under
//! the sleep lock before notifying, an empty poll hands back the number
//! it read before looking at the queues, and parking returns at once if
//! the number has moved since.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::lock;

/// What a worker's poll produced.
pub(crate) enum Pop {
    /// Run this job now.
    Job(u64),
    /// Nothing runnable; wait at most this long before polling again,
    /// passing the token to [`WorkQueues::park`].
    Wait(Duration, WakeToken),
}

/// The wake sequence number an empty [`WorkQueues::pop`] read before it
/// looked at the queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WakeToken(u64);

pub(crate) struct WorkQueues {
    queues: Vec<Mutex<VecDeque<u64>>>,
    delayed: Mutex<BinaryHeap<Reverse<(Instant, u64)>>>,
    /// Wake sequence number: bumped, under this lock, by every push and
    /// [`WorkQueues::notify_all`].
    sleep_lock: Mutex<u64>,
    wake: Condvar,
    rr: AtomicUsize,
    /// Jobs taken from a sibling's deque (work-stealing activity,
    /// exported on `/metrics`).
    steals: AtomicU64,
}

impl WorkQueues {
    pub(crate) fn new(workers: usize) -> WorkQueues {
        WorkQueues {
            queues: (0..workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            delayed: Mutex::new(BinaryHeap::new()),
            sleep_lock: Mutex::new(0),
            wake: Condvar::new(),
            rr: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a runnable job, round-robin across workers (or onto a
    /// specific worker's deque when `hint` is given).
    pub(crate) fn push(&self, hint: Option<usize>, job: u64) {
        let w = hint.unwrap_or_else(|| self.rr.fetch_add(1, Ordering::Relaxed)) % self.queues.len();
        lock(&self.queues[w]).push_back(job);
        self.notify_all();
    }

    /// Schedules a retry to become runnable at `due`.
    pub(crate) fn push_delayed(&self, due: Instant, job: u64) {
        lock(&self.delayed).push(Reverse((due, job)));
        self.notify_all();
    }

    /// Polls for work on behalf of worker `w`.
    pub(crate) fn pop(&self, w: usize) -> Pop {
        // Read before the queues: a push that lands after this read, even
        // one this poll misses, moves the number and so voids the park.
        let token = WakeToken(*lock(&self.sleep_lock));
        // Due retries first: they have already waited their backoff.
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        {
            let mut delayed = lock(&self.delayed);
            if let Some(Reverse((due, job))) = delayed.peek().copied() {
                if due <= now {
                    delayed.pop();
                    return Pop::Job(job);
                }
                next_due = Some(due);
            }
        }
        // Own deque front.
        if let Some(job) = lock(&self.queues[w]).pop_front() {
            return Pop::Job(job);
        }
        // Steal from a sibling's back.
        for off in 1..self.queues.len() {
            let v = (w + off) % self.queues.len();
            if let Some(job) = lock(&self.queues[v]).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Pop::Job(job);
            }
        }
        let wait = next_due
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(20));
        Pop::Wait(wait.max(Duration::from_micros(200)), token)
    }

    /// Parks the calling worker for at most `d`, or not at all if a push
    /// or [`WorkQueues::notify_all`] came after the poll that handed out
    /// `token`.
    pub(crate) fn park(&self, token: WakeToken, d: Duration) {
        let g = lock(&self.sleep_lock);
        let _ = self
            .wake
            .wait_timeout_while(g, d, |seq| *seq == token.0)
            .unwrap_or_else(|e| e.into_inner());
    }

    /// Wakes every parked worker (pushes, shutdown, drain, kill).
    pub(crate) fn notify_all(&self) {
        let mut seq = lock(&self.sleep_lock);
        *seq = seq.wrapping_add(1);
        self.wake.notify_all();
    }

    /// Queued (not delayed) jobs per worker deque.
    pub(crate) fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| lock(q).len()).collect()
    }

    /// Jobs waiting out a retry backoff.
    pub(crate) fn delayed_len(&self) -> usize {
        lock(&self.delayed).len()
    }

    /// Jobs ever stolen from a sibling's deque.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn push_between_empty_pop_and_park_is_not_lost() {
        let q = WorkQueues::new(1);
        let Pop::Wait(_, token) = q.pop(0) else {
            panic!("an empty fabric has nothing to run");
        };
        q.push(None, 7);
        let t0 = Instant::now();
        q.park(token, Duration::from_secs(5));
        let waited = t0.elapsed();
        assert!(waited < Duration::from_millis(500), "parked {waited:?} past a push");
        assert!(matches!(q.pop(0), Pop::Job(7)));
    }
}
