//! The threads that live with the engine: `workers - 1` score helpers,
//! started by [`EngineBuilder::build`](crate::EngineBuilder::build),
//! parked on one queue of posted score jobs, and joined when the engine
//! drops. A request never spawns a thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use dod_obs::sync::lock_recover;

use crate::error::EngineError;
use crate::score::{claim_groups, Claimed, ScoreJob};

/// The name of every helper thread.
pub(crate) const HELPER_THREAD: &str = "dod-score-helper";

/// What a helper sends back for one post: its claimed groups, or the
/// payload of the panic they raised.
pub(crate) type Reply = thread::Result<Result<Claimed, EngineError>>;

/// One share of a score job offered to whichever helper wakes first.
struct Post {
    job: Arc<ScoreJob>,
    reply: mpsc::Sender<Reply>,
}

#[derive(Default)]
struct Queue {
    posts: VecDeque<Post>,
    /// Set once, when the engine drops: a helper that finds the queue
    /// empty and closed exits.
    closed: bool,
}

/// What the engine and its helper threads share.
#[derive(Default)]
pub(crate) struct Shared {
    queue: Mutex<Queue>,
    posted: Condvar,
}

/// The engine's helper threads and the queue they wait on.
pub(crate) struct Helpers {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Helpers {
    /// Starts up to `n` helpers; one whose thread cannot be spawned is
    /// left out, and the callers of [`Helpers::post`] run its share.
    pub(crate) fn start(n: usize) -> Helpers {
        let shared = Arc::new(Shared::default());
        let threads = (0..n)
            .map_while(|_| {
                let shared = Arc::clone(&shared);
                let helper = move || serve(&shared);
                thread::Builder::new()
                    .name(HELPER_THREAD.into())
                    .spawn(helper)
                    .ok()
            })
            .collect();
        Helpers { shared, threads }
    }

    /// Offers `job` to up to `n` parked helpers and returns the handle
    /// that takes back what none of them started. The caller runs its
    /// own share of the job before it settles the handle.
    pub(crate) fn post<'a>(&'a self, job: &'a Arc<ScoreJob>, n: usize) -> Posted<'a> {
        let n = n.min(self.threads.len());
        let (reply, replies) = mpsc::channel();
        if n > 0 {
            let mut queue = lock_recover(&self.shared.queue);
            queue.posts.extend((0..n).map(|_| Post {
                job: Arc::clone(job),
                reply: reply.clone(),
            }));
            drop(queue);
            for _ in 0..n {
                self.shared.posted.notify_one();
            }
        }
        Posted {
            shared: &self.shared,
            job,
            replies,
            posted: n,
        }
    }

    /// A handle on the queue the helpers share, whose strong count is
    /// one for the engine plus one per helper thread still running.
    #[cfg(test)]
    pub(crate) fn watch(&self) -> std::sync::Weak<Shared> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).closed = true;
        self.shared.posted.notify_all();
        for thread in self.threads.drain(..) {
            // A helper contains every panic a job raises, so a join
            // error would be a bug in `serve` itself; there is no
            // request left to report it to.
            let _ = thread.join();
        }
    }
}

/// A helper's life: take the oldest post, run the job's claim loop,
/// drop the job, reply; park while there is nothing to take.
fn serve(shared: &Shared) {
    loop {
        let Post { job, reply } = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(post) = queue.posts.pop_front() {
                    break post;
                }
                if queue.closed {
                    return;
                }
                queue = shared
                    .posted
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let claimed = catch_unwind(AssertUnwindSafe(|| claim_groups(&job)));
        // The job holds the epoch: it goes before the reply, so a caller
        // holding every reply knows no helper holds the epoch.
        drop(job);
        // The caller waits for this reply, even while it unwinds.
        let _ = reply.send(claimed);
    }
}

/// The posts of one job: [`Posted::settle`] takes back those no helper
/// has started and waits for the replies of those one has. Dropping an
/// unsettled handle — the caller's own share panicked — settles it too,
/// so no helper holds the job once the caller's frame is gone.
pub(crate) struct Posted<'a> {
    shared: &'a Shared,
    job: &'a Arc<ScoreJob>,
    replies: mpsc::Receiver<Reply>,
    /// Posts not yet taken back or answered.
    posted: usize,
}

impl Posted<'_> {
    /// The replies of the helpers that took a post, in arrival order.
    pub(crate) fn settle(mut self) -> Vec<Reply> {
        let started = self.take_back();
        (0..started)
            .map(|_| {
                let reply = self.replies.recv();
                reply.expect("a helper replies to every post it takes")
            })
            .collect()
    }

    /// Takes back the posts no helper has started; returns how many
    /// one has.
    fn take_back(&mut self) -> usize {
        let posted = std::mem::take(&mut self.posted);
        if posted == 0 {
            return 0;
        }
        let mut queue = lock_recover(&self.shared.queue);
        let queued = queue.posts.len();
        queue.posts.retain(|post| !Arc::ptr_eq(&post.job, self.job));
        posted - (queued - queue.posts.len())
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        // A helper replies to every post it takes, since it contains the
        // job's panics; should its thread die all the same, its sender
        // goes with it and the wait ends rather than hanging an unwind.
        for _ in 0..self.take_back() {
            if self.replies.recv().is_err() {
                break;
            }
        }
    }
}
