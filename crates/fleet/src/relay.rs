//! The router's relay pool: blocking backend round trips, off the reactor.
//!
//! A relay waits on a backend socket (~0.5 ms for a predict), so it cannot
//! run on the reactor thread without serializing every client behind it.
//! [`Relays::execute`] hands it to an idle pool thread, and spawns one only
//! when none is idle. A connection waiting on a relay reads nothing more
//! until its answer is written, and a thread counts itself idle *before*
//! it answers, so each connection has at most one relay thread busy for it
//! and the pool never holds more threads than the reactor has admitted
//! connections — an idle keep-alive costs no thread at all.

use crate::lock;
use exa_wire::{Responder, Response};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// One deferred request: the blocking work that makes its answer, and the
/// responder that delivers it.
type Job = (Responder, Box<dyn FnOnce() -> Response + Send>);

#[derive(Default)]
pub(crate) struct Relays {
    state: Mutex<State>,
    ready: Condvar,
}

#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    /// Threads with no job (parked on `ready`, or about to be).
    idle: usize,
    closed: bool,
    threads: Vec<JoinHandle<()>>,
}

impl Relays {
    /// Runs `relay` on an idle pool thread, or on a new one when every
    /// thread is busy, and answers `responder` with its response. A relay
    /// that panics, or finds no thread to run on, drops `responder`
    /// unanswered, and the reactor answers `500`.
    pub(crate) fn execute(
        self: &Arc<Self>,
        responder: Responder,
        relay: Box<dyn FnOnce() -> Response + Send>,
    ) {
        let mut state = lock(&self.state);
        if state.idle > state.jobs.len() {
            state.jobs.push_back((responder, relay));
            // Notify after unlocking, so the woken thread does not block
            // again on a lock this thread still holds.
            drop(state);
            self.ready.notify_one();
            return;
        }
        let relays = Arc::clone(self);
        if let Ok(thread) = thread::Builder::new()
            .name("fleet-relay".into())
            .spawn(move || relays.work((responder, relay)))
        {
            state.threads.push(thread);
        }
    }

    fn work(&self, first: Job) {
        let mut next = Some(first);
        while let Some((responder, relay)) = next.take() {
            let answer = catch_unwind(AssertUnwindSafe(relay));
            // Idle before answering: the answer lets the connection send
            // its next request, which must find this thread free.
            lock(&self.state).idle += 1;
            if let Ok(response) = answer {
                responder.respond(response);
            }
            next = self.next_job();
        }
    }

    /// Parks until a job arrives (taking it) or the pool closes (`None`).
    /// The caller is already counted idle.
    fn next_job(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.idle -= 1;
                return Some(job);
            }
            if state.closed {
                state.idle -= 1;
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Lets the threads finish the queue, then joins every one of them.
    /// Called once the reactor has exited, so no job can arrive after.
    pub(crate) fn join(&self) {
        let threads = {
            let mut state = lock(&self.state);
            state.closed = true;
            self.ready.notify_all();
            std::mem::take(&mut state.threads)
        };
        for thread in threads {
            let _ = thread.join();
        }
    }
}
