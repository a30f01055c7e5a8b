//! Per-backend connection pooling and health as the router sees it.
//!
//! Each backend node gets one [`NodePool`]: a stack of idle keep-alive
//! [`WireClient`]s (checkout/checkin, dial-on-empty) plus a demotion
//! timestamp. Health is deliberately two-state — [`NodeHealth::Up`] or
//! [`NodeHealth::Suspect`] — because the router only needs one decision
//! out of it: *prefer someone else right now, or not*. A suspect node is
//! skipped while its cooldown runs; once the cooldown lapses the next
//! request probes it again (half-open), and a success promotes it back.

use crate::lock;
use exa_wire::{WireClient, WireError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle clients kept per node; extras are dropped at checkin.
const MAX_IDLE: usize = 16;

/// A backend node's health, from the router's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering (or never yet tried).
    Up,
    /// A recent connect/transport failure; skipped until its cooldown
    /// lapses, then probed again by the next request that wants it.
    Suspect,
}

impl NodeHealth {
    /// Lower-case wire form (`"up"` / `"suspect"`).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeHealth::Up => "up",
            NodeHealth::Suspect => "suspect",
        }
    }
}

/// One backend node: its address, pooled connections, and health.
pub struct NodePool {
    name: String,
    addr: SocketAddr,
    connect_timeout: Duration,
    idle: Mutex<Vec<WireClient>>,
    /// `Some(t)` while demoted: suspect until `t`.
    suspect_until: Mutex<Option<Instant>>,
    demotions: AtomicU64,
}

impl NodePool {
    pub fn new(name: impl Into<String>, addr: SocketAddr, connect_timeout: Duration) -> Self {
        NodePool {
            name: name.into(),
            addr,
            connect_timeout,
            idle: Mutex::new(Vec::new()),
            suspect_until: Mutex::new(None),
            demotions: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health; a lapsed cooldown reads as [`NodeHealth::Up`] so
    /// the next interested request probes the node (half-open).
    pub fn health(&self) -> NodeHealth {
        let until = lock(&self.suspect_until);
        match *until {
            Some(t) if Instant::now() < t => NodeHealth::Suspect,
            _ => NodeHealth::Up,
        }
    }

    /// Marks the node suspect for `cooldown` after a transport failure.
    /// Pooled connections are dropped — they shared the fate of whatever
    /// killed the one that failed.
    pub fn demote(&self, cooldown: Duration) {
        *lock(&self.suspect_until) = Some(Instant::now() + cooldown);
        lock(&self.idle).clear();
        self.demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Clears suspicion after a successful exchange.
    pub fn promote(&self) {
        *lock(&self.suspect_until) = None;
    }

    /// Lifetime demotion count (a node flapping shows up here).
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Checks out a pooled keep-alive client, dialing when the pool is
    /// empty. The caller must [`NodePool::checkin`] it afterwards (or drop
    /// it on failure so a poisoned connection never returns to the pool).
    pub fn checkout(&self) -> Result<WireClient, WireError> {
        if let Some(client) = lock(&self.idle).pop() {
            return Ok(client);
        }
        WireClient::connect_timeout(self.addr, self.connect_timeout)
    }

    /// Returns a healthy client to the pool (bounded; extras dropped).
    pub fn checkin(&self, client: WireClient) {
        let mut idle = lock(&self.idle);
        if idle.len() < MAX_IDLE {
            idle.push(client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn demote_promote_cycle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = NodePool::new("n0", listener.local_addr().unwrap(), Duration::from_secs(1));
        assert_eq!(pool.health(), NodeHealth::Up);
        pool.demote(Duration::from_secs(60));
        assert_eq!(pool.health(), NodeHealth::Suspect);
        assert_eq!(pool.demotions(), 1);
        pool.promote();
        assert_eq!(pool.health(), NodeHealth::Up);
    }

    #[test]
    fn lapsed_cooldown_reads_as_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = NodePool::new("n0", listener.local_addr().unwrap(), Duration::from_secs(1));
        pool.demote(Duration::from_millis(0));
        // The zero-length cooldown has lapsed by the time we look.
        assert_eq!(pool.health(), NodeHealth::Up);
    }

    #[test]
    fn checkout_dials_and_checkin_pools() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = NodePool::new("n0", listener.local_addr().unwrap(), Duration::from_secs(1));
        let client = pool.checkout().unwrap();
        pool.checkin(client);
        // The pooled client comes back instead of a fresh dial.
        let _again = pool.checkout().unwrap();
    }
}
