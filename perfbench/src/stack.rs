//! The servers under test, built in process from the shipped defaults:
//! only `backend_id` is set, so a PR that flips a default is measured
//! with no change here.

use net::{NetConfig, NetServer};
use router::{Router, RouterConfig};
use serve::server::{CourseServer, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Backends behind the router in `hit_routed` and the traced ladder.
pub const ROUTED_BACKENDS: u32 = 2;

pub fn backend(id: u32) -> Result<NetServer, String> {
    NetServer::bind(
        "127.0.0.1:0",
        CourseServer::new(ServerConfig::default()),
        NetConfig {
            backend_id: id,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind backend {id}: {e}"))
}

pub enum Stack {
    Direct(NetServer),
    Routed {
        router: Router,
        backends: Vec<NetServer>,
    },
}

impl Stack {
    pub fn direct() -> Result<Stack, String> {
        Ok(Stack::Direct(backend(0)?))
    }

    /// A router over [`ROUTED_BACKENDS`] fresh backends, returned once
    /// every backend is Up.
    pub fn routed() -> Result<Stack, String> {
        let backends = (0..ROUTED_BACKENDS)
            .map(backend)
            .collect::<Result<Vec<_>, _>>()?;
        Self::route_over(backends)
    }

    /// A router in front of existing backends, returned once every
    /// backend is Up.
    pub fn route_over(backends: Vec<NetServer>) -> Result<Stack, String> {
        let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
            .map_err(|e| format!("bind router: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(0..addrs.len()).all(|id| router.backend_is_up(id)) {
            if Instant::now() > deadline {
                return Err("router backends not Up after 10 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(Stack::Routed { router, backends })
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Stack::Direct(net) => net.local_addr(),
            Stack::Routed { router, .. } => router.local_addr(),
        }
    }

    pub fn backends(&self) -> &[NetServer] {
        match self {
            Stack::Direct(net) => std::slice::from_ref(net),
            Stack::Routed { backends, .. } => backends,
        }
    }

    pub fn router(&self) -> Option<&Router> {
        match self {
            Stack::Direct(_) => None,
            Stack::Routed { router, .. } => Some(router),
        }
    }

    /// Drains and stops everything, router first so its backend links
    /// close before the backends wait for their connections.
    pub fn shutdown(&self) {
        if let Some(router) = self.router() {
            router.shutdown();
        }
        for net in self.backends() {
            net.shutdown();
        }
    }

    /// After [`Stack::shutdown`]: every backend has `admitted ==
    /// completed + shed` per class and dropped no connection, and the
    /// router has `forwarded == relayed + synthesized_shed`.
    pub fn check_ledgers(&self) -> Result<(), String> {
        for net in self.backends() {
            for c in net.course().stats().per_class {
                if c.admitted != c.completed + c.shed {
                    return Err(format!(
                        "backend ledger unbalanced for {}: admitted {} != completed {} + shed {}",
                        c.class, c.admitted, c.completed, c.shed
                    ));
                }
            }
            let ns = net.net_stats();
            if ns.dropped_conns != 0 || ns.malformed != 0 {
                return Err(format!(
                    "backend dropped {} connections and saw {} malformed frames",
                    ns.dropped_conns, ns.malformed
                ));
            }
        }
        if let Some(router) = self.router() {
            let t = router.totals();
            if t.forwarded != t.relayed + t.synthesized_shed {
                return Err(format!(
                    "router ledger unbalanced: forwarded {} != relayed {} + synthesized_shed {}",
                    t.forwarded, t.relayed, t.synthesized_shed
                ));
            }
        }
        Ok(())
    }
}
