//! The per-digest session cache — the first tier of the daemon's
//! two-tier cache.
//!
//! The second tier (the [`AnalysisCache`](crate::AnalysisCache)) stores
//! *final response bodies* keyed by `(digest, request kind)`. This tier
//! stores the **pipeline artifacts** behind them: one
//! [`tpn_session::Session`] per net digest, so a `/sweep` following an
//! `/analyze` of the same net re-uses the memoized TRG, lifted domain
//! and compiled program instead of re-deriving the whole chain — even
//! though their response bodies live under different cache keys.
//!
//! Every session created here shares one [`StageCounters`], which is
//! what the `/stats` endpoint's per-stage `artifact_*` counters report.
//!
//! The tier holds at most `capacity` sessions, in two classes:
//!
//! * **client sessions** — nets a client sent
//!   ([`SessionCache::session_for`]);
//! * **re-timed sessions** — what-if perturbations inserted by
//!   [`SessionCache::session_or_else`].
//!
//! Over capacity, re-timed sessions are evicted first; a client
//! session is evicted only when no re-timed one is left. Within each
//! class the least-recently-used session goes. A what-if batch larger
//! than the tier therefore never evicts its base session (or any other
//! client's): the sweeps and batches that follow keep their memoized
//! lift and compiled programs. A re-timed session that a client later
//! sends as a plain net joins the client class. Evicting a session
//! drops its artifacts but never its already-cached response bodies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tpn_net::{NetDigest, TimedPetriNet};
use tpn_session::{Session, SessionOptions, StageCounters};

/// Counter snapshot of the session tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Sessions currently held.
    pub sessions: usize,
    /// Requests that found their net's session already materialised.
    pub hits: u64,
    /// Requests that created a fresh session.
    pub misses: u64,
    /// Sessions evicted to stay within the capacity.
    pub evictions: u64,
}

struct Slot {
    session: Arc<Session>,
    last_used: u64,
    /// Inserted by [`SessionCache::session_or_else`] and not sent by a
    /// client since: evicted before any client session.
    retimed: bool,
}

/// A capacity-bounded map from net digest to shared [`Session`]; see
/// the module docs for the eviction order.
pub struct SessionCache {
    map: Mutex<HashMap<NetDigest, Slot>>,
    clock: AtomicU64,
    capacity: usize,
    options: SessionOptions,
    counters: Arc<StageCounters>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (clamped to
    /// at least 1), creating sessions with `options` and aggregating
    /// their stage counters into one shared [`StageCounters`].
    pub fn new(capacity: usize, options: SessionOptions) -> SessionCache {
        SessionCache {
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            options,
            counters: Arc::new(StageCounters::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stage counters shared by every session this cache created.
    pub fn counters(&self) -> &Arc<StageCounters> {
        &self.counters
    }

    /// The session for `digest`, creating (and evicting) as needed.
    /// `net` must be the net `digest` was computed from; it is
    /// consumed only on a miss.
    pub fn session_for(&self, digest: NetDigest, net: TimedPetriNet) -> Arc<Session> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().expect("session map lock");
        if let Some(slot) = map.get_mut(&digest) {
            slot.last_used = tick;
            slot.retimed = false;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&slot.session);
        }
        // Span the miss only: a hit is one map probe, below span
        // resolution, and the warm path must not pay clock reads for
        // it. A "session" span in a trace means a session was built.
        let _span = tpn_obs::trace::span("session");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let session = Session::with_counters(
            net,
            digest,
            self.options.clone(),
            Arc::clone(&self.counters),
        );
        self.insert(map, digest, Arc::new(session), tick, false)
    }

    /// The session for `digest`, creating it with `build` on a miss —
    /// the what-if tier's entry point: a re-timed session is inserted
    /// under the **perturbed** net's full digest, so a later plain
    /// request for that exact net (or another batch hitting the same
    /// timing point) finds its artifacts already materialised. Sessions
    /// inserted here are the first to be evicted.
    ///
    /// Unlike [`SessionCache::session_for`], `build` may do real work
    /// (a re-timing substitutes through the shared lift), so it runs
    /// **outside** the map lock; if a concurrent caller inserted the
    /// digest meanwhile, the already-cached session wins (sessions for
    /// one digest are interchangeable — same artifacts, same bytes).
    pub fn session_or_else<E>(
        &self,
        digest: NetDigest,
        build: impl FnOnce() -> Result<Session, E>,
    ) -> Result<Arc<Session>, E> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut map = self.map.lock().expect("session map lock");
            if let Some(slot) = map.get_mut(&digest) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.session));
            }
        }
        // Miss only, as in [`SessionCache::session_for`] — here the
        // span times the real work: `build` re-timing through the lift.
        let _span = tpn_obs::trace::span("session");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(build()?);
        let map = self.map.lock().expect("session map lock");
        Ok(self.insert(map, digest, session, tick, true))
    }

    /// Insert `session` under `digest` — unless a concurrent caller got
    /// there first, whose session wins — then evict down to capacity:
    /// re-timed sessions before client sessions, least recently used
    /// first within each class. Returns the session now cached under
    /// `digest`. Takes the map guard so that the evicted sessions are
    /// dropped after it is released: freeing a session's artifacts is
    /// real work, and no other lookup should wait on it.
    fn insert(
        &self,
        mut map: MutexGuard<'_, HashMap<NetDigest, Slot>>,
        digest: NetDigest,
        session: Arc<Session>,
        tick: u64,
        retimed: bool,
    ) -> Arc<Session> {
        if let Some(slot) = map.get_mut(&digest) {
            slot.last_used = tick;
            return Arc::clone(&slot.session);
        }
        map.insert(
            digest,
            Slot {
                session: Arc::clone(&session),
                last_used: tick,
                retimed,
            },
        );
        let mut victims = Vec::new();
        while map.len() > self.capacity {
            // In-flight users keep their Arc; only the cache's handle
            // is dropped.
            let victim = map
                .iter()
                .min_by_key(|(_, s)| (!s.retimed, s.last_used))
                .map(|(d, _)| *d)
                .expect("non-empty map");
            victims.extend(map.remove(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(map);
        drop(victims);
        session
    }

    /// A counter and occupancy snapshot.
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            sessions: self.map.lock().expect("session map lock").len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::parse_tpn;

    fn net(n: u32) -> TimedPetriNet {
        parse_tpn(&format!(
            "net n{n}\nplace a init 1\nplace b\n\
             trans go in a out b firing {}\ntrans back in b out a firing 3",
            n + 1
        ))
        .unwrap()
    }

    #[test]
    fn sessions_are_shared_per_digest() {
        let cache = SessionCache::new(4, SessionOptions::new());
        let a = net(1);
        let d = a.digest();
        let s1 = cache.session_for(d, a.clone());
        let s2 = cache.session_for(d, a);
        assert!(Arc::ptr_eq(&s1, &s2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.sessions), (1, 1, 1));
    }

    #[test]
    fn session_or_else_builds_once_and_reuses() {
        let cache = SessionCache::new(4, SessionOptions::new());
        let a = net(1);
        let d = a.digest();
        let s1 = cache
            .session_or_else(d, || {
                Ok::<_, ()>(Session::new(a.clone(), SessionOptions::new()))
            })
            .unwrap();
        // second demand hits; the builder must not run
        let s2 = cache
            .session_or_else(d, || -> Result<Session, ()> { panic!("must not rebuild") })
            .unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        // a failing builder caches nothing
        let other = net(2);
        let e = cache.session_or_else(other.digest(), || Err::<Session, _>("boom"));
        assert_eq!(e.unwrap_err(), "boom");
        assert_eq!(cache.stats().sessions, 1);
        // plain session_for finds the builder-inserted session too
        let s3 = cache.session_for(d, a);
        assert!(Arc::ptr_eq(&s1, &s3));
    }

    /// A re-timed insert of `n`, as the what-if tier makes it.
    fn retime(cache: &SessionCache, n: &TimedPetriNet) {
        cache
            .session_or_else(n.digest(), || {
                Ok::<_, ()>(Session::new(n.clone(), SessionOptions::new()))
            })
            .unwrap();
    }

    /// Whether `n`'s session is still cached (probed without a miss
    /// being able to insert it).
    fn cached(cache: &SessionCache, n: &TimedPetriNet) -> bool {
        cache.map.lock().unwrap().contains_key(&n.digest())
    }

    #[test]
    fn retimed_sessions_are_evicted_before_client_sessions() {
        let cache = SessionCache::new(3, SessionOptions::new());
        let nets: Vec<TimedPetriNet> = (0..9).map(net).collect();
        cache.session_for(nets[0].digest(), nets[0].clone());
        cache.session_for(nets[1].digest(), nets[1].clone());
        // Five re-timed inserts into the one free slot: each evicts
        // the previous re-timed session, never a client session.
        for n in &nets[2..7] {
            retime(&cache, n);
        }
        assert_eq!((cache.stats().sessions, cache.stats().evictions), (3, 4));
        assert!(cached(&cache, &nets[0]) && cached(&cache, &nets[1]));
        assert!(cached(&cache, &nets[6]));
        assert!(nets[2..6].iter().all(|n| !cached(&cache, n)));
        // Client sessions keep plain LRU order among themselves: with
        // 1 touched before 0, a new client evicts the re-timed 6
        // first, and the next one evicts 1.
        cache.session_for(nets[1].digest(), nets[1].clone());
        cache.session_for(nets[0].digest(), nets[0].clone());
        cache.session_for(nets[7].digest(), nets[7].clone());
        assert!(!cached(&cache, &nets[6]));
        cache.session_for(nets[8].digest(), nets[8].clone());
        assert!(!cached(&cache, &nets[1]));
        assert!([0, 7, 8].iter().all(|&i| cached(&cache, &nets[i])));
        assert_eq!(cache.stats().evictions, 6);
    }

    #[test]
    fn a_client_request_moves_a_retimed_session_to_the_client_class() {
        let cache = SessionCache::new(2, SessionOptions::new());
        let nets: Vec<TimedPetriNet> = (0..4).map(net).collect();
        cache.session_for(nets[0].digest(), nets[0].clone());
        retime(&cache, &nets[1]);
        // A client sends the re-timed net: it is a client session now.
        cache.session_for(nets[1].digest(), nets[1].clone());
        // So the next re-timed insert is the only re-timed session and
        // is evicted at once; both client sessions stay.
        retime(&cache, &nets[2]);
        assert!(cached(&cache, &nets[0]) && cached(&cache, &nets[1]));
        assert!(!cached(&cache, &nets[2]));
    }

    #[test]
    fn lru_eviction_by_capacity() {
        let cache = SessionCache::new(2, SessionOptions::new());
        let nets: Vec<TimedPetriNet> = (0..3).map(net).collect();
        let d0 = nets[0].digest();
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[1].digest(), nets[1].clone());
        // touch net 0 so net 1 is the LRU victim
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[2].digest(), nets[2].clone());
        let stats = cache.stats();
        assert_eq!((stats.sessions, stats.evictions), (2, 1));
        // net 0 survived (hit), net 1 was evicted (miss)
        cache.session_for(d0, nets[0].clone());
        let before = cache.stats().misses;
        cache.session_for(nets[1].digest(), nets[1].clone());
        assert_eq!(cache.stats().misses, before + 1);
    }
}
