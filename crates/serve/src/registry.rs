//! The model registry: named fitted sessions under a memory budget.
//!
//! A serving node holds the factored `Σ(θ̂)` of every model it answers
//! queries for; factors are the dominant memory cost (the paper's whole
//! point is that TLR factors are *much* smaller than dense ones). The
//! registry tracks resident bytes through
//! [`FittedModel::factor_bytes`](exa_geostat::FittedModel::factor_bytes) and
//! evicts least-recently-used models when an insert pushes past the
//! configured budget — so a node packs as many TLR models as the same RAM
//! that would hold a handful of dense ones.
//!
//! Lookups hand out `Arc` clones: eviction never invalidates requests
//! already in flight, it only drops the registry's own reference.
//!
//! Every resident model is wrapped in a [`LiveModel`] so the write path
//! (`POST /v1/models/{name}/observe`) can stream observations in; readers
//! still receive plain `Arc<FittedModel>` snapshots. Because live factors
//! **grow**, the byte ledger is re-checked via [`ModelRegistry::reaccount`]
//! after every update/refit — insert-time bytes alone would drift.

use crate::ledger::Ledger;
use exa_check::sync::{Arc, Mutex};
use exa_covariance::ParamCovariance;
use exa_geostat::{FittedModel, LiveModel};

/// Callback that materializes a model that is not resident (pull from a
/// peer, re-factorize from disk, …). Returning `None` means the model does
/// not exist anywhere this node can reach.
pub type ModelLoader<K> = dyn Fn(&str) -> Option<Arc<FittedModel<K>>> + Send + Sync;

/// One resident model as reported by [`ModelRegistry::entries`] (and the
/// wire front-end's `GET /v1/models`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registered name.
    pub name: String,
    /// Bytes held by the model's factored representation.
    pub factor_bytes: usize,
}

exa_telemetry::stats_struct! {
    /// A consistent snapshot of a [`ModelRegistry`]'s state and lifetime
    /// counters — the `registry` object of `GET /v1/stats`, the counter
    /// block of `GET /v1/models` and `exa_registry_*` in `GET /metrics`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RegistryStats {
        /// Models currently resident in the registry.
        Gauge resident_models: usize,
        /// Factor bytes currently resident in the registry.
        Gauge bytes_in_use: usize,
        /// Lifetime registry insertions.
        /// ([`ModelRegistry::insert`] calls.)
        Counter insertions: u64,
        /// Lifetime LRU evictions by the byte budget.
        /// (Explicit [`ModelRegistry::evict`] calls are not counted.)
        Counter evictions: u64,
        /// Lifetime registry lookups that hit.
        Counter hits: u64,
        /// Lifetime registry lookups that missed.
        Counter misses: u64,
        /// Lifetime models materialized by the load-on-miss hook.
        /// ([`ModelRegistry::get_or_load`].)
        Counter loads: u64,
        /// Byte-ledger recomputations after a model grew or shrank in place.
        /// ([`ModelRegistry::reaccount`] calls.)
        Counter reaccounts: u64,
        ;
        /// The configured byte budget, if any.
        pub byte_budget: Option<usize>,
    }
}

/// A named collection of fitted sessions with LRU eviction under an
/// optional byte budget (see the module docs).
///
/// All methods take `&self`; the registry is internally synchronized and is
/// shared between submitters and the [`PredictionServer`](crate::PredictionServer)
/// via `Arc`.
pub struct ModelRegistry<K: ParamCovariance> {
    /// All residency bookkeeping — map, byte ledger, LRU clock, lifetime
    /// counters — lives in one [`Ledger`] behind one lock, so every
    /// snapshot is internally consistent (see the ledger's module docs for
    /// the model-checked invariants).
    inner: Mutex<Ledger<LiveModel<K>>>,
    budget: Option<usize>,
    /// Load-on-miss hook, behind its own lock so a slow load never blocks
    /// lookups of resident models (the `inner` lock is not held while the
    /// loader runs).
    loader: Mutex<Option<Box<ModelLoader<K>>>>,
}

impl<K: ParamCovariance> Default for ModelRegistry<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ParamCovariance> ModelRegistry<K> {
    /// An unbounded registry (no eviction).
    pub fn new() -> Self {
        ModelRegistry {
            inner: Mutex::new(Ledger::new()),
            budget: None,
            loader: Mutex::new(None),
        }
    }

    /// A registry that keeps resident factor bytes at or below `budget`
    /// by evicting least-recently-used models on insert.
    pub fn with_byte_budget(budget: usize) -> Self {
        ModelRegistry {
            budget: Some(budget),
            ..Self::new()
        }
    }

    /// Registers `model` under `name`, replacing any previous holder of the
    /// name, and returns the names evicted to respect the byte budget (in
    /// eviction order).
    ///
    /// The newly inserted model is never evicted by its own insert, so a
    /// single factor larger than the whole budget still becomes resident
    /// (and everything else is evicted around it).
    pub fn insert(&self, name: impl Into<String>, model: Arc<FittedModel<K>>) -> Vec<String> {
        self.insert_live(name, LiveModel::with_env_policy(model))
    }

    /// Registers an already-wrapped [`LiveModel`] (same replacement and
    /// budget-eviction semantics as [`ModelRegistry::insert`]).
    pub fn insert_live(&self, name: impl Into<String>, live: LiveModel<K>) -> Vec<String> {
        let name = name.into();
        let bytes = live.snapshot().factor_bytes();
        self.inner
            .lock()
            .expect("registry lock")
            .insert(name, live, bytes, self.budget)
    }

    /// Re-reads a live model's current factor bytes into the ledger and
    /// re-runs budget eviction (the grown model itself is never the victim,
    /// mirroring insert's oversized-model rule). Returns evicted names.
    ///
    /// Called by the serving layer after every observe/expire/refit —
    /// without it, `factor_bytes` recorded at insert would drift as factors
    /// grow.
    pub fn reaccount(&self, name: &str) -> Vec<String> {
        let mut ledger = self.inner.lock().expect("registry lock");
        let Some(bytes) = ledger
            .peek(name)
            .map(|entry| entry.value.snapshot().factor_bytes())
        else {
            return Vec::new();
        };
        ledger.reaccount(name, bytes, self.budget)
    }

    /// Looks up a model by name, bumping its recency. The returned snapshot
    /// is immutable — concurrent observes swap in new snapshots without
    /// touching handles already given out.
    pub fn get(&self, name: &str) -> Option<Arc<FittedModel<K>>> {
        self.live(name).map(|live| live.snapshot())
    }

    /// Looks up the [`LiveModel`] wrapper by name (the write path), bumping
    /// recency.
    pub fn live(&self, name: &str) -> Option<LiveModel<K>> {
        self.inner
            .lock()
            .expect("registry lock")
            .touch(name)
            .cloned()
    }

    /// Installs the load-on-miss hook consulted by
    /// [`ModelRegistry::get_or_load`]. Replaces any previous loader.
    pub fn set_loader<F>(&self, loader: F)
    where
        F: Fn(&str) -> Option<Arc<FittedModel<K>>> + Send + Sync + 'static,
    {
        *self.loader.lock().expect("loader lock") = Some(Box::new(loader));
    }

    /// Removes the load-on-miss hook; `get_or_load` degrades to `get`.
    pub fn clear_loader(&self) {
        *self.loader.lock().expect("loader lock") = None;
    }

    /// Like [`ModelRegistry::get`], but on a miss consults the installed
    /// loader and registers whatever it returns (counting a `load` and an
    /// insertion, with normal budget eviction).
    ///
    /// Loads are serialized behind the loader lock — concurrent misses for
    /// the same model trigger one load, later waiters find it resident on
    /// re-check. Lookups of resident models are never blocked by an
    /// in-flight load.
    pub fn get_or_load(&self, name: &str) -> Option<Arc<FittedModel<K>>> {
        if let Some(model) = self.get(name) {
            return Some(model);
        }
        self.live_or_load_slow(name).map(|live| live.snapshot())
    }

    /// [`ModelRegistry::live`] with the same load-on-miss behavior as
    /// [`ModelRegistry::get_or_load`] — the observe path's lookup.
    pub fn live_or_load(&self, name: &str) -> Option<LiveModel<K>> {
        if let Some(live) = self.live(name) {
            return Some(live);
        }
        self.live_or_load_slow(name)
    }

    fn live_or_load_slow(&self, name: &str) -> Option<LiveModel<K>> {
        let loader = self.loader.lock().expect("loader lock");
        // Re-check under the loader lock: a racing miss may have already
        // materialized the model while this thread waited.
        if let Some(live) = self.live(name) {
            return Some(live);
        }
        let model = loader.as_ref()?(name)?;
        self.inner.lock().expect("registry lock").count_load();
        let live = LiveModel::with_env_policy(model);
        self.insert_live(name, live.clone());
        Some(live)
    }

    /// Removes a model by name; `true` if it was resident.
    pub fn evict(&self, name: &str) -> bool {
        self.inner.lock().expect("registry lock").remove(name)
    }

    /// Whether `name` is currently resident (does not bump recency).
    pub fn contains(&self, name: &str) -> bool {
        self.inner.lock().expect("registry lock").contains(name)
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").len()
    }

    /// True when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total factor bytes currently resident.
    pub fn bytes_in_use(&self) -> usize {
        self.inner.lock().expect("registry lock").bytes()
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.budget
    }

    /// Resident model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Resident models with their per-model byte costs, sorted by name
    /// (does not bump recency) — the `GET /v1/models` payload.
    pub fn entries(&self) -> Vec<ModelInfo> {
        self.snapshot().0
    }

    /// A consistent snapshot of residency and lifetime counters (see
    /// [`ModelRegistry::snapshot`] for the consistency guarantee).
    pub fn stats(&self) -> RegistryStats {
        self.snapshot().1
    }

    /// Aggregated streaming-ingestion drift across every resident live
    /// model: lifetime counters summed, gauges (`condition_growth`,
    /// `loglik_drift`, `updates_since_refactor`) taken as the max — the
    /// "worst drifted model" view an operator alerts on.
    pub fn drift_totals(&self) -> exa_geostat::DriftStats {
        // Clone the handles out, then read drift lock-free: a slow observer
        // never holds the registry lock while models churn.
        let lives: Vec<LiveModel<K>> = self
            .inner
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(_, e)| e.value.clone())
            .collect();
        let mut total = exa_geostat::DriftStats::default();
        for live in lives {
            let d = live.drift();
            total.updates_since_refactor =
                total.updates_since_refactor.max(d.updates_since_refactor);
            total.updates_total += d.updates_total;
            total.points_ingested += d.points_ingested;
            total.points_expired += d.points_expired;
            total.refits_triggered += d.refits_triggered;
            total.refits_completed += d.refits_completed;
            total.replayed_updates += d.replayed_updates;
            total.condition_growth = total.condition_growth.max(d.condition_growth);
            total.loglik_drift = total.loglik_drift.max(d.loglik_drift);
        }
        total
    }

    /// Entry list and statistics under **one** lock acquisition, so the
    /// two halves always describe the same registry state (`bytes_in_use`
    /// equals the sum of the listed `factor_bytes`, even while concurrent
    /// inserts evict).
    pub fn snapshot(&self) -> (Vec<ModelInfo>, RegistryStats) {
        let ledger = self.inner.lock().expect("registry lock");
        let mut entries: Vec<ModelInfo> = ledger
            .iter()
            .map(|(name, entry)| ModelInfo {
                name: name.clone(),
                factor_bytes: entry.bytes,
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let stats = RegistryStats {
            resident_models: ledger.len(),
            bytes_in_use: ledger.bytes(),
            byte_budget: self.budget,
            insertions: ledger.insertions,
            evictions: ledger.evictions,
            hits: ledger.hits,
            misses: ledger.misses,
            loads: ledger.loads,
            reaccounts: ledger.reaccounts,
        };
        (entries, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_covariance::MaternKernel;
    use exa_geostat::{synthetic_locations, Backend, GeoModel};
    use exa_runtime::Runtime;
    use exa_util::Rng;

    fn fitted(seed: u64, backend: Backend) -> Arc<FittedModel<MaternKernel>> {
        let mut rng = Rng::seed_from_u64(seed);
        let locations = Arc::new(synthetic_locations(6, &mut rng));
        let rt = Runtime::new(1);
        let mut z = vec![0.0; locations.len()];
        rng.fill_gaussian(&mut z);
        Arc::new(
            GeoModel::<MaternKernel>::builder()
                .locations(locations)
                .data(z)
                .backend(backend)
                .tile_size(18)
                .build()
                .unwrap()
                .at_params(&[1.0, 0.1, 0.5], &rt)
                .unwrap(),
        )
    }

    #[test]
    fn insert_get_evict_round_trip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let m = fitted(1, Backend::FullTile);
        assert!(reg.insert("a", m.clone()).is_empty());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.bytes_in_use(), m.factor_bytes());
        assert!(Arc::ptr_eq(&reg.get("a").unwrap(), &m));
        assert!(reg.get("missing").is_none());
        assert!(reg.evict("a"));
        assert!(!reg.evict("a"));
        assert_eq!(reg.bytes_in_use(), 0);
    }

    #[test]
    fn reinsert_same_name_replaces_without_leaking_bytes() {
        let reg = ModelRegistry::new();
        let m1 = fitted(1, Backend::FullTile);
        let m2 = fitted(2, Backend::FullTile);
        reg.insert("a", m1);
        reg.insert("a", m2.clone());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.bytes_in_use(), m2.factor_bytes());
        assert!(Arc::ptr_eq(&reg.get("a").unwrap(), &m2));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let a = fitted(1, Backend::FullTile);
        let per_model = a.factor_bytes();
        // Budget fits exactly two resident factors.
        let reg = ModelRegistry::with_byte_budget(2 * per_model);
        assert_eq!(reg.byte_budget(), Some(2 * per_model));
        reg.insert("a", a);
        reg.insert("b", fitted(2, Backend::FullTile));
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert!(reg.get("a").is_some());
        let evicted = reg.insert("c", fitted(3, Backend::FullTile));
        assert_eq!(evicted, vec!["b".to_string()]);
        assert_eq!(reg.names(), vec!["a".to_string(), "c".to_string()]);
        assert!(reg.bytes_in_use() <= 2 * per_model);
    }

    #[test]
    fn oversized_model_still_becomes_resident() {
        let a = fitted(1, Backend::FullTile);
        let reg = ModelRegistry::with_byte_budget(a.factor_bytes() / 2);
        reg.insert("small", a);
        let evicted = reg.insert("huge", fitted(2, Backend::FullTile));
        // Everything else goes, but the new model is kept.
        assert_eq!(evicted, vec!["small".to_string()]);
        assert_eq!(reg.names(), vec!["huge".to_string()]);
    }

    #[test]
    fn stats_and_entries_observe_inserts_evictions_and_lookups() {
        let a = fitted(1, Backend::FullTile);
        let per_model = a.factor_bytes();
        let reg = ModelRegistry::with_byte_budget(2 * per_model);
        assert_eq!(
            reg.stats(),
            RegistryStats {
                byte_budget: Some(2 * per_model),
                ..Default::default()
            }
        );
        reg.insert("a", a);
        reg.insert("b", fitted(2, Backend::FullTile));
        assert!(reg.get("a").is_some());
        assert!(reg.get("nope").is_none());
        let evicted = reg.insert("c", fitted(3, Backend::FullTile));
        assert_eq!(evicted, vec!["b".to_string()]);
        let stats = reg.stats();
        assert_eq!(stats.resident_models, 2);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bytes_in_use, 2 * per_model);
        let entries = reg.entries();
        assert_eq!(
            entries,
            vec![
                ModelInfo {
                    name: "a".into(),
                    factor_bytes: per_model
                },
                ModelInfo {
                    name: "c".into(),
                    factor_bytes: per_model
                },
            ]
        );
    }

    #[test]
    fn concurrent_insert_evict_stress_keeps_the_books_straight() {
        // A handful of pre-fitted models Arc-shared across threads; the
        // budget fits two of them, so inserts continually evict.
        let models: Vec<Arc<FittedModel<MaternKernel>>> =
            (0..3).map(|i| fitted(10 + i, Backend::FullTile)).collect();
        let per_model = models[0].factor_bytes();
        let reg = Arc::new(ModelRegistry::with_byte_budget(2 * per_model));
        let threads = 8;
        let ops_per_thread = 60;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let reg = Arc::clone(&reg);
                let models = models.clone();
                scope.spawn(move || {
                    for op in 0..ops_per_thread {
                        let name = format!("m{}", (t * 7 + op * 3) % 6);
                        match op % 4 {
                            0 | 1 => {
                                reg.insert(&name, Arc::clone(&models[op % models.len()]));
                            }
                            2 => {
                                if let Some(model) = reg.get(&name) {
                                    assert!(model.factor_bytes() > 0);
                                }
                            }
                            _ => {
                                reg.evict(&name);
                            }
                        }
                    }
                });
            }
        });
        // Invariants after the dust settles: the byte ledger equals the sum
        // over resident entries, residency respects the budget shape, and
        // the lifetime counters add up.
        let stats = reg.stats();
        let entries = reg.entries();
        assert_eq!(stats.resident_models, entries.len());
        assert_eq!(
            stats.bytes_in_use,
            entries.iter().map(|e| e.factor_bytes).sum::<usize>()
        );
        assert_eq!(stats.bytes_in_use, reg.bytes_in_use());
        assert!(stats.bytes_in_use <= 2 * per_model);
        assert_eq!(stats.insertions, (threads * ops_per_thread / 2) as u64);
        assert_eq!(
            stats.hits + stats.misses,
            (threads * ops_per_thread / 4) as u64
        );
        assert!(stats.evictions <= stats.insertions);
        // The registry still works after the stampede.
        reg.insert("after", Arc::clone(&models[0]));
        assert!(reg.get("after").is_some());
    }

    #[test]
    fn evict_racing_insert_under_budget_never_drifts_the_books() {
        // The ISSUE 5 satellite: explicit `evict()` calls racing
        // budget-driven `insert()` eviction on the *same* names, with an
        // observer thread validating every snapshot it can grab while the
        // race is live — not just the final state. Any drift in the
        // `factor_bytes` ledger or the lifetime counters shows up as a
        // snapshot whose books don't balance.
        let models: Vec<Arc<FittedModel<MaternKernel>>> =
            (0..3).map(|i| fitted(20 + i, Backend::FullTile)).collect();
        let per_model = models[0].factor_bytes();
        let reg = Arc::new(ModelRegistry::with_byte_budget(2 * per_model));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers = 6;
        let ops_per_writer = 120;
        std::thread::scope(|scope| {
            // Writers: half the ops insert over budget (forcing LRU
            // evictions), half explicitly evict the same small name set.
            for t in 0..writers {
                let reg = Arc::clone(&reg);
                let models = models.clone();
                scope.spawn(move || {
                    for op in 0..ops_per_writer {
                        let name = format!("m{}", (t + op * 5) % 4);
                        if op % 2 == 0 {
                            let evicted = reg.insert(&name, Arc::clone(&models[op % models.len()]));
                            // An insert never reports its own name evicted.
                            assert!(!evicted.contains(&name));
                        } else {
                            reg.evict(&name);
                        }
                    }
                });
            }
            // Observer: the books must balance in every mid-race snapshot.
            let reg_obs = Arc::clone(&reg);
            let stop_obs = Arc::clone(&stop);
            let observer = scope.spawn(move || {
                let mut snapshots = 0u64;
                let mut last = RegistryStats::default();
                while !stop_obs.load(std::sync::atomic::Ordering::Relaxed) {
                    let (entries, stats) = reg_obs.snapshot();
                    assert_eq!(stats.resident_models, entries.len());
                    assert_eq!(
                        stats.bytes_in_use,
                        entries.iter().map(|e| e.factor_bytes).sum::<usize>(),
                        "byte ledger drifted from residency"
                    );
                    // Over-budget residency is only legal transiently for a
                    // single oversized model; per_model*2 == budget here,
                    // so the budget is a hard snapshot invariant.
                    assert!(
                        stats.bytes_in_use <= 2 * per_model,
                        "snapshot over budget: {} > {}",
                        stats.bytes_in_use,
                        2 * per_model
                    );
                    // Lifetime counters are monotone under the same lock.
                    assert!(stats.insertions >= last.insertions);
                    assert!(stats.evictions >= last.evictions);
                    assert!(stats.evictions <= stats.insertions);
                    last = stats;
                    snapshots += 1;
                }
                snapshots
            });
            // Writers are joined by scope exit; flip the observer's flag
            // from a dedicated waiter so it overlaps genuinely-live races.
            let stop_setter = Arc::clone(&stop);
            scope.spawn(move || {
                // Give the writers time to finish: they are compute-light,
                // so a short spin keeps the test fast while the observer
                // overlaps the entire write phase.
                std::thread::sleep(std::time::Duration::from_millis(150));
                stop_setter.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            let snapshots = observer.join().expect("observer never panics");
            assert!(snapshots > 0, "observer must witness the race");
        });
        // Final books: counters add up against the op mix exactly.
        let (entries, stats) = reg.snapshot();
        assert_eq!(stats.insertions, (writers * ops_per_writer / 2) as u64);
        assert_eq!(stats.resident_models, entries.len());
        assert_eq!(
            stats.bytes_in_use,
            entries.iter().map(|e| e.factor_bytes).sum::<usize>()
        );
        // Every resident entry still answers by name, and residency agrees
        // across the whole read API.
        for entry in &entries {
            assert!(reg.contains(&entry.name));
            assert!(reg.get(&entry.name).is_some());
        }
        assert_eq!(reg.len(), entries.len());
        assert_eq!(reg.bytes_in_use(), stats.bytes_in_use);
    }

    #[test]
    fn get_or_load_materializes_misses_and_counts_loads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let reg = ModelRegistry::new();
        let m = fitted(1, Backend::FullTile);
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in = Arc::clone(&calls);
        let template = Arc::clone(&m);
        reg.set_loader(move |name| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            (name == "loadable").then(|| Arc::clone(&template))
        });
        // Loader consulted but declines: still a miss.
        assert!(reg.get_or_load("nope").is_none());
        // Loader materializes the model; it becomes resident.
        let got = reg.get_or_load("loadable").unwrap();
        assert!(Arc::ptr_eq(&got, &m));
        assert!(reg.contains("loadable"));
        // Residency short-circuits: no further loader calls.
        assert!(reg.get_or_load("loadable").is_some());
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let stats = reg.stats();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.insertions, 1);
        // Without a loader, get_or_load degrades to get.
        reg.clear_loader();
        assert!(reg.get_or_load("other").is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_misses_load_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let reg = Arc::new(ModelRegistry::new());
        let m = fitted(2, Backend::FullTile);
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in = Arc::clone(&calls);
        let template = Arc::clone(&m);
        reg.set_loader(move |_| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            // Slow load: let the other threads pile up on the loader lock.
            std::thread::sleep(std::time::Duration::from_millis(20));
            Some(Arc::clone(&template))
        });
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    assert!(reg.get_or_load("shared").is_some());
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "load must single-flight");
        assert_eq!(reg.stats().loads, 1);
    }

    #[test]
    fn reaccount_after_growth_past_budget_evicts_lru() {
        // The byte-budget-drift satellite: a model that grows *after*
        // insertion must be re-accounted, and the ledger correction evicts
        // around it just like an oversized insert would.
        let mut rng = Rng::seed_from_u64(5);
        let locations = Arc::new(synthetic_locations(6, &mut rng));
        let rt = Runtime::new(1);
        let mut z = vec![0.0; locations.len()];
        rng.fill_gaussian(&mut z);
        let growing = Arc::new(
            GeoModel::<MaternKernel>::builder()
                .locations(locations)
                .data(z)
                .backend(Backend::FullBlock) // dense: incrementally updatable
                .tile_size(18)
                .build()
                .unwrap()
                .at_params(&[1.0, 0.1, 0.5], &rt)
                .unwrap(),
        );
        let small = fitted(2, Backend::FullTile);
        let budget = growing.factor_bytes() + small.factor_bytes();
        let reg = ModelRegistry::with_byte_budget(budget);
        reg.insert("grow", growing.clone());
        reg.insert("small", small);
        assert_eq!(reg.len(), 2);
        assert!(reg.bytes_in_use() <= budget);

        // Stream observations in: the factor grows, but the ledger still
        // carries insert-time bytes until a reaccount.
        let live = reg.live("grow").unwrap();
        let pts: Vec<exa_covariance::Location> = (0..8)
            .map(|i| exa_covariance::Location::new(1.5 + 0.07 * i as f64, 0.3 + 0.05 * i as f64))
            .collect();
        live.observe(&pts, &[0.25; 8], &rt).unwrap();
        let grown_bytes = live.snapshot().factor_bytes();
        assert!(grown_bytes > growing.factor_bytes());
        let stale = reg.bytes_in_use();

        let evicted = reg.reaccount("grow");
        assert_eq!(evicted, vec!["small".to_string()], "LRU makes room");
        assert!(reg.contains("grow"), "the grown model itself survives");
        assert_eq!(reg.bytes_in_use(), grown_bytes);
        assert_ne!(reg.bytes_in_use(), stale, "ledger was corrected");
        assert_eq!(reg.stats().reaccounts, 1);

        // Reaccounting an absent name is a no-op.
        assert!(reg.reaccount("ghost").is_empty());
    }

    #[test]
    fn eviction_does_not_invalidate_inflight_handles() {
        let reg = ModelRegistry::with_byte_budget(1);
        let m = fitted(1, Backend::tlr(1e-7));
        reg.insert("a", m);
        let pinned = reg.get("a").unwrap();
        reg.insert("b", fitted(2, Backend::FullTile)); // evicts "a"
        assert!(!reg.contains("a"));
        // The pinned Arc still answers queries.
        let rt = Runtime::new(1);
        let p = pinned
            .predict(&[exa_covariance::Location::new(0.4, 0.6)], &rt)
            .unwrap();
        assert!(p.values[0].is_finite());
    }
}
