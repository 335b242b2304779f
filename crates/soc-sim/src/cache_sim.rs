//! Trace-driven cache simulation with 3C miss classification.
//!
//! Section VI cites the 3C model (Hill & Smith) — compulsory, capacity,
//! and conflict misses — among the models computer architecture is built
//! on. This module implements it operationally: a set-associative LRU
//! cache simulated alongside a same-capacity fully-associative LRU
//! shadow, classifying each miss as
//!
//! * **compulsory** — first-ever reference to the line;
//! * **capacity** — the fully-associative shadow misses too;
//! * **conflict** — only the set-associative cache misses.
//!
//! Its practical role in this reproduction: measuring the Gables SRAM
//! extension's per-IP miss ratios `mi` from a usecase's reference pattern
//! ([`measure_miss_ratio`]) instead of assuming them.
//!
//! The second half of the module is a *hierarchy* simulator for the
//! cache-aware roofline (CARM) extension: multi-level configs with
//! per-level line size/associativity/latency ([`HierarchyConfig`]),
//! LRU/MRU/way-prediction replacement ([`ReplacementPolicy`]), an
//! optional per-level victim cache, and working-set/block-size sweep
//! drivers ([`measure_bandwidth_ladder`], [`sweep_block_sizes`]) that
//! measure the effective bandwidth of every level from simulated time —
//! never wall-clock time, so results are bit-identical across machines
//! and `--threads` policies.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

use gables_model::par::{self, Parallelism};
use gables_model::rng::SplitMix64;
use gables_model::units::MissRatio;

use crate::error::SimError;
use crate::trace::{Access, TracePattern};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Ways per set; use [`CacheConfig::fully_associative`] for one set.
    pub associativity: u32,
}

impl CacheConfig {
    /// A fully-associative configuration of the given capacity.
    pub fn fully_associative(capacity_bytes: u64, line_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            line_bytes,
            associativity: (capacity_bytes / line_bytes.max(1)).max(1) as u32,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.capacity_bytes / (self.line_bytes * u64::from(self.associativity))).max(1)
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(SimError::Config {
                what: format!("cache line size {} must be a power of two", self.line_bytes),
            });
        }
        if self.associativity == 0 {
            return Err(SimError::Config {
                what: "cache associativity must be >= 1".into(),
            });
        }
        let way_bytes = self.line_bytes * u64::from(self.associativity);
        if self.capacity_bytes < way_bytes {
            return Err(SimError::Config {
                what: format!(
                    "cache capacity {} smaller than one set ({} bytes)",
                    self.capacity_bytes, way_bytes
                ),
            });
        }
        if !self.sets().is_power_of_two() {
            return Err(SimError::Config {
                what: format!("cache set count {} must be a power of two", self.sets()),
            });
        }
        Ok(())
    }
}

/// The 3C classification of a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the line.
    Compulsory,
    /// Would miss even fully-associatively at this capacity.
    Capacity,
    /// Misses only because of limited associativity.
    Conflict,
}

/// The outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; classified per the 3C model.
    Miss(MissClass),
}

/// Aggregate statistics for a simulated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total references.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Compulsory misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Miss ratio (0 for an empty trace).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Off-chip traffic implied by the trace: fills plus writebacks, in
    /// bytes (given the line size).
    pub fn offchip_bytes(&self, line_bytes: u64) -> u64 {
        (self.misses() + self.writebacks) * line_bytes
    }
}

/// A set-associative LRU cache with a fully-associative shadow for 3C
/// classification.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// Per set: line -> (last-use time, dirty).
    sets: Vec<HashMap<u64, (u64, bool)>>,
    /// Fully-associative shadow: line -> last-use time.
    shadow: HashMap<u64, u64>,
    /// Shadow eviction order: time -> line.
    shadow_lru: BTreeMap<u64, u64>,
    shadow_capacity_lines: u64,
    /// Every line ever referenced (for compulsory classification).
    seen: HashSet<u64>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid geometry (non-power-of-two
    /// line size or set count, zero associativity, capacity below one
    /// set).
    pub fn new(config: CacheConfig) -> Result<Self, SimError> {
        config.validate()?;
        let sets = config.sets();
        Ok(Self {
            config,
            sets: (0..sets).map(|_| HashMap::new()).collect(),
            shadow: HashMap::new(),
            shadow_lru: BTreeMap::new(),
            shadow_capacity_lines: (config.capacity_bytes / config.line_bytes).max(1),
            seen: HashSet::new(),
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Simulates one access.
    pub fn access(&mut self, access: Access) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = access.addr / self.config.line_bytes;
        let set_index = (line % self.sets.len() as u64) as usize;

        // Shadow (fully-associative) result first — it must be updated on
        // every access regardless of the real cache's outcome.
        let shadow_hit = self.touch_shadow(line);
        let first_touch = self.seen.insert(line);

        let way_count = self.config.associativity as usize;
        let set = &mut self.sets[set_index];
        match set.entry(line) {
            Entry::Occupied(mut e) => {
                let v = e.get_mut();
                v.0 = self.clock;
                v.1 |= access.write;
                self.stats.hits += 1;
                AccessOutcome::Hit
            }
            Entry::Vacant(_) => {
                // Miss: classify, then fill with LRU eviction.
                let class = if first_touch {
                    self.stats.compulsory += 1;
                    MissClass::Compulsory
                } else if !shadow_hit {
                    self.stats.capacity += 1;
                    MissClass::Capacity
                } else {
                    self.stats.conflict += 1;
                    MissClass::Conflict
                };
                if set.len() >= way_count {
                    let (&victim, &(_, dirty)) = set
                        .iter()
                        .min_by_key(|(_, (t, _))| *t)
                        .expect("nonempty set");
                    set.remove(&victim);
                    if dirty {
                        self.stats.writebacks += 1;
                    }
                }
                set.insert(line, (self.clock, access.write));
                AccessOutcome::Miss(class)
            }
        }
    }

    /// Runs an entire trace and returns the final statistics.
    pub fn run_trace(&mut self, trace: &[Access]) -> CacheStats {
        for &a in trace {
            self.access(a);
        }
        self.stats
    }

    /// Touches the fully-associative shadow; returns whether it hit.
    fn touch_shadow(&mut self, line: u64) -> bool {
        let hit = if let Some(&old) = self.shadow.get(&line) {
            self.shadow_lru.remove(&old);
            true
        } else {
            if self.shadow.len() as u64 >= self.shadow_capacity_lines {
                if let Some((&t, &victim)) = self.shadow_lru.iter().next() {
                    self.shadow_lru.remove(&t);
                    self.shadow.remove(&victim);
                }
            }
            false
        };
        self.shadow.insert(line, self.clock);
        self.shadow_lru.insert(self.clock, line);
        hit
    }
}

/// Derives the *effective DRAM operational intensity* `Ii` of a workload
/// behind a cache: `total ops / off-chip bytes`. This is the paper's
/// fourth conjecture made computable — operational intensity depends on
/// hardware (cache size) and software (reuse) together, and the same code
/// has a different `Ii` behind a different cache.
///
/// `ops_per_access` is the compute performed per memory reference in the
/// trace. Returns `None` when the trace generates no off-chip traffic at
/// all (intensity is unbounded — the flat-roof regime).
pub fn effective_dram_intensity(
    stats: &CacheStats,
    line_bytes: u64,
    ops_per_access: f64,
) -> Option<f64> {
    let offchip = stats.offchip_bytes(line_bytes);
    if offchip == 0 {
        return None;
    }
    Some(stats.accesses as f64 * ops_per_access / offchip as f64)
}

/// Measures the Gables SRAM-extension miss ratio `mi` for one IP: the
/// fraction of its references that reach DRAM when a memory-side SRAM of
/// the given geometry sits in front of it (Section V-A).
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid cache geometry.
pub fn measure_miss_ratio(
    config: CacheConfig,
    pattern: &TracePattern,
) -> Result<MissRatio, SimError> {
    let mut sim = CacheSim::new(config)?;
    let stats = sim.run_trace(&pattern.generate());
    MissRatio::new(stats.miss_ratio()).map_err(|e| SimError::Config {
        what: format!("measured miss ratio invalid: {e}"),
    })
}

// ---------------------------------------------------------------------------
// Cache hierarchy simulation (CARM substrate)
// ---------------------------------------------------------------------------

/// Replacement policy for one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the stack algorithm).
    Lru,
    /// Evict the most-recently-used way — thrash-resistant for cyclic
    /// working sets one way larger than the set.
    Mru,
    /// LRU replacement plus an MRU way predictor: a hit in the predicted
    /// way costs one probe, any other hit costs a second probe.
    WayPrediction,
}

impl ReplacementPolicy {
    /// Parses the spec-file spelling (`lru`, `mru`, `way_prediction`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lru" => Some(Self::Lru),
            "mru" => Some(Self::Mru),
            "way_prediction" => Some(Self::WayPrediction),
            _ => None,
        }
    }

    /// The spec-file spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::Mru => "mru",
            Self::WayPrediction => "way_prediction",
        }
    }
}

/// One level of a cache hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelConfig {
    /// Level name as it appears in ladders and reports (`l1`, `slc`, ...).
    pub name: String,
    /// Geometry (capacity, line size, associativity).
    pub geometry: CacheConfig,
    /// Time for one tag+data probe of this level, in nanoseconds.
    pub latency_ns: f64,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
    /// Entries in the level's fully-associative victim cache (0 disables
    /// it). Evicted lines park here and hit back without a refill from
    /// the next level.
    pub victim_lines: u32,
}

/// A multi-level cache hierarchy backed by DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Levels ordered nearest-first (L1 at index 0).
    pub levels: Vec<LevelConfig>,
    /// Time for one DRAM line transfer, in nanoseconds.
    pub dram_latency_ns: f64,
}

impl HierarchyConfig {
    /// Validates the whole hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an empty hierarchy, an invalid
    /// per-level geometry, a non-finite/non-positive latency, or a level
    /// ordering violation (capacities must strictly increase outward).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.levels.is_empty() {
            return Err(SimError::Config {
                what: "cache hierarchy must have at least one level".into(),
            });
        }
        let mut prev: Option<(&str, u64)> = None;
        for level in &self.levels {
            level.geometry.validate().map_err(|e| match e {
                SimError::Config { what } => SimError::Config {
                    what: format!("level {}: {what}", level.name),
                },
                other => other,
            })?;
            if !level.latency_ns.is_finite() || level.latency_ns <= 0.0 {
                return Err(SimError::Config {
                    what: format!(
                        "level {}: latency {} ns must be finite and positive",
                        level.name, level.latency_ns
                    ),
                });
            }
            if let Some((prev_name, prev_cap)) = prev {
                if level.geometry.capacity_bytes <= prev_cap {
                    return Err(SimError::Config {
                        what: format!(
                            "level ordering violation: {} ({} bytes) must be larger \
                             than {} ({} bytes)",
                            level.name, level.geometry.capacity_bytes, prev_name, prev_cap
                        ),
                    });
                }
            }
            prev = Some((&level.name, level.geometry.capacity_bytes));
        }
        if !self.dram_latency_ns.is_finite() || self.dram_latency_ns <= 0.0 {
            return Err(SimError::Config {
                what: format!(
                    "dram latency {} ns must be finite and positive",
                    self.dram_latency_ns
                ),
            });
        }
        Ok(())
    }
}

/// Per-level counters from a hierarchy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Probes that reached this level.
    pub accesses: u64,
    /// Hits in the main array (including mispredicted-way hits).
    pub hits: u64,
    /// Hits found in the predicted way (way-prediction policy only; other
    /// policies count every hit here — a single probe always suffices).
    pub predicted_hits: u64,
    /// Hits recovered from the victim cache.
    pub victim_hits: u64,
    /// Dirty lines pushed to the next level on eviction.
    pub writebacks: u64,
}

impl LevelStats {
    /// Probes that missed both the main array and the victim cache.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits - self.victim_hits
    }

    /// Fraction of probes served by this level (0 for no probes).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.hits + self.victim_hits) as f64 / self.accesses as f64
        }
    }
}

/// Aggregate counters for a hierarchy run, including the simulated time
/// the run would take — the quantity every effective bandwidth in the
/// CARM ladder is derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyStats {
    /// Per-level counters, nearest level first.
    pub levels: Vec<LevelStats>,
    /// Demand fills that reached DRAM.
    pub dram_accesses: u64,
    /// Dirty lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Requests issued to the hierarchy.
    pub accesses: u64,
    /// Simulated time: the sum of every probe/transfer latency on the
    /// demand path (writebacks are posted and cost no time).
    pub time_ns: f64,
}

impl HierarchyStats {
    /// Bytes served by each rung of the ladder: per cache level
    /// `(hits + victim hits) * line_bytes`, and as a final entry the
    /// DRAM fill traffic. This is the hit/miss profile the CARM model
    /// turns into per-level effective intensities.
    pub fn bytes_per_level(&self, config: &HierarchyConfig) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .levels
            .iter()
            .zip(&config.levels)
            .map(|(s, l)| ((s.hits + s.victim_hits) * l.geometry.line_bytes) as f64)
            .collect();
        let dram_line = config.levels.last().map_or(64, |l| l.geometry.line_bytes);
        out.push((self.dram_accesses * dram_line) as f64);
        out
    }
}

/// A single way slot. `last` is a per-level logical clock, unique per
/// touch, so replacement decisions never depend on iteration order.
#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    dirty: bool,
    last: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeResult {
    /// Hit in the main array; `predicted` is true when the way predictor
    /// pointed at the right way (always true for non-predicting policies).
    Hit {
        predicted: bool,
    },
    /// Hit recovered from the victim cache.
    VictimHit,
    Miss,
}

/// One policy-aware level: fixed way slots per set (stable indices for
/// the way predictor) plus an optional fully-associative victim queue.
#[derive(Debug, Clone)]
struct PolicyLevel {
    line_bytes: u64,
    set_count: u64,
    policy: ReplacementPolicy,
    /// `sets[s][w]` is way slot `w` of set `s`.
    sets: Vec<Vec<Option<Way>>>,
    /// Predicted way slot per set (way-prediction policy).
    predicted: Vec<usize>,
    /// Victim queue, oldest first: (line, dirty).
    victim: Vec<(u64, bool)>,
    victim_cap: usize,
    clock: u64,
}

impl PolicyLevel {
    fn new(config: &LevelConfig) -> Self {
        let set_count = config.geometry.sets();
        let assoc = config.geometry.associativity as usize;
        Self {
            line_bytes: config.geometry.line_bytes,
            set_count,
            policy: config.policy,
            sets: (0..set_count).map(|_| vec![None; assoc]).collect(),
            predicted: vec![0; set_count as usize],
            victim: Vec::new(),
            victim_cap: config.victim_lines as usize,
            clock: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// Looks the address up without filling on a miss. A victim hit
    /// swaps the line back into the main array (possibly spilling a
    /// dirty line, returned as a writeback byte address).
    fn probe(&mut self, addr: u64, write: bool) -> (ProbeResult, Option<u64>) {
        self.clock += 1;
        let line = self.line_of(addr);
        let set_index = (line % self.set_count) as usize;
        let clock = self.clock;
        let set = &mut self.sets[set_index];
        for (slot, way) in set.iter_mut().enumerate() {
            if let Some(w) = way {
                if w.line == line {
                    w.last = clock;
                    w.dirty |= write;
                    let predicted = self.policy != ReplacementPolicy::WayPrediction
                        || self.predicted[set_index] == slot;
                    self.predicted[set_index] = slot;
                    return (ProbeResult::Hit { predicted }, None);
                }
            }
        }
        if let Some(pos) = self.victim.iter().position(|&(l, _)| l == line) {
            let (_, mut dirty) = self.victim.remove(pos);
            dirty |= write;
            let wb = self.fill(addr, dirty);
            return (ProbeResult::VictimHit, wb);
        }
        (ProbeResult::Miss, None)
    }

    /// Installs the line, evicting per policy. The evicted line parks in
    /// the victim cache when one is configured; a dirty line spilled out
    /// of the level entirely is returned as a writeback byte address.
    fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let line = self.line_of(addr);
        let set_index = (line % self.set_count) as usize;
        let clock = self.clock;
        let line_bytes = self.line_bytes;
        let set = &mut self.sets[set_index];
        // Refill after a victim swap may find the line already present.
        for way in set.iter_mut().flatten() {
            if way.line == line {
                way.last = clock;
                way.dirty |= dirty;
                return None;
            }
        }
        let slot = if let Some(empty) = set.iter().position(Option::is_none) {
            empty
        } else {
            match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::WayPrediction => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.map_or(0, |w| w.last))
                    .map(|(i, _)| i)
                    .expect("nonempty set"),
                ReplacementPolicy::Mru => set
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, w)| w.map_or(0, |w| w.last))
                    .map(|(i, _)| i)
                    .expect("nonempty set"),
            }
        };
        let evicted = set[slot].replace(Way {
            line,
            dirty,
            last: clock,
        });
        self.predicted[set_index] = slot;
        let mut writeback = None;
        if let Some(victim_way) = evicted {
            if self.victim_cap > 0 {
                self.victim.push((victim_way.line, victim_way.dirty));
                if self.victim.len() > self.victim_cap {
                    let (spilled, spilled_dirty) = self.victim.remove(0);
                    if spilled_dirty {
                        writeback = Some(spilled * line_bytes);
                    }
                }
            } else if victim_way.dirty {
                writeback = Some(victim_way.line * line_bytes);
            }
        }
        writeback
    }
}

/// An execution-driven multi-level cache hierarchy simulator.
///
/// Every access probes levels nearest-first; the serving level fills all
/// nearer levels, and dirty evictions propagate outward as writebacks.
/// Time accounting is purely simulated (per-level probe latencies plus
/// the DRAM transfer latency), which makes measured effective bandwidths
/// deterministic.
#[derive(Debug, Clone)]
pub struct HierarchySim {
    config: HierarchyConfig,
    levels: Vec<PolicyLevel>,
    stats: HierarchyStats,
}

impl HierarchySim {
    /// Creates a hierarchy simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when [`HierarchyConfig::validate`]
    /// rejects the configuration.
    pub fn new(config: HierarchyConfig) -> Result<Self, SimError> {
        config.validate()?;
        let levels = config.levels.iter().map(PolicyLevel::new).collect();
        let stats = HierarchyStats {
            levels: vec![LevelStats::default(); config.levels.len()],
            dram_accesses: 0,
            dram_writebacks: 0,
            accesses: 0,
            time_ns: 0.0,
        };
        Ok(Self {
            config,
            levels,
            stats,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zeroes the counters (cache contents stay warm) — used by the
    /// sweep drivers to measure steady state after a warm-up pass.
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats.levels {
            *s = LevelStats::default();
        }
        self.stats.dram_accesses = 0;
        self.stats.dram_writebacks = 0;
        self.stats.accesses = 0;
        self.stats.time_ns = 0.0;
    }

    /// Simulates one access and returns the index of the serving level
    /// (`levels.len()` means DRAM).
    pub fn access(&mut self, access: Access) -> usize {
        self.stats.accesses += 1;
        let mut served = self.levels.len();
        for k in 0..self.levels.len() {
            self.stats.levels[k].accesses += 1;
            self.stats.time_ns += self.config.levels[k].latency_ns;
            let (result, wb) = self.levels[k].probe(access.addr, access.write);
            if let Some(addr) = wb {
                self.writeback(k + 1, addr);
            }
            match result {
                ProbeResult::Hit { predicted } => {
                    self.stats.levels[k].hits += 1;
                    if predicted {
                        self.stats.levels[k].predicted_hits += 1;
                    } else {
                        // Mispredicted way: a second probe of the array.
                        self.stats.time_ns += self.config.levels[k].latency_ns;
                    }
                    served = k;
                    break;
                }
                ProbeResult::VictimHit => {
                    self.stats.levels[k].victim_hits += 1;
                    // The swap re-reads the array.
                    self.stats.time_ns += self.config.levels[k].latency_ns;
                    served = k;
                    break;
                }
                ProbeResult::Miss => {}
            }
        }
        if served == self.levels.len() {
            self.stats.dram_accesses += 1;
            self.stats.time_ns += self.config.dram_latency_ns;
        }
        // Fill every level nearer than the serving one.
        for k in (0..served.min(self.levels.len())).rev() {
            let wb = self.levels[k].fill(access.addr, access.write);
            if let Some(addr) = wb {
                self.stats.levels[k].writebacks += 1;
                self.writeback(k + 1, addr);
            }
        }
        served
    }

    /// Runs a whole trace.
    pub fn run_trace(&mut self, trace: &[Access]) {
        for &a in trace {
            self.access(a);
        }
    }

    /// Delivers a (posted, zero-latency) writeback to level `k`,
    /// propagating any spill further outward; past the last level it
    /// counts as a DRAM writeback.
    fn writeback(&mut self, k: usize, addr: u64) {
        let mut k = k;
        let mut addr = addr;
        loop {
            if k >= self.levels.len() {
                self.stats.dram_writebacks += 1;
                return;
            }
            match self.levels[k].fill(addr, true) {
                Some(spilled) => {
                    self.stats.levels[k].writebacks += 1;
                    addr = spilled;
                    k += 1;
                }
                None => return,
            }
        }
    }
}

/// Effective bandwidth measured for one rung of the CARM ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelBandwidth {
    /// Rung name (a level name, or `dram` for the final rung).
    pub level: String,
    /// Working-set size the rung was measured at.
    pub working_set_bytes: u64,
    /// Measured effective bandwidth in GB/s (bytes per simulated ns).
    pub gbps: f64,
    /// Fraction of probes the rung itself served during measurement.
    pub hit_ratio: f64,
}

/// Picks the working set that isolates rung `k`: comfortably inside the
/// first level, between consecutive capacities for middle rungs, and 4x
/// the last level for the DRAM rung.
fn working_set_for(config: &HierarchyConfig, k: usize) -> u64 {
    let line = config.levels[0].geometry.line_bytes;
    let ws = if k == 0 {
        config.levels[0].geometry.capacity_bytes / 2
    } else if k < config.levels.len() {
        let below = config.levels[k - 1].geometry.capacity_bytes;
        let here = config.levels[k].geometry.capacity_bytes;
        below + (here - below) / 2
    } else {
        config
            .levels
            .last()
            .expect("validated")
            .geometry
            .capacity_bytes
            * 4
    };
    ws.max(line * 2)
}

/// Working-set sweep driver: measures the effective bandwidth of every
/// rung of the hierarchy (each cache level, then DRAM) by replaying a
/// SplitMix64 uniform-random address stream over a rung-sized working
/// set — one sequential warm-up pass, then `accesses_per_level` timed
/// probes. Rungs run through [`par::try_map`], so results are
/// bit-identical across `--threads` policies.
///
/// The ladder is returned nearest rung first and its bandwidths are
/// strictly decreasing by construction: deeper rungs pay every nearer
/// level's probe latency on top of their own.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid hierarchy or when
/// `accesses_per_level` is zero.
pub fn measure_bandwidth_ladder(
    config: &HierarchyConfig,
    accesses_per_level: u64,
    seed: u64,
    parallelism: Parallelism,
) -> Result<Vec<LevelBandwidth>, SimError> {
    config.validate()?;
    if accesses_per_level == 0 {
        return Err(SimError::Config {
            what: "bandwidth sweep needs at least one access per level".into(),
        });
    }
    let rungs = config.levels.len() + 1;
    par::try_map(parallelism, rungs, |k| {
        let ws = working_set_for(config, k);
        let line = config.levels[0].geometry.line_bytes;
        let lines = (ws / line).max(1);
        let mut sim = HierarchySim::new(config.clone())?;
        for i in 0..lines {
            sim.access(Access::read(i * line));
        }
        sim.reset_stats();
        let mut rng = SplitMix64::new(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..accesses_per_level {
            let pick = rng.range_u64(0, lines - 1);
            sim.access(Access::read(pick * line));
        }
        let stats = sim.stats();
        let bytes = accesses_per_level as f64 * line as f64;
        let hit_ratio = if k < config.levels.len() {
            stats.levels[k].hit_ratio()
        } else {
            stats.dram_accesses as f64 / stats.accesses as f64
        };
        Ok(LevelBandwidth {
            level: if k < config.levels.len() {
                config.levels[k].name.clone()
            } else {
                "dram".to_string()
            },
            working_set_bytes: ws,
            gbps: bytes / stats.time_ns,
            hit_ratio,
        })
    })
}

/// One point of a block-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSweepPoint {
    /// Transfer block size in bytes.
    pub block_bytes: u64,
    /// Measured effective bandwidth in GB/s.
    pub gbps: f64,
}

/// Block-size sweep driver: random block chase over a DRAM-sized region
/// (4x the last level), reading each picked block sequentially at the
/// first level's line granularity. Larger blocks amortize deep-level
/// transfers across spatially-adjacent near-level lines, so effective
/// bandwidth rises with block size. Deterministic for the same reasons
/// as [`measure_bandwidth_ladder`].
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid hierarchy, an empty block
/// list, or a block smaller than the first level's line size.
pub fn sweep_block_sizes(
    config: &HierarchyConfig,
    block_sizes: &[u64],
    accesses_per_block_size: u64,
    seed: u64,
    parallelism: Parallelism,
) -> Result<Vec<BlockSweepPoint>, SimError> {
    config.validate()?;
    if block_sizes.is_empty() {
        return Err(SimError::Config {
            what: "block-size sweep needs at least one block size".into(),
        });
    }
    let line = config.levels[0].geometry.line_bytes;
    if let Some(&bad) = block_sizes
        .iter()
        .find(|&&b| b < line || !b.is_power_of_two())
    {
        return Err(SimError::Config {
            what: format!(
                "block size {bad} must be a power of two and at least one \
                 first-level line ({line} bytes)"
            ),
        });
    }
    let region = config
        .levels
        .last()
        .expect("validated")
        .geometry
        .capacity_bytes
        * 4;
    par::try_map(parallelism, block_sizes.len(), |i| {
        let block = block_sizes[i];
        let lines_per_block = block / line;
        let blocks = (region / block).max(1);
        let mut sim = HierarchySim::new(config.clone())?;
        let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut done = 0u64;
        while done < accesses_per_block_size {
            let base = rng.range_u64(0, blocks - 1) * block;
            for j in 0..lines_per_block {
                sim.access(Access::read(base + j * line));
                done += 1;
                if done >= accesses_per_block_size {
                    break;
                }
            }
        }
        let stats = sim.stats();
        Ok(BlockSweepPoint {
            block_bytes: block,
            gbps: stats.accesses as f64 * line as f64 / stats.time_ns,
        })
    })
}

#[cfg(test)]
mod invariant_tests {
    use gables_model::rng::SplitMix64;

    use super::*;
    use crate::trace::TracePattern;

    fn random_pattern(rng: &mut SplitMix64) -> TracePattern {
        match rng.range_u64(0, 2) {
            0 => TracePattern::Stream {
                bytes: rng.range_u64(1, 63) << 10,
                stride: 4,
                passes: rng.range_u64(1, 3) as u32,
                write_back: rng.chance(0.5),
            },
            1 => {
                let bytes = rng.range_u64(4, 63) << 10;
                let tiles = rng.range_u64(1, 7);
                TracePattern::Tiled {
                    bytes,
                    tile_bytes: bytes / tiles,
                    stride: 16,
                    reuse: rng.range_u64(0, 3) as u32,
                }
            }
            _ => TracePattern::RandomChase {
                bytes: rng.range_u64(1, 63) << 10,
                stride: 64,
                count: rng.range_u64(1, 1999),
            },
        }
    }

    /// The 3C identity holds and compulsory misses equal the number
    /// of distinct lines touched.
    #[test]
    fn three_c_identity() {
        let mut rng = SplitMix64::new(0x3C3C);
        for _ in 0..48 {
            let pattern = random_pattern(&mut rng);
            let cfg = CacheConfig {
                capacity_bytes: 8 << 10,
                line_bytes: 64,
                associativity: 1 << rng.range_u64(0, 3),
            };
            let trace = pattern.generate();
            let mut sim = CacheSim::new(cfg).unwrap();
            let s = sim.run_trace(&trace);
            assert_eq!(s.accesses as usize, trace.len(), "{pattern:?}");
            assert_eq!(s.hits + s.misses(), s.accesses, "{pattern:?}");
            let unique: std::collections::HashSet<u64> =
                trace.iter().map(|a| a.addr / 64).collect();
            assert_eq!(s.compulsory as usize, unique.len(), "{pattern:?}");
        }
    }

    /// A fully-associative cache never records conflict misses, and
    /// doubling a fully-associative LRU capacity never adds misses
    /// (LRU is a stack algorithm).
    #[test]
    fn fully_associative_inclusion() {
        let mut rng = SplitMix64::new(0xFA11);
        for _ in 0..48 {
            let pattern = random_pattern(&mut rng);
            let trace = pattern.generate();
            let small = CacheConfig::fully_associative(8 << 10, 64);
            let big = CacheConfig::fully_associative(16 << 10, 64);
            let mut a = CacheSim::new(small).unwrap();
            let sa = a.run_trace(&trace);
            let mut b = CacheSim::new(big).unwrap();
            let sb = b.run_trace(&trace);
            assert_eq!(sa.conflict, 0, "{pattern:?}");
            assert_eq!(sb.conflict, 0, "{pattern:?}");
            assert!(sb.misses() <= sa.misses(), "{pattern:?}");
        }
    }

    /// Writebacks never exceed the number of write accesses (clean
    /// evictions are free) and never occur for read-only traces.
    #[test]
    fn writeback_sanity() {
        let mut rng = SplitMix64::new(0x3B5A);
        for _ in 0..48 {
            let pattern = random_pattern(&mut rng);
            let trace = pattern.generate();
            let cfg = CacheConfig {
                capacity_bytes: 4 << 10,
                line_bytes: 64,
                associativity: 2,
            };
            let mut sim = CacheSim::new(cfg).unwrap();
            let s = sim.run_trace(&trace);
            // Each writeback requires at least one write since the line
            // was last filled, so writebacks can never exceed writes.
            let writes = trace.iter().filter(|a| a.write).count() as u64;
            assert!(s.writebacks <= writes, "{pattern:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(assoc: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: 4096,
            line_bytes: 64,
            associativity: assoc,
        }
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheSim::new(small(1)).is_ok());
        assert!(CacheSim::new(CacheConfig {
            line_bytes: 48,
            ..small(1)
        })
        .is_err());
        assert!(CacheSim::new(CacheConfig {
            associativity: 0,
            ..small(1)
        })
        .is_err());
        assert!(CacheSim::new(CacheConfig {
            capacity_bytes: 32,
            ..small(1)
        })
        .is_err());
        // 3 sets: not a power of two.
        assert!(CacheSim::new(CacheConfig {
            capacity_bytes: 3 * 64,
            line_bytes: 64,
            associativity: 1,
        })
        .is_err());
        assert_eq!(small(4).sets(), 16);
    }

    #[test]
    fn repeated_access_hits() {
        let mut sim = CacheSim::new(small(4)).unwrap();
        assert_eq!(
            sim.access(Access::read(0)),
            AccessOutcome::Miss(MissClass::Compulsory)
        );
        assert_eq!(sim.access(Access::read(0)), AccessOutcome::Hit);
        assert_eq!(sim.access(Access::read(32)), AccessOutcome::Hit); // same line
        assert_eq!(sim.stats().hits, 2);
        assert_eq!(sim.stats().compulsory, 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped_vanish_fully_associative() {
        // Two lines mapping to the same set of a direct-mapped cache,
        // alternated: all conflict misses after the compulsory pair.
        let cfg = small(1); // 64 sets
        let a = 0u64;
        let b = 64 * 64; // same set index, different tag
        let mut trace = Vec::new();
        for _ in 0..20 {
            trace.push(Access::read(a));
            trace.push(Access::read(b));
        }
        let mut dm = CacheSim::new(cfg).unwrap();
        let s = dm.run_trace(&trace);
        assert_eq!(s.compulsory, 2);
        assert_eq!(s.conflict, 38);
        assert_eq!(s.capacity, 0);

        let mut fa = CacheSim::new(CacheConfig::fully_associative(4096, 64)).unwrap();
        let s = fa.run_trace(&trace);
        assert_eq!(s.misses(), 2); // only compulsory
        assert_eq!(s.conflict, 0);
    }

    #[test]
    fn streaming_larger_than_cache_is_compulsory_then_capacity() {
        let cfg = small(8);
        let pattern = TracePattern::Stream {
            bytes: 64 * 1024, // 16x capacity
            stride: 64,
            passes: 2,
            write_back: false,
        };
        let mut sim = CacheSim::new(cfg).unwrap();
        let s = sim.run_trace(&pattern.generate());
        assert_eq!(s.hits, 0);
        assert_eq!(s.compulsory, 1024);
        assert_eq!(s.capacity, 1024); // second pass re-misses at capacity
        assert_eq!(s.conflict, 0); // streaming has no conflicts under LRU
        assert!((s.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_that_fits_hits_after_warmup() {
        let cfg = small(8);
        let pattern = TracePattern::Stream {
            bytes: 2048, // half the capacity
            stride: 64,
            passes: 10,
            write_back: false,
        };
        let mut sim = CacheSim::new(cfg).unwrap();
        let s = sim.run_trace(&pattern.generate());
        assert_eq!(s.misses(), 32); // compulsory only
        assert_eq!(s.compulsory, 32);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12); // 32 of 320
    }

    #[test]
    fn three_c_identity_holds() {
        let cfg = small(2);
        let pattern = TracePattern::RandomChase {
            bytes: 32 << 10,
            stride: 64,
            count: 5000,
        };
        let mut sim = CacheSim::new(cfg).unwrap();
        let s = sim.run_trace(&pattern.generate());
        assert_eq!(s.accesses, 5000);
        assert_eq!(s.hits + s.misses(), s.accesses);
        assert!(s.capacity > 0);
    }

    #[test]
    fn writebacks_only_for_dirty_lines() {
        let cfg = CacheConfig {
            capacity_bytes: 128,
            line_bytes: 64,
            associativity: 1,
        }; // 2 sets, 1 way
        let mut sim = CacheSim::new(cfg).unwrap();
        // Dirty line 0, then evict it with a same-set line.
        sim.access(Access::write(0));
        sim.access(Access::read(128)); // set 0 again
        assert_eq!(sim.stats().writebacks, 1);
        // Clean eviction generates none.
        sim.access(Access::read(0));
        assert_eq!(sim.stats().writebacks, 1);
    }

    #[test]
    fn offchip_traffic_accounting() {
        let s = CacheStats {
            accesses: 100,
            hits: 80,
            compulsory: 10,
            capacity: 5,
            conflict: 5,
            writebacks: 3,
        };
        assert_eq!(s.misses(), 20);
        assert_eq!(s.offchip_bytes(64), 23 * 64);
        assert!((s.miss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn measured_miss_ratio_feeds_the_gables_extension() {
        use gables_model::ext::sram::MemorySideSram;
        use gables_model::two_ip::TwoIpModel;

        // The GPU's frame traffic as a tiled pattern with reuse fits a
        // 2 MiB memory-side SRAM well; measure mi and plug it in.
        let sram_geometry = CacheConfig {
            capacity_bytes: 2 << 20,
            line_bytes: 64,
            associativity: 16,
        };
        let gpu_pattern = TracePattern::Tiled {
            bytes: 8 << 20,
            tile_bytes: 256 << 10,
            stride: 64,
            reuse: 7,
        };
        let m1 = measure_miss_ratio(sram_geometry, &gpu_pattern).unwrap();
        assert!(m1.value() < 0.2, "tiled reuse should mostly hit: {m1}");

        let model = TwoIpModel::figure_6b();
        let soc = model.soc().unwrap();
        let w = model.workload().unwrap();
        let base = gables_model::evaluate(&soc, &w).unwrap().attainable();
        let ext = MemorySideSram::new(vec![MissRatio::CERTAIN, m1]);
        let with_sram = ext.evaluate(&soc, &w).unwrap().attainable();
        assert!(with_sram.value() > base.value());
    }

    #[test]
    fn empty_trace() {
        let mut sim = CacheSim::new(small(4)).unwrap();
        let s = sim.run_trace(&[]);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn effective_intensity_rises_with_reuse() {
        // Same code (2 ops per 4-byte access) behind the same cache: the
        // tiled version has far higher effective DRAM intensity than the
        // streaming version — the conjecture-4 story.
        let cfg = CacheConfig {
            capacity_bytes: 64 << 10,
            line_bytes: 64,
            associativity: 8,
        };
        let stream = TracePattern::Stream {
            bytes: 1 << 20,
            stride: 4,
            passes: 2,
            write_back: false,
        };
        let tiled = TracePattern::Tiled {
            bytes: 1 << 20,
            tile_bytes: 16 << 10,
            stride: 4,
            reuse: 7,
        };
        let mut a = CacheSim::new(cfg).unwrap();
        let sa = a.run_trace(&stream.generate());
        let mut b = CacheSim::new(cfg).unwrap();
        let sb = b.run_trace(&tiled.generate());
        let ia = effective_dram_intensity(&sa, 64, 2.0).unwrap();
        let ib = effective_dram_intensity(&sb, 64, 2.0).unwrap();
        assert!(ib > 4.0 * ia, "tiled {ib} vs stream {ia}");
    }

    #[test]
    fn effective_intensity_unbounded_when_fully_cached() {
        let cfg = CacheConfig {
            capacity_bytes: 64 << 10,
            line_bytes: 64,
            associativity: 8,
        };
        // After-the-fact stats with zero misses.
        let mut sim = CacheSim::new(cfg).unwrap();
        sim.access(Access::read(0));
        sim.access(Access::read(0));
        let stats = *sim.stats();
        // One compulsory miss: finite intensity.
        assert!(effective_dram_intensity(&stats, 64, 1.0).is_some());
        let no_traffic = CacheStats {
            accesses: 10,
            hits: 10,
            ..CacheStats::default()
        };
        assert_eq!(effective_dram_intensity(&no_traffic, 64, 1.0), None);
    }
}

#[cfg(test)]
mod hierarchy_tests {
    use super::*;

    fn level(name: &str, cap: u64, assoc: u32, lat: f64) -> LevelConfig {
        LevelConfig {
            name: name.to_string(),
            geometry: CacheConfig {
                capacity_bytes: cap,
                line_bytes: 64,
                associativity: assoc,
            },
            latency_ns: lat,
            policy: ReplacementPolicy::Lru,
            victim_lines: 0,
        }
    }

    fn three_level() -> HierarchyConfig {
        let mut l2 = level("l2", 32 << 10, 8, 4.0);
        l2.geometry.line_bytes = 128;
        let mut slc = level("slc", 256 << 10, 16, 12.0);
        slc.geometry.line_bytes = 256;
        HierarchyConfig {
            levels: vec![level("l1", 4 << 10, 4, 1.0), l2, slc],
            dram_latency_ns: 80.0,
        }
    }

    /// One set, `assoc` ways, a cyclic stream over `assoc + 1` lines:
    /// LRU thrashes to a 0% steady-state hit rate while MRU keeps
    /// `assoc - 1` lines resident.
    #[test]
    fn mru_survives_the_thrash_loop_that_kills_lru() {
        let run = |policy: ReplacementPolicy| {
            let cfg = HierarchyConfig {
                levels: vec![LevelConfig {
                    name: "l1".into(),
                    geometry: CacheConfig {
                        capacity_bytes: 4 * 64,
                        line_bytes: 64,
                        associativity: 4,
                    },
                    latency_ns: 1.0,
                    policy,
                    victim_lines: 0,
                }],
                dram_latency_ns: 50.0,
            };
            let mut sim = HierarchySim::new(cfg).unwrap();
            // Warm the loop once, then measure many cyclic passes.
            for addr in (0..5u64).map(|i| i * 64) {
                sim.access(Access::read(addr));
            }
            sim.reset_stats();
            for _ in 0..40 {
                for addr in (0..5u64).map(|i| i * 64) {
                    sim.access(Access::read(addr));
                }
            }
            sim.stats().levels[0].hit_ratio()
        };
        let lru = run(ReplacementPolicy::Lru);
        let mru = run(ReplacementPolicy::Mru);
        assert_eq!(lru, 0.0, "LRU thrashes a loop one line over capacity");
        assert!(mru > 0.5, "MRU keeps most of the loop resident: {mru}");
    }

    /// A stride stream inside capacity hits after warm-up under every
    /// policy; the reuse-distance ladder loses hits exactly when the
    /// distance exceeds associativity (one set, LRU).
    #[test]
    fn stride_and_reuse_distance_ladder() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Mru,
            ReplacementPolicy::WayPrediction,
        ] {
            let cfg = HierarchyConfig {
                levels: vec![LevelConfig {
                    policy,
                    ..level("l1", 8 << 10, 4, 1.0)
                }],
                dram_latency_ns: 50.0,
            };
            let mut sim = HierarchySim::new(cfg).unwrap();
            let lines = 32u64; // 2 KiB of 64 B lines, fits easily
            for i in 0..lines {
                sim.access(Access::read(i * 64));
            }
            sim.reset_stats();
            for _ in 0..4 {
                for i in 0..lines {
                    sim.access(Access::read(i * 64));
                }
            }
            assert_eq!(
                sim.stats().levels[0].hit_ratio(),
                1.0,
                "in-capacity stride must fully hit under {policy:?}"
            );
        }

        // Reuse-distance ladder on a single 4-way set: distance d means
        // d distinct interleaved lines between reuses. d <= 4 hits,
        // d > 4 misses every time under LRU.
        let one_set = HierarchyConfig {
            levels: vec![level("l1", 4 * 64, 4, 1.0)],
            dram_latency_ns: 50.0,
        };
        let mut ratios = Vec::new();
        for distance in [2u64, 4, 6] {
            let mut sim = HierarchySim::new(one_set.clone()).unwrap();
            for _ in 0..50 {
                for i in 0..distance {
                    sim.access(Access::read(i * 64));
                }
            }
            ratios.push(sim.stats().levels[0].hit_ratio());
        }
        assert!(ratios[0] > 0.9, "distance 2 of 4 ways: {}", ratios[0]);
        assert!(ratios[1] > 0.9, "distance 4 of 4 ways: {}", ratios[1]);
        assert!(ratios[2] < 0.1, "distance 6 of 4 ways: {}", ratios[2]);
    }

    /// Two lines conflicting in a direct-mapped level: hopeless without
    /// a victim cache, fully recovered with one.
    #[test]
    fn victim_cache_rescues_conflict_misses() {
        let run = |victim_lines: u32| {
            let cfg = HierarchyConfig {
                levels: vec![LevelConfig {
                    victim_lines,
                    ..level("l1", 64 * 64, 1, 1.0)
                }],
                dram_latency_ns: 50.0,
            };
            let mut sim = HierarchySim::new(cfg).unwrap();
            let a = 0u64;
            let b = 64 * 64; // same set, different tag
            sim.access(Access::read(a));
            sim.access(Access::read(b));
            sim.reset_stats();
            for _ in 0..30 {
                sim.access(Access::read(a));
                sim.access(Access::read(b));
            }
            let s = sim.stats().levels[0];
            (s.hit_ratio(), s.victim_hits)
        };
        let (bare_ratio, bare_victim) = run(0);
        let (rescued_ratio, rescued_victim) = run(4);
        assert_eq!(bare_ratio, 0.0);
        assert_eq!(bare_victim, 0);
        assert_eq!(rescued_ratio, 1.0, "victim cache absorbs the ping-pong");
        assert!(rescued_victim > 0);
    }

    /// Way prediction: a repeated single line always hits the predicted
    /// way; ping-ponging two lines in one set mispredicts every time.
    #[test]
    fn way_prediction_counts_mispredictions_and_costs_time() {
        let cfg = HierarchyConfig {
            levels: vec![LevelConfig {
                policy: ReplacementPolicy::WayPrediction,
                ..level("l1", 4 * 64, 4, 1.0)
            }],
            dram_latency_ns: 50.0,
        };
        let mut sim = HierarchySim::new(cfg.clone()).unwrap();
        for _ in 0..10 {
            sim.access(Access::read(0));
        }
        let s = sim.stats().levels[0];
        assert_eq!(s.hits, 9);
        assert_eq!(s.predicted_hits, 9, "stable line predicts perfectly");

        let mut pingpong = HierarchySim::new(cfg).unwrap();
        pingpong.access(Access::read(0));
        pingpong.access(Access::read(64));
        pingpong.reset_stats();
        let before = pingpong.stats().time_ns;
        for _ in 0..10 {
            pingpong.access(Access::read(0));
            pingpong.access(Access::read(64));
        }
        let s = pingpong.stats().levels[0];
        assert_eq!(s.hits, 20);
        assert_eq!(s.predicted_hits, 0, "alternating ways always mispredict");
        // Every mispredicted hit pays a second probe: 2 ns per access.
        assert!((pingpong.stats().time_ns - before - 40.0).abs() < 1e-9);
    }

    /// Dirty evictions propagate outward as writebacks and reach DRAM.
    #[test]
    fn writebacks_propagate_to_dram() {
        let cfg = HierarchyConfig {
            levels: vec![level("l1", 2 * 64, 1, 1.0), level("l2", 4 * 64, 1, 4.0)],
            dram_latency_ns: 50.0,
        };
        let mut sim = HierarchySim::new(cfg).unwrap();
        // Dirty a line, then stream enough same-set lines to push it
        // out of both levels.
        sim.access(Access::write(0));
        for i in 1..16u64 {
            sim.access(Access::read(i * 2 * 64)); // all map to set 0
        }
        assert!(sim.stats().levels[0].writebacks > 0);
        assert!(sim.stats().dram_writebacks > 0);
    }

    /// A 32 KiB L1 in front of a 512 KiB L2.
    fn l1_l2() -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                level("l1", 32 << 10, 8, 1.0),
                level("l2", 512 << 10, 16, 4.0),
            ],
            dram_latency_ns: 50.0,
        }
    }

    /// DRAM bytes (fills plus writebacks) one pass of `trace` moves
    /// after `warm` unmeasured passes, with that pass's stats.
    fn dram_bytes(config: HierarchyConfig, trace: &[Access], warm: usize) -> (u64, HierarchyStats) {
        let mut sim = HierarchySim::new(config).unwrap();
        (0..warm).for_each(|_| sim.run_trace(trace));
        sim.reset_stats();
        sim.run_trace(trace);
        let s = sim.stats().clone();
        ((s.dram_accesses + s.dram_writebacks) * 64, s)
    }

    fn stream(bytes: u64, stride: u64, passes: u32, write_back: bool) -> Vec<Access> {
        TracePattern::Stream {
            bytes,
            stride,
            passes,
            write_back,
        }
        .generate()
    }

    /// A cold pass pays exactly the compulsory fills; warm, an
    /// L1-resident trace sends nothing below L1 and an L2-resident one
    /// nothing to DRAM.
    #[test]
    fn warm_resident_trace_stops_at_its_level() {
        for bytes in [8u64 << 10, 256 << 10] {
            let trace = stream(bytes, 4, 1, false);
            assert_eq!(dram_bytes(l1_l2(), &trace, 0).0, bytes);
            let (dram, warm) = dram_bytes(l1_l2(), &trace, 1);
            assert_eq!(dram, 0, "{bytes} B reached DRAM when warm");
            let l1_resident = bytes <= 32 << 10;
            assert_eq!(warm.levels[1].accesses == 0, l1_resident, "{bytes} B");
            if !l1_resident {
                // Every line of the pass misses L1 and is served by L2.
                let lines = bytes / 64;
                assert!(warm.levels[1].accesses >= lines, "{bytes} B: {warm:?}");
            }
        }
    }

    /// A stream far larger than L2 moves its own bytes to DRAM on every
    /// pass — what the engine's working-set threshold model charges —
    /// while a tiled trace behind the L2 has far higher DRAM intensity
    /// than behind the L1 alone (conjecture 4 at hierarchy scale).
    #[test]
    fn dram_traffic_matches_the_threshold_model_and_shrinks_behind_l2() {
        let (dram, _) = dram_bytes(l1_l2(), &stream(2 << 20, 64, 2, false), 0);
        assert!(
            (dram as f64 / (4 << 20) as f64 - 1.0).abs() < 0.01,
            "dram {dram}"
        );
        // Read-modify-write: every line fills once and its dirty copy
        // washes back out, about 2x the buffer less what stays resident.
        let (buffer, resident) = (2u64 << 20, 512u64 << 10);
        let (rmw, _) = dram_bytes(l1_l2(), &stream(buffer, 64, 1, true), 0);
        assert!(
            (2 * buffer - 2 * resident..=2 * buffer).contains(&rmw),
            "read-modify-write dram {rmw}"
        );

        let tiled = TracePattern::Tiled {
            bytes: 2 << 20,
            tile_bytes: 256 << 10,
            stride: 64,
            reuse: 7,
        }
        .generate();
        let mut l1_only = l1_l2();
        l1_only.levels.truncate(1);
        let (with_l2, without) = (
            dram_bytes(l1_l2(), &tiled, 0).0,
            dram_bytes(l1_only, &tiled, 0).0,
        );
        assert!(
            4 * with_l2 < without,
            "DRAM bytes with L2 {with_l2}, L1 only {without}"
        );
    }

    /// The measured ladder has one rung per level plus DRAM, strictly
    /// decreasing bandwidth, and each cache rung's working set is served
    /// mostly by its own level.
    #[test]
    fn bandwidth_ladder_is_strictly_decreasing() {
        let ladder =
            measure_bandwidth_ladder(&three_level(), 20_000, 7, Parallelism::Serial).unwrap();
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].level, "l1");
        assert_eq!(ladder[3].level, "dram");
        for pair in ladder.windows(2) {
            assert!(
                pair[0].gbps > pair[1].gbps,
                "{} ({}) must out-run {} ({})",
                pair[0].level,
                pair[0].gbps,
                pair[1].level,
                pair[1].gbps
            );
        }
        for rung in &ladder[..3] {
            assert!(
                rung.hit_ratio > 0.5,
                "{} serves its own working set: {}",
                rung.level,
                rung.hit_ratio
            );
        }
    }

    /// Satellite: serial vs `Threads(2)` sweeps are bit-identical — the
    /// CARM determinism contract.
    #[test]
    fn ladder_and_block_sweep_are_bit_identical_across_threads() {
        let cfg = three_level();
        let serial = measure_bandwidth_ladder(&cfg, 5_000, 42, Parallelism::Serial).unwrap();
        let threaded = measure_bandwidth_ladder(&cfg, 5_000, 42, Parallelism::Threads(2)).unwrap();
        assert_eq!(serial, threaded);

        let blocks = [64u64, 256, 1024];
        let serial = sweep_block_sizes(&cfg, &blocks, 4_000, 42, Parallelism::Serial).unwrap();
        let threaded =
            sweep_block_sizes(&cfg, &blocks, 4_000, 42, Parallelism::Threads(2)).unwrap();
        assert_eq!(serial, threaded);
    }

    /// Block-size sweep: bandwidth rises with block size (spatial
    /// locality amortizes deep transfers).
    #[test]
    fn block_sweep_rewards_spatial_locality() {
        let pts =
            sweep_block_sizes(&three_level(), &[64, 1024], 10_000, 3, Parallelism::Serial).unwrap();
        assert!(
            pts[1].gbps > pts[0].gbps,
            "1 KiB blocks ({}) beat single lines ({})",
            pts[1].gbps,
            pts[0].gbps
        );
    }

    /// Hierarchy validation: empty ladder, bad geometry, bad latency,
    /// and ordering violations are all rejected.
    #[test]
    fn hierarchy_validation() {
        let ok = three_level();
        assert!(ok.validate().is_ok());
        assert!(HierarchyConfig {
            levels: vec![],
            dram_latency_ns: 80.0
        }
        .validate()
        .is_err());
        let mut bad_line = ok.clone();
        bad_line.levels[0].geometry.line_bytes = 48;
        assert!(bad_line.validate().is_err());
        let mut bad_lat = ok.clone();
        bad_lat.levels[1].latency_ns = f64::NAN;
        assert!(bad_lat.validate().is_err());
        let mut inverted = ok.clone();
        // Still a valid geometry on its own (256 B lines, 16 ways, two
        // sets) but smaller than l2: the ordering check must fire.
        inverted.levels[2].geometry.capacity_bytes = 8 << 10;
        let err = inverted.validate().unwrap_err();
        assert!(
            err.to_string().contains("ordering"),
            "ordering violation reported: {err}"
        );
        let mut bad_dram = ok;
        bad_dram.dram_latency_ns = 0.0;
        assert!(bad_dram.validate().is_err());
    }

    /// The hit/miss profile accounts for every rung and feeds
    /// normalizable per-level byte counts.
    #[test]
    fn bytes_per_level_profile() {
        let cfg = three_level();
        let mut sim = HierarchySim::new(cfg.clone()).unwrap();
        let mut rng = SplitMix64::new(9);
        for _ in 0..5_000 {
            let addr = rng.range_u64(0, (16 << 10) - 1) & !63;
            sim.access(Access::read(addr));
        }
        let profile = sim.stats().bytes_per_level(&cfg);
        assert_eq!(profile.len(), 4);
        let total: f64 = profile.iter().sum();
        assert!(total > 0.0);
        assert!(
            profile[0] + profile[1] > profile[3],
            "a 16 KiB working set lives in l1+l2, not DRAM: {profile:?}"
        );
    }

    #[test]
    fn replacement_policy_names_round_trip() {
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Mru,
            ReplacementPolicy::WayPrediction,
        ] {
            assert_eq!(ReplacementPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(ReplacementPolicy::parse("fifo"), None);
    }
}
