//! Seeded randomness for the traffic generators. The benchmark keeps its
//! own generator so that its inputs never change when the program's
//! `gables_model::rng` does.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose under one seed.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stratified draws in `[0, 1)`: each block of `n` draws holds the
/// midpoint of each of `n` equal strata exactly once, in shuffled order. Distributions
/// built on it (item counts, sweep sizes, request kinds) then differ
/// little between seeds, which keeps run-to-run spread down.
#[derive(Debug, Clone)]
pub struct Strata {
    rng: Rng,
    deck: Vec<f64>,
    n: usize,
}

impl Strata {
    pub fn new(rng: Rng, n: usize) -> Self {
        Self {
            rng,
            deck: Vec::new(),
            n,
        }
    }

    pub fn next(&mut self) -> f64 {
        if self.deck.is_empty() {
            let n = self.n;
            self.deck = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
            self.rng.shuffle(&mut self.deck);
        }
        self.deck.pop().expect("deck refilled above")
    }

    /// Log-uniform integer in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
        ((l + (h - l) * self.next()).exp() as usize).clamp(lo, hi)
    }

    /// Index into `weights`, drawn in proportion to them.
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.next() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}
