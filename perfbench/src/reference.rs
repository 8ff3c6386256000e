//! Seeded inputs and the benchmark's own reference for them.
//!
//! The reference never asks the program under test for an answer: it
//! reads the generated entries into dense arrays and forms `C = A·B`
//! with a naive triple loop, so a fault shared by the program's exact
//! paths cannot hide behind it.

use mpest_core::{UpdateBatch, UpdateOp, UpdateSide};
use mpest_matrix::CsrMatrix;

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every input, query seed and update.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6d70_6573_7462_656e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Shape of a planted-pairs binary input: `A` is `n × u`, `B` is
/// `u × n`, background density `density`, and `planted` pairs `(i, j)`
/// whose sets share `overlap` extra items.
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    pub n: usize,
    pub u: usize,
    pub density: f64,
    pub planted: usize,
    pub overlap: usize,
}

/// One generated input pair.
#[derive(Debug, Clone)]
pub struct Pair {
    pub a: CsrMatrix,
    pub b: CsrMatrix,
    /// The planted positions of `C`.
    pub planted: Vec<(u32, u32)>,
}

/// `k` distinct indices below `n`, sorted.
fn distinct(rng: &mut Rng, n: usize, k: usize) -> Vec<u32> {
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    while picked.len() < k.min(n) {
        let x = rng.below(n) as u32;
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked.sort_unstable();
    picked
}

/// The binary matrix with one row (or, `by_col`, one column) per set.
fn from_sets(sets: &[Vec<u32>], universe: usize, by_col: bool) -> CsrMatrix {
    let triplets = sets
        .iter()
        .enumerate()
        .flat_map(|(s, items)| {
            items.iter().map(move |&x| {
                let (i, j) = if by_col { (x, s as u32) } else { (s as u32, x) };
                (i, j, 1)
            })
        })
        .collect();
    let (rows, cols) = if by_col {
        (universe, sets.len())
    } else {
        (sets.len(), universe)
    };
    CsrMatrix::from_triplets(rows, cols, triplets)
}

impl PairSpec {
    /// Generates the pair for `seed`. Every set (a row of `A`, a column
    /// of `B`) holds exactly `round(density · u)` items, so the inputs'
    /// sizes, and with them the bit counts, barely move between seeds;
    /// each planted pair then shares `overlap` further items. Planted
    /// positions use distinct rows and distinct columns.
    pub fn generate(&self, seed: u64) -> Pair {
        let mut rng = Rng::new(seed);
        let mut planted: Vec<(u32, u32)> = Vec::with_capacity(self.planted);
        while planted.len() < self.planted {
            let (i, j) = (rng.below(self.n) as u32, rng.below(self.n) as u32);
            if planted.iter().all(|&(pi, pj)| pi != i && pj != j) {
                planted.push((i, j));
            }
        }
        let k = (self.density * self.u as f64).round() as usize;
        let mut alice: Vec<Vec<u32>> = (0..self.n).map(|_| distinct(&mut rng, self.u, k)).collect();
        let mut bob: Vec<Vec<u32>> = (0..self.n).map(|_| distinct(&mut rng, self.u, k)).collect();
        for &(i, j) in &planted {
            for x in distinct(&mut rng, self.u, self.overlap) {
                for set in [&mut alice[i as usize], &mut bob[j as usize]] {
                    if let Err(at) = set.binary_search(&x) {
                        set.insert(at, x);
                    }
                }
            }
        }
        Pair {
            a: from_sets(&alice, self.u, false),
            b: from_sets(&bob, self.u, true),
            planted,
        }
    }
}

/// Dense copies of `A` and `B` and their naive product.
#[derive(Debug, Clone)]
pub struct Reference {
    pub rows: usize,
    pub inner: usize,
    pub cols: usize,
    a: Vec<i64>,
    b: Vec<i64>,
    c: Vec<i64>,
}

fn dense(m: &CsrMatrix) -> Vec<i64> {
    let mut out = vec![0i64; m.rows() * m.cols()];
    for (i, j, v) in m.triplets() {
        out[i as usize * m.cols() + j as usize] = v;
    }
    out
}

/// `|v|^p` with `p = 0` counting nonzeros.
pub fn entry_pow(v: i64, p: f64) -> f64 {
    if p == 0.0 {
        f64::from(u8::from(v != 0))
    } else {
        (v.unsigned_abs() as f64).powf(p)
    }
}

impl Reference {
    pub fn new(a: &CsrMatrix, b: &CsrMatrix) -> Self {
        assert_eq!(
            a.cols(),
            b.rows(),
            "generated pair has mismatched inner dimensions"
        );
        let mut r = Self {
            rows: a.rows(),
            inner: a.cols(),
            cols: b.cols(),
            a: dense(a),
            b: dense(b),
            c: Vec::new(),
        };
        r.multiply();
        r
    }

    fn multiply(&mut self) {
        let (n, k, m) = (self.rows, self.inner, self.cols);
        self.c = vec![0i64; n * m];
        for i in 0..n {
            for t in 0..k {
                let av = self.a[i * k + t];
                if av == 0 {
                    continue;
                }
                for j in 0..m {
                    self.c[i * m + j] += av * self.b[t * m + j];
                }
            }
        }
    }

    pub fn a(&self, i: u32, t: u32) -> i64 {
        self.a[i as usize * self.inner + t as usize]
    }

    pub fn b(&self, t: u32, j: u32) -> i64 {
        self.b[t as usize * self.cols + j as usize]
    }

    pub fn c(&self, i: u32, j: u32) -> i64 {
        self.c[i as usize * self.cols + j as usize]
    }

    pub fn in_range(&self, i: u32, j: u32) -> bool {
        (i as usize) < self.rows && (j as usize) < self.cols
    }

    /// Every `(i, j, C_ij)`, zeros included.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, i64)> + '_ {
        let m = self.cols;
        self.c
            .iter()
            .enumerate()
            .map(move |(ix, &v)| ((ix / m) as u32, (ix % m) as u32, v))
    }

    /// `Σ |C_ij|^p` (`p = 0` counts nonzeros).
    pub fn lp_pow(&self, p: f64) -> f64 {
        self.c.iter().map(|&v| entry_pow(v, p)).sum()
    }

    pub fn l1(&self) -> i128 {
        self.c.iter().map(|&v| i128::from(v.abs())).sum()
    }

    pub fn linf(&self) -> i64 {
        self.c.iter().map(|v| v.abs()).max().unwrap_or(0)
    }

    /// Positions with `|C_ij|^p ≥ share · Σ|C|^p`, sorted.
    pub fn heavy(&self, p: f64, share: f64) -> Vec<(u32, u32)> {
        let threshold = share * self.lp_pow(p);
        self.entries()
            .filter(|&(_, _, v)| v != 0 && entry_pow(v, p) >= threshold)
            .map(|(i, j, _)| (i, j))
            .collect()
    }

    /// Positions with `C_ij ≥ t`, sorted.
    pub fn at_least(&self, t: f64) -> Vec<(u32, u32)> {
        self.entries()
            .filter(|&(_, _, v)| v as f64 >= t)
            .map(|(i, j, _)| (i, j))
            .collect()
    }

    /// The batch that undoes `batch`, a batch of
    /// [`Reference::update_batch`]: each set becomes a delete and each
    /// delete a set to 1.
    pub fn inverse(batch: &UpdateBatch) -> UpdateBatch {
        batch
            .ops
            .iter()
            .fold(UpdateBatch::new(), |undo, op| match *op {
                UpdateOp::SetEntry { side, row, col, .. } => undo.delete_entry(side, row, col),
                UpdateOp::DeleteEntry { side, row, col } => undo.set_entry(side, row, col, 1),
                UpdateOp::AppendRow { .. } => unreachable!("the benchmark appends no rows"),
            })
    }

    /// Applies `batch` to the dense copies and recomputes the product.
    /// Only entry-level ops occur in the benchmark's update streams.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for op in &batch.ops {
            let (side, row, col, val) = match *op {
                UpdateOp::SetEntry {
                    side,
                    row,
                    col,
                    val,
                } => (side, row, col, val),
                UpdateOp::DeleteEntry { side, row, col } => (side, row, col, 0),
                UpdateOp::AppendRow { .. } => unreachable!("the benchmark appends no rows"),
            };
            match side {
                UpdateSide::Alice => self.a[row as usize * self.inner + col as usize] = val,
                UpdateSide::Bob => self.b[row as usize * self.cols + col as usize] = val,
            }
        }
        self.multiply();
    }

    /// A small binary-preserving batch on `side`: `flips / 2` entries
    /// set from 0 to 1 and as many deleted from 1 to 0, at distinct
    /// positions, so every batch changes the side's content and its
    /// density stays level.
    pub fn update_batch(&self, rng: &mut Rng, side: UpdateSide, flips: usize) -> UpdateBatch {
        let (rows, cols, data) = match side {
            UpdateSide::Alice => (self.rows, self.inner, &self.a),
            UpdateSide::Bob => (self.inner, self.cols, &self.b),
        };
        let mut batch = UpdateBatch::new();
        let mut used: Vec<usize> = Vec::new();
        let (mut sets, mut deletes) = (0, 0);
        while sets + deletes < flips {
            let ix = rng.below(rows * cols);
            if used.contains(&ix) {
                continue;
            }
            let (row, col) = ((ix / cols) as u32, (ix % cols) as u32);
            if data[ix] == 0 && sets < flips / 2 {
                batch = batch.set_entry(side, row, col, 1);
                sets += 1;
            } else if data[ix] != 0 && deletes < flips - flips / 2 {
                batch = batch.delete_entry(side, row, col);
                deletes += 1;
            } else {
                continue;
            }
            used.push(ix);
        }
        batch
    }
}
