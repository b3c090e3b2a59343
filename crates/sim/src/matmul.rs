//! Distributed matrix multiplication engines (§1.6, §2.4, Lemma 5).
//!
//! The paper's per-phase cost is dominated by computing powers of the
//! `n × n` transition matrix with the Censor-Hillel et al. algebraic
//! algorithm \[17\], which runs in `O(n^α)` rounds, `α = 1 − 2/ω ≈ 0.157`
//! \[72\]. Two engines are provided (plus a unit-cost engine for fast
//! tests):
//!
//! * [`SemiringEngine`] — a *real* distributed implementation of the
//!   classical `O(n^{1/3})`-round cube-partition algorithm. Blocks of the
//!   operands are physically routed between simulated machines through
//!   [`Clique::route`], so its round cost is measured from traffic.
//! * [`FastOracleEngine`] — computes the product locally and charges the
//!   *published* round cost `⌈n^α⌉ · words_per_entry`. Re-deriving the
//!   bilinear fast-matmul construction is out of scope: the paper uses
//!   it as a black box, and its `Õ(n^{1/2+α})` analysis consumes only
//!   the cost model, which this engine reproduces.
//!
//! Every engine multiplies [`PMatrix`] operands, dense or CSR. The
//! local engines compute through [`PMatrix::matmul`], the one place that
//! decides how a product runs for a pair of representations; the
//! semiring protocol ships CSR row slices and assembles a sparse product
//! only when both operands are sparse. Bits and charges are the same in
//! either representation (the `cct-linalg` contract), and the engines
//! produce numerically identical products up to accumulation order
//! (tested), so swapping engines changes only the ledger.

use crate::{Clique, CostCategory, Envelope, MachineProgram, ParallelClique};
use cct_linalg::{CsrMatrix, Matrix, PMatrix, Rounding};

/// Messages of the semiring machine program.
///
/// Operand pieces travel as **CSR row slices** — `(offset, value)` pairs
/// of the non-zero entries within the block — instead of dense row
/// segments, so a sparse operand's actual data movement is `O(nnz)`.
/// The *charged* bandwidth (the envelope's word count) stays the
/// analytic dense figure `hi − lo`: the paper's protocol ships whole
/// row segments, and the ledger bills the published algorithm, not this
/// simulator's encoding.
#[derive(Debug, Clone)]
enum SemiringMsg {
    /// Round-0 operand shipment: (tag A=0/B=1, source row, sparse row
    /// piece as (offset-within-block, value) pairs).
    Operand(u8, usize, Vec<(u32, f64)>),
    /// Round-1 partial result: (destination row, block column offset,
    /// non-zero partials as (offset-within-block, value) pairs — the
    /// charged words stay the analytic dense segment width).
    Partial(usize, usize, Vec<(u32, f64)>),
}

/// The non-zero entries of `m`'s `row[lo..hi]` as (offset, value) pairs.
fn piece(m: &PMatrix, row: usize, lo: usize, hi: usize) -> Vec<(u32, f64)> {
    match m {
        PMatrix::Dense(m) => m.row(row)[lo..hi]
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x != 0.0)
            .map(|(off, &x)| (off as u32, x))
            .collect(),
        PMatrix::Sparse(m) => {
            let (cols, vals) = m.row(row);
            let start = cols.partition_point(|&c| (c as usize) < lo);
            let end = cols.partition_point(|&c| (c as usize) < hi);
            cols[start..end]
                .iter()
                .zip(&vals[start..end])
                .map(|(&c, &x)| ((c as usize - lo) as u32, x))
                .collect()
        }
    }
}

/// A distributed square-matrix multiplication engine.
///
/// Implementations must (a) return the true product and (b) charge their
/// round cost to the clique's ledger under [`CostCategory::MatMul`].
/// Operands and product are [`PMatrix`]: sparse inputs multiply through
/// the CSR kernels, and sparse products stay sparse until the fill-in
/// tracker promotes them. The charged rounds and words are the same in
/// every representation — the ledger bills the paper's protocol, which
/// is representation-agnostic — and so are the computed bits.
///
/// Engines are `Debug + Send + Sync` plain data, so a prepared sampler
/// that owns one can still be printed and shared across threads.
pub trait MatMulEngine: std::fmt::Debug + Send + Sync {
    /// Multiplies `a · b` on the clique, charging rounds.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the operands are not square `n × n`
    /// matrices matching the clique size.
    fn multiply(&self, clique: &mut Clique, a: &PMatrix, b: &PMatrix) -> PMatrix;

    /// The `(rounds, words)` this engine would charge for one `n × n`
    /// multiply, **if** that charge is a pure function of `n` — i.e. the
    /// engine bills an analytic formula rather than measuring real
    /// traffic. Engines that measure (the semiring protocol) return
    /// `None`.
    ///
    /// This is what lets [`DeferredPowers`] charge a full power table up
    /// front and then compute levels lazily: the ledger compares equal
    /// per category regardless of *when* the charges land, so deferring
    /// the compute is invisible to the bit-identity contract — but only
    /// when the charge needs no actual protocol run.
    fn analytic_multiply_charges(&self, n: usize) -> Option<(u64, u64)> {
        let _ = n;
        None
    }

    /// Rounds this engine charges for one `n × n` multiply, without
    /// performing one. Used to charge *analytic* costs for multiplies the
    /// simulation performs out-of-band (e.g. the `2n × 2n` absorbing-chain
    /// squarings of Corollary 2).
    ///
    /// An engine with [`MatMulEngine::analytic_multiply_charges`] answers
    /// from them. An engine that measures traffic runs a scratch multiply
    /// of identity matrices and reads the ledger, so measured and charged
    /// costs can never drift apart. That scratch multiply costs a real
    /// `n × n` product, so callers ask once per graph: the sampler keeps
    /// the answer in its prepared plan.
    fn rounds_for_multiply(&self, n: usize) -> u64 {
        if let Some((rounds, _)) = self.analytic_multiply_charges(n) {
            return rounds;
        }
        let mut scratch = Clique::new(n);
        let id = PMatrix::Sparse(CsrMatrix::identity(n));
        let _ = self.multiply(&mut scratch, &id, &id);
        scratch.ledger().total_rounds()
    }
}

/// The classical `O(n^{1/3})`-round semiring algorithm with real data
/// movement.
///
/// Machines are arranged in a `c × c × c` cube, `c = ⌊n^{1/3}⌋`; machine
/// `(i, j, k)` receives block `A[i,k]` and block `B[k,j]` from the row
/// owners, multiplies them locally, and routes the partial `C[i,j]`
/// contribution back to the row owners of `C`, which accumulate.
#[derive(Debug, Clone)]
pub struct SemiringEngine {
    threads: usize,
}

impl SemiringEngine {
    /// Creates the engine; `threads` is the worker-pool width used to run
    /// the per-machine local steps concurrently (see [`ParallelClique`]).
    /// Output and ledger are identical at every thread count.
    pub fn new(threads: usize) -> Self {
        SemiringEngine {
            threads: threads.max(1),
        }
    }
}

/// The terminal-round accumulator for one owned output row.
///
/// When both operands are sparse the machines accumulate sparsely
/// (ordered map keyed by column), so the protocol's resident state is
/// `O(nnz(C))` in aggregate — never a `Θ(n²)` dense staging buffer that
/// gets compressed back down afterwards. Additions hit each column in
/// the same deterministic inbox order as the dense accumulator, so the
/// summed values are bit-identical.
enum RowAcc {
    Dense(Vec<f64>),
    Sparse(std::collections::BTreeMap<u32, f64>),
}

/// One machine of the semiring algorithm, as a [`MachineProgram`]:
/// round 0 ships this row owner's operand pieces to the cube, round 1
/// multiplies the blocks this cube machine received and ships partial
/// rows back, round 2 (terminal) accumulates the partials of the owned
/// output row.
struct SemiringMachine<'m> {
    id: usize,
    n: usize,
    c: usize,
    s: usize,
    a: &'m PMatrix,
    b: &'m PMatrix,
    /// Row `id` of the product, filled by the terminal round.
    acc: RowAcc,
}

impl SemiringMachine<'_> {
    fn blocks(&self, idx: usize) -> (usize, usize) {
        (idx * self.s, ((idx + 1) * self.s).min(self.n))
    }

    fn cube(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.c + j) * self.c + k
    }

    /// Round 0: row owner `id` ships its A-pieces to machines
    /// `(bi, *, k)` and its B-pieces to machines `(*, j, bk)`. Pieces
    /// travel as CSR row slices; the envelope's word count stays the
    /// analytic dense segment width `hi − lo` (see [`SemiringMsg`]).
    fn ship_operands(&self) -> Vec<Envelope<SemiringMsg>> {
        let (r, c, n) = (self.id, self.c, self.n);
        let bi = r / self.s;
        let mut outbox = Vec::new();
        for k in 0..c {
            let (lo, hi) = self.blocks(k);
            if lo >= n {
                continue;
            }
            let piece = piece(self.a, r, lo, hi);
            for j in 0..c {
                outbox.push(Envelope::new(
                    self.cube(bi, j, k),
                    hi - lo,
                    SemiringMsg::Operand(0, r, piece.clone()),
                ));
            }
        }
        let bk = r / self.s;
        for j in 0..c {
            let (lo, hi) = self.blocks(j);
            if lo >= n {
                continue;
            }
            let piece = piece(self.b, r, lo, hi);
            for i in 0..c {
                outbox.push(Envelope::new(
                    self.cube(i, j, bk),
                    hi - lo,
                    SemiringMsg::Operand(1, r, piece.clone()),
                ));
            }
        }
        outbox
    }

    /// Round 1: cube machine `(i, j, k)` keeps its operand blocks as the
    /// sparse row pieces they arrived as (no dense block staging),
    /// multiplies them, and ships each partial `C` row to its owner.
    ///
    /// The accumulation visits inner index `kl` in strictly increasing
    /// order and skips only exact-zero multiplicands, exactly like the
    /// dense kernel — bit-identical partials at `O(nnz)` block memory.
    fn multiply_blocks(&self, inbox: Vec<Envelope<SemiringMsg>>) -> Vec<Envelope<SemiringMsg>> {
        let (c, n) = (self.c, self.n);
        if self.id >= c * c * c {
            return Vec::new();
        }
        let (i, j, k) = (self.id / (c * c), (self.id / c) % c, self.id % c);
        let (ilo, ihi) = self.blocks(i);
        let (jlo, jhi) = self.blocks(j);
        let (klo, khi) = self.blocks(k);
        if ilo >= n || jlo >= n || klo >= n {
            return Vec::new();
        }
        let mut a_pieces: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ihi - ilo];
        let mut b_pieces: Vec<Vec<(u32, f64)>> = vec![Vec::new(); khi - klo];
        for env in inbox {
            if let SemiringMsg::Operand(which, r, piece) = env.payload {
                if which == 0 {
                    if (ilo..ihi).contains(&r) {
                        a_pieces[r - ilo] = piece;
                    }
                } else if (klo..khi).contains(&r) {
                    b_pieces[r - klo] = piece;
                }
            }
        }
        let mut outbox = Vec::with_capacity(ihi - ilo);
        for (il, a_row) in a_pieces.iter().enumerate() {
            // Dense scratch for one partial row (O(block side), reused
            // allocation would not change bits; kept simple).
            let mut acc = vec![0.0f64; jhi - jlo];
            for &(kl, av) in a_row {
                for &(jl, bv) in &b_pieces[kl as usize] {
                    acc[jl as usize] += av * bv;
                }
            }
            // Ship only the non-zero partials; the charged bandwidth
            // stays the analytic dense segment width.
            let piece: Vec<(u32, f64)> = acc
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x != 0.0)
                .map(|(off, &x)| (off as u32, x))
                .collect();
            outbox.push(Envelope::new(
                ilo + il,
                acc.len(),
                SemiringMsg::Partial(ilo + il, jlo, piece),
            ));
        }
        outbox
    }
}

impl MachineProgram for SemiringMachine<'_> {
    type Msg = SemiringMsg;

    fn round(
        &mut self,
        round: usize,
        inbox: Vec<Envelope<SemiringMsg>>,
    ) -> Vec<Envelope<SemiringMsg>> {
        match round {
            0 => self.ship_operands(),
            1 => self.multiply_blocks(inbox),
            _ => {
                // Terminal round: accumulate the owned output row. The
                // inbox order is route's deterministic (sender, send
                // order), so every column receives its additions in the
                // same order under either accumulator — same bits.
                for env in inbox {
                    if let SemiringMsg::Partial(r, jlo, piece) = env.payload {
                        debug_assert_eq!(r, self.id);
                        match &mut self.acc {
                            RowAcc::Dense(row) => {
                                for (off, v) in piece {
                                    row[jlo + off as usize] += v;
                                }
                            }
                            RowAcc::Sparse(map) => {
                                for (off, v) in piece {
                                    *map.entry((jlo + off as usize) as u32).or_insert(0.0) += v;
                                }
                            }
                        }
                    }
                }
                Vec::new()
            }
        }
    }
}

impl Default for SemiringEngine {
    fn default() -> Self {
        SemiringEngine::new(1)
    }
}

impl MatMulEngine for SemiringEngine {
    /// The three-round protocol over the borrowed operands. When both
    /// are sparse the machines accumulate their owned rows sparsely and
    /// the product is assembled straight into CSR — no `Θ(n²)` staging
    /// buffer — then run through the promotion tracker, the same
    /// representation [`PMatrix::matmul`] returns; otherwise it is dense.
    fn multiply(&self, clique: &mut Clique, a: &PMatrix, b: &PMatrix) -> PMatrix {
        let n = clique.n();
        assert_eq!(a.shape(), (n, n), "operand A must be n × n");
        assert_eq!(b.shape(), (n, n), "operand B must be n × n");
        let sparse_out = a.is_sparse() && b.is_sparse();
        let c = ((n as f64).cbrt().floor() as usize).max(1);
        let s = n.div_ceil(c); // block side (last blocks may be smaller)

        // Machine r owns row r of A, B, and C; machine (i, j, k) of the
        // c × c × c cube multiplies block A[i,k] · B[k,j]. The three
        // rounds (ship operands, multiply blocks, accumulate partials)
        // run through the parallel round engine: local steps concurrent,
        // exchange and ledger charges single-threaded.
        let mut machines: Vec<SemiringMachine> = (0..n)
            .map(|id| SemiringMachine {
                id,
                n,
                c,
                s,
                a,
                b,
                acc: if sparse_out {
                    RowAcc::Sparse(std::collections::BTreeMap::new())
                } else {
                    RowAcc::Dense(vec![0.0f64; n])
                },
            })
            .collect();
        let mut driver = ParallelClique::new(clique, self.threads);
        let inboxes = driver.step(CostCategory::MatMul, &mut machines, 0, Vec::new());
        let inboxes = driver.step(CostCategory::MatMul, &mut machines, 1, inboxes);
        driver.finish(&mut machines, 2, inboxes);

        if sparse_out {
            let mut out = CsrMatrix::builder(n, n);
            for machine in machines {
                if let RowAcc::Sparse(map) = machine.acc {
                    for (col, v) in map {
                        // Exact-zero sums are dropped by the builder —
                        // the same entries `from_dense` would skip.
                        out.push(col as usize, v);
                    }
                }
                out.finish_row();
            }
            PMatrix::Sparse(out.build()).promoted()
        } else {
            let mut out = Matrix::zeros(n, n);
            for (r, machine) in machines.into_iter().enumerate() {
                if let RowAcc::Dense(row) = machine.acc {
                    out.row_mut(r).copy_from_slice(&row);
                }
            }
            PMatrix::Dense(out)
        }
    }
}

/// The fast algebraic algorithm \[17, 72\] as a cost oracle: local compute,
/// published round cost `⌈n^α⌉ · words_per_entry` (entries of `O(log 1/δ)`
/// bits occupy several machine words, Lemma 7).
#[derive(Debug, Clone)]
pub struct FastOracleEngine {
    alpha: f64,
    words_per_entry: usize,
    threads: usize,
}

/// The currently best matrix-multiplication exponent in the Congested
/// Clique: `α = 1 − 2/ω ≈ 0.157` \[72\].
pub const ALPHA: f64 = 0.157;

impl FastOracleEngine {
    /// Creates the oracle with exponent `alpha` (use [`ALPHA`] for the
    /// paper's setting).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `\[0, 1\]` or `words_per_entry == 0`.
    pub fn new(alpha: f64, words_per_entry: usize, threads: usize) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(words_per_entry >= 1, "entries occupy at least one word");
        FastOracleEngine {
            alpha,
            words_per_entry,
            threads: threads.max(1),
        }
    }

    /// Round cost charged per multiplication on an `n`-machine clique.
    pub fn rounds_per_multiply(&self, n: usize) -> u64 {
        ((n as f64).powf(self.alpha).ceil() as u64).max(1) * self.words_per_entry as u64
    }
}

impl Default for FastOracleEngine {
    fn default() -> Self {
        FastOracleEngine::new(ALPHA, 1, 1)
    }
}

impl MatMulEngine for FastOracleEngine {
    fn multiply(&self, clique: &mut Clique, a: &PMatrix, b: &PMatrix) -> PMatrix {
        let n = clique.n();
        assert_eq!(a.shape(), (n, n), "operand A must be n × n");
        assert_eq!(b.shape(), (n, n), "operand B must be n × n");
        // The algebraic algorithm moves Θ(n²) words in aggregate; the
        // oracle bills the published algorithm, not this simulator's
        // storage.
        let words = (n * n * self.words_per_entry) as u64;
        charge_multiply(clique, (self.rounds_per_multiply(n), words));
        // Local compute, row-sharded: machine i owns output row i, so the
        // row-parallel kernel is exactly the per-machine concurrent step
        // (bit-identical to sequential at any thread count).
        a.matmul(b, self.threads)
    }

    fn analytic_multiply_charges(&self, n: usize) -> Option<(u64, u64)> {
        Some((
            self.rounds_per_multiply(n),
            (n * n * self.words_per_entry) as u64,
        ))
    }
}

/// Unit-cost engine: local compute, one round per multiply. For tests that
/// exercise protocol logic without caring about matmul cost.
#[derive(Debug, Clone, Default)]
pub struct UnitCostEngine {
    /// Worker-pool width for the row-sharded local compute (machine i
    /// owns output row i); results are thread-count invariant.
    pub threads: usize,
}

impl MatMulEngine for UnitCostEngine {
    fn multiply(&self, clique: &mut Clique, a: &PMatrix, b: &PMatrix) -> PMatrix {
        clique.ledger_mut().charge(CostCategory::MatMul, 1);
        a.matmul(b, self.threads.max(1))
    }

    fn analytic_multiply_charges(&self, _n: usize) -> Option<(u64, u64)> {
        Some((1, 0))
    }
}

/// Charges one analytic multiply: `rounds` and `words` under
/// [`CostCategory::MatMul`].
fn charge_multiply(clique: &mut Clique, (rounds, words): (u64, u64)) {
    clique.ledger_mut().charge(CostCategory::MatMul, rounds);
    clique.ledger_mut().add_words(CostCategory::MatMul, words);
}

/// An engine's view of square blocks of the clique's `n × n` matrices.
///
/// A phase of the sampler walks on the `|S| × |S|` Schur transition `T`,
/// while the distributed protocol multiplies the `n × n` `diag(T, I)`,
/// whose powers are `diag(T^k, I)`. Operands and products here are the
/// `S` blocks — rows and columns `support`, sorted global ids — charged
/// exactly what the wrapped engine charges for the `n × n` product:
///
/// * an engine with analytic charges
///   ([`MatMulEngine::analytic_multiply_charges`]) is charged its
///   formula at `n` and the blocks multiply locally. The bits equal the
///   padded product's: every block entry accumulates the same products
///   in the same order, the identity rows and columns adding only zero
///   multiplicands the kernels skip;
/// * an engine that measures traffic (the semiring protocol) runs on the
///   operands padded to `diag(·, I)`, because its cube partition of the
///   global ids fixes each entry's summation order, and the product is
///   restricted back to `support`.
///
/// Operands with `n` rows (`support = 0..n`) go to the wrapped engine
/// unchanged.
#[derive(Debug)]
pub struct BlockEngine<'a> {
    engine: &'a dyn MatMulEngine,
    support: &'a [usize],
    threads: usize,
}

impl<'a> BlockEngine<'a> {
    /// Wraps `engine` for blocks on the sorted global ids `support`;
    /// `threads` is the local width of the block products.
    ///
    /// # Panics
    ///
    /// Panics if `support` is not strictly increasing.
    pub fn new(engine: &'a dyn MatMulEngine, support: &'a [usize], threads: usize) -> Self {
        assert!(
            support.windows(2).all(|w| w[0] < w[1]),
            "support must be sorted global ids"
        );
        BlockEngine {
            engine,
            support,
            threads: threads.max(1),
        }
    }

    /// `diag(block, I)` in `n × n` global space, in the block's
    /// representation.
    fn pad(&self, block: &PMatrix, n: usize) -> PMatrix {
        let s = self.support;
        match block {
            PMatrix::Dense(m) => {
                let mut out = Matrix::identity(n);
                for (i, &u) in s.iter().enumerate() {
                    let row = out.row_mut(u);
                    for (&v, &x) in s.iter().zip(m.row(i)) {
                        row[v] = x;
                    }
                }
                PMatrix::Dense(out)
            }
            PMatrix::Sparse(m) => {
                let mut out = CsrMatrix::builder(n, n);
                let mut local = s.iter().enumerate().peekable();
                for u in 0..n {
                    match local.next_if(|&(_, &v)| v == u) {
                        Some((i, _)) => {
                            let (cols, vals) = m.row(i);
                            for (&j, &x) in cols.iter().zip(vals) {
                                out.push(s[j as usize], x);
                            }
                        }
                        None => out.push(u, 1.0),
                    }
                    out.finish_row();
                }
                PMatrix::Sparse(out.build())
            }
        }
    }

    /// The `support × support` block of an `n × n` product.
    fn restrict(&self, m: &PMatrix) -> PMatrix {
        let s = self.support;
        let k = s.len();
        match m {
            PMatrix::Dense(d) => PMatrix::Dense(Matrix::from_fn(k, k, |i, j| d[(s[i], s[j])])),
            PMatrix::Sparse(c) => {
                let mut out = CsrMatrix::builder(k, k);
                for &u in s {
                    let (cols, vals) = c.row(u);
                    for (&v, &x) in cols.iter().zip(vals) {
                        if let Ok(j) = s.binary_search(&(v as usize)) {
                            out.push(j, x);
                        }
                    }
                    out.finish_row();
                }
                PMatrix::Sparse(out.build()).promoted()
            }
        }
    }
}

impl MatMulEngine for BlockEngine<'_> {
    fn multiply(&self, clique: &mut Clique, a: &PMatrix, b: &PMatrix) -> PMatrix {
        let n = clique.n();
        let k = self.support.len();
        assert_eq!(a.shape(), (k, k), "operand A must be the support block");
        assert_eq!(b.shape(), (k, k), "operand B must be the support block");
        if k == n {
            return self.engine.multiply(clique, a, b);
        }
        match self.engine.analytic_multiply_charges(n) {
            Some(charges) => {
                charge_multiply(clique, charges);
                a.matmul(b, self.threads)
            }
            None => {
                let product = self
                    .engine
                    .multiply(clique, &self.pad(a, n), &self.pad(b, n));
                self.restrict(&product)
            }
        }
    }

    fn analytic_multiply_charges(&self, n: usize) -> Option<(u64, u64)> {
        self.engine.analytic_multiply_charges(n)
    }

    /// The wrapped engine's answer: the scratch multiply the default
    /// would run takes `n × n` operands, not this engine's blocks.
    fn rounds_for_multiply(&self, n: usize) -> u64 {
        self.engine.rounds_for_multiply(n)
    }
}

/// Algorithm 1 (Initialization Step), steps 2–3: computes
/// `M, M², M⁴, …, M^{2^{levels−1}}` on the clique, optionally truncating
/// entries between squarings (Lemma 7), and charges the column-
/// redistribution cost (each machine sends entry `(i, j)` of every power
/// to machine `j` — `n` entries per machine per power, i.e.
/// `words_per_entry` rounds by Lenzen routing).
///
/// Returns the power table: index `k` holds `M^{2^k}`, in whatever
/// representation the engine's products come back in — the early powers
/// of a sparse transition matrix stay CSR, and squaring promotes later
/// levels to dense through the fill-in tracker. The computed bits and
/// the charges are the same whichever representation `m` starts in.
///
/// `m` is the clique's `n × n` matrix, or a square block of one with
/// fewer rows when `engine` is a [`BlockEngine`]; the charges are those
/// of `n × n` products either way.
///
/// The sampler builds its tables with [`distributed_powers_deferred`];
/// this eager builder is its fallback for engines that measure traffic.
///
/// # Panics
///
/// Panics if `m` is not square with at most `n` rows for the clique's
/// `n`, or `levels == 0`.
pub fn distributed_powers(
    clique: &mut Clique,
    engine: &dyn MatMulEngine,
    m: &PMatrix,
    levels: usize,
    rounding: Rounding,
) -> Vec<PMatrix> {
    let mut table = Vec::with_capacity(levels);
    table.push(first_level(clique, m, levels, rounding));
    for _ in 1..levels {
        let last = table.last().expect("non-empty");
        // Round the engine's product in place: no clone-per-level.
        let mut sq = engine.multiply(clique, last, last);
        sq.round_inplace(rounding);
        table.push(sq);
    }
    charge_redistribution(clique, levels, rounding);
    table
}

/// Level 0 of a power table on `m`: `m` itself, rounded.
///
/// # Panics
///
/// As [`distributed_powers`].
fn first_level(clique: &Clique, m: &PMatrix, levels: usize, rounding: Rounding) -> PMatrix {
    assert!(
        m.is_square() && m.rows() <= clique.n(),
        "matrix must be square with at most the clique's n rows"
    );
    assert!(levels > 0, "need at least one level");
    let mut first = m.clone();
    first.round_inplace(rounding);
    first
}

/// Charges step 3 of Algorithm 1, the column redistribution, for a
/// table of `levels` powers — for the eager and the deferred builder.
fn charge_redistribution(clique: &mut Clique, levels: usize, rounding: Rounding) {
    let n = clique.n();
    let wpe = rounding.words_per_entry(n) as u64;
    for _ in 0..levels {
        clique.ledger_mut().charge(CostCategory::MatMul, wpe);
        clique
            .ledger_mut()
            .add_words(CostCategory::MatMul, (n * n) as u64 * wpe);
    }
}

/// A lazily materialized Algorithm-1 power table: level `k` holds
/// `M^{2^k}`, computed on demand and memoized, up to the level where
/// the powers stop changing.
///
/// # The charge-up-front contract
///
/// The constructor ([`distributed_powers_deferred`]) charges the
/// clique's ledger for **every** level immediately — the same per-
/// category totals the eager [`distributed_powers`] route charges —
/// and defers only the local numeric work. Ledger equality is
/// per-category totals (the [`crate::RoundLedger`] representation), so
/// *when* a charge lands is invisible: a run that touches only the
/// first three levels produces the same ledger as one that touches all
/// of them, and both match the eager route bit for bit. Levels the
/// table never computes (see below) are charged all the same.
///
/// Deferral requires the engine's multiply cost to be an analytic
/// function of `n` ([`MatMulEngine::analytic_multiply_charges`]);
/// engines that measure real traffic (the semiring protocol) fall back
/// to eager materialization inside the constructor, so callers hold a
/// single type either way.
///
/// # The settled level
///
/// Each level is squared from the previous (see *Representations*
/// below) and takes the same fixed-point truncation the eager route
/// applies — the bits and the stored representation of the eager
/// route's [`PMatrix::matmul`] — and is then compared with the level
/// below it.
/// The first level `k` that agrees with level `k − 1` is the table's
/// *settled level*: every level above it **is** level `k`, returned by
/// reference, and is never computed or stored. "Agree" means:
///
/// * under [`Rounding::Fixed`], bit-for-bit equality. Squaring is a pure
///   function of the operand's value, so every eager level above an
///   equal pair is that same matrix: fixed-point tables keep the eager
///   table's bits exactly;
/// * under [`Rounding::Exact`], every entry moved by at most
///   `2^min(k, 22) · ε`. The walk needs `ℓ` steps to cover (the paper
///   sets `ℓ = Θ̃(n³)`, §2.1), but fast mixers reach their stationary
///   matrix within a few levels. Above that, squaring changes only
///   rounding drift, which doubles per level: a row whose sum is
///   `1 + δ` squares to `1 + 2δ`. On the graphs measured, consecutive
///   eager levels past mixing differ by a fixed fraction of `2^k · ε`
///   (`0.016` on `complete:64`, `0.026` on `lollipop:64:64`), so eager
///   level `j > k` differs from the settled level by about its own
///   drift, of order `2^j · ε`: returning level `k` adds no error beyond
///   what the eager level carries. The rule could fire too early only
///   on a chain whose slowest mode, of spectral gap `γ`, still moves an
///   entry of size `a` by less than `2^k · ε` per level, i.e. with
///   `γ · a ≲ 2ε`. Even then the settled level misses at level `j > k`
///   only that mode's remaining change, at most `2^j · γ · a ≲
///   2^{j+1} · ε` per entry: twice the `2^j · ε` the rule takes as the
///   drift of eager level `j`. The unit tests check the settled level
///   against every eager level above it, up to level 25.
///
/// The bound stops doubling at level 22, at `2^22 · ε = 2^-30 ≈ 9.3e-10`:
/// a weighted `ℓ` saturates at `2^62`, and `2^k · ε` passes `0.25` at
/// `k = 50`, where it would no longer tell a mixed level from an
/// unmixed one. With the cap, two levels that differ anywhere by `1e-9`
/// never agree. A table that has not settled by level 22 either has not
/// mixed or drifts faster than the cap; it keeps squaring, as the eager
/// table does.
///
/// # Representations
///
/// Storage follows the memory break-even, squaring the compute
/// break-even. A level is stored as [`PMatrix::matmul`] stores a
/// product: CSR while its CSR footprint is below the dense one (about
/// 2/3 fill), dense past it. A CSR level below `DENSIFY_FILL` (15%)
/// squares by the CSR product; any fuller level squares as a dense copy
/// through the panel kernel, and its square is stored CSR again if it
/// is still below the memory break-even ([`PMatrix::compacted`]). The
/// full dense product is the CSR product bit for bit, so this changes
/// no bit of a table without weights.
///
/// # Stationary weights
///
/// Every table the sampler builds holds powers of a reversible walk: on
/// `G`, `P = D⁻¹W` with stationary weights the weighted degrees, and on
/// `Schur(G, S)`, itself a weighted graph, with the Schur degrees. The
/// sampler attaches them with [`DeferredPowers::with_stationary_weights`].
///
/// * **The guard.** The table keeps the weights only under
///   [`Rounding::Exact`] (truncation breaks detailed balance) and only
///   if level 0 satisfies `w_i·M[i,j] = w_j·M[j,i]` to `n·ε` relative
///   on every pair, checked once in `O(n²)`. Schur phases of unweighted
///   graphs pass with room to spare (a few `ε`); phases of graphs
///   reweighted toward the `2²⁰` ratio can miss it by `10³ ε` and more,
///   up to a pair that is zero on one side only, and their tables drop
///   the weights and behave exactly as tables without them.
/// * **Half product.** A level of a table with weights that squares
///   dense, a dense level or a CSR level at `DENSIFY_FILL` or more,
///   squares through [`Matrix::square_reversible`]: the kernel computes
///   only the entries on or above the diagonal, each bit for bit the
///   full kernel's on the same operand, and detailed balance fills the
///   rest, `M²[i,j] = M²[j,i]·w_j/w_i`, a few `ε` relative from the full
///   product's entry. Sparser CSR levels keep the CSR product.
/// * **Stationary settle.** A newly squared dense level `k` whose every
///   entry lies within the next level's tolerance `2^min(k+1, 22)·ε` of
///   the stationary row `w/Σw` is the settled level, which saves the
///   squaring the consecutive-level rule (still in force) spends to
///   confirm it. Such a level differs from every eager level `j > k` by
///   at most the `2^{j+1}·ε` allowed above: in exact arithmetic the even
///   powers of a reversible walk approach the stationary matrix `Π`
///   monotonically — each mode of `M^{2^k} − Π` is raised to the
///   `2^{j−k}`-th power, its eigenvalue `λ^{2^k}` lying in `[0, 1)` — so
///   eager level `j` lies no farther from `Π` than level `k` does, plus
///   its own drift of order `2^j·ε`, and `2^min(k+1, 22)·ε ≤ 2^j·ε`.
///
/// So a table with weights no longer returns the eager table's bits
/// below its settled level: each level is squared from the table's own
/// lower level, whose lower triangle came from detailed balance, and
/// those last-bit differences propagate as rounding drift does. Every
/// level it returns lies within `2^{min(k, 22)+1}·ε` of eager level `k`
/// (the unit tests check this up to level 25, measuring at most `0.42`
/// of `2^min(k, 22)·ε`), and it settles at the level the table without
/// weights settles at or one below. The ledger does not change.
///
/// Levels live in [`std::sync::OnceLock`] slots, so a shared table is
/// `Sync` and prepared samplers stay shareable across worker threads.
/// The settled index is published before the level it names, so no
/// reader that sees the level can square past it.
pub struct DeferredPowers {
    levels: Vec<std::sync::OnceLock<PMatrix>>,
    settled: std::sync::OnceLock<usize>,
    threads: usize,
    rounding: Rounding,
    /// The walk's stationary weights, when the table was given them and
    /// level 0 passed the detailed-balance guard.
    stationary: Option<Stationary>,
}

/// A table's stationary weights `w` and the stationary row `w / Σw`.
struct Stationary {
    weights: Vec<f64>,
    row: Vec<f64>,
}

/// The level at which [`settle_tolerance`] stops doubling.
const SETTLE_CAP_LEVEL: usize = 22;

/// The fill (`nnz / n²`) at or above which a CSR level squares faster as
/// a dense copy (copy, panel product, compaction) than by the CSR
/// product: the compute break-even, far below the 2/3-fill memory
/// break-even that decides how a level is stored. Timed both ways on
/// every CSR level of 150 warm draws each of thm1 on `regular:128:4`
/// and the exact variant on `regular:64:4` (graph seeds 2025 and 77,
/// release, one thread, a shared 2-vCPU Xeon VM), the CSR product took
/// 0.32–0.87× the dense route's time below 15% fill, 0.87–1.10× in
/// `[15%, 16%)`, 1.02–1.38× in `[16%, 20%)` and 2.5–3.2× above 30%.
const DENSIFY_FILL: f64 = 0.15;

/// How far an entry of level `k` may move from level `k − 1` for the
/// two to agree: `2^min(k, 22) · ε` under [`Rounding::Exact`] (the
/// drift level `k` already carries, capped; see [`DeferredPowers`]),
/// `0` under [`Rounding::Fixed`].
fn settle_tolerance(k: usize, rounding: Rounding) -> f64 {
    if rounding.is_exact() {
        f64::EPSILON * (1u64 << k.min(SETTLE_CAP_LEVEL)) as f64
    } else {
        0.0
    }
}

/// Whether `m` satisfies detailed balance for `weights` to `n·ε`
/// relative on every pair: `|w_i·m[i,j] − w_j·m[j,i]| ≤ n·ε·max` of the
/// two sides, which also requires `m`'s zero pattern to be symmetric.
/// `O(n²)` on a dense `m`, `O(nnz·log deg)` on CSR.
fn detailed_balance_holds(m: &PMatrix, weights: &[f64]) -> bool {
    let n = m.rows();
    if weights.len() != n || !weights.iter().all(|w| w.is_finite() && *w > 0.0) {
        return false;
    }
    let tol = n as f64 * f64::EPSILON;
    let balanced = |i: usize, j: usize, x: f64, y: f64| {
        let (a, b) = (weights[i] * x, weights[j] * y);
        (a - b).abs() <= tol * a.abs().max(b.abs())
    };
    match m {
        PMatrix::Dense(d) => {
            (0..n).all(|i| (i + 1..n).all(|j| balanced(i, j, d[(i, j)], d[(j, i)])))
        }
        // Every stored entry against its transpose: an entry whose
        // transpose is not stored meets a zero.
        PMatrix::Sparse(_) => (0..n).all(|i| {
            let mut holds = true;
            m.for_each_in_row(i, |j, x| holds &= balanced(i, j, x, m.get(j, i)));
            holds
        }),
    }
}

/// Whether every entry of `m` lies within `tol` of its column's entry in
/// the stationary row.
fn is_stationary(m: &Matrix, row: &[f64], tol: f64) -> bool {
    (0..m.rows()).all(|i| m.row(i).iter().zip(row).all(|(x, p)| (x - p).abs() <= tol))
}

/// Whether `next`, the square of `prev` at table level `k`, agrees with
/// `prev`: every entry within [`settle_tolerance`], compared by value
/// across representations in `O(rows · cols)`.
///
/// # Panics
///
/// Panics if the shapes differ.
fn has_settled(prev: &PMatrix, next: &PMatrix, k: usize, rounding: Rounding) -> bool {
    assert_eq!(prev.shape(), next.shape(), "shape mismatch");
    let tol = settle_tolerance(k, rounding);
    let cols = prev.cols();
    let (mut a, mut b) = (vec![0.0; cols], vec![0.0; cols]);
    (0..prev.rows()).all(|i| {
        a.fill(0.0);
        b.fill(0.0);
        prev.for_each_in_row(i, |j, x| a[j] = x);
        next.for_each_in_row(i, |j, x| b[j] = x);
        a.iter().zip(&b).all(|(x, y)| (x - y).abs() <= tol)
    })
}

impl DeferredPowers {
    /// Wraps an already materialized table (the eager fallback; also
    /// useful for callers that built levels by other means and want the
    /// uniform lazy-table interface).
    pub fn from_materialized(table: Vec<PMatrix>, threads: usize, rounding: Rounding) -> Self {
        let levels = table
            .into_iter()
            .map(|m| {
                let slot = std::sync::OnceLock::new();
                slot.set(m).expect("fresh slot");
                slot
            })
            .collect();
        DeferredPowers {
            levels,
            settled: std::sync::OnceLock::new(),
            threads,
            rounding,
            stationary: None,
        }
    }

    /// Creates a table whose level 0 is `first` and whose higher levels
    /// materialize on first access.
    fn lazy(first: PMatrix, levels: usize, threads: usize, rounding: Rounding) -> Self {
        let mut slots = Vec::with_capacity(levels);
        let slot = std::sync::OnceLock::new();
        slot.set(first).expect("fresh slot");
        slots.push(slot);
        for _ in 1..levels {
            slots.push(std::sync::OnceLock::new());
        }
        DeferredPowers {
            levels: slots,
            settled: std::sync::OnceLock::new(),
            threads,
            rounding,
            stationary: None,
        }
    }

    /// Gives the table its walk's stationary weights `w`, for which level
    /// 0 should satisfy detailed balance, `w_i·M[i,j] = w_j·M[j,i]`. The
    /// table keeps them only under [`Rounding::Exact`] and only if level
    /// 0 passes that check to `n·ε` relative on every pair (`O(n²)`,
    /// once); otherwise it drops them and squares exactly as a table
    /// without weights. See [`DeferredPowers`] for the two uses.
    pub fn with_stationary_weights(mut self, weights: Vec<f64>) -> Self {
        let first = self.levels[0]
            .get()
            .expect("level 0 is always materialized");
        if self.rounding.is_exact() && detailed_balance_holds(first, &weights) {
            let total: f64 = weights.iter().sum();
            let row = weights.iter().map(|w| w / total).collect();
            self.stationary = Some(Stationary { weights, row });
        }
        self
    }

    /// The square of level `prev`. A CSR level below `DENSIFY_FILL`
    /// takes the CSR product. Any other level squares dense: as half a
    /// product filled by detailed balance in a table with weights, as the
    /// full panel product otherwise. A CSR level's square is stored as
    /// the CSR product's would be ([`PMatrix::compacted`]).
    fn square(&self, prev: &PMatrix) -> PMatrix {
        let densified;
        let m = match prev {
            PMatrix::Dense(m) => m,
            PMatrix::Sparse(s) if s.density() >= DENSIFY_FILL => {
                densified = s.to_dense();
                &densified
            }
            PMatrix::Sparse(_) => return prev.matmul(prev, self.threads),
        };
        let sq = match &self.stationary {
            Some(st) => m.square_reversible(&st.weights, self.threads),
            None => m.matmul_parallel(m, self.threads),
        };
        if prev.is_sparse() {
            PMatrix::compacted(sq)
        } else {
            PMatrix::Dense(sq)
        }
    }

    /// Number of levels (`K + 1` for a table up to `M^{2^K}`).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` if the table has no levels (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Level `k` (`M^{2^k}`), materializing it — and any missing lower
    /// levels — on first access. Above the settled level, this is the
    /// settled level itself.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn level(&self, k: usize) -> &PMatrix {
        assert!(k < self.levels.len(), "level {k} out of range");
        // Materialize bottom-up so the recursion depth is 1, and stop at
        // the settled level, which stands for every level above it.
        let mut i = 0;
        while i < k && self.settled.get() != Some(&i) {
            i += 1;
            if self.levels[i].get().is_none() {
                let prev = self.levels[i - 1].get().expect("lower level materialized");
                let mut sq = self.square(prev);
                sq.round_inplace(self.rounding);
                self.install(i, prev, sq);
            }
        }
        self.levels[i].get().expect("materialized above")
    }

    /// Stores level `i`, the square of `prev` (level `i − 1`), marking it
    /// settled first when it agrees with `prev` or, for a dense level of
    /// a table with weights, lies within the next level's settle
    /// tolerance of the stationary row: a reader that sees level `i`
    /// then also sees that nothing lies above it, so it never squares
    /// past it. A concurrent materializer may have stored the level
    /// already; the value is identical either way (a pure function of the
    /// previous level), so the losing copy is dropped.
    fn install(&self, i: usize, prev: &PMatrix, m: PMatrix) {
        let stationary = match (&self.stationary, &m) {
            (Some(st), PMatrix::Dense(d)) => {
                is_stationary(d, &st.row, settle_tolerance(i + 1, self.rounding))
            }
            _ => false,
        };
        if stationary || has_settled(prev, &m, i, self.rounding) {
            let _ = self.settled.set(i);
        }
        let _ = self.levels[i].set(m);
    }

    /// The settled level, once the table has squared up to it: every
    /// level above it is this one.
    pub fn settled_level(&self) -> Option<usize> {
        self.settled.get().copied()
    }

    /// How many levels are currently materialized: at most the settled
    /// level plus one.
    pub fn materialized_levels(&self) -> usize {
        self.levels.iter().filter(|s| s.get().is_some()).count()
    }

    /// Allocated heap bytes of the materialized levels — the power-table
    /// term of a prepared sampler's resident-byte accounting. Absent
    /// levels cost nothing, and neither do the levels above the settled
    /// one: that is the point.
    pub fn resident_bytes(&self) -> usize {
        self.levels
            .iter()
            .filter_map(|s| s.get())
            .map(|m| m.resident_bytes())
            .sum()
    }
}

impl std::fmt::Debug for DeferredPowers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeferredPowers {{ {}/{} levels materialized, settled at {:?}, {} bytes }}",
            self.materialized_levels(),
            self.len(),
            self.settled_level(),
            self.resident_bytes()
        )
    }
}

/// [`distributed_powers`] with lazy level materialization: charges the
/// full Algorithm-1 cost (squarings plus column redistributions) up
/// front and returns a [`DeferredPowers`] whose levels compute on
/// demand. Up to the table's settled level the levels are the eager
/// table's bits; above it they are the settled level, within the bound
/// [`DeferredPowers`] documents (bit for bit under
/// [`Rounding::Fixed`]).
///
/// The returned table has no stationary weights. The sampler attaches
/// its walk's with [`DeferredPowers::with_stationary_weights`]; if level
/// 0 passes the detailed-balance guard, every level that squares dense
/// (dense levels and CSR levels at 15% fill or more) squares as half a
/// product filled by detailed balance, and a dense level already within
/// the next level's tolerance of the stationary row settles the table.
/// Its levels are then within `2^{min(k, 22)+1}·ε` of the eager ones
/// rather than their bits (see [`DeferredPowers`]).
///
/// `threads` is the local worker width for deferred squarings; pass the
/// same width the engine was constructed with so deferred and eager
/// products shard identically (they are bit-identical at any width —
/// this is about work, not bits).
///
/// Engines without analytic charges fall back to eager materialization
/// through [`distributed_powers`] — same type, same totals, no deferral.
///
/// `m` may be a phase's `|S| × |S|` block (see [`BlockEngine`], which
/// the measured-cost fallback needs to run its protocol on the block):
/// the charges stay those of the `n × n` table, and the levels square at
/// `|S|` scale.
///
/// # Panics
///
/// As [`distributed_powers`].
pub fn distributed_powers_deferred(
    clique: &mut Clique,
    engine: &dyn MatMulEngine,
    m: &PMatrix,
    levels: usize,
    rounding: Rounding,
    threads: usize,
) -> DeferredPowers {
    let threads = threads.max(1);
    let Some(charges) = engine.analytic_multiply_charges(clique.n()) else {
        // Measured-cost engine: the charges only exist if the protocol
        // actually runs, so materialize eagerly.
        let table = distributed_powers(clique, engine, m, levels, rounding);
        return DeferredPowers::from_materialized(table, threads, rounding);
    };
    let first = first_level(clique, m, levels, rounding);
    // Charge everything the eager route would charge: levels−1
    // squarings plus the per-level column redistribution.
    for _ in 1..levels {
        charge_multiply(clique, charges);
    }
    charge_redistribution(clique, levels, rounding);
    DeferredPowers::lazy(first, levels, threads, rounding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_linalg::{is_row_stochastic, normalize_rows, powers_of_two, FixedPoint};
    use rand::{Rng, SeedableRng};

    fn random_stochastic(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>());
        normalize_rows(&mut m);
        m
    }

    /// `random_stochastic` as a dense engine operand.
    fn random_operand(n: usize, seed: u64) -> PMatrix {
        PMatrix::Dense(random_stochastic(n, seed))
    }

    #[test]
    fn semiring_matches_local_product() {
        for n in [1usize, 2, 5, 8, 27, 30] {
            let a = random_operand(n, 1);
            let b = random_operand(n, 2);
            let mut clique = Clique::new(n);
            let engine = SemiringEngine::new(1);
            let dist = engine.multiply(&mut clique, &a, &b);
            let local = a.matmul(&b, 1);
            assert!(
                dist.max_abs_diff(&local) < 1e-12,
                "n = {n}: diff {}",
                dist.max_abs_diff(&local)
            );
        }
    }

    #[test]
    fn semiring_cost_scales_sublinearly() {
        // Rounds should grow roughly like n^{1/3} · const, far below n.
        let mut rounds = Vec::new();
        for n in [27usize, 64, 125] {
            let a = random_operand(n, 3);
            let mut clique = Clique::new(n);
            SemiringEngine::new(1).multiply(&mut clique, &a, &a);
            rounds.push((n, clique.ledger().total_rounds()));
        }
        for &(n, r) in &rounds {
            assert!(r as usize <= 8 * n, "n = {n}: {r} rounds is too many");
            assert!(r >= 1);
        }
        // Cost grows slower than linear: r(125)/r(27) < 125/27.
        let (n0, r0) = rounds[0];
        let (n2, r2) = rounds[2];
        assert!(
            (r2 as f64) / (r0 as f64) < (n2 as f64) / (n0 as f64),
            "semiring cost not sublinear: {rounds:?}"
        );
    }

    #[test]
    fn semiring_is_bit_identical_at_every_thread_count() {
        for n in [5usize, 27, 30] {
            let a = random_operand(n, 20);
            let b = random_operand(n, 21);
            let mut base = Clique::new(n);
            let reference = SemiringEngine::new(1).multiply(&mut base, &a, &b);
            for threads in [2usize, 4, 8] {
                let mut clique = Clique::new(n);
                let prod = SemiringEngine::new(threads).multiply(&mut clique, &a, &b);
                assert_eq!(prod, reference, "n = {n}, threads = {threads}");
                assert_eq!(
                    clique.ledger(),
                    base.ledger(),
                    "n = {n}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn fast_oracle_matches_and_charges_formula() {
        let n = 32;
        let a = random_operand(n, 4);
        let b = random_operand(n, 5);
        let mut clique = Clique::new(n);
        let engine = FastOracleEngine::new(ALPHA, 2, 1);
        let prod = engine.multiply(&mut clique, &a, &b);
        assert!(prod.max_abs_diff(&a.matmul(&b, 1)) < 1e-12);
        let expect = ((n as f64).powf(ALPHA).ceil() as u64) * 2;
        assert_eq!(clique.ledger().rounds(CostCategory::MatMul), expect);
    }

    #[test]
    fn engines_agree_with_each_other() {
        let n = 27;
        let a = random_operand(n, 6);
        let b = random_operand(n, 7);
        let mut c1 = Clique::new(n);
        let mut c2 = Clique::new(n);
        let r1 = SemiringEngine::new(1).multiply(&mut c1, &a, &b);
        let r2 = FastOracleEngine::default().multiply(&mut c2, &a, &b);
        assert!(r1.max_abs_diff(&r2) < 1e-12);
    }

    #[test]
    fn distributed_powers_match_sequential() {
        let n = 16;
        let p = random_stochastic(n, 8);
        let mut clique = Clique::new(n);
        let table = distributed_powers(
            &mut clique,
            &UnitCostEngine::default(),
            &PMatrix::Dense(p.clone()),
            5,
            Rounding::Exact,
        );
        let expect = powers_of_two(&p, 5, 1);
        for (a, b) in table.iter().zip(&expect) {
            assert!(a.to_dense().max_abs_diff(b) < 1e-12);
        }
        for m in &table {
            assert!(is_row_stochastic(&m.to_dense(), 1e-9));
        }
    }

    #[test]
    fn distributed_powers_with_rounding_are_substochastic() {
        let n = 8;
        let p = random_stochastic(n, 9);
        let fp = FixedPoint::new(24);
        let mut clique = Clique::new(n);
        let table = distributed_powers(
            &mut clique,
            &UnitCostEngine::default(),
            &PMatrix::Dense(p),
            4,
            Rounding::Fixed(fp),
        );
        for m in &table {
            assert!(cct_linalg::is_row_substochastic(&m.to_dense(), 1e-12));
        }
        // Squaring count: 3 multiplies + 4 column redistributions.
        let wpe = fp.words_per_entry(n) as u64;
        assert_eq!(clique.ledger().rounds(CostCategory::MatMul), 3 + 4 * wpe);
    }

    #[test]
    fn multiply_is_bit_identical_with_one_ledger_in_every_representation() {
        // Banded operand: genuinely sparse, so the CSR kernels run.
        let n = 27;
        let dense_op = Matrix::from_fn(n, n, |i, j| {
            if i.abs_diff(j) <= 2 {
                ((i * 31 + j * 17) % 97) as f64 / 97.0 + 1e-9
            } else {
                0.0
            }
        });
        let engines: Vec<Box<dyn MatMulEngine>> = vec![
            Box::new(UnitCostEngine { threads: 1 }),
            Box::new(FastOracleEngine::new(ALPHA, 2, 1)),
            Box::new(SemiringEngine::new(1)),
        ];
        for engine in &engines {
            let sparse_op = PMatrix::Sparse(CsrMatrix::from_dense(&dense_op));
            let dense_p = PMatrix::Dense(dense_op.clone());
            let mut reference_clique = Clique::new(n);
            let reference = engine
                .multiply(&mut reference_clique, &dense_p, &dense_p)
                .into_dense();
            for (label, a, b) in [
                ("d*d", &dense_p, &dense_p),
                ("s*s", &sparse_op, &sparse_op),
                ("s*d", &sparse_op, &dense_p),
                ("d*s", &dense_p, &sparse_op),
            ] {
                let mut clique = Clique::new(n);
                let prod = engine.multiply(&mut clique, a, b);
                assert_eq!(
                    prod.to_dense(),
                    reference,
                    "{engine:?}: {label} bits diverged"
                );
                assert_eq!(
                    clique.ledger(),
                    reference_clique.ledger(),
                    "{engine:?}: {label} ledger diverged"
                );
            }
        }
    }

    #[test]
    fn distributed_powers_match_in_both_representations() {
        let n = 16;
        let p = random_stochastic(n, 8);
        let mut dense_clique = Clique::new(n);
        let dense_table: Vec<Matrix> = distributed_powers(
            &mut dense_clique,
            &UnitCostEngine::default(),
            &PMatrix::Dense(p.clone()),
            5,
            Rounding::Exact,
        )
        .into_iter()
        .map(PMatrix::into_dense)
        .collect();
        for (repr, pm) in [
            (cct_linalg::Repr::Dense, PMatrix::Dense(p.clone())),
            (
                cct_linalg::Repr::Sparse,
                PMatrix::Sparse(CsrMatrix::from_dense(&p)),
            ),
        ] {
            let mut clique = Clique::new(n);
            let table = distributed_powers(
                &mut clique,
                &UnitCostEngine::default(),
                &pm,
                5,
                Rounding::Exact,
            );
            assert_eq!(table.len(), dense_table.len());
            for (a, b) in table.iter().zip(&dense_table) {
                assert_eq!(&a.to_dense(), b, "{repr:?}");
            }
            assert_eq!(clique.ledger(), dense_clique.ledger(), "{repr:?}");
        }
        // A genuinely sparse chain keeps its early levels sparse: powers
        // of a cycle's transition matrix stay banded.
        let cyc = Matrix::from_fn(32, 32, |i, j| {
            if (i + 1) % 32 == j || (j + 1) % 32 == i {
                0.5
            } else {
                0.0
            }
        });
        let mut clique = Clique::new(32);
        let table = distributed_powers(
            &mut clique,
            &UnitCostEngine::default(),
            &PMatrix::Sparse(CsrMatrix::from_dense(&cyc)),
            4,
            Rounding::Exact,
        );
        assert!(table[0].is_sparse() && table[1].is_sparse());
    }

    fn banded_stochastic(n: usize) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| {
            if i.abs_diff(j) <= 1 || (i + 1) % n == j || (j + 1) % n == i {
                ((i * 31 + j * 17) % 97) as f64 / 97.0 + 1e-9
            } else {
                0.0
            }
        });
        normalize_rows(&mut m);
        m
    }

    #[test]
    fn deferred_powers_charge_up_front_and_match_eager_bits() {
        let n = 32;
        let p = banded_stochastic(n);
        let pm = PMatrix::Sparse(CsrMatrix::from_dense(&p));
        let engines: Vec<Box<dyn MatMulEngine>> = vec![
            Box::new(UnitCostEngine { threads: 1 }),
            Box::new(FastOracleEngine::new(ALPHA, 2, 1)),
        ];
        for rounding in [Rounding::Exact, Rounding::Fixed(FixedPoint::new(24))] {
            for engine in &engines {
                let mut eager_clique = Clique::new(n);
                let eager =
                    distributed_powers(&mut eager_clique, engine.as_ref(), &pm, 6, rounding);
                let mut lazy_clique = Clique::new(n);
                let lazy = distributed_powers_deferred(
                    &mut lazy_clique,
                    engine.as_ref(),
                    &pm,
                    6,
                    rounding,
                    1,
                );
                // The full cost lands at construction, before any level
                // beyond 0 exists.
                assert_eq!(
                    lazy_clique.ledger(),
                    eager_clique.ledger(),
                    "{engine:?}: up-front charges diverged"
                );
                assert_eq!(lazy.materialized_levels(), 1);
                assert!(lazy.resident_bytes() < eager.iter().map(|m| m.resident_bytes()).sum());
                // Materialization is charge-free and bit-identical.
                for (k, want) in eager.iter().enumerate() {
                    assert_eq!(
                        lazy.level(k).to_dense(),
                        want.to_dense(),
                        "{engine:?}: level {k} diverged"
                    );
                    assert_eq!(lazy.level(k).repr(), want.repr(), "level {k} repr");
                }
                assert_eq!(lazy.materialized_levels(), 6);
                assert_eq!(lazy_clique.ledger(), eager_clique.ledger());
            }
        }
    }

    /// The transition matrix of a graph spec (random families seeded
    /// with 2025), in `repr`.
    fn spec_matrix(spec: &str, repr: cct_linalg::Repr) -> PMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        cct_graph::spec::parse_spec(spec, &mut rng)
            .unwrap()
            .transition_pmatrix(repr)
    }

    /// Builds `levels`-level eager and lazy tables of `m`, reads the lazy
    /// top level, and checks the settle contract against the eager one:
    /// the ledgers agree, levels up to the settled one are the eager bits,
    /// every level above it is the settled level by reference and lies
    /// within `settle_tolerance` of the eager level, and nothing above
    /// it was computed. Returns the eager table and the settled level.
    fn check_settled_table(
        m: &PMatrix,
        levels: usize,
        rounding: Rounding,
        label: &str,
    ) -> (Vec<PMatrix>, Option<usize>) {
        let n = m.rows();
        let engine = UnitCostEngine::default();
        let mut eager_clique = Clique::new(n);
        let eager = distributed_powers(&mut eager_clique, &engine, m, levels, rounding);
        let mut lazy_clique = Clique::new(n);
        let lazy = distributed_powers_deferred(&mut lazy_clique, &engine, m, levels, rounding, 1);
        assert_eq!(
            lazy_clique.ledger(),
            eager_clique.ledger(),
            "{label}: ledger"
        );
        let top = lazy.level(levels - 1);
        let settled = lazy.settled_level();
        let s = settled.unwrap_or(levels - 1);
        assert_eq!(
            lazy.materialized_levels(),
            s + 1,
            "{label}: squared past {s}"
        );
        for (k, want) in eager.iter().enumerate() {
            let got = lazy.level(k);
            if k <= s {
                assert_eq!(got.to_dense(), want.to_dense(), "{label}: level {k}");
            } else {
                assert!(std::ptr::eq(got, lazy.level(s)), "{label}: level {k}");
                let drift = want.max_abs_diff(got);
                assert!(
                    drift <= settle_tolerance(k, rounding),
                    "{label}: eager level {k} is {drift:e} from the settled level {s}"
                );
            }
        }
        assert!(std::ptr::eq(top, lazy.level(s)));
        (eager, settled)
    }

    #[test]
    fn fast_mixers_settle_early_on_the_eager_bits() {
        use cct_linalg::Repr;
        for spec in ["complete:64", "regular:64:4"] {
            let mut settled_at = Vec::new();
            for repr in [Repr::Dense, Repr::Sparse] {
                let m = spec_matrix(spec, repr);
                let label = format!("{spec} {repr:?}");
                let (_, settled) = check_settled_table(&m, 20, Rounding::Exact, &label);
                let s = settled.unwrap_or_else(|| panic!("{label}: never settled"));
                assert!(s <= 10, "{label}: settled only at level {s}");
                settled_at.push(s);
            }
            assert_eq!(settled_at[0], settled_at[1], "{spec}: representations");
        }
    }

    #[test]
    fn slow_mixers_settle_only_after_their_levels_agree_to_1e_9() {
        // A slow mixer's early levels differ by far more than the drift
        // bound; the rule must wait until consecutive eager levels agree
        // to 1e-9, and from there the settled level stays within the
        // bound of every eager level above it.
        let weighted_cycle = {
            let edges: Vec<(usize, usize, f64)> = (0..64)
                .map(|i| (i, (i + 1) % 64, if i == 0 { 65536.0 } else { 1.0 }))
                .collect();
            let g = cct_graph::Graph::from_weighted_edges(64, &edges).unwrap();
            g.transition_pmatrix(cct_linalg::Repr::Dense)
        };
        let cases = [
            (
                "cycle:128",
                spec_matrix("cycle:128", cct_linalg::Repr::Sparse),
            ),
            (
                "lollipop:64:64",
                spec_matrix("lollipop:64:64", cct_linalg::Repr::Dense),
            ),
            (
                "grid:8x16",
                spec_matrix("grid:8x16", cct_linalg::Repr::Sparse),
            ),
            ("cycle:64 with one 2^16 edge", weighted_cycle),
        ];
        for (label, m) in cases {
            let (eager, settled) = check_settled_table(&m, 26, Rounding::Exact, label);
            let s = settled.unwrap_or_else(|| panic!("{label}: never settled"));
            let first_close = (1..eager.len())
                .find(|&k| eager[k].max_abs_diff(&eager[k - 1]) <= 1e-9)
                .expect("the eager table mixes");
            assert!(
                s >= first_close && first_close >= 10,
                "{label}: settled at {s}, levels first agree to 1e-9 at {first_close}"
            );
        }
    }

    #[test]
    fn fixed_point_tables_keep_the_eager_bits() {
        // Truncation drains mass each squaring, so a coarse grid reaches
        // an exact fixed point; a fine one may not within the table.
        for (spec, bits) in [
            ("complete:64", 8),
            ("complete:64", 24),
            ("regular:64:4", 12),
        ] {
            let fp = cct_linalg::FixedPoint::new(bits);
            for repr in [cct_linalg::Repr::Dense, cct_linalg::Repr::Sparse] {
                let m = spec_matrix(spec, repr);
                let label = format!("{spec} {repr:?} at {bits} bits");
                let (eager, settled) = check_settled_table(&m, 20, Rounding::Fixed(fp), &label);
                if let Some(s) = settled {
                    for k in s..eager.len() {
                        assert_eq!(eager[k].to_dense(), eager[s].to_dense(), "{label}: {k}");
                    }
                }
                if bits == 8 {
                    assert!(settled.is_some(), "{label}: never settled");
                }
            }
        }
    }

    #[test]
    fn racing_readers_share_one_settled_level() {
        // Serve workers share prepared tables: two readers released at
        // once must get the same level, and neither may square past the
        // settled one.
        let m = spec_matrix("complete:64", cct_linalg::Repr::Dense);
        let engine = UnitCostEngine::default();
        for round in 0..16 {
            let mut clique = Clique::new(64);
            let table =
                distributed_powers_deferred(&mut clique, &engine, &m, 20, Rounding::Exact, 1);
            let barrier = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|scope| {
                let read = || {
                    barrier.wait();
                    table.level(19)
                };
                let a = scope.spawn(read);
                let b = scope.spawn(read);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(
                std::ptr::eq(a, b),
                "round {round}: readers got different levels"
            );
            let s = table.settled_level().expect("complete:64 settles");
            assert!(std::ptr::eq(a, table.level(s)), "round {round}");
            assert_eq!(table.materialized_levels(), s + 1, "round {round}");
        }
    }

    /// A graph spec's transition matrix in `repr` and its weighted
    /// degrees, the walk's stationary weights.
    fn spec_walk(spec: &str, repr: cct_linalg::Repr) -> (PMatrix, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        let g = cct_graph::spec::parse_spec(spec, &mut rng).unwrap();
        walk_of(&g, repr)
    }

    fn walk_of(g: &cct_graph::Graph, repr: cct_linalg::Repr) -> (PMatrix, Vec<f64>) {
        let degrees = (0..g.n()).map(|u| g.degree(u)).collect();
        (g.transition_pmatrix(repr), degrees)
    }

    /// A lazy table of `m` with `levels` levels, given `weights` if any.
    fn lazy_table(
        m: &PMatrix,
        levels: usize,
        rounding: Rounding,
        weights: Option<&[f64]>,
    ) -> DeferredPowers {
        let mut clique = Clique::new(m.rows());
        let table = distributed_powers_deferred(
            &mut clique,
            &UnitCostEngine::default(),
            m,
            levels,
            rounding,
            1,
        );
        match weights {
            Some(w) => table.with_stationary_weights(w.to_vec()),
            None => table,
        }
    }

    /// Every case of the weighted-table tests: the fast mixers in both
    /// representations, the slow mixers, and a cycle with one heavy edge.
    fn weighted_cases() -> Vec<(String, PMatrix, Vec<f64>)> {
        use cct_linalg::Repr;
        let mut cases = Vec::new();
        for spec in ["complete:64", "regular:64:4"] {
            for repr in [Repr::Dense, Repr::Sparse] {
                let (m, w) = spec_walk(spec, repr);
                cases.push((format!("{spec} {repr:?}"), m, w));
            }
        }
        for (spec, repr) in [
            ("cycle:128", Repr::Sparse),
            ("grid:8x16", Repr::Sparse),
            ("lollipop:64:64", Repr::Dense),
        ] {
            let (m, w) = spec_walk(spec, repr);
            cases.push((spec.to_string(), m, w));
        }
        let edges: Vec<(usize, usize, f64)> = (0..64)
            .map(|i| (i, (i + 1) % 64, if i == 0 { 65536.0 } else { 1.0 }))
            .collect();
        let heavy = cct_graph::Graph::from_weighted_edges(64, &edges).unwrap();
        let (m, w) = walk_of(&heavy, Repr::Dense);
        cases.push(("cycle:64 with one 2^16 edge".to_string(), m, w));
        cases
    }

    /// How far a weighted table's level `k` may lie from the eager
    /// full-product level `k`: twice the level's settle tolerance.
    fn weighted_bound(k: usize) -> f64 {
        2.0 * settle_tolerance(k, Rounding::Exact)
    }

    #[test]
    fn weighted_tables_settle_no_later_and_stay_within_the_bound() {
        const LEVELS: usize = 26;
        for (label, m, w) in weighted_cases() {
            let mut eager_clique = Clique::new(m.rows());
            let eager = distributed_powers(
                &mut eager_clique,
                &UnitCostEngine::default(),
                &m,
                LEVELS,
                Rounding::Exact,
            );
            let plain = lazy_table(&m, LEVELS, Rounding::Exact, None);
            let weighted = lazy_table(&m, LEVELS, Rounding::Exact, Some(&w));
            assert!(weighted.stationary.is_some(), "{label}: guard");
            plain.level(LEVELS - 1);
            weighted.level(LEVELS - 1);
            let s_plain = plain.settled_level().expect("the weightless table settles");
            let s = weighted
                .settled_level()
                .unwrap_or_else(|| panic!("{label}: never settled"));
            assert!(
                s == s_plain || s + 1 == s_plain,
                "{label}: settled at {s}, the weightless table at {s_plain}"
            );
            assert_eq!(weighted.materialized_levels(), s + 1, "{label}");
            for (k, want) in eager.iter().enumerate() {
                let got = weighted.level(k);
                if k > s {
                    assert!(std::ptr::eq(got, weighted.level(s)), "{label}: level {k}");
                }
                let diff = want.max_abs_diff(got);
                assert!(
                    diff <= weighted_bound(k),
                    "{label}: level {k} is {diff:e} from the eager level (settled at {s})"
                );
            }
        }
    }

    #[test]
    fn weights_change_no_bit_of_a_fixed_point_table() {
        let fp = FixedPoint::new(12);
        for (label, m, w) in weighted_cases() {
            let plain = lazy_table(&m, 20, Rounding::Fixed(fp), None);
            let weighted = lazy_table(&m, 20, Rounding::Fixed(fp), Some(&w));
            assert!(weighted.stationary.is_none(), "{label}");
            plain.level(19);
            weighted.level(19);
            assert_eq!(weighted.settled_level(), plain.settled_level(), "{label}");
            for k in 0..20 {
                assert_eq!(weighted.level(k), plain.level(k), "{label}: level {k}");
            }
        }
    }

    #[test]
    fn densified_csr_levels_store_and_settle_as_the_csr_product() {
        // Each graph's CSR levels fill past DENSIFY_FILL before the
        // 2/3-fill memory break-even, so its tables square some CSR
        // levels by the CSR product and densify others. The eager table
        // squares every CSR level by the CSR product: the reference.
        const LEVELS: usize = 20;
        for spec in ["regular:64:4", "regular:128:4", "cycle:128", "grid:8x16"] {
            let (m, w) = spec_walk(spec, cct_linalg::Repr::Sparse);
            for rounding in [Rounding::Exact, Rounding::Fixed(FixedPoint::new(12))] {
                let label = format!("{spec} {rounding:?}");
                let mut clique = Clique::new(m.rows());
                let eager = distributed_powers(
                    &mut clique,
                    &UnitCostEngine::default(),
                    &m,
                    LEVELS,
                    rounding,
                );
                let plain = lazy_table(&m, LEVELS, rounding, None);
                let weighted = lazy_table(&m, LEVELS, rounding, Some(&w));
                plain.level(LEVELS - 1);
                weighted.level(LEVELS - 1);
                let s_plain = plain
                    .settled_level()
                    .unwrap_or_else(|| panic!("{label}: the weightless table never settled"));
                let s = weighted
                    .settled_level()
                    .unwrap_or_else(|| panic!("{label}: never settled"));

                // The CSR levels squared on the way straddle the constant.
                let squared_fills: Vec<f64> = eager[..s_plain]
                    .iter()
                    .filter_map(|level| match level {
                        PMatrix::Sparse(c) => Some(c.density()),
                        PMatrix::Dense(_) => None,
                    })
                    .collect();
                assert!(
                    squared_fills.iter().any(|&f| f < DENSIFY_FILL)
                        && squared_fills.iter().any(|&f| f >= DENSIFY_FILL),
                    "{label}: CSR levels squared at fills {squared_fills:?}"
                );

                // Every level is stored as the CSR product stores it:
                // same representation, entries and allocated bytes.
                for (table, top) in [(&plain, s_plain), (&weighted, s)] {
                    for (k, want) in eager.iter().enumerate().take(top + 1) {
                        let got = table.level(k);
                        assert_eq!(got.repr(), want.repr(), "{label}: level {k} repr");
                        assert_eq!(got.nnz(), want.nnz(), "{label}: level {k} nnz");
                        assert_eq!(
                            got.resident_bytes(),
                            want.resident_bytes(),
                            "{label}: level {k} bytes"
                        );
                    }
                }

                // Without weights the levels are the CSR product's bits.
                for (k, want) in eager.iter().enumerate().take(s_plain + 1) {
                    assert_eq!(plain.level(k), want, "{label}: level {k}");
                    let (got, want) = (plain.level(k).to_dense(), want.to_dense());
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{label}: level {k} bits"
                    );
                }

                if rounding.is_exact() {
                    // With weights: within the drift bound of the eager
                    // level, settled where the CSR route settles or one
                    // level below.
                    assert!(weighted.stationary.is_some(), "{label}: guard");
                    assert!(
                        s == s_plain || s + 1 == s_plain,
                        "{label}: settled at {s}, the weightless table at {s_plain}"
                    );
                    for (k, want) in eager.iter().enumerate() {
                        let diff = want.max_abs_diff(weighted.level(k));
                        assert!(
                            diff <= weighted_bound(k),
                            "{label}: level {k} is {diff:e} from the eager level"
                        );
                    }
                } else {
                    assert!(weighted.stationary.is_none(), "{label}: fixed point");
                    assert_eq!(s, s_plain, "{label}: settled level");
                }
            }
        }
    }

    #[test]
    fn racing_readers_share_one_settled_level_of_a_weighted_table() {
        let (m, w) = spec_walk("complete:64", cct_linalg::Repr::Dense);
        for round in 0..16 {
            let table = lazy_table(&m, 20, Rounding::Exact, Some(&w));
            assert!(table.stationary.is_some());
            let barrier = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|scope| {
                let read = || {
                    barrier.wait();
                    table.level(19)
                };
                let a = scope.spawn(read);
                let b = scope.spawn(read);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(
                std::ptr::eq(a, b),
                "round {round}: readers got different levels"
            );
            let s = table.settled_level().expect("complete:64 settles");
            assert!(std::ptr::eq(a, table.level(s)), "round {round}");
            assert_eq!(table.materialized_levels(), s + 1, "round {round}");
        }
    }

    #[test]
    fn schur_phases_that_fail_the_guard_square_as_without_weights() {
        use cct_schur::{schur_transition_with_weights, shortcut_exact, VertexSubset};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        let g = cct_graph::spec::parse_spec("regular:64:4", &mut rng).unwrap();
        const W: [f64; 5] = [1.0, 33.0, 1000.0, 33333.0, 1_048_576.0];
        let edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v, W[(u + 2 * v) % 5]))
            .collect();
        let g = cct_graph::Graph::from_weighted_edges(64, &edges).unwrap();
        // Half the vertices: with weights spanning 2^20, this phase's
        // Schur transitions miss detailed balance by about 10^4 ε.
        let s = VertexSubset::new(64, &(0..64).step_by(2).collect::<Vec<_>>());
        let q = PMatrix::Dense(shortcut_exact(&g, &s));
        let (t, w) = schur_transition_with_weights(&g, &s, &q);
        let m = PMatrix::Dense(t);
        let plain = lazy_table(&m, 20, Rounding::Exact, None);
        let weighted = lazy_table(&m, 20, Rounding::Exact, Some(&w));
        assert!(weighted.stationary.is_none(), "the guard passed");
        plain.level(19);
        weighted.level(19);
        assert_eq!(weighted.settled_level(), plain.settled_level());
        for k in 0..20 {
            assert_eq!(weighted.level(k), plain.level(k), "level {k}");
        }
    }

    #[test]
    fn deferred_powers_fall_back_to_eager_for_measured_engines() {
        // The semiring engine measures real traffic: no analytic charge
        // exists, so the constructor materializes everything through the
        // engine — same ledger, same bits, same type.
        let n = 27;
        let p = banded_stochastic(n);
        let pm = PMatrix::Sparse(CsrMatrix::from_dense(&p));
        let engine = SemiringEngine::new(1);
        assert!(engine.analytic_multiply_charges(n).is_none());
        let mut eager_clique = Clique::new(n);
        let eager = distributed_powers(&mut eager_clique, &engine, &pm, 4, Rounding::Exact);
        let mut lazy_clique = Clique::new(n);
        let lazy =
            distributed_powers_deferred(&mut lazy_clique, &engine, &pm, 4, Rounding::Exact, 1);
        assert_eq!(lazy.materialized_levels(), 4);
        assert_eq!(lazy_clique.ledger(), eager_clique.ledger());
        for (k, want) in eager.iter().enumerate() {
            assert_eq!(lazy.level(k).to_dense(), want.to_dense(), "level {k}");
        }
    }

    #[test]
    fn semiring_sparse_product_assembles_csr_directly() {
        // Both operands sparse: the product must come back in the same
        // representation (and with the same bits) the old densify-then-
        // compact route produced — but via direct CSR assembly.
        let n = 30;
        let p = banded_stochastic(n);
        let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&p));
        let engine = SemiringEngine::new(1);
        let mut c1 = Clique::new(n);
        let prod = engine.multiply(&mut c1, &sparse, &sparse);
        assert!(prod.is_sparse(), "banded square stays under break-even");
        let mut c2 = Clique::new(n);
        let dense = PMatrix::Dense(p);
        let reference = engine.multiply(&mut c2, &dense, &dense);
        assert_eq!(prod.to_dense(), reference.into_dense());
        assert_eq!(c1.ledger(), c2.ledger(), "analytic charges unchanged");
    }

    #[test]
    fn default_rounds_for_multiply_is_memoized_and_correct() {
        // The semiring engine measures its charges: its answer equals a
        // measured multiply, across repeated queries, engine instances
        // and thread counts. No process-wide memo holds it any more; a
        // prepared sampler keeps it in its plan.
        let n = 30;
        let first = SemiringEngine::new(1).rounds_for_multiply(n);
        let mut clique = Clique::new(n);
        let a = random_operand(n, 99);
        SemiringEngine::new(1).multiply(&mut clique, &a, &a);
        assert_eq!(first, clique.ledger().total_rounds());
        assert_eq!(SemiringEngine::new(4).rounds_for_multiply(n), first);
        assert_eq!(SemiringEngine::new(1).rounds_for_multiply(n), first);
    }

    #[test]
    fn analytic_rounds_for_multiply_never_reads_the_memo() {
        // An oracle answers from its own formula: two oracles with
        // different α and words per entry each return their own cost, in
        // either query order.
        let n = 64;
        let cheap = FastOracleEngine::new(ALPHA, 1, 1);
        let dear = FastOracleEngine::new(0.5, 3, 1);
        assert_ne!(cheap.rounds_per_multiply(n), dear.rounds_per_multiply(n));
        for _ in 0..2 {
            assert_eq!(cheap.rounds_for_multiply(n), cheap.rounds_per_multiply(n));
            assert_eq!(dear.rounds_for_multiply(n), dear.rounds_per_multiply(n));
        }
    }

    #[test]
    fn oracle_rounds_per_multiply_monotone_in_n() {
        let e = FastOracleEngine::default();
        assert!(e.rounds_per_multiply(64) <= e.rounds_per_multiply(256));
        assert!(e.rounds_per_multiply(2) >= 1);
    }
}
