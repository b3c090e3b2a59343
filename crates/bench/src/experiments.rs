//! The experiment suite: one function per experiment (E1, E3–E7, E9–E12,
//! E14, E17–E22, aux). Each function's doc comment names the paper claim
//! it checks, and each prints the table/series that claim corresponds to.

use crate::util::{banner, loglog_slope};
use cct_core::{
    CliqueTreeSampler, EngineChoice, Placement, Precision, SampleReport, SamplerConfig, WalkLength,
};
use cct_doubling::{doubling_walks, lemma10_bound, sample_tree_via_doubling, Balancing};
use cct_graph::{generators, Graph, SpanningTree};
use cct_json::Json;
use cct_linalg::{powers_of_two, powers_rounded, subtractive_error, FixedPoint};
use cct_matching::{ExactPermanentSampler, MatchingInstance, SwapChainSampler};
use cct_schur::{schur_transition_exact, shortcut_exact, VertexSubset};
use cct_sim::{Clique, CostCategory, ALPHA};
use cct_walks::{distinct_vertices_in_walk, estimate_cover_time, stats};
use rand::SeedableRng;
use std::collections::HashMap;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn er_graph(n: usize, seed: u64) -> Graph {
    let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
    generators::erdos_renyi_connected(n, p, &mut rng(seed))
}

fn run_once(g: &Graph, config: SamplerConfig, seed: u64) -> SampleReport {
    CliqueTreeSampler::new(config)
        .sample(g, &mut rng(seed))
        .expect("connected input")
}

/// E1 — Theorem 1: `Õ(n^{1/2+α})` rounds for the approximate sampler.
pub fn e1(quick: bool) {
    banner(
        "E1",
        "Theorem 1 — main sampler rounds scale as Õ(n^{1/2+α}), α = 0.157",
    );
    let ns: Vec<usize> = if quick {
        vec![32, 48, 64, 96]
    } else {
        vec![32, 48, 64, 96, 128, 192, 256]
    };
    println!(
        "{:>5} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "n", "m", "phases", "rounds", "matmul", "search", "other", "r/n^0.657"
    );
    let mut pts_total = Vec::new();
    let mut pts_phases = Vec::new();
    let mut pts_matmul = Vec::new();
    for n in ns {
        let g = er_graph(n, 500 + n as u64);
        let config = SamplerConfig::new()
            .engine(EngineChoice::FastOracle { alpha: ALPHA })
            .threads(1);
        let report = run_once(&g, config, 600 + n as u64);
        let total = report.total_rounds();
        let matmul = report.rounds.rounds(CostCategory::MatMul);
        let search = report.rounds.rounds(CostCategory::BinarySearch);
        let other = total - matmul - search;
        let ratio = total as f64 / (n as f64).powf(0.5 + ALPHA);
        println!(
            "{n:>5} {:>6} {:>7} {total:>9} {matmul:>9} {search:>9} {other:>9} {ratio:>12.1}",
            g.m(),
            report.num_phases()
        );
        pts_total.push((n as f64, total as f64));
        pts_phases.push((n as f64, report.num_phases() as f64));
        pts_matmul.push((n as f64, matmul as f64));
    }
    println!(
        "\nfitted exponents (claim: total = 0.5 + α = {:.3} up to polylog):",
        0.5 + ALPHA
    );
    println!("  total rounds   ~ n^{:.3}", loglog_slope(&pts_total));
    println!(
        "  phases         ~ n^{:.3}   (Theorem 1 structure: Θ(√n) phases)",
        loglog_slope(&pts_phases)
    );
    println!(
        "  matmul rounds  ~ n^{:.3}   (√n phases × Õ(n^α) multiplications)",
        loglog_slope(&pts_matmul)
    );
    println!(
        "  per-phase      ~ n^{:.3}   (α = {ALPHA} plus the O(log ℓ·log n) search/level polylog,",
        loglog_slope(
            &pts_total
                .iter()
                .zip(&pts_phases)
                .map(|(&(n, r), &(_, p))| (n, r / p))
                .collect::<Vec<_>>()
        )
    );
    println!(
        "   which dominates n^α at laptop-scale n — the Õ(·) in the paper is doing real work)"
    );
}

/// E3 — Appendix §5: the exact variant runs in `Õ(n^{2/3+α})` rounds.
pub fn e3(quick: bool) {
    banner(
        "E3",
        "Appendix — exact variant: Õ(n^{2/3+α}) rounds (ρ = n^{1/3}, Las Vegas)",
    );
    let ns: Vec<usize> = if quick {
        vec![32, 48, 64]
    } else {
        vec![32, 48, 64, 96, 128, 192]
    };
    println!(
        "{:>5} {:>7} {:>9} {:>12}",
        "n", "phases", "rounds", "r/n^0.824"
    );
    let mut pts = Vec::new();
    for n in ns {
        let g = er_graph(n, 800 + n as u64);
        let config = SamplerConfig::exact_variant()
            .engine(EngineChoice::FastOracle { alpha: ALPHA })
            .threads(1);
        let report = run_once(&g, config, 900 + n as u64);
        let total = report.total_rounds();
        println!(
            "{n:>5} {:>7} {total:>9} {:>12.1}",
            report.num_phases(),
            total as f64 / (n as f64).powf(2.0 / 3.0 + ALPHA)
        );
        pts.push((n as f64, total as f64));
    }
    println!(
        "\nfitted exponent: {:.3}  (claim: 2/3 + α = {:.3} up to polylog factors)",
        loglog_slope(&pts),
        2.0 / 3.0 + ALPHA
    );
}

/// E4 — Theorem 2: doubling-walk round complexity across both regimes.
pub fn e4(quick: bool) {
    banner(
        "E4",
        "Theorem 2 — doubling: O(log τ) rounds below τ≈n/log n, O((τ/n)·log τ·log n) above",
    );
    let n = if quick { 64 } else { 128 };
    let g = generators::random_regular(n, 4, &mut rng(1000));
    let taus: Vec<u64> = vec![8, 32, 128, 512, 2048, 8192];
    println!(
        "{:>6} {:>8} {:>9} {:>14} {:>16}",
        "tau", "rounds", "log2 tau", "(t/n)·lg t·lg n", "regime"
    );
    for tau in taus {
        let mut clique = Clique::new(n);
        let mut r = rng(1001);
        let _ = doubling_walks(&mut clique, &g, tau, Balancing::Balanced { c: 1 }, &mut r);
        let rounds = clique.ledger().total_rounds();
        let log_tau = (tau as f64).log2();
        let formula = (tau as f64 / n as f64) * log_tau * (n as f64).log2();
        let regime = if (tau as f64) <= n as f64 / (n as f64).log2() {
            "short (O(log tau))"
        } else {
            "long (bandwidth-bound)"
        };
        println!("{tau:>6} {rounds:>8} {log_tau:>9.1} {formula:>14.1} {regime:>16}");
    }
    println!(
        "\n(short walks cost ~2 rounds per iteration = O(log τ); long walks pay ⌈kη/n⌉ per route)"
    );
}

/// E5 — Corollary 1: trees in `Õ(τ/n)` rounds for cover time `τ`.
pub fn e5(quick: bool) {
    banner(
        "E5",
        "Corollary 1 — spanning trees via doubling on O(n log n)-cover-time graphs",
    );
    let ns: Vec<usize> = if quick {
        vec![32, 64]
    } else {
        vec![32, 64, 96]
    };
    println!(
        "{:<30} {:>5} {:>10} {:>9} {:>9} {:>10}",
        "graph", "n", "cover≈", "rounds", "segments", "cover/n"
    );
    for n in ns {
        let mut families: Vec<(&str, Graph)> = vec![
            (
                "random 4-regular",
                generators::random_regular(n, 4, &mut rng(1100 + n as u64)),
            ),
            ("G(n, 2 ln n/n)", er_graph(n, 1200 + n as u64)),
            ("K_{n-sqrt n, sqrt n}", generators::k_dense_irregular(n)),
        ];
        if n <= 64 {
            // The Θ(n³)-cover lollipop is included as a contrast but its
            // Θ(n²) doubling segments make larger sizes pointless to wait on.
            families.push(("lollipop (contrast)", generators::lollipop(n / 2, n / 2)));
        }
        for (name, g) in families {
            let mut r = rng(1300 + n as u64);
            let cover = estimate_cover_time(&g, 0, 20, 200_000_000, &mut r);
            let mut clique = Clique::new(g.n());
            let (_tree, segments) = sample_tree_via_doubling(&mut clique, &g, 2.0, 40_000, &mut r)
                .expect("40 000 segments cover every family");
            println!(
                "{name:<30} {n:>5} {:>10.0} {:>9} {segments:>9} {:>10.1}",
                cover.mean,
                clique.ledger().total_rounds(),
                cover.mean / n as f64
            );
        }
    }
    println!("\n(O(n log n)-cover families need O(1) segments → polylog rounds; the lollipop pays Θ(n²) segments' worth)");
}

/// E6 — Lemma 10: load balancing bounds; naive doubling melts hubs.
pub fn e6(quick: bool) {
    banner(
        "E6",
        "Lemma 10 — max tuples/machine ≤ 16ck log n w.h.p.; naive scheme vs balanced",
    );
    let n = if quick { 128 } else { 256 };
    let g = generators::star(n);
    let tau = n as u64;
    let mut r = rng(1400);
    let mut c_bal = Clique::new(n);
    let (_, bal) = doubling_walks(&mut c_bal, &g, tau, Balancing::Balanced { c: 1 }, &mut r);
    let mut c_nai = Clique::new(n);
    let (_, nai) = doubling_walks(&mut c_nai, &g, tau, Balancing::Naive, &mut r);
    println!("star graph, n = {n}, τ = {tau} (the hub is the worst case)\n");
    println!(
        "{:>5} {:>6} {:>15} {:>15} {:>14} {:>8}",
        "iter", "k", "balanced max", "lemma10 bound", "naive max", "ratio"
    );
    for i in 0..bal.k_values.len() {
        let k = bal.k_values[i];
        let bound = lemma10_bound(n, k, 1);
        let ratio = nai.max_tuples_recv[i] as f64 / bal.max_tuples_recv[i].max(1) as f64;
        println!(
            "{i:>5} {k:>6} {:>15} {bound:>15} {:>14} {ratio:>8.1}",
            bal.max_tuples_recv[i], nai.max_tuples_recv[i]
        );
        assert!(bal.max_tuples_recv[i] <= bound, "Lemma 10 bound violated!");
    }
    println!(
        "\nrounds: balanced = {}, naive = {}",
        c_bal.ledger().total_rounds(),
        c_nai.ledger().total_rounds()
    );
}

/// E7 — Lemma 7: rounded matrix powers under-approximate within β.
pub fn e7(_quick: bool) {
    banner(
        "E7",
        "Lemma 7 — fixed-point matrix powers: subtractive error ≤ β",
    );
    let g = er_graph(12, 1500);
    let p = g.transition_matrix();
    let levels = 8;
    let exact = powers_of_two(&p, levels, 1);
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>9}",
        "bits", "delta", "worst error", "bound 2δ(n+1)^k", "ok"
    );
    for bits in [8u32, 16, 24, 32, 40] {
        let fp = FixedPoint::new(bits);
        let rounded = powers_rounded(&p, levels, fp, 1);
        let (worst, per) = subtractive_error(&exact, &rounded);
        let bound = 2.0 * fp.delta() * ((g.n() as f64) + 1.0).powi(levels as i32 - 1);
        let ok = per
            .iter()
            .enumerate()
            .all(|(k, &e)| e <= 2.0 * fp.delta() * ((g.n() as f64) + 1.0).powi(k as i32));
        println!(
            "{bits:>6} {:>12.2e} {worst:>14.2e} {bound:>14.2e} {:>9}",
            fp.delta(),
            if ok { "PASS" } else { "FAIL" }
        );
    }
    // End-to-end: the sampler still produces valid trees under truncation.
    let fp = FixedPoint::new(40);
    let config = SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost)
        .precision(Precision::Fixed(fp));
    let report = run_once(&generators::complete(8), config, 1501);
    println!(
        "\nend-to-end with 40-bit fixed point on K8: tree valid ({} edges), {} rounds",
        report.tree.edges().len(),
        report.total_rounds()
    );
}

/// E9 — §1.8: the swap-chain matching sampler converges to the exact law.
pub fn e9(quick: bool) {
    banner(
        "E9",
        "§1.8 — swap-chain (JSV substitution) TVD to the exact matching law vs steps",
    );
    // A deliberately skewed grouped instance.
    let inst = MatchingInstance::new(
        vec![2, 1, 1],
        vec![2, 2],
        vec![vec![1.0, 4.0], vec![3.0, 1.0], vec![6.0, 0.5]],
    )
    .unwrap();
    let all = inst.enumerate_assignments();
    let z: f64 = all.iter().map(|(_, w)| w).sum();
    let exact: Vec<(cct_matching::Assignment, f64)> = all
        .into_iter()
        .filter(|(_, w)| *w > 0.0)
        .map(|(a, w)| (a, w / z))
        .collect();
    let trials = if quick { 8_000 } else { 25_000 };
    // Cold start: the *worst-weight* consistent assignment, so short
    // chains are visibly biased and convergence with steps is observable.
    let cold = inst
        .enumerate_assignments()
        .into_iter()
        .filter(|(_, w)| *w > 0.0)
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(a, _)| a)
        .unwrap();
    println!(
        "{:>14} {:>9} {:>10}   (chain started from the worst-weight assignment)",
        "steps/slot", "emp. TV", "chi^2"
    );
    for steps in [1usize, 2, 4, 8, 16, 32, 64] {
        let sampler = SwapChainSampler {
            steps_per_slot: steps,
        };
        let mut r = rng(1700 + steps as u64);
        let counts = stats::empirical_counts(
            (0..trials).map(|_| sampler.sample(&inst, Some(cold.clone()), &mut r).unwrap()),
        );
        let tv = stats::empirical_tv(&counts, &exact, trials);
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        println!(
            "{steps:>14} {tv:>9.4} {:>10}",
            if stat < crit { "PASS" } else { "biased" }
        );
    }
    // Reference: the exact permanent sampler at the same trial count.
    let mut r = rng(1799);
    let counts = stats::empirical_counts(
        (0..trials).map(|_| ExactPermanentSampler.sample(&inst, &mut r).unwrap()),
    );
    let tv = stats::empirical_tv(&counts, &exact, trials);
    println!("{:>14} {tv:>9.4} {:>10}", "exact(JVV)", "PASS");
    println!("\n(the residual TV is sampling noise; the chain is converged once it matches the exact row)");
}

/// E10 — Figure 2: the worked Schur/shortcut example.
pub fn e10(_quick: bool) {
    banner(
        "E10",
        "Figure 2 — Schur complement and shortcut graph of the 4-vertex star",
    );
    let names = ["A", "B", "C", "D"];
    let g = Graph::from_edges(4, &[(0, 2), (1, 2), (3, 2)]).unwrap();
    let s = VertexSubset::new(4, &[0, 1, 3]);
    let t = schur_transition_exact(&g, &s);
    let q = shortcut_exact(&g, &s);
    println!("Schur(G, S) transitions (S = {{A, B, D}}):");
    for (i, &u) in s.list().iter().enumerate() {
        let row: Vec<String> = (0..3).map(|j| format!("{:.3}", t[(i, j)])).collect();
        println!("  {}: [{}]", names[u], row.join(", "));
    }
    println!("ShortCut(G, S) row for A: everything → C:");
    let row: Vec<String> = (0..4).map(|v| format!("{:.3}", q[(0, v)])).collect();
    println!("  A: [{}]  (C is column 3)", row.join(", "));
    for i in 0..3 {
        for j in 0..3 {
            let expect = if i == j { 0.0 } else { 0.5 };
            assert!((t[(i, j)] - expect).abs() < 1e-12);
        }
    }
    for u in 0..4 {
        assert!((q[(u, 2)] - 1.0).abs() < 1e-12);
    }
    println!("matches the paper's Figure 2 ✓");
}

/// E11 — §1.4 Direction 4 (Barnes–Feige): a length-n walk visits
/// `Ω(n^{1/3})` distinct vertices.
pub fn e11(quick: bool) {
    banner(
        "E11",
        "Barnes–Feige — distinct vertices of a length-n walk ≥ Ω(n^{1/3})",
    );
    let ns: Vec<usize> = if quick {
        vec![64, 256, 1024]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let trials = 30;
    println!(
        "{:<22} {:>6} {:>12} {:>9} {:>9}",
        "graph", "n", "distinct≈", "n^(1/3)", "n^(1/2)"
    );
    for n in ns {
        let families: Vec<(&str, Graph)> = vec![
            ("path", generators::path(n)),
            ("cycle", generators::cycle(n)),
            ("lollipop", generators::lollipop(n / 2, n / 2)),
            (
                "random 3-regular",
                generators::random_regular(n, 3, &mut rng(1800 + n as u64)),
            ),
        ];
        for (name, g) in families {
            let mut r = rng(1900 + n as u64);
            let mean: f64 = (0..trials)
                .map(|_| distinct_vertices_in_walk(&g, 0, n, &mut r) as f64)
                .sum::<f64>()
                / trials as f64;
            println!(
                "{name:<22} {n:>6} {mean:>12.1} {:>9.1} {:>9.1}",
                (n as f64).powf(1.0 / 3.0),
                (n as f64).sqrt()
            );
            assert!(
                mean >= 0.5 * (n as f64).powf(1.0 / 3.0),
                "{name}: below the Barnes–Feige floor"
            );
        }
    }
    println!("\n(paths/cycles sit at ~√n; the lollipop hugs the n^(1/3)-ish floor — walks stuck in the clique)");
}

/// E12 — §1.3 bottlenecks: the bandwidth the compression pipeline saves.
pub fn e12(_quick: bool) {
    banner(
        "E12",
        "§1.3 — leader bandwidth: verbatim Π vs multiset+matching; doubling at ℓ=Θ̃(n³)",
    );
    // A slowly-mixing input (lollipop) makes the walk prefixes — and
    // hence the Π sequences — long; that is where the compression earns
    // its keep. (On expanders τ per phase is tiny and both columns are
    // small.)
    let n = 64usize;
    for (label, g) in [
        (
            "lollipop(32,32) — slow mixing",
            generators::lollipop(n / 2, n / 2),
        ),
        ("G(n, 2 ln n/n) — fast mixing", er_graph(n, 2000)),
    ] {
        let config = SamplerConfig::new()
            .engine(EngineChoice::UnitCost)
            .threads(1);
        let report = run_once(&g, config, 2001);
        let pi: u64 = report.phases.iter().map(|p| p.pi_words).sum();
        let placed: u64 = report.phases.iter().map(|p| p.placement_words).sum();
        println!(
            "\n{label}, n = {n}, paper ℓ ({} phases, Σtau = {}):",
            report.num_phases(),
            report.total_walk_steps()
        );
        println!(
            "{:<46} {:>14} {:>12}",
            "  leader words: verbatim Π (no compression)",
            pi,
            pi.div_ceil(n as u64)
        );
        println!(
            "{:<46} {:>14} {:>12}",
            "  leader words: multisets (paper §2.1.3)",
            placed,
            placed.div_ceil(n as u64)
        );
        println!(
            "  compression factor: {:.1}×",
            pi as f64 / placed.max(1) as f64
        );
    }
    // Doubling's Direction-3 bottleneck at Aldous–Broder lengths.
    let ell = WalkLength::Paper { epsilon: 1e-2 }.resolve(n);
    println!("\nbottom-up doubling at ℓ = Θ̃(n³) = {ell} (Direction 3):");
    println!(
        "  each machine initially holds ℓ length-1 walks and must receive as many in iteration 1:"
    );
    println!(
        "  per-machine words ≈ ℓ = {ell} → ⌈ℓ/n⌉ = {} rounds for ONE iteration",
        ell.div_ceil(n as u64)
    );
    let reference = run_once(
        &er_graph(n, 2000),
        SamplerConfig::new()
            .engine(EngineChoice::UnitCost)
            .threads(1),
        2001,
    );
    println!(
        "  vs the top-down sampler's full bill of {} rounds — the bottom-up route is hopeless",
        reference.total_rounds()
    );
}

/// E14 — §1.4 Direction 4: the conceptually simpler prototype the paper
/// sketches (one doubling walk per phase on the Schur complement).
pub fn e14(quick: bool) {
    banner(
        "E14",
        "Direction 4 — doubling-walk-per-phase prototype (paper's future work)",
    );
    let ns: Vec<usize> = if quick {
        vec![32, 64]
    } else {
        vec![32, 64, 96, 128]
    };
    println!(
        "{:>5} {:>8} {:>10} {:>14} {:>12} {:>12}",
        "n", "phases", "rounds", "new/phase≈", "n^(1/3)", "thm1 rounds"
    );
    for n in ns {
        let g = er_graph(n, 2300 + n as u64);
        let report =
            cct_core::direction4_sample(&g, 1.0, &mut rng(2400 + n as u64)).expect("connected");
        let mean_new = (n - 1) as f64 / report.phases as f64;
        let thm1 = run_once(
            &g,
            SamplerConfig::new()
                .engine(EngineChoice::FastOracle { alpha: ALPHA })
                .threads(1),
            2500 + n as u64,
        );
        println!(
            "{n:>5} {:>8} {:>10} {mean_new:>14.1} {:>12.1} {:>12}",
            report.phases,
            report.rounds.total_rounds(),
            (n as f64).powf(1.0 / 3.0),
            thm1.total_rounds()
        );
    }
    println!("\n(per-phase harvest ≫ n^(1/3) on these well-mixing inputs — Barnes–Feige is a worst-case floor;");
    println!(
        " the prototype is simpler but pays the Schur-construction matmuls per phase all the same)"
    );
}

/// E17 — the parallel round engine: wall-clock speedup on a large
/// Erdős–Rényi instance, with bit-identical trees and ledger totals at
/// every worker count (the determinism contract of `cct-sim`).
pub fn e17(quick: bool) {
    banner(
        "E17",
        "Parallel round engine — wall-clock speedup, bit-identical trees/ledgers",
    );
    let n = if quick { 128 } else { 512 };
    let worker_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let g = er_graph(n, 1700 + n as u64);
    let seed = 1800 + n as u64;
    // ℓ = 2^16 is generous for visiting ρ ≈ 4√n distinct vertices per
    // phase on a connected ER graph; ρ is raised above √n to keep the
    // phase count (and the sequential Schur overhead) modest so the
    // benchmark is dominated by the engine's parallelizable work.
    let config = |workers: usize| {
        SamplerConfig::new()
            .engine(EngineChoice::FastOracle { alpha: ALPHA })
            .walk_length(WalkLength::Fixed(1 << 16))
            .rho(4 * (n as f64).sqrt() as usize)
            .workers(cct_core::Workers::Fixed(workers))
    };
    println!("er({n}), m = {}, seed {seed}:", g.m());
    println!(
        "{:>8} {:>12} {:>9} {:>10} {:>10}",
        "workers", "wall-clock", "speedup", "rounds", "identical"
    );
    let mut reference: Option<(SampleReport, f64)> = None;
    for &w in worker_counts {
        let t = std::time::Instant::now();
        let report = run_once(&g, config(w), seed);
        let secs = t.elapsed().as_secs_f64();
        let (identical, speedup) = match &reference {
            None => ("--".to_string(), 1.0),
            Some((base, base_secs)) => (
                (report.tree == base.tree && report.rounds == base.rounds).to_string(),
                base_secs / secs,
            ),
        };
        println!(
            "{w:>8} {:>11.2}s {speedup:>8.2}x {:>10} {identical:>10}",
            secs,
            report.total_rounds()
        );
        if report.monte_carlo_failure {
            println!("          (Monte Carlo failure at workers = {w})");
        }
        if reference.is_none() {
            reference = Some((report, secs));
        }
    }
}

/// E18 — the linear-algebra hot path: block-structured absorbing-chain
/// squaring vs the dense `2n × 2n` reference, and prepare-once/sample-many
/// throughput vs cold sampling. Returns the machine-readable report the
/// harness can write as `BENCH_e18.json` and gate against a committed
/// baseline (`--json` / `--baseline`).
pub fn e18(quick: bool) -> Json {
    use cct_linalg::Repr;
    use cct_schur::{shortcut_by_squaring, shortcut_by_squaring_dense};
    banner(
        "E18",
        "Hot path — block (Q,R)→(Q², QR+R) squaring vs dense 2n×2n; PreparedSampler throughput",
    );

    // ── Part A: the Corollary-2 squaring kernel. S is half the vertex
    // set (a representative mid-phase shape); both routes produce
    // bit-identical Q, so only wall-clock differs.
    let squaring_ns: &[usize] = if quick { &[64] } else { &[64, 128, 256] };
    let reps = 3usize;
    println!(
        "\nshortcut_by_squaring, tol = 1e-12 ({reps} reps, ER graph, |S| = n/2):\n{:>6} {:>10} {:>12} {:>12} {:>9}",
        "n", "squarings", "dense ms", "block ms", "speedup"
    );
    let mut squaring_rows = Vec::new();
    for &n in squaring_ns {
        let g = er_graph(n, 4200 + n as u64);
        let s = VertexSubset::new(n, &(0..n / 2).collect::<Vec<_>>());
        let t = std::time::Instant::now();
        let mut used = 0;
        for _ in 0..reps {
            let (q, u) = shortcut_by_squaring_dense(&g, &s, 1e-12, 64);
            used = u;
            std::hint::black_box(q);
        }
        let dense_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            let (q, u) = shortcut_by_squaring(&g, &s, 1e-12, 64, Repr::Dense);
            assert_eq!(u, used, "block/dense squaring count diverged");
            std::hint::black_box(q);
        }
        let block_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let speedup = dense_ms / block_ms.max(1e-9);
        println!("{n:>6} {used:>10} {dense_ms:>12.2} {block_ms:>12.2} {speedup:>8.2}x");
        squaring_rows.push(Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("squarings".into(), Json::Num(used as f64)),
            ("dense_ms".into(), Json::Num(dense_ms)),
            ("block_ms".into(), Json::Num(block_ms)),
            ("speedup".into(), Json::Num(speedup)),
        ]));
    }

    // ── Part B: many-sample throughput, prepared vs cold, on a
    // phase-1-dominated configuration (ρ = n/2 + 1 makes phase 1 build
    // the full doubling table and every later phase run leader-local).
    // Trees are asserted bit-identical between the two paths.
    let samples = 6usize;
    let suite: Vec<(&str, Graph)> = if quick {
        vec![("er", er_graph(64, 4300 + 64))]
    } else {
        vec![
            ("er", er_graph(64, 4300 + 64)),
            ("er", er_graph(128, 4300 + 128)),
            ("er", er_graph(256, 4300 + 256)),
            (
                "regular",
                generators::random_regular(64, 4, &mut rng(4400 + 64)),
            ),
            (
                "regular",
                generators::random_regular(128, 4, &mut rng(4400 + 128)),
            ),
            ("petersen", generators::petersen()),
        ]
    };
    println!(
        "\nprepared vs cold, {samples} samples each (FastOracle, ρ = n/2+1, paper ℓ):\n{:<10} {:>6} {:>11} {:>13} {:>9} {:>14} {:>10}",
        "graph", "n", "cold ms", "prepared ms", "speedup", "prepared／s", "identical"
    );
    let mut throughput_rows = Vec::new();
    for (name, g) in &suite {
        let n = g.n();
        let config = SamplerConfig::new()
            .engine(EngineChoice::FastOracle { alpha: ALPHA })
            .walk_length(WalkLength::Paper { epsilon: 1e-2 })
            .rho((n / 2 + 1).max(2))
            .threads(1);
        let sampler = CliqueTreeSampler::new(config);
        let seed = 4500 + n as u64;

        let t = std::time::Instant::now();
        let mut cold_trees = Vec::with_capacity(samples);
        let mut r = rng(seed);
        for _ in 0..samples {
            cold_trees.push(sampler.sample(g, &mut r).expect("connected input").tree);
        }
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = std::time::Instant::now();
        let prepared = sampler.prepare(g).expect("connected input");
        let mut prep_trees = Vec::with_capacity(samples);
        let mut r = rng(seed);
        for _ in 0..samples {
            prep_trees.push(prepared.sample(&mut r).expect("prepared sample").tree);
        }
        let prepared_ms = t.elapsed().as_secs_f64() * 1e3;

        let identical = cold_trees == prep_trees;
        let speedup = cold_ms / prepared_ms.max(1e-9);
        let per_sec = samples as f64 / (prepared_ms / 1e3).max(1e-9);
        println!(
            "{name:<10} {n:>6} {cold_ms:>11.1} {prepared_ms:>13.1} {speedup:>8.2}x {per_sec:>14.2} {identical:>10}"
        );
        assert!(identical, "prepared trees diverged from cold trees");
        throughput_rows.push(Json::Obj(vec![
            ("graph".into(), Json::Str((*name).into())),
            ("n".into(), Json::Num(n as f64)),
            ("samples".into(), Json::Num(samples as f64)),
            ("cold_ms".into(), Json::Num(cold_ms)),
            ("prepared_ms".into(), Json::Num(prepared_ms)),
            ("speedup".into(), Json::Num(speedup)),
            ("prepared_per_sec".into(), Json::Num(per_sec)),
            ("identical".into(), Json::Bool(identical)),
        ]));
    }
    println!(
        "\n(block squaring does 2 n×n multiplies per squaring instead of the dense route's 8-equivalent;\n prepared sampling pays the phase-1 doubling table once instead of once per draw)"
    );

    Json::Obj(vec![
        ("experiment".into(), Json::Str("e18".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("schur_squaring".into(), Json::Arr(squaring_rows)),
        ("throughput".into(), Json::Arr(throughput_rows)),
    ])
}

/// E19 — the adaptive sparse/dense transition-matrix backend: wall-clock
/// and resident matrix bytes for the Dense, Sparse, and Auto backends on
/// sparse graph families, with trees asserted byte-identical across
/// backends. Returns the machine-readable report the harness writes as
/// `BENCH_e19.json` and gates against the committed baseline (the gated
/// metrics — the sparse/dense bytes ratio and wall-clock ratio — are
/// ratios, so the gate is machine-independent).
pub fn e19(quick: bool) -> Json {
    use cct_core::Backend;
    banner(
        "E19",
        "Matrix backends — dense vs sparse vs auto: wall-clock + resident matrix bytes",
    );

    // Per family: (label, graph, walk length). ρ = (n+1)/2 makes phase 1
    // the only top-down phase (it builds the prepared doubling table —
    // the resident allocation the sparse backend shrinks) and every
    // later phase leader-local. Cycles are odd so the bipartite
    // degeneracy fallback never skips the table. Las Vegas extensions
    // absorb the occasional under-budget walk identically on every
    // backend. The quick rows are a strict subset of the full sweep, so
    // a quick CI run always overlaps the committed full baseline.
    let mut suite: Vec<(&str, Graph, u64)> = vec![
        ("cycle", generators::cycle(257), 1 << 14),
        (
            "er",
            generators::erdos_renyi_connected(256, 0.04, &mut rng(4600)),
            1 << 10,
        ),
    ];
    if !quick {
        suite.push(("cycle", generators::cycle(1025), 1 << 16));
        suite.push((
            "er",
            generators::erdos_renyi_connected(1024, 0.01, &mut rng(4601)),
            1 << 11,
        ));
        suite.push((
            "regular",
            generators::random_regular(1024, 3, &mut rng(4602)),
            1 << 11,
        ));
    }
    let samples = 2usize;
    println!(
        "\n{samples} samples each (UnitCost, ρ = (n+1)/2, per-pair placement, Las Vegas):\n\
         {:<8} {:>6} {:>8} {:>12} {:>12} {:>14} {:>8} {:>10}",
        "family", "n", "backend", "prepare ms", "sample ms", "matrix bytes", "repr", "identical"
    );
    let mut rows = Vec::new();
    for (family, g, ell) in &suite {
        let n = g.n();
        let config = |backend: Backend| {
            SamplerConfig::new()
                .engine(EngineChoice::UnitCost)
                .walk_length(WalkLength::Fixed(*ell))
                .rho(n / 2 + 1)
                .variant(cct_core::Variant::LasVegas)
                .placement(Placement::PerPairShuffle)
                .threads(1)
                .backend(backend)
        };
        let seed = 4700 + n as u64;
        let mut reference: Option<Vec<cct_graph::SpanningTree>> = None;
        let mut per_backend: Vec<(String, Json)> = Vec::new();
        let mut dense_bytes = 0usize;
        let mut dense_ms = 0.0f64;
        let mut sparse_bytes = 0usize;
        let mut sparse_ms = 0.0f64;
        let mut all_identical = true;
        for backend in [Backend::Dense, Backend::Sparse, Backend::Auto] {
            let sampler = CliqueTreeSampler::new(config(backend));
            let t = std::time::Instant::now();
            let prepared = sampler.prepare(g).expect("connected input");
            let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
            let bytes = prepared.matrix_bytes();
            let t = std::time::Instant::now();
            let mut trees = Vec::with_capacity(samples);
            let mut r = rng(seed);
            for _ in 0..samples {
                trees.push(prepared.sample(&mut r).expect("prepared sample").tree);
            }
            let sample_ms = t.elapsed().as_secs_f64() * 1e3;
            let identical = match &reference {
                None => {
                    reference = Some(trees);
                    true
                }
                Some(base) => *base == trees,
            };
            all_identical &= identical;
            let repr = format!("{:?}", prepared.repr()).to_lowercase();
            println!(
                "{family:<8} {n:>6} {:>8} {prepare_ms:>12.1} {sample_ms:>12.1} {bytes:>14} {repr:>8} {identical:>10}",
                backend.as_str()
            );
            assert!(identical, "{family}:{n} trees diverged on {backend}");
            if backend == Backend::Dense {
                dense_bytes = bytes;
                dense_ms = prepare_ms + sample_ms;
            }
            if backend == Backend::Sparse {
                sparse_bytes = bytes;
                sparse_ms = prepare_ms + sample_ms;
            }
            per_backend.push((
                backend.as_str().into(),
                Json::Obj(vec![
                    ("prepare_ms".into(), Json::Num(prepare_ms)),
                    ("sample_ms".into(), Json::Num(sample_ms)),
                    ("peak_matrix_bytes".into(), Json::Num(bytes as f64)),
                    ("repr".into(), Json::Str(repr)),
                ]),
            ));
        }
        let bytes_reduction = dense_bytes as f64 / sparse_bytes.max(1) as f64;
        let wall_ratio = sparse_ms / dense_ms.max(1e-9);
        println!(
            "{family:<8} {n:>6}    sparse/dense: bytes ÷{bytes_reduction:.2}, wall-clock ×{wall_ratio:.2}"
        );
        rows.push(Json::Obj(vec![
            ("family".into(), Json::Str((*family).into())),
            ("n".into(), Json::Num(n as f64)),
            ("samples".into(), Json::Num(samples as f64)),
            ("backends".into(), Json::Obj(per_backend)),
            ("bytes_reduction_sparse".into(), Json::Num(bytes_reduction)),
            ("wall_ratio_sparse".into(), Json::Num(wall_ratio)),
            ("trees_identical".into(), Json::Bool(all_identical)),
        ]));
    }
    println!(
        "\n(peak_matrix_bytes = resident prepared state: transition matrix + phase-1 doubling\n\
         table; the sparse backend keeps early levels CSR and promotes at the 2/3-fill memory\n\
         break-even. Trees and ledgers are byte-identical across backends by construction.)"
    );
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e19".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("rows".into(), Json::Arr(rows)),
    ])
}

/// E20 — out-of-core-class sparse scaling: peak resident prepared-state
/// bytes and prepare/sample wall-clock on path/cycle/ER families from
/// n = 2¹⁰ to n = 2²⁰. In-core rows replay E19's shape (ρ = (n+1)/2,
/// Las Vegas) so the lazy doubling table is the resident state and its
/// on-demand materialization is visible as `resident_after_sample >
/// resident_after_prepare`; out-of-core rows cross the
/// `max_table_bytes` escape (2 GiB dense-equivalent by default) and
/// must never allocate Θ(n²) — the experiment asserts every such row
/// stays under n² resident bytes and that per-family peak bytes scale
/// like nnz·log n (within a 2× band). Returns the machine-readable
/// report the harness writes as `BENCH_e20.json`; the gated metrics
/// (resident bytes and their scaling ratio) are deterministic byte
/// counts, so the gate is machine-independent.
pub fn e20(quick: bool) -> Json {
    use cct_core::{Backend, Variant};
    banner(
        "E20",
        "Out-of-core scaling — resident prepared-state bytes and wall-clock, n = 2^10 … 2^20",
    );

    // (family, n, ℓ, in-core?). Out-of-core rows use Monte Carlo with
    // ℓ = 2¹² — Las Vegas would double the budget forever on the big
    // cycles, whose streamed cover walks legitimately exhaust any fixed
    // ℓ; a failed phase falls back to an arbitrary (BFS) tree exactly as
    // Theorem 1's ≤ ε failure path allows, and the row records it. The
    // ER family stops at 2¹⁴: `generators::erdos_renyi_connected` visits
    // all Θ(n²) vertex pairs, so a larger ER row would measure the
    // generator, not the sampler (the cap is logged below). In-core
    // cycles are odd so the bipartite degeneracy fallback never skips
    // the doubling table. Quick rows are a strict subset of the full
    // sweep, so a quick CI run always overlaps the committed baseline.
    let mut suite: Vec<(&str, usize, u64, bool)> = vec![
        ("cycle", 257, 1 << 14, true),
        ("path", 1 << 14, 1 << 12, false),
        ("cycle", 1 << 14, 1 << 12, false),
        ("er", 1 << 14, 1 << 12, false),
        ("path", 1 << 17, 1 << 12, false),
        ("cycle", 1 << 17, 1 << 12, false),
    ];
    if !quick {
        suite.push(("path", 1 << 10, 1 << 14, true));
        suite.push(("cycle", 1025, 1 << 16, true));
        suite.push(("er", 1 << 10, 1 << 13, true));
        suite.push(("path", 1 << 20, 1 << 12, false));
        suite.push(("cycle", 1 << 20, 1 << 12, false));
    }
    let build = |family: &str, n: usize| -> Graph {
        match family {
            "path" => generators::path(n),
            "cycle" => generators::cycle(n),
            "er" => generators::erdos_renyi_connected(n, 16.0 / n as f64, &mut rng(4800)),
            other => unreachable!("unknown family {other}"),
        }
    };
    let config = |backend: Backend, n: usize, ell: u64, in_core: bool| {
        let base = SamplerConfig::new()
            .engine(EngineChoice::UnitCost)
            .walk_length(WalkLength::Fixed(ell))
            .placement(Placement::PerPairShuffle)
            .threads(1)
            .backend(backend);
        if in_core {
            base.rho(n / 2 + 1).variant(Variant::LasVegas)
        } else {
            base.rho(((n as f64).sqrt() as usize).max(2))
                .variant(Variant::MonteCarlo)
        }
    };
    println!(
        "\n(UnitCost, per-pair placement; in-core rows: ρ = (n+1)/2, Las Vegas;\n\
         out-of-core rows: ρ = √n, Monte Carlo, ℓ = 2^12)\n\
         {:<7} {:>8} {:>12} {:>11} {:>10} {:>14} {:>14} {:>14} {:>6} {:>5}",
        "family",
        "n",
        "regime",
        "prepare ms",
        "sample ms",
        "bytes(prep)",
        "bytes(sample)",
        "method",
        "fail",
        "same"
    );
    // (family, n) → (peak sparse-backend resident bytes, transition nnz).
    let mut peaks: HashMap<(&str, usize), (usize, usize)> = HashMap::new();
    let mut rows = Vec::new();
    for &(family, n, ell, in_core) in &suite {
        let g = build(family, n);
        let nnz = 2 * g.m();
        let seed = 4800 + n as u64;
        let mut reference: Option<SpanningTree> = None;
        let mut per_backend: Vec<(String, Json)> = Vec::new();
        let mut canonical = (0.0f64, 0.0f64, 0usize, 0usize, String::new(), false);
        let mut all_identical = true;
        for backend in [Backend::Dense, Backend::Sparse] {
            let sampler = CliqueTreeSampler::new(config(backend, n, ell, in_core));
            let t = std::time::Instant::now();
            let prepared = sampler.prepare(&g).expect("connected input");
            let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
            let before = prepared.matrix_bytes();
            let t = std::time::Instant::now();
            let report = prepared.sample(&mut rng(seed)).expect("prepared sample");
            let sample_ms = t.elapsed().as_secs_f64() * 1e3;
            let after = prepared.matrix_bytes();
            let method = report
                .phases
                .first()
                .map(|p| p.method.to_string())
                .unwrap_or_else(|| "-".into());
            let failed = report.monte_carlo_failure;
            let identical = match &reference {
                None => {
                    reference = Some(report.tree.clone());
                    true
                }
                Some(base) => *base == report.tree,
            };
            all_identical &= identical;
            assert!(identical, "{family}:{n} trees diverged on {backend:?}");
            if !in_core {
                // The tentpole invariant: past the escape no run may hold
                // a Θ(n²) allocation (n² *bytes* is already 8× below one
                // dense n × n matrix).
                assert!(
                    after < n * n,
                    "{family}:{n} out-of-core row resident {after} bytes ≥ n²"
                );
            }
            if backend == Backend::Sparse {
                canonical = (prepare_ms, sample_ms, before, after, method.clone(), failed);
                peaks.insert((family, n), (before.max(after), nnz));
            }
            per_backend.push((
                format!("{backend:?}").to_lowercase(),
                Json::Obj(vec![
                    ("prepare_ms".into(), Json::Num(prepare_ms)),
                    ("sample_ms".into(), Json::Num(sample_ms)),
                    ("resident_after_prepare".into(), Json::Num(before as f64)),
                    ("resident_after_sample".into(), Json::Num(after as f64)),
                    ("method".into(), Json::Str(method.clone())),
                    ("mc_failure".into(), Json::Bool(failed)),
                ]),
            ));
            println!(
                "{family:<7} {n:>8} {:>12} {prepare_ms:>11.1} {sample_ms:>10.1} {before:>14} {after:>14} {method:>14} {failed:>6} {identical:>5}",
                if in_core { "in-core" } else { "out-of-core" },
            );
        }
        let (prepare_ms, sample_ms, before, after, method, failed) = canonical;
        if family == "path" && !in_core {
            // A connected graph with m = n − 1 is its own spanning tree:
            // the escape answers exactly, no walk, no failure.
            assert_eq!(method, "unique-tree", "path:{n} missed the tree escape");
            assert!(!failed);
        }
        if family == "cycle" && in_core {
            // The lazy PowerTable contract made visible: preparing
            // materializes only level 0, the first draw fills the rest.
            assert!(
                after > before,
                "cycle:{n} in-core table did not materialize lazily"
            );
        }
        rows.push(Json::Obj(vec![
            ("family".into(), Json::Str(family.into())),
            ("n".into(), Json::Num(n as f64)),
            (
                "regime".into(),
                Json::Str(if in_core { "in-core" } else { "out-of-core" }.into()),
            ),
            ("ell".into(), Json::Num(ell as f64)),
            ("nnz".into(), Json::Num(nnz as f64)),
            ("prepare_ms".into(), Json::Num(prepare_ms)),
            ("sample_ms".into(), Json::Num(sample_ms)),
            ("resident_after_prepare".into(), Json::Num(before as f64)),
            ("resident_after_sample".into(), Json::Num(after as f64)),
            (
                "peak_resident_bytes".into(),
                Json::Num(before.max(after) as f64),
            ),
            ("method".into(), Json::Str(method)),
            ("mc_failure".into(), Json::Bool(failed)),
            ("trees_identical".into(), Json::Bool(all_identical)),
            ("backends".into(), Json::Obj(per_backend)),
        ]));
    }

    // Per-family scaling of the out-of-core peak: resident bytes must
    // track nnz·log n (the CSR footprint plus index overhead), not n².
    let mut scaling = Vec::new();
    println!();
    for family in ["path", "cycle", "er"] {
        let mut ns: Vec<usize> = suite
            .iter()
            .filter(|&&(f, _, _, in_core)| f == family && !in_core)
            .map(|&(_, n, _, _)| n)
            .collect();
        ns.sort_unstable();
        for pair in ns.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let (peak_lo, nnz_lo) = peaks[&(family, lo)];
            let (peak_hi, nnz_hi) = peaks[&(family, hi)];
            let bytes_ratio = peak_hi as f64 / peak_lo.max(1) as f64;
            let nnz_log_ratio =
                (nnz_hi as f64 * (hi as f64).log2()) / (nnz_lo as f64 * (lo as f64).log2());
            println!(
                "{family}: n {lo} → {hi}: peak bytes ×{bytes_ratio:.2} (nnz·log n ×{nnz_log_ratio:.2})"
            );
            assert!(
                bytes_ratio <= 2.0 * nnz_log_ratio && bytes_ratio >= nnz_log_ratio / 2.0,
                "{family}: {lo}→{hi} peak-bytes ratio {bytes_ratio:.2} outside 2x of nnz·log ratio {nnz_log_ratio:.2}"
            );
            scaling.push(Json::Obj(vec![
                ("family".into(), Json::Str(family.into())),
                ("n_lo".into(), Json::Num(lo as f64)),
                ("n_hi".into(), Json::Num(hi as f64)),
                ("bytes_ratio".into(), Json::Num(bytes_ratio)),
                ("nnz_log_ratio".into(), Json::Num(nnz_log_ratio)),
            ]));
        }
    }
    println!(
        "\n(resident bytes = transition matrix + materialized doubling levels + cached\n\
         ledger — the same accounting `PreparedSampler::matrix_bytes` and the serving\n\
         cache report. ER rows stop at n = 2^14: the Θ(n²) ER generator, not the\n\
         sampler, dominates beyond that. Trees are byte-identical across backends.)"
    );
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e20".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("rows".into(), Json::Arr(rows)),
        ("scaling".into(), Json::Arr(scaling)),
    ])
}

/// E21 — weighted sampling & MST on the `-w` spec families: round
/// totals (deterministic, gated against `BENCH_e21.json`) and
/// wall-clock (reported, never gated) for the Borůvka `MstEngine` and
/// the weight-proportional Theorem 1 sampler on `er-w` / `grid-w`
/// graphs. Every row also cross-validates the MST edge set against
/// sequential Kruskal and re-runs the MST at 4 workers, so a row can
/// only reach the JSON if the distributed answer is right *and*
/// worker-invariant.
pub fn e21(quick: bool) -> Json {
    use cct_core::MstEngine;
    banner(
        "E21",
        "Weighted graphs — MST and weight-proportional thm1 round totals on -w spec families",
    );

    // (family, spec, seed). Quick rows are a strict subset of the full
    // sweep so a quick CI run always overlaps the committed baseline.
    let mut suite: Vec<(&str, &str)> = vec![("er-w", "er-w:64:0.2"), ("grid-w", "grid-w:8x8")];
    if !quick {
        suite.push(("er-w", "er-w:128:0.12"));
        suite.push(("grid-w", "grid-w:12x12"));
        suite.push(("er-w", "er-w:256:0.06"));
    }
    println!(
        "\n(MST: Borůvka MachineProgram, workers 1 and 4 must agree; thm1: UnitCost,\n\
         ℓ = 2^12, seed 4900 + n. Round totals are deterministic — the gated metric;\n\
         wall-clock is reported only.)\n\
         {:<8} {:>6} {:>7} {:>11} {:>7} {:>10} {:>8} {:>12} {:>9} {:>5}",
        "family",
        "n",
        "m",
        "mst rounds",
        "phases",
        "mst weight",
        "mst ms",
        "thm1 rounds",
        "thm1 ms",
        "fail"
    );
    let mut rows = Vec::new();
    for &(family, spec) in &suite {
        // The same deterministic recipe the serving layer uses: the
        // graph is a pure function of the spec string (the `-w` weights
        // are RNG-independent; the fixed seed pins the ER topology).
        let g = cct_graph::spec::parse_spec(spec, &mut rng(4900)).expect("valid spec");
        let (n, m) = (g.n(), g.m());
        let seed = 4900 + n as u64;

        let t = std::time::Instant::now();
        let mst = MstEngine::new().run(&g).expect("connected input");
        let mst_ms = t.elapsed().as_secs_f64() * 1e3;
        // Correctness before speed: the distributed edge set must equal
        // sequential Kruskal's, and a 4-worker rerun must be identical
        // (tree AND ledger) — otherwise the gated rounds mean nothing.
        let reference = cct_walks::kruskal_mst(&g).expect("connected input");
        assert_eq!(
            mst.tree.edges(),
            reference.edges(),
            "{spec}: Borůvka diverged from Kruskal"
        );
        let rerun = MstEngine::new()
            .workers(cct_core::Workers::Fixed(4))
            .run(&g)
            .expect("connected input");
        assert_eq!(rerun.tree, mst.tree, "{spec}: MST not worker-invariant");
        assert_eq!(
            rerun.rounds, mst.rounds,
            "{spec}: MST ledger not worker-invariant"
        );
        let mst_rounds = mst.rounds.total_rounds();

        let config = SamplerConfig::new()
            .engine(EngineChoice::UnitCost)
            .walk_length(WalkLength::Fixed(1 << 12))
            .threads(1);
        let t = std::time::Instant::now();
        let thm1 = run_once(&g, config, seed);
        let thm1_ms = t.elapsed().as_secs_f64() * 1e3;
        let thm1_rounds = thm1.total_rounds();
        let failed = thm1.monte_carlo_failure;

        println!(
            "{family:<8} {n:>6} {m:>7} {mst_rounds:>11} {:>7} {:>10} {mst_ms:>8.1} {thm1_rounds:>12} {thm1_ms:>9.1} {failed:>5}",
            mst.phases, mst.total_weight,
        );
        rows.push(Json::Obj(vec![
            ("family".into(), Json::Str(family.into())),
            ("spec".into(), Json::Str(spec.into())),
            ("n".into(), Json::Num(n as f64)),
            ("m".into(), Json::Num(m as f64)),
            ("mst_rounds".into(), Json::Num(mst_rounds as f64)),
            ("mst_phases".into(), Json::Num(mst.phases as f64)),
            ("mst_weight".into(), Json::Num(mst.total_weight)),
            ("mst_ms".into(), Json::Num(mst_ms)),
            ("thm1_rounds".into(), Json::Num(thm1_rounds as f64)),
            ("thm1_ms".into(), Json::Num(thm1_ms)),
            ("mc_failure".into(), Json::Bool(failed)),
        ]));
    }
    println!(
        "\n(every row passed MST == Kruskal and the 1-vs-4-worker identity before being\n\
         emitted; `harness --baseline BENCH_e21.json` gates the two round columns)"
    );
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e21".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("rows".into(), Json::Arr(rows)),
    ])
}

/// E22 — the linalg microkernels: the 8-lane panel kernel vs the
/// pre-panel reference (bit-identical by construction, so only
/// wall-clock differs), and work-stealing vs fixed row shards on a
/// skewed-degree sparse input. Returns the machine-readable report the
/// harness writes as `BENCH_e22.json`; the gated metrics are **same-run
/// speedup ratios** (new/old measured on the same machine in the same
/// process), so the gate is machine-independent.
pub fn e22(quick: bool) -> Json {
    use cct_linalg::{CsrMatrix, Matrix};
    banner(
        "E22",
        "Microkernels — panel f64 vs reference, work stealing vs fixed shards",
    );

    // Deterministic dense test matrix: a hash keeps entries spread over
    // (0, 1) with no structure the kernels could exploit.
    fn hashed(i: usize, j: usize, salt: u64) -> f64 {
        let mut h = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(j as u64)
            .wrapping_add(salt);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % 1_000_000) as f64 / 1_000_000.0 + 1e-6
    }
    fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    }

    // ── Part A: dense n×n product — panel kernel vs the pre-panel
    // reference loop. The panel kernel is asserted bit-identical to the
    // reference before timing counts.
    let dense_ns: &[usize] = if quick { &[256] } else { &[256, 384, 512] };
    let reps = 3usize;
    println!(
        "\ndense n×n, best of {reps} (panel == reference asserted bitwise):\n{:>6} {:>10} {:>10} {:>9}",
        "n", "ref ms", "panel ms", "panel ×"
    );
    let mut dense_rows = Vec::new();
    for &n in dense_ns {
        let a = Matrix::from_fn(n, n, |i, j| hashed(i, j, 5000));
        let b = Matrix::from_fn(n, n, |i, j| hashed(i, j, 5001));
        let mut out_ref = Matrix::zeros(n, n);
        let mut out_new = Matrix::zeros(n, n);
        a.matmul_into_ref(&b, &mut out_ref);
        a.matmul_into(&b, &mut out_new);
        assert_eq!(
            out_ref.as_slice(),
            out_new.as_slice(),
            "panel kernel diverged from the reference at n = {n}"
        );
        let mut scratch = Matrix::zeros(n, n);
        let ref_ms = time_best(reps, || a.matmul_into_ref(&b, &mut scratch));
        let panel_ms = time_best(reps, || a.matmul_into(&b, &mut scratch));
        let panel_speedup = ref_ms / panel_ms.max(1e-9);
        println!("{n:>6} {ref_ms:>10.2} {panel_ms:>10.2} {panel_speedup:>8.2}x");
        dense_rows.push(Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("ref_ms".into(), Json::Num(ref_ms)),
            ("panel_ms".into(), Json::Num(panel_ms)),
            ("panel_speedup".into(), Json::Num(panel_speedup)),
        ]));
    }

    // ── Part B: CSR × dense-RHS — the LANES-panel row kernel vs the
    // pre-panel scalar loop (reimplemented verbatim below; both
    // accumulate per output entry over stored entries in increasing
    // index, so they are bit-identical). Banded inputs keep every row's
    // support small, the shape the sparse pipeline feeds these kernels.
    fn csr_dense_rhs_scalar(m: &CsrMatrix, rhs: &Matrix) -> Matrix {
        let (rows, mid) = m.shape();
        let cols = rhs.cols();
        let mut out = Matrix::zeros(rows, cols);
        assert_eq!(mid, rhs.rows());
        for i in 0..rows {
            let (cs, vs) = m.row(i);
            let out_row = out.row_mut(i);
            for (&k, &v) in cs.iter().zip(vs) {
                let b_row = rhs.row(k as usize);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += v * bv;
                }
            }
        }
        out
    }
    let sparse_ns: &[usize] = if quick { &[1024] } else { &[1024, 2048] };
    let band = 6usize;
    println!(
        "\nbanded CSR ({band} nnz/row) × dense n×256 RHS, best of {reps}:\n{:>6} {:>10} {:>10} {:>9}",
        "n", "scalar ms", "panel ms", "panel ×"
    );
    let mut sparse_rows = Vec::new();
    for &n in sparse_ns {
        let mut builder = CsrMatrix::builder(n, n);
        for i in 0..n {
            let mut cols: Vec<usize> = (0..band).map(|d| (i + d * 7 + 1) % n).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                builder.push(c, hashed(i, c, 5002));
            }
            builder.finish_row();
        }
        let m = builder.build();
        let rhs = Matrix::from_fn(n, 256, |i, j| hashed(i, j, 5003));
        let reference = csr_dense_rhs_scalar(&m, &rhs);
        let panel = m.matmul_dense_rhs(&rhs, 1);
        assert_eq!(
            reference.as_slice(),
            panel.as_slice(),
            "sparse panel kernel diverged from the scalar loop at n = {n}"
        );
        let scalar_ms = time_best(reps, || {
            std::hint::black_box(csr_dense_rhs_scalar(&m, &rhs));
        });
        let panel_ms = time_best(reps, || {
            std::hint::black_box(m.matmul_dense_rhs(&rhs, 1));
        });
        let panel_speedup = scalar_ms / panel_ms.max(1e-9);
        println!("{n:>6} {scalar_ms:>10.2} {panel_ms:>10.2} {panel_speedup:>8.2}x");
        sparse_rows.push(Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("scalar_ms".into(), Json::Num(scalar_ms)),
            ("panel_ms".into(), Json::Num(panel_ms)),
            ("panel_speedup".into(), Json::Num(panel_speedup)),
        ]));
    }

    // ── Part C: work-stealing vs fixed row shards at 4 threads on a
    // skewed-degree CSR input (one dense row, the rest banded) — the
    // shape where fixed sharding strands one worker with nearly all the
    // work. Both schedules write disjoint rows of the same product and
    // are asserted bit-identical to the sequential kernel; wall-clock
    // is reported but never gated (container core counts vary).
    let n = if quick { 1024 } else { 2048 };
    let threads = 4usize;
    let mut builder = CsrMatrix::builder(n, n);
    for d in 0..n {
        builder.push(d, hashed(0, d, 5004)); // row 0: fully dense
    }
    builder.finish_row();
    for i in 1..n {
        let mut cols: Vec<usize> = (0..4).map(|d| (i + d * 11 + 1) % n).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            builder.push(c, hashed(i, c, 5005));
        }
        builder.finish_row();
    }
    let skew = builder.build();
    let rhs = Matrix::from_fn(n, 256, |i, j| hashed(i, j, 5006));
    let sequential = skew.matmul_dense_rhs(&rhs, 1);
    let stealing = skew.matmul_dense_rhs(&rhs, threads);
    let fixed = skew.matmul_dense_rhs_fixed(&rhs, threads);
    assert_eq!(
        sequential.as_slice(),
        stealing.as_slice(),
        "work stealing changed the product"
    );
    assert_eq!(
        sequential.as_slice(),
        fixed.as_slice(),
        "fixed sharding changed the product"
    );
    let stealing_ms = time_best(reps, || {
        std::hint::black_box(skew.matmul_dense_rhs(&rhs, threads));
    });
    let fixed_ms = time_best(reps, || {
        std::hint::black_box(skew.matmul_dense_rhs_fixed(&rhs, threads));
    });
    let steal_ratio = fixed_ms / stealing_ms.max(1e-9);
    println!(
        "\nskewed CSR (row 0 dense, {n} rows) × dense RHS at {threads} threads, best of {reps}:\n\
         fixed shards {fixed_ms:.2} ms, work stealing {stealing_ms:.2} ms — ×{steal_ratio:.2} \
         (reported, not gated)"
    );

    println!(
        "\n(the panel speedups are same-run ratios — `harness --baseline BENCH_e22.json`\n\
         gates them machine-independently; wall-clock columns are reported only)"
    );
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e22".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("dense".into(), Json::Arr(dense_rows)),
        ("sparse".into(), Json::Arr(sparse_rows)),
        (
            "stealing".into(),
            Json::Obj(vec![
                ("n".into(), Json::Num(n as f64)),
                ("threads".into(), Json::Num(threads as f64)),
                ("fixed_ms".into(), Json::Num(fixed_ms)),
                ("stealing_ms".into(), Json::Num(stealing_ms)),
                ("steal_ratio".into(), Json::Num(steal_ratio)),
            ]),
        ),
    ])
}

/// AUX — Monte Carlo failure-rate probe: how often the ℓ-budget fails at
/// small ℓ.
pub fn failure_probe(quick: bool) {
    banner(
        "AUX",
        "Monte Carlo failure probability vs walk-length budget ℓ",
    );
    let trials = if quick { 600 } else { 2_000 };
    let g = generators::lollipop(8, 8);
    println!("{:>8} {:>10} {:>12}", "ell", "failures", "rate");
    for shift in [6u32, 8, 10, 12, 14] {
        let config = SamplerConfig::new()
            .walk_length(WalkLength::Fixed(1 << shift))
            .engine(EngineChoice::UnitCost);
        let sampler = CliqueTreeSampler::new(config);
        let mut r = rng(2200 + shift as u64);
        let failures = (0..trials)
            .filter(|_| sampler.sample(&g, &mut r).unwrap().monte_carlo_failure)
            .count();
        println!(
            "{:>8} {failures:>10} {:>12.4}",
            1u64 << shift,
            failures as f64 / trials as f64
        );
    }
    println!("\n(the paper's ℓ = Θ̃(n³) pushes this to ≤ ε; the sweep shows the knee)");
}
