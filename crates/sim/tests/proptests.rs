//! Property-based tests for the Congested Clique simulator: routing never
//! loses, duplicates, or misdelivers messages, and costs follow the
//! Lenzen load formula exactly.

use cct_sim::{Clique, CostCategory, Envelope, FastOracleEngine, MatMulEngine, SemiringEngine};
use proptest::prelude::*;

/// Strategy: a random message pattern on an n-machine clique.
fn message_pattern() -> impl Strategy<Value = (usize, Vec<(usize, usize, usize)>)> {
    (2usize..=12).prop_flat_map(|n| {
        let msgs = proptest::collection::vec((0..n, 0..n, 1usize..=5), 0..60);
        (Just(n), msgs)
    })
}

proptest! {
    #[test]
    fn route_delivers_everything_exactly_once((n, msgs) in message_pattern()) {
        let mut clique = Clique::new(n);
        let mut outboxes: Vec<Vec<Envelope<usize>>> = (0..n).map(|_| Vec::new()).collect();
        for (id, &(src, dst, words)) in msgs.iter().enumerate() {
            outboxes[src].push(Envelope::new(dst, words, id));
        }
        let inboxes = clique.route(CostCategory::Routing, outboxes);
        // Every message arrives exactly once, at the right machine, with
        // the right source.
        let mut seen = vec![false; msgs.len()];
        for (machine, inbox) in inboxes.iter().enumerate() {
            for env in inbox {
                let (src, dst, words) = msgs[env.payload];
                prop_assert_eq!(machine, dst);
                prop_assert_eq!(env.from, src);
                prop_assert_eq!(env.words, words);
                prop_assert!(!seen[env.payload], "duplicate delivery");
                seen[env.payload] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn route_cost_matches_load_formula((n, msgs) in message_pattern()) {
        let mut clique = Clique::new(n);
        let mut outboxes: Vec<Vec<Envelope<usize>>> = (0..n).map(|_| Vec::new()).collect();
        let mut send = vec![0u64; n];
        let mut recv = vec![0u64; n];
        for (id, &(src, dst, words)) in msgs.iter().enumerate() {
            outboxes[src].push(Envelope::new(dst, words, id));
            send[src] += words as u64;
            recv[dst] += words as u64;
        }
        clique.route(CostCategory::Routing, outboxes);
        let max_load = send.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        let expect = Clique::rounds_for_load(n, max_load);
        prop_assert_eq!(clique.ledger().total_rounds(), expect);
        let total_words: u64 = msgs.iter().map(|&(_, _, w)| w as u64).sum();
        prop_assert_eq!(clique.ledger().total_words(), total_words);
    }

    #[test]
    fn broadcast_reaches_all_in_order(n in 2usize..=10, items in proptest::collection::vec(any::<u32>(), 1..40)) {
        let mut clique = Clique::new(n);
        let got = clique.broadcast(CostCategory::Broadcast, n - 1, items.clone(), 1);
        prop_assert_eq!(got, items);
    }

    #[test]
    fn engines_agree((n, seed) in (2usize..=20, any::<u64>())) {
        use cct_linalg::{normalize_rows, Matrix};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>());
        let mut b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>());
        normalize_rows(&mut a);
        normalize_rows(&mut b);
        let local = a.matmul(&b);
        let (a, b) = (a.into(), b.into());
        let mut c1 = Clique::new(n);
        let mut c2 = Clique::new(n);
        let p1 = SemiringEngine::new(1).multiply(&mut c1, &a, &b).into_dense();
        let p2 = FastOracleEngine::default().multiply(&mut c2, &a, &b).into_dense();
        prop_assert!(p1.max_abs_diff(&p2) < 1e-12);
        prop_assert!(p1.max_abs_diff(&local) < 1e-12);
    }

    #[test]
    fn rounds_for_multiply_matches_measured(n in 2usize..=30) {
        // The analytic charge used for out-of-band multiplies must agree
        // with what a real multiply through the engine would cost.
        use cct_linalg::{Matrix, PMatrix};
        let engine = SemiringEngine::new(1);
        let claimed = engine.rounds_for_multiply(n);
        let mut clique = Clique::new(n);
        let id = PMatrix::Dense(Matrix::identity(n));
        engine.multiply(&mut clique, &id, &id);
        prop_assert_eq!(claimed, clique.ledger().total_rounds());
    }
}
