//! Property-based tests on the core invariants (proptest), spanning
//! crates: factor algebra, inference consistency, LCS laws, CIDR
//! containment, filter monotonicity, sanitizer idempotence, BHR expiry.

use attack_tagger::prelude::*;
use factorgraph::sumproduct::{brute_force_marginals, run, BpOptions};
use proptest::prelude::*;

// ---------- factor algebra ----------

fn arb_factor(max_card: usize) -> impl Strategy<Value = Factor> {
    (1usize..=3, 1usize..=max_card).prop_flat_map(|(nvars, _)| {
        proptest::collection::vec(1usize..=3, nvars).prop_flat_map(move |cards| {
            let size: usize = cards.iter().product();
            proptest::collection::vec(0.01f64..10.0, size).prop_map(move |table| {
                let vars = (0..cards.len() as u32).map(factorgraph::VarId).collect();
                Factor::new(vars, cards.clone(), table)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Product with a uniform factor preserves values.
    #[test]
    fn factor_product_identity(f in arb_factor(3)) {
        let ones = Factor::uniform(f.vars().to_vec(), f.cards().to_vec());
        let p = f.product(&ones);
        for (a, b) in p.table().iter().zip(f.table()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Marginalizing to the empty scope sums the whole table, regardless
    /// of intermediate marginalization order.
    #[test]
    fn marginalization_is_order_independent(f in arb_factor(3)) {
        let total: f64 = f.table().iter().sum();
        let direct = f.marginalize(&[]).table()[0];
        prop_assert!((direct - total).abs() < 1e-9 * total.max(1.0));
        if f.vars().len() >= 2 {
            let first = f.vars()[0];
            let step = f.marginalize(&f.vars()[1..]).marginalize(&[]);
            prop_assert!((step.table()[0] - total).abs() < 1e-9 * total.max(1.0));
            let _ = first;
        }
    }

    /// Reduction then summation equals slicing the sum.
    #[test]
    fn reduce_is_a_slice(f in arb_factor(3)) {
        let var = f.vars()[0];
        let card = f.cards()[0];
        let slices: f64 = (0..card)
            .map(|v| f.reduce(var, v).marginalize(&[]).table()[0])
            .sum();
        let total: f64 = f.table().iter().sum();
        prop_assert!((slices - total).abs() < 1e-9 * total.max(1.0));
    }
}

// ---------- inference consistency ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random chains, BP == brute force == forward-backward.
    #[test]
    fn chain_inference_agreement(
        seed in 0u64..1_000,
        len in 1usize..6,
    ) {
        let mut rng = SimRng::seed(seed);
        let s = 3usize;
        let o = 4usize;
        let dirich = |rng: &mut SimRng, n: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / sum).collect()
        };
        let prior = dirich(&mut rng, s);
        let trans: Vec<f64> = (0..s).flat_map(|_| dirich(&mut rng, s)).collect();
        let emit: Vec<f64> = (0..s).flat_map(|_| dirich(&mut rng, o)).collect();
        let m = ChainModel::new(s, o, prior, trans, emit);
        let obs: Vec<usize> = (0..len).map(|_| rng.index(o)).collect();

        let fb = m.posteriors(&obs);
        let g = m.to_factor_graph(&obs);
        let bp = run(&g, &BpOptions::default());
        let exact = brute_force_marginals(&g);
        for t in 0..len {
            for st in 0..s {
                prop_assert!((fb[t][st] - exact[t][st]).abs() < 1e-6,
                    "fb vs exact at t={t} s={st}");
                prop_assert!((bp.marginals[t][st] - exact[t][st]).abs() < 1e-6,
                    "bp vs exact at t={t} s={st}");
            }
        }
        // Viterbi path probability is achievable (matches joint eval).
        let (path, logp) = m.viterbi(&obs);
        let mut p = m.prior()[path[0]] * m.emit(path[0], obs[0]);
        for t in 1..len {
            p *= m.trans(path[t - 1], path[t]) * m.emit(path[t], obs[t]);
        }
        prop_assert!((p.ln() - logp).abs() < 1e-9);
    }
}

// ---------- LCS laws ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lcs_laws(a in proptest::collection::vec(0u8..6, 0..24),
                b in proptest::collection::vec(0u8..6, 0..24)) {
        use mining::{is_subsequence, lcs, lcs_length};
        let l = lcs_length(&a, &b);
        // Symmetry.
        prop_assert_eq!(l, lcs_length(&b, &a));
        // Bounds.
        prop_assert!(l <= a.len().min(b.len()));
        // Reconstruction consistency.
        let s = lcs(&a, &b);
        prop_assert_eq!(s.len(), l);
        prop_assert!(is_subsequence(&s, &a));
        prop_assert!(is_subsequence(&s, &b));
        // Self-LCS is identity.
        prop_assert_eq!(lcs_length(&a, &a), a.len());
    }
}

// ---------- CIDR containment ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cidr_laws(base in 0u32..=u32::MAX, prefix in 0u8..=32, idx in 0u64..4_096) {
        let cidr = Cidr::new(std::net::Ipv4Addr::from(base), prefix);
        // Every nth address is contained.
        let i = idx % cidr.size();
        prop_assert!(cidr.contains(cidr.nth(i)));
        // Sub-blocks are covered.
        if prefix <= 24 {
            let sub = cidr.subblock(idx % (1 << (24u8.saturating_sub(prefix).min(24))).max(1), 24.max(prefix));
            prop_assert!(cidr.covers(&sub));
        }
    }
}

// ---------- entity keys ----------

/// Every property `EntityKey` promises to share with the `String` of the
/// same text: equality, order (which sorts campaign members), hash,
/// `Display`, `Debug`, `Deref` and the conversion back.
fn assert_key_matches_string(a: &str, b: &str) {
    use alertlib::alert::EntityKey;
    use std::hash::{BuildHasher, RandomState};
    let (ka, kb) = (EntityKey::from(a), EntityKey::from(b));
    let (sa, sb) = (a.to_string(), b.to_string());
    assert_eq!(ka == kb, sa == sb, "eq {a:?} {b:?}");
    assert_eq!(ka.cmp(&kb), sa.cmp(&sb), "cmp {a:?} {b:?}");
    assert_eq!(
        ka.partial_cmp(&kb),
        sa.partial_cmp(&sb),
        "partial_cmp {a:?} {b:?}"
    );
    let hasher = RandomState::new();
    assert_eq!(hasher.hash_one(&ka), hasher.hash_one(&sa), "hash {a:?}");
    assert_eq!(ka.to_string(), sa, "Display");
    assert_eq!(
        format!("{ka:>48}|{ka:.3}"),
        format!("{sa:>48}|{sa:.3}"),
        "padded Display"
    );
    assert_eq!(format!("{ka:?}"), format!("{sa:?}"), "Debug");
    assert_eq!(&*ka, a, "Deref");
    assert_eq!(ka, a, "eq &str");
    assert_eq!(String::from(ka), sa, "into String");
}

/// `s` cut to at most `len` bytes, at a char boundary.
fn cut(s: &str, len: usize) -> &str {
    let mut end = len.min(s.len());
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[test]
fn entity_key_matches_string_at_the_inline_capacity() {
    const CAP: usize = alertlib::alert::EntityKey::INLINE_CAP;
    let mut keys: Vec<String> = [0, 1, CAP - 1, CAP, CAP + 1, 2 * CAP]
        .iter()
        .map(|&n| "u".repeat(n))
        .collect();
    // Multi-byte chars that end exactly at, or straddle, the capacity.
    for ch in ['é', '€', '😀'] {
        for pad in CAP.saturating_sub(5)..=CAP {
            keys.push(format!("{}{ch}", "a".repeat(pad)));
        }
    }
    keys.push(format!("user:{}", "x".repeat(CAP - 5)));
    keys.push(format!("user:{}", "x".repeat(CAP - 4)));
    for a in &keys {
        for b in &keys {
            assert_key_matches_string(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random keys around the inline capacity, ASCII and multi-byte,
    /// compared with each other, their prefixes and their extensions.
    #[test]
    fn entity_key_matches_string(a in "[a-z:.0-9é€😀]{0,40}", b in "[a-z:.é€😀]{0,12}", cap in 0usize..48) {
        let candidates = [
            a.clone(),
            b.clone(),
            format!("{a}{b}"),
            cut(&a, cap).to_string(),
            format!("{}{b}", cut(&a, cap)),
        ];
        for x in &candidates {
            for y in &candidates {
                assert_key_matches_string(x, y);
            }
        }
    }
}

// ---------- filter monotonicity ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scan filter never admits more than it sees, never suppresses
    /// non-noise alerts, and admitted+suppressed == seen.
    #[test]
    fn filter_accounting(kinds in proptest::collection::vec(0usize..alertlib::AlertKind::COUNT, 1..200)) {
        let mut filter = ScanFilter::default();
        let mut admitted = 0u64;
        for (i, k) in kinds.iter().enumerate() {
            let kind = AlertKind::from_index(*k);
            let a = alertlib::Alert::new(
                SimTime::from_secs(i as u64),
                kind,
                Entity::Address("9.9.9.9".parse().unwrap()),
            );
            let ok = filter.admit(&a);
            if ok {
                admitted += 1;
            }
            use alertlib::Severity::*;
            if !matches!(kind.severity(), Noise | Attempt) {
                prop_assert!(ok, "non-dedupable severity must always pass");
            }
        }
        let s = filter.stats();
        prop_assert_eq!(s.admitted, admitted);
        prop_assert_eq!(s.seen, s.admitted + s.suppressed);
    }
}

// ---------- sanitizer idempotence ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sanitize_idempotent(input in "[ -~]{0,80}") {
        let cfg = alertlib::SanitizeConfig::default();
        let once = alertlib::sanitize(&cfg, &input);
        let twice = alertlib::sanitize(&cfg, &once);
        prop_assert_eq!(&once, &twice, "sanitize must be idempotent");
    }

    /// No full IPv4 literal survives sanitization.
    #[test]
    fn sanitize_kills_ips(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 1u8..=255) {
        let cfg = alertlib::SanitizeConfig::default();
        let msg = format!("conn from {a}.{b}.{c}.{d} closed");
        let out = alertlib::sanitize(&cfg, &msg);
        prop_assert!(out.contains("xxx.yyy"), "expected mask in {out}");
    }
}

// ---------- BHR expiry ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bhr_blocks_expire_exactly(ttl_secs in 1u64..100_000, probe in 0u64..200_000) {
        let mut table = bhr::NullRouteTable::new();
        let addr: std::net::Ipv4Addr = "10.1.2.3".parse().unwrap();
        table.block(addr, "p", SimTime::from_secs(0), Some(SimDuration::from_secs(ttl_secs)));
        let blocked = table.is_blocked(addr, SimTime::from_secs(probe));
        prop_assert_eq!(blocked, probe < ttl_secs);
    }
}

// ---------- quadtree approximation ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// θ=0 Barnes–Hut equals the exact O(n²) force for random layouts.
    #[test]
    fn quadtree_theta_zero_exact(seed in 0u64..500) {
        use vizgraph::{Body, QuadTree};
        let mut rng = SimRng::seed(seed);
        let bodies: Vec<Body> = (0..64)
            .map(|_| Body {
                x: rng.uniform(-50.0, 50.0),
                y: rng.uniform(-50.0, 50.0),
                mass: rng.uniform(0.5, 2.0),
            })
            .collect();
        let tree = QuadTree::build(&bodies);
        let kernel = |d: f64, m: f64| m / d;
        for i in [0usize, 13, 31, 63] {
            let b = bodies[i];
            let (ax, ay) = tree.force_at(b.x, b.y, 0.0, i as i32, &kernel);
            let (ex, ey) = QuadTree::force_exact(&bodies, b.x, b.y, i as i32, &kernel);
            prop_assert!((ax - ex).abs() < 1e-6);
            prop_assert!((ay - ey).abs() < 1e-6);
        }
    }
}
