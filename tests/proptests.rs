//! Property-based tests on the core invariants (proptest), spanning
//! crates: chain inference consistency, LCS laws, CIDR containment,
//! filter monotonicity, sanitizer idempotence, BHR expiry.

use attack_tagger::prelude::*;
use factorgraph::{GapModel, GAP_NONE};
use proptest::prelude::*;

// ---------- chain inference against exhaustive enumeration ----------

/// The exact oracle: every state path of `m` over `obs`, weighted by
/// `prior·emit·gap_emit · Π trans·emit·gap_emit`. Returns the smoothed
/// marginals, the evidence `P(o_1..o_n)` and the heaviest path with its
/// joint weight.
fn enumerate_paths(
    m: &ChainModel,
    obs: &[usize],
    bins: &[usize],
) -> (Vec<Vec<f64>>, f64, (Vec<usize>, f64)) {
    let (s, n) = (m.n_states(), obs.len());
    let mut marginals = vec![vec![0.0; s]; n];
    let (mut evidence, mut best) = (0.0, (Vec::new(), f64::NEG_INFINITY));
    for code in 0..s.pow(n as u32) {
        let path: Vec<usize> = (0..n).map(|t| code / s.pow(t as u32) % s).collect();
        let mut w = 1.0;
        for t in 0..n {
            let step = if t == 0 {
                m.prior()[path[0]]
            } else {
                m.trans(path[t - 1], path[t])
            };
            w *= step * m.emit(path[t], obs[t]) * m.gap_emit(path[t], bins[t]);
        }
        evidence += w;
        for (row, &st) in marginals.iter_mut().zip(&path) {
            row[st] += w;
        }
        if w > best.1 {
            best = (path, w);
        }
    }
    for x in marginals.iter_mut().flatten() {
        *x /= evidence;
    }
    (marginals, evidence, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random timed chains, exhaustive enumeration agrees with
    /// forward-backward smoothing (order-only and timed), with the
    /// filtered posterior of every prefix (the tagger's `forward_step`)
    /// and with the Viterbi path.
    #[test]
    fn chain_inference_agreement(
        seed in 0u64..1_000,
        len in 1usize..6,
    ) {
        let mut rng = SimRng::seed(seed);
        let s = 3usize;
        let o = 4usize;
        let bins_n = 3usize;
        let dirich = |rng: &mut SimRng, n: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / sum).collect()
        };
        let prior = dirich(&mut rng, s);
        let trans: Vec<f64> = (0..s).flat_map(|_| dirich(&mut rng, s)).collect();
        let emit: Vec<f64> = (0..s).flat_map(|_| dirich(&mut rng, o)).collect();
        let gap_emit: Vec<f64> = (0..s).flat_map(|_| dirich(&mut rng, bins_n)).collect();
        let m = ChainModel::new(s, o, prior, trans, emit)
            .with_gap_model(GapModel::new(s, vec![60.0, 3_600.0], gap_emit));
        let obs: Vec<usize> = (0..len).map(|_| rng.index(o)).collect();
        // Bin `bins_n` stands for "no gap evidence".
        let bins: Vec<usize> = (0..len)
            .map(|t| match rng.index(bins_n + 1) {
                b if t > 0 && b < bins_n => b,
                _ => GAP_NONE,
            })
            .collect();
        let none = vec![GAP_NONE; len];
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9);

        let (order_only, _, best) = enumerate_paths(&m, &obs, &none);
        let (timed, evidence, _) = enumerate_paths(&m, &obs, &bins);
        let (plain, with_none, with_bins) = (
            m.posteriors(&obs),
            m.posteriors_timed(&obs, &none),
            m.posteriors_timed(&obs, &bins),
        );
        let (alphas, loglik) = m.filter_timed(&obs, &bins);
        prop_assert!((loglik - evidence.ln()).abs() < 1e-9, "loglik");
        for t in 0..len {
            prop_assert!(close(&plain[t], &order_only[t]), "posteriors t={t}");
            prop_assert!(close(&with_none[t], &order_only[t]), "GAP_NONE t={t}");
            prop_assert!(close(&with_bins[t], &timed[t]), "timed t={t}");
            let (prefix, _, _) = enumerate_paths(&m, &obs[..=t], &bins[..=t]);
            prop_assert!(close(&alphas[t], &prefix[t]), "filtered t={t}");
        }
        let (path, logp) = m.viterbi(&obs);
        prop_assert!((logp - best.1.ln()).abs() < 1e-9, "viterbi log-probability");
        prop_assert_eq!(path, best.0);
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
