//! Asserts the engine's core contract: once a [`BpWorkspace`] has been
//! built for a graph shape, repeated serial-schedule runs perform zero
//! heap allocation — for sum-product and max-product, on chains and on
//! loopy skip-chain-style graphs, including in-place table refreshes
//! between runs.
//!
//! The runs are serial, so they allocate (or not) on the test's own
//! thread: counting per thread keeps parallel tests and the harness's
//! threads out of every measurement without serializing the tests.

use factorgraph::chain::ChainGraphBuffer;
use factorgraph::factor::Factor;
use factorgraph::graph::FactorGraph;
use factorgraph::sumproduct::{run_in, BpOptions, BpSchedule, BpWorkspace};
use factorgraph::{maxproduct, ChainModel, VarId};
use simnet::alloc_count::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn toy_model() -> ChainModel {
    ChainModel::new(
        3,
        4,
        vec![0.5, 0.3, 0.2],
        vec![0.6, 0.3, 0.1, 0.2, 0.5, 0.3, 0.1, 0.2, 0.7],
        vec![0.4, 0.3, 0.2, 0.1, 0.1, 0.4, 0.3, 0.2, 0.2, 0.1, 0.3, 0.4],
    )
}

/// A loopy skip-chain-shaped graph: a chain plus agreement links, as the
/// session model builds.
fn skip_chain_graph(n: usize) -> FactorGraph {
    let model = toy_model();
    let obs: Vec<usize> = (0..n).map(|t| (t * 7) % 4).collect();
    let mut g = model.to_factor_graph(&obs);
    for (a, b) in [(0u32, (n / 2) as u32), (1u32, (n - 1) as u32)] {
        g.add_factor(Factor::from_fn(vec![VarId(a), VarId(b)], vec![3, 3], |v| {
            if v[0] == v[1] {
                0.8
            } else {
                0.1
            }
        }));
    }
    g
}

#[test]
fn sum_product_steady_state_allocates_nothing() {
    let g = skip_chain_graph(24);
    let opts = BpOptions {
        damping: 0.3,
        ..Default::default()
    };
    let mut ws = BpWorkspace::new(&g);
    // Warm the workspace (builds the shape index once).
    run_in(&g, &opts, &mut ws);
    let (allocs, stats) = thread_allocations(|| {
        let mut last = None;
        for _ in 0..50 {
            last = Some(run_in(&g, &opts, &mut ws));
        }
        last.unwrap()
    });
    assert!(stats.converged, "sanity: the warm runs actually converge");
    assert_eq!(allocs, 0, "steady-state sum-product run must not allocate");
    // The marginals are readable without allocating, too.
    let (allocs, mass) = thread_allocations(|| ws.marginal(VarId(0)).iter().sum::<f64>());
    assert_eq!(allocs, 0);
    assert!((mass - 1.0).abs() < 1e-9);
}

#[test]
fn max_product_steady_state_allocates_nothing() {
    let g = skip_chain_graph(16);
    let opts = BpOptions {
        damping: 0.3,
        ..Default::default()
    };
    let mut ws = BpWorkspace::new(&g);
    let mut decode = Vec::with_capacity(64);
    maxproduct::run_in(&g, &opts, &mut ws);
    ws.map_assignment_into(&mut decode);
    let (allocs, _) = thread_allocations(|| {
        for _ in 0..50 {
            maxproduct::run_in(&g, &opts, &mut ws);
            ws.map_assignment_into(&mut decode);
        }
    });
    assert_eq!(allocs, 0, "steady-state max-product run must not allocate");
    assert_eq!(decode.len(), 16);
}

#[test]
fn chain_refill_plus_inference_allocates_nothing() {
    // The full per-session hot path at steady state: rewrite the chain's
    // factor tables in place for a new observation sequence, then run BP
    // in the reused workspace.
    let model = toy_model();
    let mut buf = ChainGraphBuffer::new();
    let mut ws = BpWorkspace::default();
    let obs_a: Vec<usize> = (0..32).map(|t| t % 4).collect();
    let obs_b: Vec<usize> = (0..32).map(|t| (t * 3 + 1) % 4).collect();
    model.fill_factor_graph(&obs_a, &mut buf);
    run_in(buf.graph(), &BpOptions::default(), &mut ws);
    let (allocs, _) = thread_allocations(|| {
        for obs in [&obs_b, &obs_a, &obs_b] {
            model.fill_factor_graph(obs, &mut buf);
            run_in(buf.graph(), &BpOptions::default(), &mut ws);
        }
    });
    assert_eq!(allocs, 0, "same-shape refill + inference must not allocate");
    // Different observations must still give different answers (the
    // refresh really rewrites the tables).
    model.fill_factor_graph(&obs_a, &mut buf);
    run_in(buf.graph(), &BpOptions::default(), &mut ws);
    let a0 = ws.marginal(VarId(0)).to_vec();
    model.fill_factor_graph(&obs_b, &mut buf);
    run_in(buf.graph(), &BpOptions::default(), &mut ws);
    let b0 = ws.marginal(VarId(0)).to_vec();
    assert_ne!(a0, b0);
}

#[test]
fn residual_schedule_steady_state_allocates_nothing() {
    let g = skip_chain_graph(12);
    let opts = BpOptions {
        damping: 0.3,
        schedule: BpSchedule::Residual,
        ..Default::default()
    };
    let mut ws = BpWorkspace::new(&g);
    run_in(&g, &opts, &mut ws);
    let (allocs, stats) = thread_allocations(|| run_in(&g, &opts, &mut ws));
    assert!(stats.converged);
    assert_eq!(
        allocs, 0,
        "residual schedule must reuse its preallocated heap"
    );
}

#[test]
fn shape_change_rebuilds_then_settles() {
    let opts = BpOptions {
        damping: 0.3,
        ..Default::default()
    };
    let g1 = skip_chain_graph(8);
    let g2 = skip_chain_graph(10);
    let mut ws = BpWorkspace::new(&g1);
    run_in(&g1, &opts, &mut ws);
    let (allocs, _) = thread_allocations(|| run_in(&g2, &opts, &mut ws));
    assert!(allocs > 0, "shape change must rebuild the index");
    let (allocs, _) = thread_allocations(|| run_in(&g2, &opts, &mut ws));
    assert_eq!(allocs, 0, "and settle back to the allocation-free state");
}
