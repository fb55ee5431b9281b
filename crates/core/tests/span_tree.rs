//! The planner's span tree does not depend on the thread count: the
//! scoped workers of the refinement grid (`dp.solve`) and of phase-2
//! scheduling (`plan.phase2.candidate`) carry the caller's trace
//! context, so every span they record hangs under the same parent it
//! would on one thread.
//!
//! One test in its own binary: the flight ring is process-global, and a
//! drain here must not race another test's planning.

use std::collections::BTreeMap;

use madpipe_core::{madpipe_plan_with_stats, PlannerConfig};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_obs::flight::{FlightEvent, FlightKind};
use madpipe_obs::TraceContext;

fn chain() -> Chain {
    let costs = [
        (1.0, 2.0),
        (3.0, 1.0),
        (2.0, 2.0),
        (1.0, 1.0),
        (2.0, 3.0),
        (1.5, 0.5),
    ];
    let layers = costs
        .iter()
        .enumerate()
        .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, 1 << 9, 1 << 14))
        .collect();
    Chain::new("t", 1 << 14, layers).unwrap()
}

/// Plan under a fresh trace and return the multiset of
/// `(span name, parent span name)` edges it recorded ("" for the root).
fn edges(threads: usize) -> BTreeMap<(&'static str, &'static str), usize> {
    let trace = madpipe_obs::fresh_id();
    {
        let _trace = madpipe_obs::enter(TraceContext { trace, parent: 0 });
        let cfg = PlannerConfig {
            threads,
            ..PlannerConfig::default()
        };
        let platform = Platform::new(3, 4 << 20, 1e7).unwrap();
        madpipe_plan_with_stats(&chain(), &platform, &cfg)
            .0
            .expect("plans");
    }
    let spans: Vec<FlightEvent> = madpipe_obs::flight::drain()
        .into_iter()
        .filter(|e| e.trace == trace && e.kind == FlightKind::Span)
        .collect();
    let name_of = |id: u64| spans.iter().find(|e| e.span == id).map_or("", |e| e.name);
    let mut edges = BTreeMap::new();
    for e in &spans {
        *edges.entry((e.name, name_of(e.parent))).or_insert(0) += 1;
    }
    edges
}

#[test]
fn parallel_planning_records_the_same_span_tree_as_sequential() {
    let sequential = edges(1);
    assert_eq!(sequential.get(&("plan.total", "")), Some(&1));
    for phase in [
        "plan.phase1.bisect",
        "plan.fallback.contiguous",
        "plan.refine.grid",
    ] {
        assert_eq!(sequential.get(&(phase, "plan.total")), Some(&1), "{phase}");
    }
    assert_eq!(
        sequential.get(&("plan.phase2.schedule", "plan.total")),
        Some(&2),
        "phase 2 runs before and after refinement"
    );
    assert!(sequential.contains_key(&("dp.solve", "plan.phase1.bisect")));
    assert!(sequential.contains_key(&("dp.solve", "plan.refine.grid")));
    assert!(
        sequential[&("plan.phase2.candidate", "plan.phase2.schedule")] >= 2,
        "phase 2 schedules several candidates, so its batches fan out"
    );
    assert_eq!(edges(4), sequential);
}
