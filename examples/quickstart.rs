//! Quickstart: lie to a network and prove the lie worked.
//!
//! Builds the paper's Fig. 1a topology offline, asks Fibbing for an
//! uneven 1/3–2/3 split at router A, and shows the computed fake
//! nodes, the resulting ECMP slots, and the verifier's judgment.
//!
//! Run with: `cargo run --example quickstart`

use fibbing::demo::{name, A, B, BLUE, R1};
use fibbing::igp::builders::paper_fig1;
use fibbing::igp::lsa::LsaLink;
use fibbing::prelude::*;

fn main() {
    let topo = paper_fig1();
    println!("== the real topology (Fig. 1a) ==");
    for (from, to, m) in topo.all_links() {
        if from < to {
            println!("  {}-{}  weight {}", name(from), name(to), m);
        }
    }
    let natural = compute_routes(&topo, A);
    println!(
        "\nA's natural route to {BLUE}: cost {}, next-hops {:?}",
        natural.route(BLUE).unwrap().dist,
        natural.nexthops(BLUE)
    );

    // Requirement: A splits 1/3 via B, 2/3 via R1.
    let mut dag = WeightedDag::new(BLUE);
    dag.require(A, &[(B, 1), (R1, 2)]);
    println!("\n== requirement ==\n{dag}");

    let mut alloc = LieAllocator::new();
    let plan = augment(&topo, &dag, &mut alloc).expect("requirement is realizable");
    println!("== computed lies ==");
    for lie in &plan.lies {
        println!("  {lie}");
    }

    let augmented = apply_all(&topo, &plan.lies);
    let table = compute_routes(&augmented, A);
    println!("\nA's augmented ECMP slots: {:?}", table.nexthops(BLUE));
    for (router, frac) in table.route(BLUE).unwrap().split_by_router() {
        println!(
            "  {} carries {:.1}% of A's traffic",
            name(router),
            frac * 100.0
        );
    }

    let report = check_preserving(&topo, &augmented, &dag);
    println!("\nverifier: {report}");
    assert!(report.ok());

    // The lie-churn is cheap: fake nodes never affect real distances,
    // so when the lies reach A's LSDB it runs only the partial SPF
    // route phase.
    let mut lsdb = Lsdb::new();
    for r in topo.routers() {
        let links = topo.links(r).iter().map(|l| LsaLink {
            to: l.to,
            metric: l.metric,
        });
        lsdb.install(Lsa::router(r, SeqNum(1), links.collect()));
        for (id, &(prefix, metric)) in (0..).zip(topo.prefixes_at(r)) {
            lsdb.install(Lsa::prefix(r, id, SeqNum(1), prefix, metric));
        }
    }
    let mut engine = SpfEngine::new();
    let _ = engine.compute(&lsdb, A);
    for l in &plan.lies {
        lsdb.install(Lsa::fake(
            l.fake_id,
            SeqNum(1),
            l.attach,
            l.attach_metric,
            l.prefix,
            l.prefix_metric,
            l.fw,
        ));
    }
    assert_eq!(engine.compute(&lsdb, A), table);
    println!(
        "SPF work at A: {} full Dijkstra run(s), {} partial (lie-only) run(s)",
        engine.full_runs, engine.partial_runs
    );
}
