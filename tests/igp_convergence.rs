//! The IGP's convergence, checked absolutely rather than against another
//! run: whenever `metro_edge`'s IGP is at rest, every router's LSDB
//! holds the same instances and every router's FIB is what a
//! from-scratch SPF on its own LSDB says
//! (`fibbing::netsim::oracle`). The stale-copy reply, retransmission
//! and the purge sweep are the protocol's repair paths; this is what
//! they must repair to.

use fibbing::netsim::oracle::{igp_at_rest, igp_converged};
use fibbing::scenario::runner::{build, RunOptions, CONTROLLER_ID};
use fibbing::scenario::suite::load_scenario;

/// Every whole second of the run — the crowds arrive at 2 and 4 s, the
/// controller lies, the sink's uplink fails at 10 s and returns at
/// 40 s — at which every instance is at rest.
#[test]
fn metro_edge_at_rest_is_what_a_fresh_spf_says() {
    let spec = load_scenario("metro_edge").expect("shipped scenario");
    let mut run = build(&spec, RunOptions::default()).expect("metro_edge builds");
    let (mut at_rest, mut with_lies) = (0u32, 0u32);
    for second in 1..=run.horizon_secs() as u32 {
        run.run_until_secs(f64::from(second));
        if !igp_at_rest(&run.sim) {
            continue;
        }
        if let Err(fault) = igp_converged(&run.sim) {
            panic!("t = {second} s: {fault}");
        }
        at_rest += 1;
        let view = run.sim.ctx().topology_view(CONTROLLER_ID);
        if view.is_some_and(|v| v.fake_count() > 0) {
            with_lies += 1;
        }
    }
    // 55 of the 60 seconds, 48 of them with lies.
    println!("{at_rest} seconds at rest, {with_lies} of them with lies installed");
    assert!(at_rest >= 30, "the IGP was at rest for {at_rest} s only");
    assert!(with_lies > 0, "no second at rest had lies installed");
}
