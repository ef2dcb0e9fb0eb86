//! Absolute oracles: what must hold of a simulation at rest, checked
//! against a from-scratch computation rather than against another run.

use crate::fib::Fib;
use crate::sim::Sim;
use fib_igp::spf::compute_routes;

/// `true` when every IGP instance is at rest
/// ([`fib_igp::instance::Instance::at_rest`]): nothing in flight can
/// change an LSDB or a FIB, so [`igp_converged`] must hold.
pub fn igp_at_rest(sim: &Sim) -> bool {
    sim.core.instances.iter().all(|i| i.at_rest())
}

/// IGP convergence, for an instant the IGP is at rest: every instance's
/// LSDB holds the same `(key, seq)` set, and every router that computes
/// routes has installed exactly what [`compute_routes`] says on its own
/// LSDB's topology. `Err` names the first router that disagrees.
pub fn igp_converged(sim: &Sim) -> Result<(), String> {
    let core = &sim.core;
    let mut routers = core.router_ids.iter().zip(&core.instances);
    let Some((first, reference)) = routers.next() else {
        return Ok(());
    };
    for (id, inst) in routers {
        if !inst.lsdb().same_instances(reference.lsdb()) {
            return Err(format!("{id}'s LSDB holds other instances than {first}'s"));
        }
    }
    for (id, inst) in core.router_ids.iter().zip(&core.instances) {
        if !inst.computes_routes() {
            continue;
        }
        let mut model = Fib::new();
        model.install(&compute_routes(&inst.lsdb().to_topology(), *id));
        let installed = core.fibs.get(id).map(|f| f.iter().collect::<Vec<_>>());
        if installed != Some(model.iter().collect()) {
            return Err(format!(
                "{id}'s FIB is not the SPF on its own LSDB: {installed:?} against {model:?}"
            ));
        }
    }
    Ok(())
}
