//! What one evaluation pass of the controller decides, as data:
//! [`react`] reads what the component gathered and returns a [`Pass`].
//! It reaches no simulator, names no lie and writes no audit record.

use crate::augmentation::{augment, reduce, AugmentError};
use crate::controller::ControllerConfig;
use crate::lie::{Lie, LieAllocator};
use crate::optimizer::plan_paths;
use crate::requirements::WeightedDag;
use fib_igp::loadmodel::{max_utilization, Forwarding, LinkLoads, LoadModelError};
use fib_igp::topology::Topology;
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::link::LinkKey;
use fib_telemetry::monitor::LoadMonitor;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Demands as the controller books them: per prefix, `(ingress, rate)`
/// in ingress order.
pub(crate) type DemandBook = BTreeMap<Prefix, Vec<(RouterId, f64)>>;

/// Capacity of each directed data link, in bytes/s.
pub(crate) type Caps = BTreeMap<(RouterId, RouterId), f64>;

/// A topology derived from the speaker's LSDB, with the per-prefix
/// forwarding state worked out on it so far. Good for as long as the
/// LSDB version it was derived at stands.
pub(crate) struct Derived {
    pub(crate) version: u64,
    pub(crate) topo: Topology,
    pub(crate) forwarding: BTreeMap<Prefix, Forwarding>,
}

impl Derived {
    pub(crate) fn new(version: u64, topo: Topology) -> Derived {
        Derived {
            version,
            topo,
            forwarding: BTreeMap::new(),
        }
    }

    /// [`fib_igp::loadmodel::spread`] of `book` over the topology,
    /// working out only the forwarding state no earlier call has.
    fn spread(&mut self, book: &DemandBook) -> Result<LinkLoads, LoadModelError> {
        let mut loads = LinkLoads::new();
        for (prefix, demands) in book {
            self.forwarding
                .entry(*prefix)
                .or_insert_with(|| Forwarding::new(&self.topo, *prefix))
                .push(demands, &mut loads)?;
        }
        Ok(loads)
    }
}

/// What realizing a DAG came to: the size of the candidate lie set the
/// reducer chose from, and the lies to install, in injection order and
/// under plan-local names (the component gives the real ones).
type Realized = Result<(usize, Vec<Lie>), AugmentError>;

/// [`augment`] then the Merger-style [`reduce`]: a function of the real
/// topology and the DAG alone.
fn realize_from_scratch(real: &Topology, dag: &WeightedDag) -> Realized {
    let aug = augment(real, dag, &mut LieAllocator::new())?;
    Ok((aug.lies.len(), reduce(real, dag, &aug.lies)))
}

/// The last reaction per prefix: the DAG it was for, and what
/// [`realize_from_scratch`] made of it.
pub(crate) type Memo = BTreeMap<Prefix, (WeightedDag, Realized)>;

/// What a pass keeps for the next one. The component brings `view` and
/// `real` up to the speaker's LSDB before each [`react`], and drops
/// `memo` whenever it replaces `real`.
#[derive(Default)]
pub(crate) struct Kept {
    /// The speaker's view of the network, lies included.
    pub(crate) view: Option<Derived>,
    /// The view without the lies: what planning works on.
    pub(crate) real: Option<Derived>,
    /// The last reaction per prefix, all computed on `real`.
    pub(crate) memo: Memo,
}

/// Why a pass acts: the first of these that holds, in this order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Trigger {
    /// `(utilization, util_hi)`: the demands spread over the speaker's
    /// view load a link at or above `util_hi` (predictive mode only).
    Predicted(f64, f64),
    /// An SNMP alarm stands on this link, raised at this utilization
    /// (the monitor raises at `util_hi`, with no hold-down).
    Alarm(LinkKey, f64),
    /// `(utilization, util_lo)`: nothing is hot, and lie-free routing
    /// loads no link above this utilization; at or below `util_lo`,
    /// every lie is retracted.
    Natural(f64, f64),
}

/// The audit log's `trigger` text (`docs/OBSERVABILITY.md`).
impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trigger::Predicted(util, hi) => write!(f, "predicted {util:.3} >= hi {hi:.3}"),
            Trigger::Alarm(link, util) => {
                write!(f, "alarm {}->{} raised @{util:.3}", link.from, link.to)
            }
            Trigger::Natural(util, lo) => write!(f, "natural {util:.3} <= lo {lo:.3}"),
        }
    }
}

/// What a pass does about one prefix.
#[derive(Debug)]
pub(crate) enum Decision {
    /// Lie-free routing stays under `util_lo`: take every lie back.
    RetractAll,
    /// Make `lies` (plan-local names) the installed set: reduced from
    /// `candidates` lies, for a plan that loads the links by `loads`.
    Install {
        candidates: usize,
        lies: Vec<Lie>,
        loads: LinkLoads,
    },
    /// No plan: the optimizer or the augmentation failed.
    Failed(Box<dyn std::error::Error>),
}

/// One pass, decided.
#[derive(Debug)]
pub(crate) struct Pass {
    /// What made the pass replan: [`Trigger::Natural`] if nothing did.
    pub(crate) trigger: Trigger,
    /// Highest link utilization of lie-free routing.
    pub(crate) natural: f64,
    /// Highest measured link utilization.
    pub(crate) measured: f64,
    /// One decision per prefix acted on, in prefix order.
    pub(crate) decisions: Vec<(Prefix, Decision)>,
    /// How many of the reactions were answered from the memo.
    pub(crate) replayed: u64,
}

/// Decide one pass. `snmp` is the link monitor, if SNMP is on;
/// `kept.view` and `kept.real` must hold the speaker's current view and
/// its lie-free part. Fails, deciding nothing, when the demand cannot
/// be spread over either (a demand's ingress without a route, or a
/// forwarding loop: convergence in progress).
pub(crate) fn react(
    book: &DemandBook,
    caps: &Caps,
    installed: &BTreeMap<Prefix, Vec<Lie>>,
    snmp: Option<&LoadMonitor<LinkKey>>,
    cfg: &ControllerConfig,
    kept: &mut Kept,
) -> Result<Pass, LoadModelError> {
    let view = kept.view.as_mut().expect("the view was read");
    let real = kept.real.as_mut().expect("the view was read");
    // Predicted utilization on the *current* forwarding state (the
    // controller's LSDB already contains its own lies).
    let predicted = max_utilization(&view.spread(book)?, caps);
    // Natural (lie-free) utilization decides retraction. It does not
    // depend on the prefix under consideration, so it is computed once
    // per pass, not once per prefix.
    let natural = max_utilization(&real.spread(book)?, caps);
    let measured = snmp.map_or(0.0, LoadMonitor::max_utilization);
    let trigger = if cfg.predictive && predicted >= cfg.util_hi {
        Trigger::Predicted(predicted, cfg.util_hi)
    } else if let Some((&link, util)) = snmp.and_then(LoadMonitor::alarmed) {
        Trigger::Alarm(link, util)
    } else {
        Trigger::Natural(natural, cfg.util_lo)
    };
    let congested = !matches!(trigger, Trigger::Natural(..));
    let real = &real.topo;

    let prefixes: BTreeSet<Prefix> = book.keys().chain(installed.keys()).copied().collect();
    let (mut decisions, mut replayed) = (Vec::new(), 0);
    for prefix in prefixes {
        if installed.contains_key(&prefix) && natural <= cfg.util_lo {
            decisions.push((prefix, Decision::RetractAll));
            continue;
        }
        let Some(dem) = book.get(&prefix).filter(|_| congested) else {
            continue;
        };
        let plan = plan_paths(real, prefix, dem, caps, cfg.target_util, cfg.slot_budget);
        let decision = match plan {
            Err(e) => Decision::Failed(e.into()),
            Ok(plan) => match realize(real, &mut kept.memo, &plan.dag, &mut replayed) {
                Ok((candidates, lies)) => Decision::Install {
                    candidates,
                    lies,
                    loads: plan.loads,
                },
                Err(e) => Decision::Failed(e.into()),
            },
        };
        decisions.push((prefix, decision));
    }
    Ok(Pass {
        trigger,
        natural,
        measured,
        decisions,
        replayed,
    })
}

/// The lies realizing `dag` on `real`: from the memo when the prefix's
/// previous reaction was for this DAG (a hit counts in `replayed`; the
/// memo never outlives the real topology it was computed on), else
/// computed and remembered.
fn realize(real: &Topology, memo: &mut Memo, dag: &WeightedDag, replayed: &mut u64) -> Realized {
    if let Some((_, realized)) = memo.get(&dag.prefix).filter(|(d, _)| d == dag) {
        *replayed += 1;
        // Debug builds check every hit against the computation it
        // stands for. Not under a trace sink: a trace shows, span for
        // span, what a release build does.
        if cfg!(debug_assertions) && !fib_trace::enabled() {
            let expected = realize_from_scratch(real, dag);
            assert_eq!(*realized, expected, "memoised reaction for {dag}");
        }
        return realized.clone();
    }
    let realized = realize_from_scratch(real, dag);
    memo.insert(dag.prefix, (dag.clone(), realized.clone()));
    realized
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::time::{Dur, Timestamp};
    use fib_igp::types::Metric;
    use fib_telemetry::alarm::Threshold;
    use fib_telemetry::counters::CounterWidth;

    const P1: Prefix = Prefix::net24(1);
    const P2: Prefix = Prefix::net24(2);

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// The triangle 1-2 (1), 2-3 (1), 1-3 (5) with both prefixes at r3
    /// and every link at 1 MB/s, kept lie-free as view and real side.
    fn triangle() -> (Caps, Kept) {
        let mut topo = Topology::new();
        for i in 1..=3 {
            topo.add_router(r(i));
        }
        for (a, b, m) in [(1, 2, 1), (2, 3, 1), (1, 3, 5)] {
            topo.add_link_sym(r(a), r(b), Metric(m)).unwrap();
        }
        for p in [P1, P2] {
            topo.announce_prefix(r(3), p, Metric::ZERO).unwrap();
        }
        let caps = topo.all_links().map(|(a, b, _)| ((a, b), 1e6)).collect();
        let kept = Kept {
            view: Some(Derived::new(0, topo.clone())),
            real: Some(Derived::new(0, topo)),
            memo: BTreeMap::new(),
        };
        (caps, kept)
    }

    /// Demand from r1, in bytes/s, per prefix.
    fn book(demands: &[(Prefix, f64)]) -> DemandBook {
        demands.iter().map(|&(p, d)| (p, vec![(r(1), d)])).collect()
    }

    #[test]
    fn two_prefixes_are_each_planned_to_the_target_alone() {
        let (caps, mut kept) = triangle();
        let cfg = ControllerConfig::new(r(100));
        let book = book(&[(P1, 1.2e6), (P2, 0.6e6)]);
        let pass = react(&book, &caps, &BTreeMap::new(), None, &cfg, &mut kept);
        let pass = pass.expect("both demands spread");
        assert_eq!(pass.trigger.to_string(), "predicted 1.800 >= hi 0.800");
        let mut maxima = Vec::new();
        let mut sum = LinkLoads::new();
        for (prefix, decision) in &pass.decisions {
            let Decision::Install { loads, .. } = decision else {
                panic!("{prefix}: {decision:?}");
            };
            maxima.push(format!("{prefix} {:.3}", max_utilization(loads, &caps)));
            for (link, load) in loads {
                *sum.entry(*link).or_default() += load / 1e6;
            }
        }
        assert_eq!(maxima, ["10.0.1.0/24 0.700", "10.0.2.0/24 0.600"]);
        // Each plan holds its own prefix to `target_util`, and both put
        // it on r1→r2→r3: together they load that path to 1.3. The
        // joint plan (ROADMAP item 3) is to flip this to at most 0.7.
        let shared = [sum[&(r(1), r(2))], sum[&(r(2), r(3))]];
        assert_eq!(shared.map(|u| format!("{u:.3}")), ["1.300", "1.300"]);
    }

    #[test]
    fn a_pass_retracts_and_fails_as_data() {
        let (mut caps, mut kept) = triangle();
        let mut cfg = ControllerConfig::new(r(100));
        let (crowd, none) = (book(&[(P1, 1.2e6)]), BTreeMap::new());
        let first = react(&crowd, &caps, &none, None, &cfg, &mut kept).unwrap();
        let [(P1, Decision::Install { lies, .. })] = &first.decisions[..] else {
            panic!("{first:?}");
        };
        // Everyone left: the prefix with lies gets them all retracted.
        let installed = BTreeMap::from([(P1, lies.clone())]);
        let gone = react(&DemandBook::new(), &caps, &installed, None, &cfg, &mut kept).unwrap();
        assert_eq!(gone.trigger, Trigger::Natural(0.0, 0.3));
        assert!(matches!(&gone.decisions[..], [(P1, Decision::RetractAll)]));
        // An alarm alone wakes a non-predictive pass, named by the link
        // it stands on. With r1's links unprovisioned there is no plan,
        // and the failure is data.
        let threshold = Threshold::new(0.8, 0.3, Dur::ZERO);
        let mut snmp = LoadMonitor::new(CounterWidth::C64, 1.0, threshold);
        let link = LinkKey::new(r(2), r(3));
        snmp.add(link, 1e6);
        snmp.on_sample(&link, Timestamp::ZERO, 0);
        snmp.on_sample(&link, Timestamp::from_secs(1), 900_000)
            .expect("raised");
        cfg.predictive = false;
        caps.retain(|&(from, _), _| from != r(1));
        let failed = react(&crowd, &caps, &none, Some(&snmp), &cfg, &mut kept).unwrap();
        assert_eq!(failed.trigger.to_string(), "alarm r2->r3 raised @0.900");
        let [(P1, Decision::Failed(e))] = &failed.decisions[..] else {
            panic!("{failed:?}");
        };
        assert_eq!(
            e.to_string(),
            "demand sources are disconnected from the sink"
        );
    }

    #[test]
    fn a_memoised_failure_is_answered_from_the_memo() {
        // Line 1 - 2 - 3 - 4, prefix at 4; r2 is also to use r1, whose
        // own path returns through r2. The augmentation makes r2's lies
        // and only then finds the composed loop.
        let mut topo = Topology::new();
        for i in 1..=4 {
            topo.add_router(r(i));
        }
        for i in 1..=3 {
            topo.add_link_sym(r(i), r(i + 1), Metric(1)).unwrap();
        }
        topo.announce_prefix(r(4), P1, Metric::ZERO).unwrap();
        let mut dag = WeightedDag::new(P1);
        dag.require(r(2), &[(r(3), 1), (r(1), 1)]);

        let (mut memo, mut replayed) = (BTreeMap::new(), 0);
        let computed = realize(&topo, &mut memo, &dag, &mut replayed);
        assert!(matches!(computed, Err(AugmentError::VerificationFailed(_))));
        assert_eq!(realize(&topo, &mut memo, &dag, &mut replayed), computed);
        assert_eq!(replayed, 1);
    }

    #[test]
    fn memoised_reactions_match_the_computation_on_random_graphs() {
        // Random Waxman graphs, two prefixes, viewers starting and
        // stopping at random ingresses; after each every prefix with
        // demand is re-planned, as a congested pass does. Whatever
        // `realize` answers — computed or replayed, plan or failure —
        // must equal augment + reduce run from scratch. (Debug builds
        // repeat the comparison inside `realize`, for every test that
        // drives a controller.)
        use fib_igp::builders::waxman;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2016);
        let (mut reactions, mut replayed, mut failed) = (0u64, 0u64, 0u64);
        for _case in 0..10 {
            let n = rng.gen_range(10..=16u32);
            let mut topo = waxman(&mut rng, n, 0.5, 0.3, 6);
            let prefixes = [P1, P2];
            for p in prefixes {
                let sink = RouterId(rng.gen_range(1..=n));
                topo.announce_prefix(sink, p, Metric::ZERO).unwrap();
            }
            let caps: Caps = topo.all_links().map(|(a, b, _)| ((a, b), 1e6)).collect();
            let mut memo = BTreeMap::new();
            let mut viewers: Vec<(Prefix, RouterId)> = Vec::new();
            for _step in 0..40 {
                if viewers.is_empty() || rng.gen_bool(0.6) {
                    let dst = prefixes[rng.gen_range(0..2usize)];
                    viewers.push((dst, RouterId(rng.gen_range(1..=n))));
                } else {
                    viewers.swap_remove(rng.gen_range(0..viewers.len()));
                }
                for prefix in prefixes {
                    let mut dem: BTreeMap<RouterId, f64> = BTreeMap::new();
                    for (_, src) in viewers.iter().filter(|(dst, _)| *dst == prefix) {
                        *dem.entry(*src).or_insert(0.0) += 2.5e5;
                    }
                    let dem: Vec<(RouterId, f64)> = dem.into_iter().collect();
                    let Ok(plan) = plan_paths(&topo, prefix, &dem, &caps, 0.6, 8) else {
                        continue;
                    };
                    let expected = realize_from_scratch(&topo, &plan.dag);
                    let got = realize(&topo, &mut memo, &plan.dag, &mut replayed);
                    assert_eq!(got, expected, "{}", plan.dag);
                    reactions += 1;
                    failed += u64::from(got.is_err());
                }
            }
        }
        println!("{reactions} reactions, {replayed} replayed, {failed} failed");
        assert!(reactions >= 400, "{reactions} reactions");
        assert!(
            replayed * 4 >= reactions && replayed < reactions,
            "{replayed} of {reactions} replayed: both paths must be exercised"
        );
    }
}
