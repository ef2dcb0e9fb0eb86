//! Byte pin of a multi-prefix predictive controller run.
//!
//! The shipped pins (`tests/determinism.rs`, the CSVs under
//! `crates/netsim/tests/data`) all drive one prefix. Here the
//! controller plans three prefixes on every viewer start and stop and
//! nearly every reaction is answered from its memo. A change that plans
//! differently, plans in another order, or injects one lie more or
//! fewer moves a digest below; a change that only makes planning
//! cheaper must not.
//!
//! A lie is named — fake id, `#addr` of its gateway — by the
//! controller's [`LieAllocator`] when it is injected, so ids are dense
//! and in injection order. They used to be drawn while planning, also
//! for plans the augmentation fixpoint or the reducer threw away (the
//! fourteenth lie was `fake54 … via r14#15`); the audit digest and the
//! `line(13)` anchor were re-pinned once when that changed. The fourth
//! digest, the same log with every name (`fake<n>`, `#<n>`) masked, was
//! pinned before the change and held across it: the same lies at the
//! same instants for the same reasons.
//!
//! The controller measures links over SNMP, and a router's ifTable
//! octets count its IGP packets too. So two digests stand apart — the
//! trace without its `alarm.*` rows and the audit with every `measured`
//! value masked: a change that moves only control packets and bytes
//! must leave them alone, while the other four (and the anchors' last
//! field) may move with the control plane's byte count.
//!
//! The trace digests were re-pinned once when players began to start
//! and resume at exact instants instead of at the next 100 ms tick:
//! clips end earlier, so some flows stop a tick earlier, and the
//! utilization rows and the measured loads move. The audit without its
//! measured values held: the same lies at the same instants for the
//! same reasons.
//!
//! [`LieAllocator`]: fibbing::core::lie::LieAllocator

use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fib_trace::{AggSink, AuditRecord};
use fibbing::igp::lsdb::DbVersion;
use fibbing::igp::spf::prefix_routes;
use fibbing::igp::types::{Prefix, RouterId};
use fibbing::netsim::sim::Sim;
use fibbing::scenario::runner::{build, RunOptions, CONTROLLER_ID};
use fibbing::scenario::suite::{load_scenario, PREDICTIVE_PIN};
use std::fmt::Write as _;

/// One audit record per line, every field.
fn render(audits: &[AuditRecord]) -> String {
    let mut out = String::new();
    for a in audits {
        let _ = writeln!(
            out,
            "{} {} {} | {} | {} | candidates {} predicted {:?} measured {:?}",
            a.sim_ns,
            a.action.name(),
            a.prefix,
            a.lie,
            a.trigger,
            a.candidates,
            a.predicted_max_util,
            a.measured_max_util
        );
    }
    out
}

/// `audit` with every `fake<digits>` and `#<digits>` — what names a
/// lie, as opposed to what it says — replaced by `fakeN` and `#N`.
fn mask_names(audit: &str) -> String {
    let mut out = String::with_capacity(audit.len());
    let mut rest = audit;
    while let Some(at) = [rest.find("fake"), rest.find('#')]
        .into_iter()
        .flatten()
        .min()
    {
        let stem = at + if rest[at..].starts_with('#') { 1 } else { 4 };
        let digits = rest[stem..].bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..stem]);
        out.push_str(if digits > 0 { "N" } else { "" });
        rest = &rest[stem + digits..];
    }
    out + rest
}

/// `audit` with every `measured` value — the link load the controller
/// read over SNMP, whose octet counters also count the IGP's own
/// packets — replaced by `M`.
fn mask_measured(audit: &str) -> String {
    audit
        .lines()
        .map(|l| match l.rfind(" measured ") {
            Some(at) => format!("{} measured M\n", &l[..at]),
            None => format!("{l}\n"),
        })
        .collect()
}

/// The trace CSV without its `alarm.*` rows: those step to the
/// utilization the controller measured (see [`mask_measured`]).
fn without_alarms(trace_csv: &str) -> String {
    trace_csv
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("alarm."))
        .collect()
}

#[test]
fn three_prefix_predictive_run_is_pinned_byte_for_byte() {
    let spec = load_scenario(PREDICTIVE_PIN).expect("compiled-in spec");
    fib_trace::install(Box::new(AggSink::new()));
    let report = build(&spec, RunOptions::default())
        .expect("predictive_pin builds")
        .finish();
    let sink = fib_trace::take()
        .expect("sink still installed")
        .into_any()
        .downcast::<AggSink>()
        .expect("the sink that was installed");
    let audit = render(sink.audits());

    // The run does what the pin is for: lies for all three prefixes,
    // planned over a real graph that moves twice.
    assert_eq!(
        (report.reactions, report.injections, report.retractions),
        (222, 84, 84)
    );
    assert_eq!((report.peak_lies, report.final_lies), (20, 0));
    for prefix in ["10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"] {
        assert!(
            sink.audits().iter().any(|a| a.prefix == prefix),
            "no lie for {prefix}"
        );
    }
    // Readable anchors: the first lie, and the fourteenth.
    let line = |n: usize| audit.lines().nth(n).unwrap_or("").to_string();
    assert_eq!(
        line(0),
        "7400000000 inject 10.0.1.0/24 | lie fake0@r1: 10.0.1.0/24 cost 4 via r10#1 | \
         predicted 0.800 >= hi 0.800 | candidates 4 predicted 0.6 measured 0.12800821"
    );
    assert_eq!(
        line(13),
        "19500000000 inject 10.0.3.0/24 | lie fake13@r1: 10.0.3.0/24 cost 6 via r14#4 | \
         predicted 0.800 >= hi 0.800 | candidates 4 predicted 0.6 measured 0.790316990032959"
    );
    // Names are spent by injections, nothing else.
    let highest = sink
        .audits()
        .iter()
        .filter_map(|a| {
            a.lie
                .strip_prefix("lie fake")?
                .split('@')
                .next()?
                .parse()
                .ok()
        })
        .max();
    assert_eq!(highest, Some(report.injections - 1));

    // What the run did, apart from what it measured: the data plane's
    // link series and the lies (what, where, when and why), with the
    // SNMP readings that count control-plane bytes taken out.
    let data_plane = (
        fnv1a(FNV_OFFSET, without_alarms(&report.trace_csv).as_bytes()),
        fnv1a(FNV_OFFSET, mask_measured(&audit).as_bytes()),
    );
    assert_eq!(
        data_plane,
        (0xdee5_f3ab_7461_5047, 0xd943_8169_02e6_ea93),
        "trace without alarms / audit without measured digests moved: {data_plane:#018x?}"
    );

    let digests = (
        fnv1a(FNV_OFFSET, report.summary_csv().as_bytes()),
        fnv1a(FNV_OFFSET, report.trace_csv.as_bytes()),
        fnv1a(FNV_OFFSET, audit.as_bytes()),
        fnv1a(FNV_OFFSET, mask_names(&audit).as_bytes()),
    );
    assert_eq!(
        digests,
        (
            0x80c6_df56_b149_b59a,
            0x7299_48f0_8ad7_cdcb,
            0xc5f6_97c3_5c39_231f,
            0x7706_4e3f_e242_bab7
        ),
        "summary / trace / audit / masked audit digests moved: {digests:#018x?}\nfirst audit lines:\n{}",
        audit.lines().take(12).collect::<Vec<_>>().join("\n")
    );
}

/// Every router's LSDB version, in router order.
fn lsdb_versions(sim: &Sim, routers: &[RouterId]) -> Vec<DbVersion> {
    let version = |r: &RouterId| sim.instance(*r).expect("a router").lsdb().version();
    routers.iter().map(version).collect()
}

/// "Every router re-runs its own SPF on the augmented topology and
/// installs exactly the next hops the controller wanted" (PAPER.md):
/// the controller's model of the network — `prefix_routes` on the
/// speaker's view, the one question the load model, `augment`, `reduce`
/// and the verifier ask — against the FIBs the routers installed, at
/// every whole second that has lies installed and the network at rest
/// (every LSDB equal to the speaker's, and unmoved for longer than the
/// 50 ms an SPF run trails the LSA that asked for it).
#[test]
fn every_fib_is_what_the_single_prefix_spf_says_on_the_speakers_view() {
    let spec = load_scenario(PREDICTIVE_PIN).expect("compiled-in spec");
    let mut run = build(&spec, RunOptions::default()).expect("predictive_pin builds");
    let prefixes = [Prefix::net24(1), Prefix::net24(2), Prefix::net24(3)];
    // The spec's twenty routers; the speaker computes no routes.
    let routers: Vec<RouterId> = (1..=20).map(RouterId).collect();
    let (mut checked, mut most_lies) = (0u32, 0usize);
    for second in 1..=run.horizon_secs() as u32 {
        run.run_until_secs(f64::from(second) - 0.1);
        let before = lsdb_versions(&run.sim, &routers);
        run.run_until_secs(f64::from(second));
        let view = run
            .sim
            .ctx()
            .topology_view(CONTROLLER_ID)
            .expect("the speaker has an LSDB");
        let lsdb_of = |r: &RouterId| run.sim.instance(*r).expect("a router").lsdb();
        if view.fake_count() == 0
            || lsdb_versions(&run.sim, &routers) != before
            || routers.iter().any(|r| lsdb_of(r).to_topology() != view)
        {
            continue;
        }
        for prefix in prefixes {
            let model = prefix_routes(&view, prefix);
            for r in &routers {
                let wanted = model.get(r).map_or(&[][..], |route| &route.nexthops);
                assert_eq!(
                    run.sim.ctx().fib_nexthops(*r, prefix),
                    wanted,
                    "t = {second} s, {} lies: {r}'s FIB toward {prefix} is not the model's",
                    view.fake_count()
                );
            }
        }
        checked += 1;
        most_lies = most_lies.max(view.fake_count());
    }
    println!("checked {checked} whole seconds with lies installed, at most {most_lies} lies");
    assert!(
        checked > 0,
        "no whole second had lies installed and the network at rest"
    );
}
