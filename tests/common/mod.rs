//! Helpers shared by the integration-test byte pins.

use fibbing::video::prelude::QoeReport;
use std::fmt::Write as _;

/// One report per line, every field (`{:?}` prints the shortest text
/// that reads back to the same f64).
pub fn render(reports: &[QoeReport]) -> String {
    let mut out = String::new();
    for q in reports {
        let _ = writeln!(
            out,
            "{:?} {} {:?} {:?} {:?} {} {:?} {:?} {}",
            q.startup_delay,
            q.stalls,
            q.stall_secs,
            q.mean_bitrate,
            q.max_bitrate,
            q.switches,
            q.played_secs,
            q.duration,
            q.completed
        );
    }
    out
}
