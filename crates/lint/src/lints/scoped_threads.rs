//! `scoped-threads` — threads started outside the one fan-out primitive.
//!
//! Every parallel loop in the workspace runs through `rm_graph::par`: one
//! work-stealing scheduler that hands results over in block order, one
//! hardware lookup and one worker cap. A second hand-rolled fan-out brings
//! back its own partitioning, its own cap and its own merge, which is where
//! scheduling-dependent results come from. This lint flags
//! `thread::scope`, `thread::spawn` and `thread::Builder` in non-test
//! code; the fan-out module itself (`crates/graph/src/par.rs`) is exempt —
//! it *is* the scheduler.

use crate::context::FileContext;
use crate::lints::flatten;
use crate::Finding;

const NAME: &str = "scoped-threads";

pub fn check(cx: &FileContext, out: &mut Vec<Finding>) {
    if cx.is_fan_out_module() {
        return;
    }
    let flat = flatten(cx);
    let text = |j: usize| flat.get(j).map(|(_, t)| t.text.as_str());
    for (k, (li, t)) in flat.iter().enumerate() {
        let starts = text(k) == Some("thread")
            && text(k + 1) == Some(":")
            && text(k + 2) == Some(":")
            && matches!(text(k + 3), Some("scope" | "spawn" | "Builder"));
        if !starts || cx.in_test[*li] || cx.allowed(*li, NAME) {
            continue;
        }
        out.push(Finding::new(
            NAME,
            cx,
            *li,
            t.col,
            format!(
                "thread::{} outside rm_graph::par; run the loop through \
                 rm_graph::par::{{steal_blocks, par_map_ordered}} instead",
                text(k + 3).unwrap_or_default()
            ),
        ));
    }
}
