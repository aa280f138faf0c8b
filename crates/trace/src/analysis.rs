//! Trace analysis: critical paths, bubble fractions, and
//! queue-wait/service-time decomposition.
//!
//! These are the measurements the paper's figures are made of:
//!
//! - **Critical path** (Fig. 14/16 decompositions): the chain of span
//!   segments that actually bounds a request's latency. By
//!   construction the extracted segments are disjoint sub-intervals of
//!   the root span, so their total never exceeds the root's duration.
//! - **Bubble fraction** (Fig. 9): within a window, the share of time
//!   *not* covered by busy spans — for a GPU compute lane, the time
//!   the compute stream sat idle waiting on cache loads. FlashPS's
//!   Algorithm 1 exists to push this to ~0.
//! - **Stage breakdown**: per-request sums of child-span time by stage
//!   name (queue, cache_fetch, denoise, postprocess), the raw material
//!   for queue-wait percentiles per degradation rung.

use crate::sink::Trace;
use crate::span::SpanRecord;

/// One hop of a critical path: a sub-interval of the root attributed
/// to a particular span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// The span this time is attributed to.
    pub span_id: u64,
    /// The span's name (copied for report-building convenience).
    pub name: String,
    /// Segment start, nanoseconds.
    pub start_ns: u64,
    /// Segment end, nanoseconds.
    pub end_ns: u64,
}

impl PathSegment {
    /// Segment length in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Extracts the critical path under the span `root_id`: walking
/// backwards from the root's end, time is attributed to the deepest
/// span active at each point, recursing into the child whose end is
/// latest. The returned segments are disjoint, chronologically
/// ordered, and all lie within the root span — so
/// [`critical_path_nanos`] ≤ the root's duration, always.
pub fn critical_path(trace: &Trace, root_id: u64) -> Vec<PathSegment> {
    let Some(root) = trace.span(root_id) else {
        return Vec::new();
    };
    // children[i] = indices of spans whose parent is spans[i].
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
    let index_of = |id: u64| trace.spans.iter().position(|s| s.id == id);
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent != 0 {
            if let Some(pi) = index_of(s.parent) {
                children[pi].push(i);
            }
        }
    }
    let root_idx = index_of(root_id).expect("root exists by construction");
    let mut segments = Vec::new();
    walk(
        trace,
        &children,
        root_idx,
        root.start_ns,
        root.end_ns,
        0,
        &mut segments,
    );
    segments.reverse();
    segments
}

/// Recursive backward walk: attributes `[lo, hi]` to `idx`'s children
/// (latest-ending first) and keeps the uncovered remainder as `idx`'s
/// own time. Depth-bounded against pathological trees.
fn walk(
    trace: &Trace,
    children: &[Vec<usize>],
    idx: usize,
    lo: u64,
    hi: u64,
    depth: usize,
    out: &mut Vec<PathSegment>,
) {
    let span = &trace.spans[idx];
    let mut cursor = hi;
    if depth < 64 {
        // Children sorted by end descending; each takes the chunk of
        // the remaining window it covers.
        let mut kids: Vec<usize> = children[idx].clone();
        kids.sort_by_key(|&c| std::cmp::Reverse((trace.spans[c].end_ns, trace.spans[c].id)));
        for &c in &kids {
            if cursor <= lo {
                break;
            }
            let child = &trace.spans[c];
            let c_end = child.end_ns.min(cursor);
            let c_start = child.start_ns.max(lo);
            if c_end <= c_start {
                continue;
            }
            if c_end < cursor {
                // Gap after the child: the parent's own time.
                out.push(PathSegment {
                    span_id: span.id,
                    name: span.name.clone(),
                    start_ns: c_end,
                    end_ns: cursor,
                });
            }
            walk(trace, children, c, c_start, c_end, depth + 1, out);
            cursor = c_start;
        }
    }
    if cursor > lo {
        out.push(PathSegment {
            span_id: span.id,
            name: span.name.clone(),
            start_ns: lo,
            end_ns: cursor,
        });
    }
}

/// Total nanoseconds along a critical path.
pub fn critical_path_nanos(path: &[PathSegment]) -> u64 {
    path.iter().map(PathSegment::nanos).sum()
}

/// Busy-vs-idle accounting for one window of one resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleReport {
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Nanoseconds covered by at least one busy span.
    pub busy_ns: u64,
    /// Idle nanoseconds (`window - busy`) — the pipeline "bubble".
    pub bubble_ns: u64,
}

impl BubbleReport {
    /// Idle share of the window in `[0, 1]`; 0 for an empty window.
    pub fn fraction(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.bubble_ns as f64 / self.window_ns as f64
        }
    }
}

/// Measures the bubble within `[lo, hi]`, counting as busy every span
/// for which `is_busy` returns true (clipped to the window). Typical
/// use: the window is a denoise step on the GPU lane and `is_busy`
/// selects `cat == "gpu"` leaf compute spans.
pub fn bubble_in_window(
    trace: &Trace,
    lo: u64,
    hi: u64,
    is_busy: impl Fn(&SpanRecord) -> bool,
) -> BubbleReport {
    let window_ns = hi.saturating_sub(lo);
    let intervals: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| is_busy(s))
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    let busy_ns = merged_intervals(intervals).iter().map(|(a, b)| b - a).sum();
    BubbleReport {
        window_ns,
        busy_ns,
        bubble_ns: window_ns.saturating_sub(busy_ns),
    }
}

/// Merges half-open `(start, end)` intervals into a disjoint, sorted
/// cover. Exposed because cluster-level bubble accounting intersects
/// idle windows with cache-wait windows.
pub fn merged_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Per-request stage decomposition: the root span plus its direct
/// children's time summed by stage name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// The request root span id.
    pub root_id: u64,
    /// Root span duration, nanoseconds.
    pub total_ns: u64,
    /// `(stage name, summed nanoseconds)` over direct children, in
    /// first-seen order.
    pub stages: Vec<(String, u64)>,
}

impl StageBreakdown {
    /// Summed nanoseconds of one stage (0 when absent).
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, ns)| *ns)
    }
}

/// Decomposes every span of category `root_cat` (e.g. `"request"`
/// roots) into its direct children's stage times.
pub fn stage_breakdown(trace: &Trace, root_cat: &str) -> Vec<StageBreakdown> {
    trace
        .spans
        .iter()
        .filter(|s| s.cat == root_cat && s.parent == 0)
        .map(|root| {
            let mut stages: Vec<(String, u64)> = Vec::new();
            for child in trace.spans.iter().filter(|c| c.parent == root.id) {
                match stages.iter_mut().find(|(n, _)| *n == child.name) {
                    Some((_, ns)) => *ns += child.duration_ns(),
                    None => stages.push((child.name.clone(), child.duration_ns())),
                }
            }
            StageBreakdown {
                root_id: root.id,
                total_ns: root.duration_ns(),
                stages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::span::{Clock, Track};
    use proptest::prelude::*;

    fn request_trace() -> (Trace, u64) {
        let sink = TraceSink::recording(Clock::Virtual);
        let t = Track::new(0, 1);
        let root = sink.span_at("request", "request", t, 0, 1000, 0, Vec::new());
        let q = sink.span_at("queue", "stage", t, 0, 300, root, Vec::new());
        sink.span_at("router", "stage", t, 100, 250, q, Vec::new());
        let d = sink.span_at("denoise", "stage", t, 300, 900, root, Vec::new());
        sink.span_at("step", "gpu", t, 350, 600, d, Vec::new());
        sink.span_at("postprocess", "stage", t, 900, 1000, root, Vec::new());
        (sink.drain().unwrap(), root)
    }

    #[test]
    fn critical_path_is_disjoint_and_bounded() {
        let (trace, root) = request_trace();
        let path = critical_path(&trace, root);
        let total = critical_path_nanos(&path);
        assert_eq!(total, 1000, "children tile the root fully here");
        // Chronological + disjoint.
        for w in path.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns);
        }
        // The deepest active span owns each chunk.
        let names: Vec<&str> = path.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "queue",
                "router",
                "queue",
                "denoise",
                "step",
                "denoise",
                "postprocess"
            ]
        );
    }

    #[test]
    fn critical_path_missing_root_is_empty() {
        let (trace, _) = request_trace();
        assert!(critical_path(&trace, 9999).is_empty());
    }

    #[test]
    fn bubble_counts_uncovered_window_time() {
        let (trace, _) = request_trace();
        // Denoise window is [300, 900]; gpu busy is [350, 600].
        let b = bubble_in_window(&trace, 300, 900, |s| s.cat == "gpu");
        assert_eq!(b.window_ns, 600);
        assert_eq!(b.busy_ns, 250);
        assert_eq!(b.bubble_ns, 350);
        assert!((b.fraction() - 350.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn merged_intervals_handles_overlap_and_touching() {
        assert_eq!(
            merged_intervals(vec![(5, 10), (0, 3), (3, 6), (20, 20), (15, 18)]),
            vec![(0, 10), (15, 18)]
        );
        assert!(merged_intervals(Vec::new()).is_empty());
    }

    #[test]
    fn stage_breakdown_sums_direct_children() {
        let (trace, root) = request_trace();
        let breakdowns = stage_breakdown(&trace, "request");
        assert_eq!(breakdowns.len(), 1);
        let b = &breakdowns[0];
        assert_eq!(b.root_id, root);
        assert_eq!(b.total_ns, 1000);
        assert_eq!(b.stage_ns("queue"), 300);
        assert_eq!(b.stage_ns("denoise"), 600);
        assert_eq!(b.stage_ns("postprocess"), 100);
        assert_eq!(b.stage_ns("router"), 0, "grandchildren are not stages");
    }

    /// Random well-formed span trees as `(id, parent, start, end)`
    /// rows: children nest inside their parents; the root is id 1.
    fn build_tree(span: u64, rels: &[(f64, f64, usize)]) -> Vec<(u64, u64, u64, u64)> {
        let mut nodes: Vec<(u64, u64, u64, u64)> = vec![(1, 0, 0, span)];
        for &(a, b, parent_pick) in rels {
            let pid = parent_pick.min(nodes.len() - 1);
            let (p_id, _, p_start, p_end) = nodes[pid];
            let width = p_end - p_start;
            let mut s = p_start + (a * width as f64) as u64;
            let mut e = p_start + (b * width as f64) as u64;
            if s > e {
                std::mem::swap(&mut s, &mut e);
            }
            let id = nodes.len() as u64 + 1;
            nodes.push((id, p_id, s, e));
        }
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_critical_path_never_exceeds_root_span(
            span in 2u64..2000,
            rels in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..4), 0..24),
        ) {
            let nodes = build_tree(span, &rels);
            let sink = TraceSink::recording(Clock::Virtual);
            // span_at hands out sequential ids starting at 1, matching
            // the generator's numbering, so parents line up.
            for &(_, parent, start, end) in &nodes {
                sink.span_at("n", "x", Track::default(), start, end, parent, Vec::new());
            }
            let trace = sink.drain().unwrap();
            let root_duration = nodes[0].3 - nodes[0].2;
            let path = critical_path(&trace, 1);
            let total = critical_path_nanos(&path);
            prop_assert!(
                total <= root_duration,
                "critical path {total} exceeds root span {root_duration}"
            );
            prop_assert!(total > 0 || root_duration == 0);
            // Segments are disjoint and chronologically ordered.
            for w in path.windows(2) {
                prop_assert!(w[0].end_ns <= w[1].start_ns);
            }
        }
    }
}
