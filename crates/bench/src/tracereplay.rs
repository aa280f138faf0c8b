//! Replays Fig. 9 cache-loading schedules into trace spans.
//!
//! The pipeline planner (`fps-maskcache::pipeline`) reasons about
//! schedules in closed form: a latency per step, no timeline. This
//! module re-enacts a schedule block by block on a virtual-clock
//! [`TraceSink`] — loads as `"copy"`-category spans on a copy lane,
//! block compute as `"gpu"`-category spans on a compute lane — so the
//! bubble metric of `fps-trace` can be *measured from the trace*
//! instead of derived analytically. The `trace_bubbles` bin uses it to
//! reproduce Fig. 9's qualitative result (the DP schedule is
//! bubble-free; the naive schedule stalls the GPU for the whole load
//! phase) from span data alone.

use fps_json::Json;
use fps_maskcache::BlockCosts;
use fps_trace::{TraceSink, Track};

/// The two stream lanes a replayed schedule draws onto. Each scheme
/// gets its own `process` id so several schemes can share one trace
/// side by side.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTracks {
    /// Compute-stream lane; `"gpu"` spans land here.
    pub compute: Track,
    /// Copy-stream lane; `"copy"` spans land here.
    pub copy: Track,
}

impl ReplayTracks {
    /// Lane pair for scheme number `process`, labelled in the trace as
    /// `"<label> compute"` / `"<label> copy"`.
    pub fn labelled(sink: &TraceSink, process: u32, label: &str) -> Self {
        let tracks = Self {
            compute: Track::new(process, 0),
            copy: Track::new(process, 1),
        };
        sink.name_track(tracks.compute, format!("{label} compute"));
        sink.name_track(tracks.copy, format!("{label} copy"));
        tracks
    }
}

/// Replays one denoise request — `steps` identical steps over
/// `costs.len()` transformer blocks — starting at `t0_ns`, and returns
/// the finish time in nanoseconds.
///
/// Within a step the semantics mirror
/// [`fps_maskcache::pipeline::simulate_plan`]: loads for cached blocks
/// are issued eagerly in block order and serialize on the copy stream;
/// a cached block's compute starts at `max(compute stream free, its
/// load done)`; an uncached block computes immediately at full cost.
/// With `front_load` set, the step instead re-enacts the naive
/// Fig. 9-top schedule: no compute starts until every load of the step
/// has finished.
///
/// Emitted spans: one `"request"` root, one `"step"` span per step
/// (parent: root), one `"block_load"` per cached block on the copy
/// lane and one `"block_compute"` per block on the compute lane
/// (parent: their step).
///
/// # Panics
///
/// Panics when `use_cache.len() != costs.len()`.
pub fn replay_request(
    sink: &TraceSink,
    tracks: ReplayTracks,
    t0_ns: u64,
    steps: usize,
    costs: &[BlockCosts],
    use_cache: &[bool],
    front_load: bool,
) -> u64 {
    assert_eq!(costs.len(), use_cache.len(), "one cache decision per block");
    let root = sink.next_id();
    let mut finish = t0_ns;
    for step in 0..steps {
        let step_start = finish;
        let step_span = sink.next_id();
        let mut load_done = step_start;
        let mut load_done_at: Vec<u64> = Vec::with_capacity(costs.len());
        for (i, c) in costs.iter().enumerate() {
            if use_cache[i] {
                let s = load_done;
                load_done = s + c.load.as_nanos();
                sink.span_at(
                    "block_load",
                    "copy",
                    tracks.copy,
                    s,
                    load_done,
                    step_span,
                    vec![("block", Json::U64(i as u64))],
                );
            }
            load_done_at.push(load_done);
        }
        let mut compute_free = if front_load { load_done } else { step_start };
        for (i, c) in costs.iter().enumerate() {
            let (start, dur) = if use_cache[i] {
                (
                    compute_free.max(load_done_at[i]),
                    c.compute_cached.as_nanos(),
                )
            } else {
                (compute_free, c.compute_full.as_nanos())
            };
            sink.span_at(
                "block_compute",
                "gpu",
                tracks.compute,
                start,
                start + dur,
                step_span,
                vec![
                    ("block", Json::U64(i as u64)),
                    ("cached", Json::Bool(use_cache[i])),
                ],
            );
            compute_free = start + dur;
        }
        sink.span_with_id(
            step_span,
            "step",
            "step",
            tracks.compute,
            step_start,
            compute_free,
            root,
            vec![("step", Json::U64(step as u64))],
        );
        finish = compute_free;
    }
    sink.span_with_id(
        root,
        "request",
        "request",
        tracks.compute,
        t0_ns,
        finish,
        0,
        Vec::new(),
    );
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_maskcache::pipeline::{naive_sequential_latency, plan_uniform, simulate_plan};
    use fps_simtime::SimDuration;
    use fps_trace::Clock;

    fn costs(n: usize) -> Vec<BlockCosts> {
        vec![
            BlockCosts {
                compute_cached: SimDuration::from_micros(100),
                compute_full: SimDuration::from_micros(300),
                load: SimDuration::from_micros(150),
            };
            n
        ]
    }

    #[test]
    fn pipelined_replay_matches_simulate_plan() {
        let c = costs(8);
        let plan = plan_uniform(8, c[0]).use_cache();
        let sink = TraceSink::recording(Clock::Virtual);
        let tracks = ReplayTracks::labelled(&sink, 0, "dp");
        let finish = replay_request(&sink, tracks, 0, 3, &c, &plan, false);
        let per_step = simulate_plan(&c, &plan).unwrap();
        assert_eq!(finish, 3 * per_step.as_nanos());
        let t = sink.drain().unwrap();
        assert_eq!(t.spans_named("request").count(), 1);
        assert_eq!(t.spans_named("step").count(), 3);
        assert_eq!(t.spans_named("block_compute").count(), 24);
        let root = t.spans_named("request").next().unwrap();
        assert_eq!(root.end_ns, finish);
    }

    #[test]
    fn front_loaded_replay_matches_naive_sequential() {
        let c = costs(6);
        let all = vec![true; 6];
        let sink = TraceSink::recording(Clock::Virtual);
        let tracks = ReplayTracks::labelled(&sink, 1, "naive");
        let finish = replay_request(&sink, tracks, 0, 2, &c, &all, true);
        let per_step = naive_sequential_latency(&c).as_nanos();
        assert_eq!(finish, 2 * per_step);
        // The compute lane is idle for the whole load phase of each
        // step: no gpu span may start before the step's loads finish.
        let t = sink.drain().unwrap();
        let total_load: u64 = c.iter().map(|b| b.load.as_nanos()).sum();
        for s in t.spans_named("block_compute") {
            let step_start = (s.start_ns / per_step) * per_step;
            assert!(s.start_ns >= step_start + total_load);
        }
    }

    #[test]
    fn uncached_blocks_skip_the_copy_lane() {
        let c = costs(4);
        let none = vec![false; 4];
        let sink = TraceSink::recording(Clock::Virtual);
        let tracks = ReplayTracks::labelled(&sink, 0, "full");
        let finish = replay_request(&sink, tracks, 0, 1, &c, &none, false);
        let t = sink.drain().unwrap();
        assert_eq!(t.spans_named("block_load").count(), 0);
        assert_eq!(
            finish,
            4 * c[0].compute_full.as_nanos(),
            "all-full compute serializes"
        );
    }
}
