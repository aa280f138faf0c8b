//! The benchmark's one definition of a percentile, plus the timing
//! helpers every probe shares. None of the repository's three
//! percentile functions is called.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the value at
/// rank `ceil(q·n)` of the sorted samples. Panics on an empty slice —
/// a phase with no samples is a benchmark bug, not a zero.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's
/// definition of run-to-run spread). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    std::array::from_fn(|q| {
        let pos = (q + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Latency percentiles of a run cut into windows of identical offered
/// work (a generator block, a round of replays). The samples are
/// already at nominal host speed ([`HostRef`]); what is left is the
/// odd stall, which spoils the windows it falls in, not the run: the
/// run's p50 is the median of the windows' p50s. A window's p95 sits a
/// few samples from its top, where one stall moves it, and stalls only
/// ever add latency: the run's p95 is the lower quartile of the
/// windows' p95s (the calmer windows), not their median.
#[derive(Debug, Default)]
pub struct WindowedLatency {
    pub p50: Vec<f64>,
    pub p95: Vec<f64>,
}

impl WindowedLatency {
    pub fn push(&mut self, window_ms: &[f64]) {
        self.p50.push(percentile(window_ms, 0.50));
        self.p95.push(percentile(window_ms, 0.95));
    }

    pub fn of(samples_ms: &[f64], window: usize) -> Self {
        let mut w = Self::default();
        samples_ms.chunks(window).for_each(|c| w.push(c));
        w
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.p50)
    }

    pub fn p95_ms(&self) -> f64 {
        percentile(&self.p95, 0.25)
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One pass of the benchmark's reference loop, in ms: a fixed,
/// cache-resident f32 multiply-add nest that belongs to the benchmark
/// and calls nothing of the program, so no later change to the program
/// can move it. See [`HostRef`].
pub fn ref_spin() -> f64 {
    const N: usize = 128;
    type Buffers = (Vec<f32>, Vec<f32>, Vec<f32>);
    thread_local! {
        static BUF: std::cell::RefCell<Buffers> = std::cell::RefCell::new((
            (0..N * N).map(|i| (i % 13) as f32 * 0.25).collect(),
            (0..N * N).map(|i| (i % 7) as f32 * 0.5).collect(),
            vec![0.0; N * N],
        ));
    }
    BUF.with(|buf| {
        let (a, b, c) = &mut *buf.borrow_mut();
        let t = Instant::now();
        for _ in 0..24 {
            for i in 0..N {
                for p in 0..N {
                    let av = a[i * N + p];
                    for (o, &bv) in c[i * N..(i + 1) * N].iter_mut().zip(&b[p * N..(p + 1) * N]) {
                        *o = (*o + av * bv) * 0.5;
                    }
                }
            }
        }
        std::hint::black_box(&mut *c);
        secs(t.elapsed()) * 1e3
    })
}

/// What one [`ref_spin`] takes on the two-core bench host in its fast
/// state. A literal: it only fixes the unit of a corrected time (ms *at
/// this host speed*), never its run-to-run behaviour.
pub const REF_NOMINAL_MS: f64 = 4.3;

/// Host-speed correction. The bench host is a shared VM whose cores run
/// 35% slower for seconds or minutes at a time (a fixed loop takes 113
/// or 152 ms there, by the moment); program and reference loop slow
/// down together, so a duration is reported *at nominal host speed*:
/// wall time × [`REF_NOMINAL_MS`] ÷ the mean of the reference spins
/// right before and right after it. Twelve runs of two unlike loops
/// alternating every few ms spread 8% and 19% apart on their own and
/// 1.3% as a ratio.
///
/// A core of that host that has idled, even for 30 ms, runs its next
/// milliseconds two to four times slower, so the spins sit directly
/// against the timed work, and work on two threads is paired with spins
/// on two (`lanes`): the second lane is a helper thread that lives as
/// long as the `HostRef` (a new thread shares its parent's core for its
/// first second there).
#[derive(Debug)]
pub struct HostRef {
    reps: usize,
    last_ms: f64,
    seen_ms: Vec<f64>,
    helper: Option<Helper>,
}

#[derive(Debug)]
struct Helper {
    go: Option<mpsc::Sender<usize>>,
    done: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.go.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A duration measured by [`HostRef`], in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// As the clock read it.
    pub wall_s: f64,
    /// At nominal host speed.
    pub nominal_s: f64,
}

fn spin_median(reps: usize) -> f64 {
    median(&(0..reps).map(|_| ref_spin()).collect::<Vec<_>>())
}

impl HostRef {
    /// `reps` passes of the loop make one spin (their median): one
    /// beside work of a few ms, three beside work of a second. `lanes`
    /// (1 or 2) is how many threads the timed work keeps busy.
    pub fn start(lanes: usize, reps: usize) -> Self {
        let helper = (lanes > 1).then(|| {
            let (go, go_rx) = mpsc::channel::<usize>();
            let (done_tx, done) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                for reps in go_rx {
                    if done_tx.send(spin_median(reps)).is_err() {
                        break;
                    }
                }
            });
            Helper {
                go: Some(go),
                done,
                thread: Some(thread),
            }
        });
        let mut host = Self {
            reps,
            last_ms: 0.0,
            seen_ms: Vec::new(),
            helper,
        };
        host.spin();
        host
    }

    /// One spin on every lane at once (their mean); returns the spin
    /// before this one.
    fn spin(&mut self) -> f64 {
        let go = self.helper.as_ref().and_then(|h| h.go.as_ref());
        let helping = go.is_some_and(|go| go.send(self.reps).is_ok());
        let mut ms = spin_median(self.reps);
        if let (true, Some(h)) = (helping, &self.helper) {
            ms = (ms + h.done.recv().unwrap_or(ms)) / 2.0;
        }
        self.seen_ms.push(ms);
        std::mem::replace(&mut self.last_ms, ms)
    }

    /// Runs `f` between two spins (the one before is the previous
    /// call's one after).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let result = f();
        let wall_s = secs(t.elapsed());
        (result, self.correct(wall_s))
    }

    /// Corrects a duration that ended just now and began right after
    /// the previous spin.
    pub fn correct(&mut self, wall_s: f64) -> Timed {
        let before = self.spin();
        Timed {
            wall_s,
            nominal_s: wall_s * REF_NOMINAL_MS / ((before + self.last_ms) / 2.0),
        }
    }

    /// Spins afresh after a stretch that was not timed through `self`,
    /// so the next timing does not start from a stale spin.
    pub fn resume(&mut self) {
        self.spin();
    }

    /// Median of every spin so far, ms (for the run's report).
    pub fn median_ms(&self) -> f64 {
        median(&self.seen_ms)
    }
}

/// Median seconds per call of `f`, measured in batches sized so one
/// batch takes at least ~200 µs (so the clock read is noise), for about
/// `budget` of wall time and at least five batches.
pub fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = secs(t0.elapsed()).max(1e-9);
    let inner = ((200e-6 / once).ceil() as usize).clamp(1, 1 << 20);
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 5 || (start.elapsed() < budget && batches.len() < 4096) {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        batches.push(secs(t.elapsed()) / inner as f64);
    }
    median(&batches)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn host_ref_corrects_by_the_spins_around_the_work() {
        for lanes in [1, 2] {
            let mut host = HostRef::start(lanes, 1);
            let (value, took) = host.time(|| {
                std::thread::sleep(Duration::from_millis(20));
                7
            });
            assert_eq!(value, 7);
            assert!(took.wall_s >= 0.020, "{took:?}");
            // nominal = wall × nominal spin ÷ mean of the two spins seen.
            let [before, after] = host.seen_ms[..] else {
                panic!("two spins: {:?}", host.seen_ms);
            };
            let want = took.wall_s * REF_NOMINAL_MS / ((before + after) / 2.0);
            assert!((took.nominal_s - want).abs() < 1e-12, "{took:?} vs {want}");
            assert!(host.median_ms() > 0.0);
        }
    }

    #[test]
    fn time_per_call_scales_with_work() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            std::hint::black_box(x);
        };
        let small = time_per_call(Duration::from_millis(5), || spin(1_000));
        let large = time_per_call(Duration::from_millis(5), || spin(100_000));
        assert!(large > small * 10.0, "small {small} large {large}");
    }
}
