//! The benchmark's own load generator: seeded and dependency-free, so a
//! later change to `fps-workload` or the `rand` shim cannot change the
//! load. The program under test receives only the generated jobs and
//! traces (the trace *types* come from `fps-workload`; every value in
//! them is produced here).
//!
//! Variance reduction: mask ratios and inter-arrival gaps are drawn in
//! **stratified blocks** of [`BLOCK`] — each block holds the midpoint
//! quantile of every 1/32 band of the distribution, shuffled — so two
//! seeds offer the same total work and the same tail, and differ
//! in order, shapes, positions and burst placement. Edit templates
//! follow [`Templates`] for the same reason: a fixed multiset per
//! stretch, or a fixed number of cache misses per block. Without this
//! the driver's run-to-run spread (which changes the seed each run)
//! would measure the log-normal's sampling noise, not the program.

use std::collections::VecDeque;

use fps_workload::trace::MaskShapeSpec;
use fps_workload::{FleetTrace, RequestSpec, Trace};

/// Draws per stratified block.
pub const BLOCK: usize = 32;

/// Fractional part of the golden ratio: the step of the most evenly
/// spread additive sequence on the unit interval.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Clip bounds of every mask ratio (same as `fps_workload::ratio`).
const MIN_RATIO: f64 = 0.01;
const MAX_RATIO: f64 = 0.95;

/// splitmix64: tiny, seedable, and good enough for load shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for a named purpose, so adding draws to
    /// one part of a workload never shifts another part.
    pub fn fork(&self, tag: u64) -> Self {
        let mut r = Self(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the generated inputs: parent and change runs print it to
/// prove they saw identical load.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// relative error < 1.2e-9 — far below what load shaping needs).
pub fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996,
        3.754408661907416,
    ];
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// The midpoint quantile of each of `strata` equal-probability bands
/// of the distribution with inverse CDF `inv`, shuffled: every block
/// holds the same values, the seed decides their order.
fn stratified_block(strata: usize, rng: &mut Rng, inv: &impl Fn(f64) -> f64) -> Vec<f64> {
    let mut block: Vec<f64> = (0..strata)
        .map(|i| inv((i as f64 + 0.5) / strata as f64))
        .collect();
    rng.shuffle(&mut block);
    block
}

/// `n` draws in stratified shuffled blocks of [`BLOCK`].
pub fn stratified(n: usize, rng: &mut Rng, inv: impl Fn(f64) -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n + BLOCK);
    while out.len() < n {
        out.extend(stratified_block(BLOCK, rng, &inv));
    }
    out.truncate(n);
    out
}

/// A mask-ratio distribution. The log-normal constants are those of
/// `fps_workload::ratio` (median, sigma), copied so the load does not
/// move when that crate does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ratios {
    /// Clipped log-normal with the given median and log-space sigma.
    LogNormal { median: f64, sigma: f64 },
    /// Uniform over `[lo, hi]`.
    Uniform { lo: f64, hi: f64 },
}

impl Ratios {
    /// The paper's production trace (mean ≈ 0.11, heavy right tail).
    pub const PRODUCTION: Self = Self::LogNormal {
        median: 0.080,
        sigma: 0.80,
    };
    /// VITON-HD virtual try-on (mean ≈ 0.35, tighter spread).
    pub const VITON_HD: Self = Self::LogNormal {
        median: 0.330,
        sigma: 0.35,
    };

    fn inverse_cdf(self, u: f64) -> f64 {
        match self {
            Self::LogNormal { median, sigma } => (median.ln() + sigma * probit(u))
                .exp()
                .clamp(MIN_RATIO, MAX_RATIO),
            Self::Uniform { lo, hi } => lo + (hi - lo) * u,
        }
    }

    pub fn sample(self, n: usize, rng: &mut Rng) -> Vec<f64> {
        stratified(n, rng, |u| self.inverse_cdf(u))
    }
}

/// Inverse-CDF Zipf sampler over `0..n` with skew `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The rank at quantile `u` of the popularity distribution.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(rng.uniform())
    }
}

/// Token-mask shapes (the three of `fps_workload::MaskShape`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Rect,
    Ellipse,
    Blob,
}

impl Shape {
    fn pick(rng: &mut Rng) -> Self {
        [Self::Rect, Self::Ellipse, Self::Blob][rng.below(3)]
    }
}

/// Exactly `k` token indices (sorted) forming a contiguous region of
/// the given shape on an `h × w` token grid: every token gets a
/// shape-specific distance from a seeded centre and the `k` nearest are
/// masked. Exact counts keep the offered work a function of the ratio
/// alone; the seed moves and stretches the region.
pub fn token_mask(h: usize, w: usize, k: usize, shape: Shape, rng: &mut Rng) -> Vec<usize> {
    let k = k.clamp(1, h * w);
    let (cy, cx) = (rng.uniform() * h as f64, rng.uniform() * w as f64);
    let aspect = 0.6 + 1.1 * rng.uniform();
    // Blob outline: three seeded harmonics around an ellipse.
    let harmonics: [(f64, f64); 3] =
        std::array::from_fn(|_| (0.25 * rng.uniform(), std::f64::consts::TAU * rng.uniform()));
    let mut scored: Vec<(f64, usize)> = (0..h * w)
        .map(|i| {
            let dy = ((i / w) as f64 + 0.5 - cy) * aspect;
            let dx = ((i % w) as f64 + 0.5 - cx) / aspect;
            let d = match shape {
                Shape::Rect => dy.abs().max(dx.abs()),
                Shape::Ellipse => dy.hypot(dx),
                Shape::Blob => {
                    let theta = dy.atan2(dx);
                    let wobble: f64 = harmonics
                        .iter()
                        .enumerate()
                        .map(|(j, (amp, phase))| amp * ((j + 2) as f64 * theta + phase).cos())
                        .sum();
                    dy.hypot(dx) / (1.0 + wobble)
                }
            };
            (d, i)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut idx: Vec<usize> = scored[..k].iter().map(|&(_, i)| i).collect();
    idx.sort_unstable();
    idx
}

/// One generated edit request (converted to `flashps::EditJob` by the
/// workload that submits it).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub template_id: u64,
    pub masked_idx: Vec<usize>,
    pub prompt: &'static str,
    pub seed: u64,
}

const PROMPTS: [&str; 8] = [
    "add a red scarf",
    "replace the jacket with a denim one",
    "make the sky overcast",
    "remove the logo",
    "add round glasses",
    "change the dress to emerald silk",
    "put flowers on the table",
    "turn the wall into exposed brick",
];

/// Which template each request of an edit workload names.
#[derive(Debug, Clone, Copy)]
pub enum Templates {
    /// Zipf(`s`) popularity over `count` templates, all resident: the
    /// requests walk the Zipf quantiles on a golden-ratio (Kronecker)
    /// sequence from a seeded offset, so every stretch asks for nearly
    /// the same multiset of templates, evenly spread.
    Resident { count: usize, s: f64 },
    /// A universe larger than the program's cache budget. Exactly
    /// `misses_per_block` requests of every [`BLOCK`] name a template
    /// outside the `resident` most recently first-named ones (Zipf(`s`)
    /// among those); the others name one of the `resident`, uniformly.
    /// A program that registers on a miss and evicts its oldest
    /// registration beyond `resident` therefore primes exactly
    /// `misses_per_block` times per block whatever the seed — the seed
    /// decides which templates and where in the block.
    Churn {
        universe: usize,
        s: f64,
        resident: usize,
        misses_per_block: usize,
    },
}

impl Templates {
    /// Distinct template ids the requests can name.
    pub fn universe(self) -> usize {
        match self {
            Self::Resident { count, .. } => count,
            Self::Churn { universe, .. } => universe,
        }
    }
}

/// Walks a [`Templates`] sequence.
struct TemplatePicker {
    templates: Templates,
    zipf: Zipf,
    rng: Rng,
    offset: f64,
    picked: usize,
    /// `Churn` only: the modelled resident set, oldest first, and the
    /// current block's miss flags.
    resident: VecDeque<u64>,
    misses: Vec<bool>,
}

impl TemplatePicker {
    fn new(templates: Templates, mut rng: Rng) -> Self {
        let (Templates::Resident { count: n, s } | Templates::Churn { universe: n, s, .. }) =
            templates;
        Self {
            templates,
            zipf: Zipf::new(n, s),
            offset: rng.uniform(),
            rng,
            picked: 0,
            resident: VecDeque::new(),
            misses: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        let i = self.picked;
        self.picked += 1;
        let Templates::Churn {
            resident,
            misses_per_block,
            ..
        } = self.templates
        else {
            let u = (self.offset + i as f64 * GOLDEN).fract();
            return self.zipf.quantile(u) as u64;
        };
        if i.is_multiple_of(BLOCK) {
            self.misses = (0..BLOCK).map(|k| k < misses_per_block).collect();
            self.rng.shuffle(&mut self.misses);
            if self.resident.is_empty() {
                // Nothing is resident before the first request: it is
                // one of the block's misses.
                let first_miss = self.misses.iter().position(|&m| m).unwrap_or(0);
                self.misses.swap(0, first_miss);
            }
        }
        if self.misses[i % BLOCK] {
            let id = loop {
                let id = self.zipf.sample(&mut self.rng) as u64;
                if !self.resident.contains(&id) {
                    break id;
                }
            };
            self.resident.push_back(id);
            if self.resident.len() > resident {
                self.resident.pop_front();
            }
            id
        } else {
            self.resident[self.rng.below(self.resident.len())]
        }
    }
}

/// The traffic mix of an edit workload.
#[derive(Debug, Clone, Copy)]
pub struct EditMix {
    /// Token grid of the served model.
    pub grid: (usize, usize),
    pub templates: Templates,
    /// Mask-ratio distribution of the shaped (non-full-canvas) share.
    pub ratios: Ratios,
    /// Requests per [`BLOCK`] that are full-canvas rectangles at
    /// [`MAX_RATIO`] (style transfer); the rest draw from `ratios`
    /// with mixed shapes.
    pub full_canvas_per_block: usize,
}

/// Generates `n` edit jobs for a mix.
pub fn edit_jobs(n: usize, mix: &EditMix, rng: &Rng) -> Vec<JobSpec> {
    let (h, w) = mix.grid;
    let tokens = h * w;
    let mut ratio_rng = rng.fork(1);
    let mut body = rng.fork(2);
    let mut picker = TemplatePicker::new(mix.templates, rng.fork(4));
    let mut jobs = Vec::with_capacity(n + BLOCK);
    while jobs.len() < n {
        let shaped = BLOCK - mix.full_canvas_per_block;
        // One stratified block of shaped ratios plus the block's fixed
        // share of full-canvas requests, shuffled together.
        let mut block: Vec<Option<f64>> =
            stratified_block(shaped, &mut ratio_rng, &|u| mix.ratios.inverse_cdf(u))
                .into_iter()
                .map(Some)
                .collect();
        block.resize(BLOCK, None);
        body.shuffle(&mut block);
        for ratio in block {
            let (k, shape) = match ratio {
                Some(r) => ((r * tokens as f64).round() as usize, Shape::pick(&mut body)),
                None => ((MAX_RATIO * tokens as f64).round() as usize, Shape::Rect),
            };
            jobs.push(JobSpec {
                template_id: picker.next(),
                masked_idx: token_mask(h, w, k, shape, &mut body),
                prompt: PROMPTS[body.below(PROMPTS.len())],
                seed: body.next_u64() >> 1,
            });
        }
    }
    jobs.truncate(n);
    jobs
}

/// Mean token-level mask ratio of a job list.
pub fn mean_ratio(jobs: &[JobSpec], tokens: usize) -> f64 {
    jobs.iter().map(|j| j.masked_idx.len()).sum::<usize>() as f64
        / (jobs.len().max(1) * tokens) as f64
}

pub fn hash_jobs(jobs: &[JobSpec]) -> u64 {
    let mut h = Fnv::default();
    for j in jobs {
        h.u64(j.template_id);
        for &i in &j.masked_idx {
            h.u64(i as u64);
        }
        h.bytes(j.prompt.as_bytes());
        h.u64(j.seed);
    }
    h.0
}

/// `n` arrival times (seconds from phase start) of a Poisson process
/// at `rate` per second, gaps stratified per block.
pub fn poisson_arrivals(n: usize, rate: f64, rng: &mut Rng) -> Vec<f64> {
    let mut t = 0.0;
    stratified(n, rng, |u| -(1.0 - u).ln() / rate)
        .into_iter()
        .map(|gap| {
            t += gap;
            t
        })
        .collect()
}

/// Arrival-time shape of a simulator trace.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Homogeneous Poisson.
    Poisson,
    /// Poisson modulated by `1 + amplitude·sin(2πt/period)` (thinning).
    Diurnal { period_secs: f64, amplitude: f64 },
    /// Two-phase Markov-modulated Poisson: `factor`× the mean rate for
    /// `fraction` of the time in bursts of mean length `mean_secs`.
    Bursty {
        factor: f64,
        fraction: f64,
        mean_secs: f64,
    },
}

/// One tenant (or the only stream) of a simulator trace.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub rps: f64,
    pub templates: usize,
    pub zipf_s: f64,
    pub ratios: Ratios,
}

fn arrival_times(rps: f64, duration: f64, shape: Arrivals, rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rps * duration * 1.05) as usize + 16);
    let exp = |rate: f64, rng: &mut Rng| -(1.0 - rng.uniform()).ln() / rate;
    match shape {
        Arrivals::Poisson => {
            let mut t = exp(rps, rng);
            while t < duration {
                out.push(t);
                t += exp(rps, rng);
            }
        }
        Arrivals::Diurnal {
            period_secs,
            amplitude,
        } => {
            let peak = rps * (1.0 + amplitude);
            let mut t = exp(peak, rng);
            while t < duration {
                let mult = 1.0 + amplitude * (std::f64::consts::TAU * t / period_secs).sin();
                if rng.uniform() * (1.0 + amplitude) < mult {
                    out.push(t);
                }
                t += exp(peak, rng);
            }
        }
        Arrivals::Bursty {
            factor,
            fraction,
            mean_secs,
        } => {
            let quiet_rate = rps * (1.0 - factor * fraction) / (1.0 - fraction);
            let mean_quiet = mean_secs * (1.0 - fraction) / fraction;
            let (mut now, mut burst) = (0.0, false);
            while now < duration {
                let (rate, mean) = if burst {
                    (rps * factor, mean_secs)
                } else {
                    (quiet_rate, mean_quiet)
                };
                let end = (now + exp(1.0 / mean, rng)).min(duration);
                let mut t = now + exp(rate, rng);
                while t < end {
                    out.push(t);
                    t += exp(rate, rng);
                }
                now = end;
                burst = !burst;
            }
        }
    }
    out
}

/// A merged, arrival-ordered simulator trace over `streams` (template
/// id ranges are disjoint per stream, ids are arrival-monotone).
/// Returns the requests and each request's stream index.
pub fn sim_requests(
    streams: &[Stream],
    duration_secs: f64,
    shape: Arrivals,
    rng: &Rng,
) -> (Vec<RequestSpec>, Vec<u32>, Vec<u64>) {
    let mut bases = Vec::with_capacity(streams.len());
    let mut next_base = 0u64;
    let mut tagged: Vec<(u32, RequestSpec)> = Vec::new();
    for (si, s) in streams.iter().enumerate() {
        bases.push(next_base);
        let mut r = rng.fork(0x51 + si as u64);
        let times = arrival_times(s.rps, duration_secs, shape, &mut r);
        let ratios = s.ratios.sample(times.len(), &mut r);
        let zipf = Zipf::new(s.templates, s.zipf_s);
        for (at, mask_ratio) in times.into_iter().zip(ratios) {
            tagged.push((
                si as u32,
                RequestSpec {
                    id: 0,
                    arrival_ns: (at * 1e9) as u64,
                    template_id: next_base + zipf.sample(&mut r) as u64,
                    mask_ratio,
                    mask_shape: match Shape::pick(&mut r) {
                        Shape::Rect => MaskShapeSpec::Rect,
                        Shape::Ellipse => MaskShapeSpec::Ellipse,
                        Shape::Blob => MaskShapeSpec::Blob,
                    },
                    seed: r.next_u64() >> 1,
                },
            ));
        }
        next_base += s.templates as u64;
    }
    tagged.sort_by_key(|(si, r)| (r.arrival_ns, *si));
    let mut stream_of = Vec::with_capacity(tagged.len());
    let mut requests = Vec::with_capacity(tagged.len());
    for (id, (si, mut r)) in tagged.into_iter().enumerate() {
        r.id = id as u64;
        stream_of.push(si);
        requests.push(r);
    }
    (requests, stream_of, bases)
}

pub fn sim_trace(stream: Stream, duration_secs: f64, shape: Arrivals, rng: &Rng) -> Trace {
    Trace {
        requests: sim_requests(&[stream], duration_secs, shape, rng).0,
    }
}

pub fn fleet_trace(
    tenants: &[Stream],
    duration_secs: f64,
    shape: Arrivals,
    rng: &Rng,
) -> FleetTrace {
    let (requests, tenant_of, template_base) = sim_requests(tenants, duration_secs, shape, rng);
    FleetTrace {
        trace: Trace { requests },
        tenant_of,
        template_base,
    }
}

pub fn hash_trace(trace: &Trace) -> u64 {
    let mut h = Fnv::default();
    for r in &trace.requests {
        h.u64(r.id);
        h.u64(r.arrival_ns);
        h.u64(r.template_id);
        h.f64(r.mask_ratio);
        h.bytes(r.mask_shape.name().as_bytes());
        h.u64(r.seed);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(grid: (usize, usize), ratios: Ratios, full: usize) -> EditMix {
        EditMix {
            grid,
            templates: Templates::Resident { count: 16, s: 1.0 },
            ratios,
            full_canvas_per_block: full,
        }
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let m = mix((12, 12), Ratios::PRODUCTION, 0);
        let a = edit_jobs(300, &m, &Rng::new(7));
        let b = edit_jobs(300, &m, &Rng::new(7));
        let c = edit_jobs(300, &m, &Rng::new(8));
        assert_eq!(a, b);
        assert_eq!(hash_jobs(&a), hash_jobs(&b));
        assert_ne!(hash_jobs(&a), hash_jobs(&c));
        let s = Stream {
            rps: 3.0,
            templates: 16,
            zipf_s: 1.0,
            ratios: Ratios::PRODUCTION,
        };
        let t1 = sim_trace(s, 600.0, Arrivals::Poisson, &Rng::new(7));
        let t2 = sim_trace(s, 600.0, Arrivals::Poisson, &Rng::new(7));
        let t3 = sim_trace(s, 600.0, Arrivals::Poisson, &Rng::new(8));
        assert_eq!(hash_trace(&t1), hash_trace(&t2));
        assert_ne!(hash_trace(&t1), hash_trace(&t3));
    }

    #[test]
    fn mean_mask_ratios_match_the_paper() {
        for seed in 0..20 {
            let prod = edit_jobs(400, &mix((12, 12), Ratios::PRODUCTION, 0), &Rng::new(seed));
            let m = mean_ratio(&prod, 144);
            assert!((m - 0.11).abs() < 0.02, "production mean {m} (seed {seed})");
            let viton = edit_jobs(400, &mix((16, 16), Ratios::VITON_HD, 0), &Rng::new(seed));
            let m = mean_ratio(&viton, 256);
            assert!((m - 0.35).abs() < 0.02, "viton mean {m} (seed {seed})");
        }
    }

    #[test]
    fn stratified_blocks_make_seeds_interchangeable() {
        // Over whole blocks any two seeds offer exactly the same masked
        // tokens — the property the run-to-run spread relies on.
        let totals: Vec<usize> = (0..10)
            .map(|seed| {
                edit_jobs(
                    13 * BLOCK,
                    &mix((12, 12), Ratios::PRODUCTION, 0),
                    &Rng::new(seed),
                )
                .iter()
                .map(|j| j.masked_idx.len())
                .sum()
            })
            .collect();
        assert!(
            totals.iter().all(|&t| t == totals[0]),
            "totals vary: {totals:?}"
        );
    }

    #[test]
    fn masks_are_exact_sorted_unique_and_in_range() {
        let mut rng = Rng::new(3);
        for shape in [Shape::Rect, Shape::Ellipse, Shape::Blob] {
            for k in [1usize, 7, 16, 100, 144, 500] {
                let m = token_mask(12, 12, k, shape, &mut rng);
                assert_eq!(m.len(), k.min(144));
                assert!(m.windows(2).all(|p| p[0] < p[1]));
                assert!(m.iter().all(|&i| i < 144));
            }
        }
    }

    #[test]
    fn churn_misses_exactly_its_share_of_every_block() {
        // The `cold_templates` policy, replayed without the program:
        // register on a miss, evict the oldest registration beyond 8.
        let mut m = mix((12, 12), Ratios::PRODUCTION, 0);
        m.templates = Templates::Churn {
            universe: 32,
            s: 1.0,
            resident: 8,
            misses_per_block: 10,
        };
        for seed in 0..50 {
            let jobs = edit_jobs(5 * BLOCK, &m, &Rng::new(seed));
            let mut resident: Vec<u64> = Vec::new();
            for block in jobs.chunks(BLOCK) {
                let mut misses = 0;
                for j in block {
                    assert!(j.template_id < 32);
                    if !resident.contains(&j.template_id) {
                        misses += 1;
                        if resident.len() == 8 {
                            resident.remove(0);
                        }
                        resident.push(j.template_id);
                    }
                }
                assert_eq!(misses, 10, "seed {seed}");
            }
        }
    }

    #[test]
    fn dense_mix_has_its_full_canvas_share() {
        let jobs = edit_jobs(320, &mix((16, 16), Ratios::VITON_HD, 8), &Rng::new(5));
        let full = jobs.iter().filter(|j| j.masked_idx.len() == 243).count();
        assert_eq!(full, 80, "a quarter of every block is full-canvas");
    }

    #[test]
    fn arrivals_keep_their_rate_and_order() {
        let t = poisson_arrivals(640, 28.0, &mut Rng::new(11));
        assert!(t.windows(2).all(|p| p[0] <= p[1]));
        let rate = 640.0 / t.last().unwrap();
        assert!((rate - 28.0).abs() < 1.0, "rate {rate}");
        let s = Stream {
            rps: 4.0,
            templates: 8,
            zipf_s: 1.0,
            ratios: Ratios::Uniform { lo: 0.05, hi: 0.3 },
        };
        for shape in [
            Arrivals::Poisson,
            Arrivals::Diurnal {
                period_secs: 500.0,
                amplitude: 0.4,
            },
            Arrivals::Bursty {
                factor: 3.0,
                fraction: 0.3,
                mean_secs: 20.0,
            },
        ] {
            let tr = sim_trace(s, 2000.0, shape, &Rng::new(2));
            let rate = tr.requests.len() as f64 / 2000.0;
            assert!((rate - 4.0).abs() < 0.5, "{shape:?}: rate {rate}");
            assert!(tr
                .requests
                .windows(2)
                .all(|p| p[0].arrival_ns <= p[1].arrival_ns));
            assert!(tr
                .requests
                .iter()
                .enumerate()
                .all(|(i, r)| r.id == i as u64));
        }
    }

    #[test]
    fn fleet_tenants_get_disjoint_template_ranges() {
        let tenants = [
            Stream {
                rps: 4.0,
                templates: 64,
                zipf_s: 1.0,
                ratios: Ratios::PRODUCTION,
            },
            Stream {
                rps: 3.5,
                templates: 48,
                zipf_s: 1.0,
                ratios: Ratios::PRODUCTION,
            },
        ];
        let ft = fleet_trace(&tenants, 300.0, Arrivals::Poisson, &Rng::new(1));
        assert_eq!(ft.template_base, vec![0, 64]);
        for (r, &t) in ft.trace.requests.iter().zip(&ft.tenant_of) {
            let range = if t == 0 { 0..64 } else { 64..112 };
            assert!(range.contains(&r.template_id));
        }
    }
}
