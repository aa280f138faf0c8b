//! The graceful-degradation ladder.
//!
//! Under overload, serving *something* cheaper beats serving nothing:
//! the ladder maps queue pressure onto an ordered set of quality/
//! latency rungs. Rung 0 is the premium configuration (FlashPS with
//! KV-cache reuse); each step down trades output quality for compute
//! — first dropping KV reuse, then engaging TeaCache-style step
//! skipping at decreasing `compute_fraction` (the §6.1 dial), and
//! finally reducing the denoising step count outright.
//!
//! The controller is hysteretic and dwell-limited: it degrades
//! immediately (possibly several rungs at once) when pressure crosses
//! an enter threshold, but recovers one rung at a time, only after a
//! minimum dwell, and only once pressure has fallen a margin *below*
//! the threshold it entered at. Without both guards the ladder flaps
//! on every queue oscillation and the served quality becomes noise.

use fps_simtime::{SimDuration, SimTime};

/// One rung of the degradation ladder, in decreasing quality order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// FlashPS with KV-cache reuse — the premium serving path.
    FlashPsKv,
    /// FlashPS without KV reuse: a Y-only cache, a third of the K/V
    /// variant's cache-load bytes per step.
    FlashPs,
    /// TeaCache at a high compute fraction (mild step skipping).
    TeaCacheHigh,
    /// TeaCache at a low compute fraction (aggressive skipping).
    TeaCacheLow,
    /// TeaCache at the low fraction plus a reduced denoising step
    /// count — the cheapest service the ladder will offer before the
    /// admission layer sheds outright.
    ReducedSteps,
}

impl Rung {
    /// All rungs, best quality first.
    pub const ALL: [Rung; 5] = [
        Rung::FlashPsKv,
        Rung::FlashPs,
        Rung::TeaCacheHigh,
        Rung::TeaCacheLow,
        Rung::ReducedSteps,
    ];

    /// Ladder index: 0 is premium, 4 is cheapest.
    pub fn level(self) -> usize {
        match self {
            Rung::FlashPsKv => 0,
            Rung::FlashPs => 1,
            Rung::TeaCacheHigh => 2,
            Rung::TeaCacheLow => 3,
            Rung::ReducedSteps => 4,
        }
    }

    /// Rung at ladder index `level`, clamped to the cheapest rung.
    pub fn from_level(level: usize) -> Rung {
        *Rung::ALL.get(level).unwrap_or(&Rung::ReducedSteps)
    }

    /// Stable label for reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            Rung::FlashPsKv => "flashps-kv",
            Rung::FlashPs => "flashps",
            Rung::TeaCacheHigh => "teacache-0.6",
            Rung::TeaCacheLow => "teacache-0.35",
            Rung::ReducedSteps => "reduced-steps",
        }
    }

    /// TeaCache `compute_fraction` for the rung (1.0 where the engine
    /// computes every step).
    pub fn compute_fraction(self) -> f32 {
        match self {
            Rung::FlashPsKv | Rung::FlashPs => 1.0,
            Rung::TeaCacheHigh => 0.6,
            Rung::TeaCacheLow | Rung::ReducedSteps => 0.35,
        }
    }

    /// Multiplier on the denoising step count (only the last rung
    /// shortens the schedule itself).
    pub fn steps_factor(self) -> f64 {
        match self {
            Rung::ReducedSteps => 0.6,
            _ => 1.0,
        }
    }
}

/// Thresholds and damping for the ladder controller.
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Pressure at which the ladder enters rung `i + 1` (four entries
    /// for the five rungs). Pressure is dimensionless: predicted
    /// completion time over the SLO deadline, so 1.0 means "the
    /// backlog already spends the whole deadline".
    pub enter: [f64; 4],
    /// Recovery margin in (0, 1): to climb from rung `i + 1` back to
    /// `i`, pressure must fall below `enter[i] × recover_margin`.
    pub recover_margin: f64,
    /// Minimum time between rung changes in either direction.
    pub min_dwell: SimDuration,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            // Degrade when the backlog consumes 50/70/85/95% of the
            // deadline: the cheaper the service, the longer we hold
            // out before engaging it.
            enter: [0.5, 0.7, 0.85, 0.95],
            recover_margin: 0.7,
            min_dwell: SimDuration::from_secs_f64(2.0),
        }
    }
}

/// Hysteretic rung selector.
#[derive(Debug, Clone)]
pub struct LadderController {
    config: LadderConfig,
    level: usize,
    last_change: SimTime,
    transitions: u64,
}

impl LadderController {
    /// Controller starting at the premium rung.
    pub fn new(config: LadderConfig) -> Self {
        Self {
            config,
            level: 0,
            last_change: SimTime::ZERO,
            transitions: 0,
        }
    }

    /// Rung the controller currently sits at.
    pub fn rung(&self) -> Rung {
        Rung::from_level(self.level)
    }

    /// Rung changes made so far (degradations and recoveries).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Level the given pressure maps to, ignoring hysteresis.
    fn target_level(&self, pressure: f64) -> usize {
        self.config
            .enter
            .iter()
            .take_while(|&&t| pressure >= t)
            .count()
    }

    /// Observe current pressure at `now` and return the rung to serve
    /// new work at. Degrades immediately (several rungs if pressure
    /// warrants), recovers one rung per dwell period and only once
    /// pressure has fallen below the entered threshold by the
    /// configured margin.
    pub fn observe(&mut self, pressure: f64, now: SimTime) -> Rung {
        let dwelled = now.since(self.last_change) >= self.config.min_dwell;
        let target = self.target_level(pressure);
        if target > self.level {
            // Degrading: act immediately; a flood does not wait out a
            // dwell timer. Jump straight to the indicated rung.
            self.level = target;
            self.last_change = now;
            self.transitions += 1;
        } else if target < self.level && dwelled {
            // Recovering: one rung at a time, and only if pressure is
            // comfortably below the threshold we entered this rung at.
            let entered_at = self.config.enter[self.level - 1];
            if pressure < entered_at * self.config.recover_margin {
                self.level -= 1;
                self.last_change = now;
                self.transitions += 1;
            }
        }
        self.rung()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::from_nanos((secs * 1e9) as u64)
    }

    #[test]
    fn rung_order_and_labels_are_stable() {
        for (i, r) in Rung::ALL.iter().enumerate() {
            assert_eq!(r.level(), i);
            assert_eq!(Rung::from_level(i), *r);
        }
        assert_eq!(Rung::from_level(99), Rung::ReducedSteps);
        assert!(Rung::FlashPsKv < Rung::ReducedSteps);
        assert_eq!(Rung::TeaCacheHigh.compute_fraction(), 0.6);
        assert_eq!(Rung::ReducedSteps.steps_factor(), 0.6);
    }

    #[test]
    fn degrades_immediately_and_multiple_rungs() {
        let mut l = LadderController::new(LadderConfig::default());
        assert_eq!(l.observe(0.1, SimTime::ZERO), Rung::FlashPsKv);
        // A pressure spike crosses three thresholds at once.
        assert_eq!(l.observe(0.9, at(0.1)), Rung::TeaCacheLow);
        assert_eq!(l.observe(1.5, at(0.2)), Rung::ReducedSteps);
    }

    #[test]
    fn recovery_is_slow_and_hysteretic() {
        let cfg = LadderConfig::default();
        let margin = cfg.recover_margin;
        let mut l = LadderController::new(cfg);
        l.observe(0.75, SimTime::ZERO);
        assert_eq!(l.rung(), Rung::TeaCacheHigh);
        // Below margin but before the dwell elapses: still held.
        let low = 0.7 * margin - 0.05;
        assert_eq!(l.observe(low, at(1.0)), Rung::TeaCacheHigh);
        // Pressure drops below the enter threshold but not below the
        // hysteresis margin: no recovery even after the dwell.
        assert_eq!(l.observe(0.69, at(10.0)), Rung::TeaCacheHigh);
        // Below margin and dwelled: one rung per dwell period.
        assert_eq!(l.observe(low, at(13.0)), Rung::FlashPs);
        assert_eq!(l.observe(0.0, at(13.5)), Rung::FlashPs, "dwell re-arms");
        assert_eq!(l.observe(0.0, at(16.0)), Rung::FlashPsKv);
    }

    #[test]
    fn oscillating_pressure_does_not_flap() {
        // Pressure oscillates tightly around the first threshold; the
        // hysteresis band means the ladder degrades once and holds.
        let mut l = LadderController::new(LadderConfig::default());
        let mut changes = 0;
        let mut prev = l.rung();
        for i in 0..200 {
            let t = at(i as f64 * 0.1);
            let p = if i % 2 == 0 { 0.52 } else { 0.48 };
            let r = l.observe(p, t);
            if r != prev {
                changes += 1;
                prev = r;
            }
        }
        assert_eq!(changes, 1, "one degradation, then stable");
        assert_eq!(l.rung(), Rung::FlashPs);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut l = LadderController::new(LadderConfig::default());
            (0..100)
                .map(|i| {
                    let p = ((i * 37) % 100) as f64 / 60.0;
                    l.observe(p, at(i as f64 * 0.5)).level()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
