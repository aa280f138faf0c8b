//! SLO-driven pool autoscaling with hysteresis.
//!
//! Each worker pool — a fleet shard's, or a single stage's in the
//! stage-graph — is an independently scaled unit (LegoDiffusion's
//! micro-serving framing): the scaler watches the pool's own SLO
//! signals — shed rate, queue-wait p95, utilization, and (optionally)
//! cache pressure — and grows the pool under sustained overload or
//! shrinks it when the pool idles. The scaler lives in `fps-metrics`
//! because it is pure signal→decision logic consumed by both
//! `fps-fleet` (per-shard pools) and `fps-stagegraph` (per-stage
//! pools). Two mechanisms stop it flapping:
//!
//! - **Streaks**: a scale-up needs `up_ticks` *consecutive* breaching
//!   observations (and scale-down `down_ticks` idle ones); one noisy
//!   window never moves the pool.
//! - **Cooldown**: after any action the scaler holds for
//!   `cooldown` regardless of signals, giving the pool time to absorb
//!   the change before it is judged again.

use fps_simtime::{SimDuration, SimTime};

use crate::sample::percentile;

/// Scaling policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerConfig {
    /// Pool floor (never scale below).
    pub min_workers: usize,
    /// Pool ceiling (never scale above).
    pub max_workers: usize,
    /// Shed rate at or above which a window counts as overloaded.
    pub up_shed_rate: f64,
    /// Queue-wait p95 at or above which a window counts as overloaded,
    /// seconds.
    pub up_queue_wait_secs: f64,
    /// Utilization at or below which a window counts as idle (only
    /// when nothing is shedding).
    pub down_utilization: f64,
    /// Consecutive overloaded windows required to scale up.
    pub up_ticks: u32,
    /// Consecutive idle windows required to scale down.
    pub down_ticks: u32,
    /// Hold time after any scaling action.
    pub cooldown: SimDuration,
    /// Workers added/removed per action.
    pub step: usize,
    /// Cache miss rate at or above which a window counts as
    /// overloaded. A miss recomputes cold — several times the warm
    /// service time — so sustained misses are load the queue-wait
    /// signal only sees after the damage is queued. Defaults to
    /// `f64::INFINITY` (signal ignored).
    pub up_miss_rate: f64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 8,
            up_shed_rate: 0.05,
            up_queue_wait_secs: 2.0,
            down_utilization: 0.30,
            up_ticks: 2,
            down_ticks: 4,
            cooldown: SimDuration::from_secs_f64(30.0),
            step: 1,
            up_miss_rate: f64::INFINITY,
        }
    }
}

/// One observation window's signals for a pool.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardSignal {
    /// Fraction of submissions turned away this window.
    pub shed_rate: f64,
    /// P95 queue wait this window, seconds.
    pub queue_wait_p95_secs: f64,
    /// Worker-pool utilization this window, in `[0, 1]`.
    pub utilization: f64,
    /// Fraction of cache lookups this window that missed (local *and*
    /// failover), in `[0, 1]`. Zero when the pool has no cache.
    pub cache_miss_rate: f64,
}

/// One pool's open observation window: what happened since the last
/// scale tick. [`ScaleWindow::signal`] closes it into a
/// [`ShardSignal`] and starts the next.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScaleWindow {
    /// Submissions this window.
    pub submitted: u64,
    /// Submissions turned away (shed or rejected) this window.
    pub turned_away: u64,
    /// Queue waits of work that started service this window, seconds.
    pub queue_waits: Vec<f64>,
}

impl ScaleWindow {
    /// Closes the window: shed rate and nearest-rank queue-wait p95
    /// from the counts, beside the caller's `utilization` and
    /// `cache_miss_rate` for the same window. Resets for the next one.
    pub fn signal(&mut self, utilization: f64, cache_miss_rate: f64) -> ShardSignal {
        let shed_rate = if self.submitted == 0 {
            0.0
        } else {
            self.turned_away as f64 / self.submitted as f64
        };
        let queue_wait_p95_secs = percentile(&self.queue_waits, 0.95).unwrap_or(0.0);
        *self = Self::default();
        ShardSignal {
            shed_rate,
            queue_wait_p95_secs,
            utilization,
            cache_miss_rate,
        }
    }
}

/// What the scaler wants done to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Leave the pool alone.
    Hold,
    /// Grow the pool to this size.
    Up(usize),
    /// Shrink the pool to this size.
    Down(usize),
}

/// Fleet-level context that can veto a scale-down.
///
/// A per-shard scaler only sees its own signals, and during a fleet
/// incident those signals lie: a crash elsewhere parks traffic at the
/// router, the surviving shard's windows look idle (nothing is being
/// *routed*), and a naive scaler shrinks exactly the capacity the
/// parked requests are waiting for — then thrashes back up when they
/// drain. The guard carries what the fleet knows and the shard cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleGuard {
    /// Requests parked fleet-wide awaiting a routable shard.
    pub parked: u64,
    /// Whether this shard is the last healthy (routable) one.
    pub last_healthy: bool,
}

impl ScaleGuard {
    /// Whether a scale-down must be vetoed: never shrink the last
    /// healthy shard while requests are parked against it.
    pub fn blocks_down(&self) -> bool {
        self.last_healthy && self.parked > 0
    }
}

/// Hysteretic per-shard autoscaler. Feed it one [`ShardSignal`] per
/// observation window via [`Autoscaler::observe`].
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    up_streak: u32,
    down_streak: u32,
    hold_until: Option<SimTime>,
    ups: u64,
    downs: u64,
    vetoed_downs: u64,
}

impl Autoscaler {
    /// A scaler with the given policy.
    pub fn new(config: AutoscalerConfig) -> Self {
        Self {
            config,
            up_streak: 0,
            down_streak: 0,
            hold_until: None,
            ups: 0,
            downs: 0,
            vetoed_downs: 0,
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Scale-up actions taken so far.
    pub fn ups(&self) -> u64 {
        self.ups
    }

    /// Scale-down actions taken so far.
    pub fn downs(&self) -> u64 {
        self.downs
    }

    /// Scale-downs vetoed by a [`ScaleGuard`] so far.
    pub fn vetoed_downs(&self) -> u64 {
        self.vetoed_downs
    }

    /// Observes one window and decides, with no fleet context (the
    /// guard never vetoes). `current` is the pool size the decision
    /// applies to; the returned `Up`/`Down` carry the new target size
    /// (already clamped to `[min_workers, max_workers]`).
    pub fn observe(&mut self, current: usize, signal: &ShardSignal, now: SimTime) -> ScaleDecision {
        self.observe_guarded(current, signal, now, &ScaleGuard::default())
    }

    /// Observes one window under a fleet-level [`ScaleGuard`]. A
    /// scale-down the guard blocks returns `Hold` and is counted in
    /// [`vetoed_downs`]; the idle streak is *kept*, so the shrink
    /// fires on the first window after the guard clears rather than
    /// restarting its hysteresis from zero.
    ///
    /// [`vetoed_downs`]: Autoscaler::vetoed_downs
    pub fn observe_guarded(
        &mut self,
        current: usize,
        signal: &ShardSignal,
        now: SimTime,
        guard: &ScaleGuard,
    ) -> ScaleDecision {
        let overloaded = signal.shed_rate >= self.config.up_shed_rate
            || signal.queue_wait_p95_secs >= self.config.up_queue_wait_secs
            || signal.cache_miss_rate >= self.config.up_miss_rate;
        let idle = !overloaded
            && signal.shed_rate == 0.0
            && signal.utilization <= self.config.down_utilization;
        // Streaks accumulate even during cooldown — a breach that
        // persists through the hold window acts immediately after it —
        // but actions are deferred.
        if overloaded {
            self.up_streak += 1;
            self.down_streak = 0;
        } else if idle {
            self.down_streak += 1;
            self.up_streak = 0;
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }
        if let Some(until) = self.hold_until {
            if now < until {
                return ScaleDecision::Hold;
            }
        }
        if overloaded && self.up_streak >= self.config.up_ticks && current < self.config.max_workers
        {
            let target = (current + self.config.step).min(self.config.max_workers);
            self.hold_until = Some(now + self.config.cooldown);
            self.up_streak = 0;
            self.ups += 1;
            return ScaleDecision::Up(target);
        }
        if idle && self.down_streak >= self.config.down_ticks && current > self.config.min_workers {
            if guard.blocks_down() {
                self.vetoed_downs += 1;
                return ScaleDecision::Hold;
            }
            let target = current
                .saturating_sub(self.config.step)
                .max(self.config.min_workers);
            self.hold_until = Some(now + self.config.cooldown);
            self.down_streak = 0;
            self.downs += 1;
            return ScaleDecision::Down(target);
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overload() -> ShardSignal {
        ShardSignal {
            shed_rate: 0.2,
            queue_wait_p95_secs: 5.0,
            utilization: 1.0,
            ..Default::default()
        }
    }

    fn idle() -> ShardSignal {
        ShardSignal {
            shed_rate: 0.0,
            queue_wait_p95_secs: 0.1,
            utilization: 0.1,
            ..Default::default()
        }
    }

    fn busy_but_fine() -> ShardSignal {
        ShardSignal {
            shed_rate: 0.0,
            queue_wait_p95_secs: 0.5,
            utilization: 0.7,
            ..Default::default()
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn sustained_overload_scales_up_to_the_ceiling() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        let mut workers = 1usize;
        for t in 0..40 {
            if let ScaleDecision::Up(n) = a.observe(workers, &overload(), at(t)) {
                assert_eq!(n, workers + 1);
                workers = n;
            }
        }
        assert_eq!(workers, 8, "should reach max_workers");
        // At the ceiling the scaler holds rather than churns.
        assert_eq!(
            a.observe(workers, &overload(), at(100)),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn one_noisy_window_never_scales() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        assert_eq!(a.observe(2, &overload(), at(0)), ScaleDecision::Hold);
        // Signal clears: the streak resets and the next breach starts
        // over.
        assert_eq!(a.observe(2, &busy_but_fine(), at(1)), ScaleDecision::Hold);
        assert_eq!(a.observe(2, &overload(), at(2)), ScaleDecision::Hold);
    }

    #[test]
    fn flapping_signals_hold_forever() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        for t in 0..100 {
            let s = if t % 2 == 0 { overload() } else { idle() };
            assert_eq!(
                a.observe(4, &s, at(t)),
                ScaleDecision::Hold,
                "alternating signals must never move the pool"
            );
        }
        assert_eq!(a.ups() + a.downs(), 0);
    }

    #[test]
    fn cooldown_defers_consecutive_actions() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            up_ticks: 1,
            cooldown: SimDuration::from_secs_f64(30.0),
            ..Default::default()
        });
        assert_eq!(a.observe(1, &overload(), at(0)), ScaleDecision::Up(2));
        // Still breaching, but inside the hold window.
        assert_eq!(a.observe(2, &overload(), at(10)), ScaleDecision::Hold);
        assert_eq!(a.observe(2, &overload(), at(29)), ScaleDecision::Hold);
        // Streak persisted through cooldown: fires at expiry.
        assert_eq!(a.observe(2, &overload(), at(30)), ScaleDecision::Up(3));
    }

    #[test]
    fn sustained_idle_scales_down_to_the_floor() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        let mut workers = 4usize;
        for t in 0..40 {
            if let ScaleDecision::Down(n) = a.observe(workers, &idle(), at(t)) {
                workers = n;
            }
        }
        assert_eq!(workers, 1, "should reach min_workers");
        assert_eq!(a.downs(), 3);
    }

    #[test]
    fn guard_never_shrinks_the_last_healthy_shard_while_requests_park() {
        // The flap case: a peer shard crashes, traffic parks at the
        // router, and the survivor's windows read idle because nothing
        // reaches it. An unguarded scaler would shrink the exact pool
        // the parked requests need, then thrash back up on recovery.
        let mut a = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        let incident = ScaleGuard {
            parked: 12,
            last_healthy: true,
        };
        for t in 0..20 {
            assert_eq!(
                a.observe_guarded(4, &idle(), at(t), &incident),
                ScaleDecision::Hold,
                "guard must veto every shrink during the incident"
            );
        }
        assert_eq!(a.downs(), 0);
        assert!(a.vetoed_downs() > 0, "vetoes are counted, not silent");
        // Recovery drains the parked queue; the kept idle streak lets
        // the deferred shrink fire on the very next window instead of
        // re-running its hysteresis (no thrash, no stall).
        let recovered = ScaleGuard {
            parked: 0,
            last_healthy: true,
        };
        assert_eq!(
            a.observe_guarded(4, &idle(), at(21), &recovered),
            ScaleDecision::Down(3)
        );
        assert_eq!(a.downs(), 1);
    }

    #[test]
    fn guard_without_parked_requests_does_not_veto() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        // Last healthy but nothing parked: normal shrink semantics.
        let guard = ScaleGuard {
            parked: 0,
            last_healthy: true,
        };
        let mut got_down = false;
        for t in 0..10 {
            if matches!(
                a.observe_guarded(4, &idle(), at(t), &guard),
                ScaleDecision::Down(_)
            ) {
                got_down = true;
            }
        }
        assert!(got_down);
        assert_eq!(a.vetoed_downs(), 0);
    }

    #[test]
    fn cache_pressure_scales_up_when_enabled_and_is_inert_by_default() {
        // Misses recompute cold; a miss-heavy window is overload even
        // while the queue still looks fine.
        let miss_heavy = ShardSignal {
            shed_rate: 0.0,
            queue_wait_p95_secs: 0.5,
            utilization: 0.7,
            cache_miss_rate: 0.6,
        };
        let mut inert = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        for t in 0..10 {
            assert_eq!(
                inert.observe(2, &miss_heavy, at(t)),
                ScaleDecision::Hold,
                "default up_miss_rate = INFINITY must ignore cache pressure"
            );
        }
        let mut aware = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            up_miss_rate: 0.5,
            ..Default::default()
        });
        let mut workers = 2usize;
        for t in 0..10 {
            if let ScaleDecision::Up(n) = aware.observe(workers, &miss_heavy, at(t)) {
                workers = n;
            }
        }
        assert!(workers > 2, "sustained miss pressure grows the pool");
    }

    #[test]
    fn window_signal_is_nearest_rank_and_resets() {
        let mut w = ScaleWindow::default();
        assert_eq!(
            w.signal(0.4, 0.1),
            ShardSignal {
                utilization: 0.4,
                cache_miss_rate: 0.1,
                ..Default::default()
            }
        );
        w.submitted = 8;
        w.turned_away = 2;
        // Twenty waits 1..=20 s, out of order: the nearest-rank p95 is
        // the 19th smallest.
        w.queue_waits = (1..=20).rev().map(f64::from).collect();
        let s = w.signal(1.0, 0.0);
        assert_eq!(s.shed_rate, 0.25);
        assert_eq!(s.queue_wait_p95_secs, 19.0);
        assert_eq!(
            w,
            ScaleWindow::default(),
            "closing a window opens an empty one"
        );
        w.queue_waits.push(3.5);
        assert_eq!(w.signal(0.0, 0.0).queue_wait_p95_secs, 3.5);
    }

    #[test]
    fn healthy_load_neither_grows_nor_shrinks() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            cooldown: SimDuration::from_secs_f64(0.0),
            ..Default::default()
        });
        for t in 0..50 {
            assert_eq!(a.observe(4, &busy_but_fine(), at(t)), ScaleDecision::Hold);
        }
    }
}
