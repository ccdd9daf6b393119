//! Load tracking and the split/reclaim decision policy.
//!
//! §3.2.3: a Matrix server detects that its game server is overloaded
//! "through explicit load messages from the game server or via system
//! performance measurements", and "uses simple heuristics ... to prevent
//! oscillations and ensure stability in the splitting / reclamation
//! process". The heuristics implemented here are streak-based hysteresis
//! plus a post-action cooldown; the ablation experiment A2 switches them
//! off to show the resulting flapping.

use crate::config::MatrixConfig;
use crate::messages::LoadReport;
use matrix_geometry::Point;
use matrix_sim::SimTime;

/// Receive-queue backlog (work units) that flags overload on its own, so
/// CPU hotspots without many clients still trigger splits ("or via
/// system performance measurements", §3.2.3).
const OVERLOAD_BACKLOG: f64 = 5_000.0;

/// Rolling view of the co-located game server's load.
#[derive(Debug, Clone, Default)]
pub struct LoadTracker {
    last: Option<LoadReport>,
    overload_streak: u32,
    underload_streak: u32,
    reports: u64,
}

impl LoadTracker {
    /// Creates an empty tracker.
    pub fn new() -> LoadTracker {
        LoadTracker::default()
    }

    /// Ingests one load report, updating both hysteresis streaks.
    pub fn observe(&mut self, cfg: &MatrixConfig, report: LoadReport) {
        let over =
            report.clients >= cfg.overload_clients || report.queue_backlog >= OVERLOAD_BACKLOG;
        let under =
            report.clients < cfg.underload_clients && report.queue_backlog < OVERLOAD_BACKLOG / 2.0;
        if over {
            self.overload_streak += 1;
        } else {
            self.overload_streak = 0;
        }
        if under {
            self.underload_streak += 1;
        } else {
            self.underload_streak = 0;
        }
        self.last = Some(report);
        self.reports += 1;
    }

    /// Client count from the most recent report (0 before the first).
    pub fn clients(&self) -> u32 {
        self.last.as_ref().map_or(0, |r| r.clients)
    }

    /// Positions from the most recent report (empty if not reported).
    pub fn positions(&self) -> &[Point] {
        self.last.as_ref().map_or(&[], |r| r.positions.as_slice())
    }

    /// Total number of reports ingested.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Whether the overload condition has persisted long enough to act.
    pub fn is_overloaded(&self, cfg: &MatrixConfig) -> bool {
        let needed = if cfg.adaptive {
            cfg.overload_streak.max(1)
        } else {
            u32::MAX
        };
        self.overload_streak >= needed
    }

    /// Whether the underload condition has persisted long enough to act.
    pub fn is_underloaded(&self, cfg: &MatrixConfig) -> bool {
        let needed = if cfg.adaptive {
            cfg.underload_streak.max(1)
        } else {
            u32::MAX
        };
        self.underload_streak >= needed
    }

    /// Clears both streaks (after an adaptive action, so the next action
    /// needs fresh evidence).
    pub fn reset_streaks(&mut self) {
        self.overload_streak = 0;
        self.underload_streak = 0;
    }
}

/// Cooldown gate: at most one adaptive action per [`MatrixConfig::cooldown`]
/// window per server.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cooldown {
    until: Option<SimTime>,
}

impl Cooldown {
    /// A gate that is initially open.
    pub fn new() -> Cooldown {
        Cooldown::default()
    }

    /// Whether an adaptive action is currently allowed.
    pub fn ready(&self, now: SimTime) -> bool {
        self.until.is_none_or(|t| now >= t)
    }

    /// Arms the gate after an action at `now`.
    pub fn arm(&mut self, now: SimTime, cfg: &MatrixConfig) {
        self.until = Some(now + cfg.cooldown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(clients: u32) -> LoadReport {
        LoadReport {
            clients,
            queue_backlog: 0.0,
            positions: Vec::new(),
            telemetry: None,
        }
    }

    #[test]
    fn overload_requires_streak() {
        let cfg = MatrixConfig::default(); // streak = 2
        let mut t = LoadTracker::new();
        t.observe(&cfg, report(400));
        assert!(!t.is_overloaded(&cfg), "one report is not enough");
        t.observe(&cfg, report(400));
        assert!(t.is_overloaded(&cfg));
    }

    #[test]
    fn overload_streak_resets_on_normal_report() {
        let cfg = MatrixConfig::default();
        let mut t = LoadTracker::new();
        t.observe(&cfg, report(400));
        t.observe(&cfg, report(100));
        t.observe(&cfg, report(400));
        assert!(!t.is_overloaded(&cfg));
    }

    #[test]
    fn backlog_alone_can_signal_overload() {
        let cfg = MatrixConfig::default();
        let mut t = LoadTracker::new();
        for _ in 0..2 {
            t.observe(
                &cfg,
                LoadReport {
                    clients: 10,
                    queue_backlog: 10_000.0,
                    positions: Vec::new(),
                    telemetry: None,
                },
            );
        }
        assert!(t.is_overloaded(&cfg));
    }

    #[test]
    fn underload_requires_longer_streak() {
        let cfg = MatrixConfig::default(); // underload_streak = 3
        let mut t = LoadTracker::new();
        for _ in 0..2 {
            t.observe(&cfg, report(50));
        }
        assert!(!t.is_underloaded(&cfg));
        t.observe(&cfg, report(50));
        assert!(t.is_underloaded(&cfg));
    }

    #[test]
    fn boundary_clients_count_as_overload() {
        let cfg = MatrixConfig::default();
        let mut t = LoadTracker::new();
        for _ in 0..2 {
            t.observe(&cfg, report(300)); // "300+ clients"
        }
        assert!(t.is_overloaded(&cfg));
        let mut t = LoadTracker::new();
        for _ in 0..2 {
            t.observe(&cfg, report(299));
        }
        assert!(!t.is_overloaded(&cfg));
    }

    #[test]
    fn non_adaptive_config_never_triggers() {
        let cfg = MatrixConfig::static_baseline();
        let mut t = LoadTracker::new();
        for _ in 0..100 {
            t.observe(&cfg, report(10_000));
        }
        assert!(!t.is_overloaded(&cfg));
        let mut t = LoadTracker::new();
        for _ in 0..100 {
            t.observe(&cfg, report(0));
        }
        assert!(!t.is_underloaded(&cfg));
    }

    #[test]
    fn reset_streaks_clears_state() {
        let cfg = MatrixConfig::default();
        let mut t = LoadTracker::new();
        for _ in 0..5 {
            t.observe(&cfg, report(400));
        }
        t.reset_streaks();
        assert!(!t.is_overloaded(&cfg));
    }

    #[test]
    fn cooldown_gates_actions() {
        let cfg = MatrixConfig::default(); // 5 s cooldown
        let mut c = Cooldown::new();
        assert!(c.ready(SimTime::ZERO));
        c.arm(SimTime::from_secs(10), &cfg);
        assert!(!c.ready(SimTime::from_secs(12)));
        assert!(c.ready(SimTime::from_secs(15)));
    }

    #[test]
    fn tracker_keeps_positions_for_load_aware_split() {
        let cfg = MatrixConfig::default();
        let mut t = LoadTracker::new();
        t.observe(
            &cfg,
            LoadReport {
                clients: 2,
                queue_backlog: 0.0,
                positions: vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)],
                telemetry: None,
            },
        );
        assert_eq!(t.positions().len(), 2);
        assert_eq!(t.clients(), 2);
    }
}
