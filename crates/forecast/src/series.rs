//! Forecast output: performance/capacity over time.

/// One sample of the forecast timeline, taken at the start of a simulation
/// phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForecastPoint {
    /// Wall-clock time since deployment, in seconds.
    pub time_seconds: f64,
    /// NVM capacity fraction at this time.
    pub capacity: f64,
    /// System IPC (arithmetic mean over cores).
    pub ipc: f64,
    /// LLC hit rate.
    pub hit_rate: f64,
    /// NVM write bandwidth, bytes per cycle.
    pub nvm_bytes_per_cycle: f64,
}

/// A full forecast run for one policy/configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ForecastSeries {
    /// Label (usually the policy name).
    pub label: String,
    /// Timeline samples in chronological order.
    pub points: Vec<ForecastPoint>,
}

impl ForecastSeries {
    /// Creates an empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        ForecastSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Time (seconds) at which capacity first reaches `target`, linearly
    /// interpolated between samples; `None` if the run never got there.
    pub fn lifetime_seconds(&self, target: f64) -> Option<f64> {
        let mut prev: Option<&ForecastPoint> = None;
        for p in &self.points {
            if p.capacity <= target {
                return Some(match prev {
                    Some(q) if q.capacity > p.capacity => {
                        let f = (q.capacity - target) / (q.capacity - p.capacity);
                        q.time_seconds + f * (p.time_seconds - q.time_seconds)
                    }
                    _ => p.time_seconds,
                });
            }
            prev = Some(p);
        }
        None
    }

    /// IPC of the first sample (the "beginning of life" performance the
    /// paper quotes percentages against).
    pub fn initial_ipc(&self) -> Option<f64> {
        self.points.first().map(|p| p.ipc)
    }

    /// Timestamp of the last sample (0.0 for an empty series).
    pub fn end_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.time_seconds)
    }

    /// Piecewise-linear interpolation of the series at time `t`. Clamps to
    /// the first/last sample outside the recorded range. Returns `None` for
    /// an empty series.
    pub fn sample_at(&self, t: f64) -> Option<ForecastPoint> {
        let first = self.points.first()?;
        if t <= first.time_seconds {
            return Some(*first);
        }
        for w in self.points.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if t <= b.time_seconds {
                let span = b.time_seconds - a.time_seconds;
                let f = if span > 0.0 {
                    (t - a.time_seconds) / span
                } else {
                    1.0
                };
                let lerp = |x: f64, y: f64| x + f * (y - x);
                return Some(ForecastPoint {
                    time_seconds: t,
                    capacity: lerp(a.capacity, b.capacity),
                    ipc: lerp(a.ipc, b.ipc),
                    hit_rate: lerp(a.hit_rate, b.hit_rate),
                    nvm_bytes_per_cycle: lerp(a.nvm_bytes_per_cycle, b.nvm_bytes_per_cycle),
                });
            }
        }
        self.points.last().copied()
    }

    /// Averages several runs (e.g. one per mix) onto a common time grid —
    /// the paper reports the arithmetic mean over the mixes at each
    /// simulation phase. The grid spans the longest run with `grid_points`
    /// samples; shorter runs are clamp-extended (their capacity and IPC
    /// plateau once they stop, mirroring a cache that stopped aging).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or any run is empty.
    #[expect(clippy::expect_used, reason = "documented: every run is non-empty")]
    pub fn average(label: impl Into<String>, runs: &[ForecastSeries], grid_points: usize) -> Self {
        assert!(!runs.is_empty(), "need at least one run");
        let horizon = runs.iter().map(|r| r.end_time()).fold(0.0, f64::max);
        let n = grid_points.max(2);
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let t = horizon * i as f64 / (n - 1) as f64;
            let samples: Vec<ForecastPoint> = runs
                .iter()
                .map(|r| r.sample_at(t).expect("non-empty run"))
                .collect();
            let m = samples.len() as f64;
            points.push(ForecastPoint {
                time_seconds: t,
                capacity: samples.iter().map(|p| p.capacity).sum::<f64>() / m,
                ipc: samples.iter().map(|p| p.ipc).sum::<f64>() / m,
                hit_rate: samples.iter().map(|p| p.hit_rate).sum::<f64>() / m,
                nvm_bytes_per_cycle: samples.iter().map(|p| p.nvm_bytes_per_cycle).sum::<f64>() / m,
            });
        }
        ForecastSeries {
            label: label.into(),
            points,
        }
    }

    /// Time-weighted mean IPC up to `until_seconds` (or the whole series).
    pub fn mean_ipc(&self, until_seconds: Option<f64>) -> Option<f64> {
        let last = self.points.last()?;
        if self.points.len() < 2 {
            return Some(last.ipc);
        }
        let horizon = until_seconds.unwrap_or(last.time_seconds);
        let mut weighted = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.time_seconds >= horizon {
                break;
            }
            let dt = b.time_seconds.min(horizon) - a.time_seconds;
            if dt > 0.0 {
                weighted += 0.5 * (a.ipc + b.ipc) * dt;
                span += dt;
            }
        }
        if span > 0.0 {
            Some(weighted / span)
        } else {
            self.points.first().map(|p| p.ipc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(t: f64, cap: f64, ipc: f64) -> ForecastPoint {
        ForecastPoint {
            time_seconds: t,
            capacity: cap,
            ipc,
            hit_rate: 0.5,
            nvm_bytes_per_cycle: 1.0,
        }
    }

    #[test]
    fn lifetime_interpolates() {
        let s = ForecastSeries {
            label: "x".into(),
            points: vec![p(0.0, 1.0, 2.0), p(100.0, 0.8, 1.9), p(200.0, 0.4, 1.5)],
        };
        // 0.5 crossed between t=100 (0.8) and t=200 (0.4): 3/4 of the way.
        let t = s.lifetime_seconds(0.5).unwrap();
        assert!((t - 175.0).abs() < 1e-9, "t={t}");
        assert_eq!(s.lifetime_seconds(0.3), None);
    }

    #[test]
    fn lifetime_exact_sample() {
        let s = ForecastSeries {
            label: "x".into(),
            points: vec![p(0.0, 1.0, 2.0), p(50.0, 0.5, 1.0)],
        };
        assert_eq!(s.lifetime_seconds(0.5), Some(50.0));
    }

    #[test]
    fn average_holds_a_finished_run_at_its_last_point() {
        // Run `a` stops at t = 100 just below half capacity; run `b` ages
        // three times slower. The grid spans the longer run.
        let a = ForecastSeries {
            label: "a".into(),
            points: vec![p(0.0, 1.0, 2.0), p(100.0, 0.49, 1.0)],
        };
        let b = ForecastSeries {
            label: "b".into(),
            points: vec![p(0.0, 1.0, 2.0), p(300.0, 0.49, 1.0)],
        };
        let avg = ForecastSeries::average("avg", &[a.clone(), b.clone()], 4);
        let times: Vec<f64> = avg.points.iter().map(|q| q.time_seconds).collect();
        assert_eq!(times, [0.0, 100.0, 200.0, 300.0]);
        // At t = 200, `a` has finished and contributes its last point (0.49
        // capacity, IPC 1.0); `b` is interpolated (0.66, IPC 4/3).
        let at_200 = avg.points[2];
        assert!((at_200.capacity - (0.49 + 0.66) / 2.0).abs() < 1e-12);
        assert!((at_200.ipc - (1.0 + 4.0 / 3.0) / 2.0).abs() < 1e-12);
        // So the finished run stops pulling the mean down, and the averaged
        // curve reaches 0.5 only as the slower run does: its lifetime
        // (~288 s) is not the mean of the two runs' lifetimes (~196 s).
        let averaged = avg.lifetime_seconds(0.5).unwrap();
        let mean = (a.lifetime_seconds(0.5).unwrap() + b.lifetime_seconds(0.5).unwrap()) / 2.0;
        assert!(
            (averaged - (200.0 + 100.0 * 0.075 / 0.085)).abs() < 1e-9,
            "{averaged}"
        );
        assert!(
            (mean - (100.0 + 300.0) / 2.0 * 0.5 / 0.51).abs() < 1e-9,
            "{mean}"
        );
    }

    #[test]
    fn mean_ipc_time_weighted() {
        let s = ForecastSeries {
            label: "x".into(),
            points: vec![p(0.0, 1.0, 2.0), p(10.0, 0.9, 2.0), p(20.0, 0.8, 1.0)],
        };
        // Segments: [2.0 avg over 10s], [1.5 avg over 10s] -> 1.75.
        assert!((s.mean_ipc(None).unwrap() - 1.75).abs() < 1e-12);
        // Horizon inside the first segment.
        assert!((s.mean_ipc(Some(10.0)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_at_interpolates_and_clamps() {
        let s = ForecastSeries {
            label: "x".into(),
            points: vec![p(10.0, 1.0, 2.0), p(20.0, 0.5, 1.0)],
        };
        assert_eq!(s.sample_at(5.0).unwrap().capacity, 1.0); // clamp left
        assert_eq!(s.sample_at(30.0).unwrap().capacity, 0.5); // clamp right
        let mid = s.sample_at(15.0).unwrap();
        assert!((mid.capacity - 0.75).abs() < 1e-12);
        assert!((mid.ipc - 1.5).abs() < 1e-12);
    }

    #[test]
    fn average_over_runs() {
        let a = ForecastSeries {
            label: "a".into(),
            points: vec![p(0.0, 1.0, 2.0), p(100.0, 0.5, 1.0)],
        };
        let b = ForecastSeries {
            label: "b".into(),
            points: vec![p(0.0, 1.0, 4.0), p(50.0, 0.5, 2.0)],
        };
        let avg = ForecastSeries::average("avg", &[a, b], 3);
        assert_eq!(avg.points.len(), 3);
        assert!((avg.points[0].ipc - 3.0).abs() < 1e-12);
        // At t=50: a interpolates to (0.75, 1.5); b is at its end (0.5, 2.0).
        assert!((avg.points[1].capacity - 0.625).abs() < 1e-12);
        assert!((avg.points[1].ipc - 1.75).abs() < 1e-12);
        assert_eq!(avg.end_time(), 100.0);
    }

    #[test]
    fn degenerate_series() {
        let s = ForecastSeries::new("x");
        assert_eq!(s.lifetime_seconds(0.5), None);
        assert_eq!(s.mean_ipc(None), None);
        assert_eq!(s.initial_ipc(), None);
    }
}
