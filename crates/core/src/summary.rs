//! One-pass aggregation of a telemetry sweep: everything the paper's
//! figures need, in bounded memory.

use serde::{Deserialize, Serialize};

use mira_cooling::plant::FreeCoolingLedger;
use mira_facility::RackId;
use mira_timeseries::{
    CalendarBins, CivilParts, Duration, SimTime, TimeSeries, Welford, WelfordRows,
};
use mira_units::{convert, KilowattHours};

use crate::sweep::{Recorder, SweepStep, SWEEP_BLOCK};
use crate::telemetry::SweepBlock;

/// Calendar bins plus a weekly-mean series for one system-level channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelAggregate {
    /// Calendar-keyed statistics (yearly/monthly/weekday bins).
    pub bins: CalendarBins,
    /// Weekly-mean time series (for trend fits and plotting). Rebuilt
    /// from the per-week accumulators on finish; empty on unfinished
    /// partials.
    pub weekly: TimeSeries,
    /// One accumulator per calendar week (keyed by the global 7-day
    /// grid), kept sorted by week start.
    weeks: Vec<(SimTime, Welford)>,
}

impl Default for ChannelAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelAggregate {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bins: CalendarBins::new(),
            weekly: TimeSeries::new(),
            weeks: Vec::new(),
        }
    }

    /// Pushes one value under its calendar parts and week key. The week
    /// key sits on a global 7-day grid — a pure function of the instant,
    /// so shard boundaries never shift which week a sample lands in —
    /// and the block fold derives it once per instant for all seven
    /// channels.
    fn push_keyed(&mut self, parts: CivilParts, week: SimTime, value: f64) {
        self.bins.push_parts(parts, value);
        match self.weeks.last_mut() {
            Some((ws, acc)) if *ws == week => acc.push(value),
            Some((ws, _)) if *ws < week => {
                let mut acc = Welford::new();
                acc.push(value);
                self.weeks.push((week, acc));
            }
            _ => {
                // Out-of-chronological-order push (never happens on the
                // sweep path, but keep the structure correct).
                let at = self.weeks.partition_point(|(ws, _)| *ws < week);
                if let Some(entry) = self.weeks.get_mut(at).filter(|(ws, _)| *ws == week) {
                    entry.1.push(value);
                } else {
                    let mut acc = Welford::new();
                    acc.push(value);
                    self.weeks.insert(at, (week, acc));
                }
            }
        }
    }

    /// Absorbs an aggregate covering the span after this one's. The
    /// boundary week (if a calendar week straddles the shard cut) is
    /// pooled via [`Welford::merge`].
    pub fn merge(&mut self, later: &ChannelAggregate) {
        self.bins.merge(&later.bins);
        for (week, acc) in &later.weeks {
            match self.weeks.last_mut() {
                Some((ws, mine)) if *ws == *week => mine.merge(acc),
                Some((ws, _)) if *ws < *week => self.weeks.push((*week, *acc)),
                _ => {
                    let at = self.weeks.partition_point(|(ws, _)| *ws < *week);
                    if let Some(entry) = self.weeks.get_mut(at).filter(|(ws, _)| *ws == *week) {
                        entry.1.merge(acc);
                    } else {
                        self.weeks.insert(at, (*week, *acc));
                    }
                }
            }
        }
    }

    fn finish(&mut self) {
        let mut weekly = TimeSeries::new();
        for (week, acc) in &self.weeks {
            if !acc.is_empty() {
                weekly.push(*week, acc.mean());
            }
        }
        self.weekly = weekly;
    }
}

/// Per-rack lifetime statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RackAggregate {
    /// Rack power (kW).
    pub power: Welford,
    /// Rack utilization (fraction).
    pub utilization: Welford,
    /// Rack coolant flow (GPM).
    pub flow: Welford,
    /// Inlet coolant temperature (F).
    pub inlet: Welford,
    /// Outlet coolant temperature (F).
    pub outlet: Welford,
    /// Ambient temperature at the rack (F).
    pub ambient_temperature: Welford,
    /// Ambient humidity at the rack (%RH).
    pub ambient_humidity: Welford,
}

impl RackAggregate {
    /// Pools another rack aggregate into this one (channel-wise
    /// [`Welford::merge`]).
    pub fn merge(&mut self, later: &RackAggregate) {
        self.power.merge(&later.power);
        self.utilization.merge(&later.utilization);
        self.flow.merge(&later.flow);
        self.inlet.merge(&later.inlet);
        self.outlet.merge(&later.outlet);
        self.ambient_temperature.merge(&later.ambient_temperature);
        self.ambient_humidity.merge(&later.ambient_humidity);
    }
}

/// The full six-year (or any-span) sweep summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Sampling step used.
    pub step: Duration,
    /// Sweep span.
    pub span: (SimTime, SimTime),
    /// System power in MW.
    pub power_mw: ChannelAggregate,
    /// System utilization in percent of nodes.
    pub utilization_pct: ChannelAggregate,
    /// Total loop flow in GPM (sum of rack monitors).
    pub flow_gpm: ChannelAggregate,
    /// Mean inlet coolant temperature across racks (F).
    pub inlet_f: ChannelAggregate,
    /// Mean outlet coolant temperature across racks (F).
    pub outlet_f: ChannelAggregate,
    /// Mean data-center ambient temperature across racks (F).
    pub dc_temp_f: ChannelAggregate,
    /// Mean data-center ambient humidity across racks (%RH).
    pub dc_rh: ChannelAggregate,
    /// Ambient temperature pooled over *all* rack samples (spatial +
    /// temporal variation together — the population Fig. 8's σ
    /// describes).
    pub dc_temp_all_racks: Welford,
    /// Ambient humidity pooled over all rack samples.
    pub dc_rh_all_racks: Welford,
    /// Per-rack lifetime statistics.
    pub racks: Vec<RackAggregate>,
    /// Free-cooling ledger per calendar year.
    pub yearly_energy: Vec<(i32, FreeCoolingLedger)>,
    /// Economizer savings during December–March months only.
    pub season_saved: KilowattHours,
}

impl SweepSummary {
    /// An empty summary for `span` at `step` — the [`Recorder`] seed
    /// that sweep shards fold into. `span` is carried as metadata; it
    /// is not validated against the instants actually recorded.
    #[must_use]
    pub fn empty(span: (SimTime, SimTime), step: Duration) -> Self {
        Self {
            step,
            span,
            power_mw: ChannelAggregate::new(),
            utilization_pct: ChannelAggregate::new(),
            flow_gpm: ChannelAggregate::new(),
            inlet_f: ChannelAggregate::new(),
            outlet_f: ChannelAggregate::new(),
            dc_temp_f: ChannelAggregate::new(),
            dc_rh: ChannelAggregate::new(),
            dc_temp_all_racks: Welford::new(),
            dc_rh_all_racks: Welford::new(),
            racks: (0..RackId::COUNT)
                .map(|_| RackAggregate::default())
                .collect(),
            yearly_energy: Vec::new(),
            season_saved: KilowattHours::new(0.0),
        }
    }

    /// Absorbs a summary covering the span immediately after this
    /// one's: channels, pooled statistics, per-rack aggregates, and the
    /// yearly energy ledgers all merge; the span extends to cover both.
    pub fn merge(&mut self, later: &SweepSummary) {
        self.power_mw.merge(&later.power_mw);
        self.utilization_pct.merge(&later.utilization_pct);
        self.flow_gpm.merge(&later.flow_gpm);
        self.inlet_f.merge(&later.inlet_f);
        self.outlet_f.merge(&later.outlet_f);
        self.dc_temp_f.merge(&later.dc_temp_f);
        self.dc_rh.merge(&later.dc_rh);
        self.dc_temp_all_racks.merge(&later.dc_temp_all_racks);
        self.dc_rh_all_racks.merge(&later.dc_rh_all_racks);
        for (mine, theirs) in self.racks.iter_mut().zip(&later.racks) {
            mine.merge(theirs);
        }
        for (year, ledger) in &later.yearly_energy {
            match self.yearly_energy.iter_mut().find(|(y, _)| y == year) {
                Some((_, mine)) => mine.merge(ledger),
                None => {
                    let at = self.yearly_energy.partition_point(|(y, _)| y < year);
                    self.yearly_energy.insert(at, (*year, *ledger));
                }
            }
        }
        self.season_saved += later.season_saved;
        self.span = (self.span.0.min(later.span.0), self.span.1.max(later.span.1));
    }

    /// Lane-direct fold of one batched block, reading the block's
    /// structure-of-arrays rows. Observed channels come from the block's
    /// sensor lanes (already clamped/floored by the observation pass)
    /// and utilization from the truth lane.
    ///
    /// The fold runs in three accumulator-resident passes over the
    /// block. Interchanging the (instant, accumulator) loops is
    /// bit-exact because each accumulator only requires *its own*
    /// values to arrive in chronological order; only accumulators that
    /// interleave across lanes within one instant (the pooled DC
    /// stats, the lane sums) keep the per-instant rack-order loop.
    ///
    /// 1. Bank-outer per-rack fold through [`WelfordRows`] staging:
    ///    one 48-lane bank (~2 KB) and the lane rows it reads stay
    ///    L1-resident for the whole block, instead of cycling all
    ///    seven banks through cache every instant.
    /// 2. Per-instant pass for the order-sensitive pooled statistics,
    ///    the system-level lane sums (staged to a per-block scalar
    ///    row), the shared week keys, and the energy ledger.
    /// 3. Channel-outer bins pass: one channel's calendar bins absorb
    ///    the whole block's staged scalars while hot, rather than
    ///    thrashing all seven channels' bins per instant. Each value
    ///    costs one month-bin and one weekday-bin push (a shard holds
    ///    one month bin and seven weekday bins per channel, ~2 KB); the
    ///    yearly and month-of-year views are derived on read.
    // Row indexing is `k < len` over rows the executor sized to `len`
    // and staging rows sized by the assert below; lane indexing is
    // `l in 0..RackId::COUNT` over `[_; 48]` rows; the year index is a
    // found-or-just-inserted position. mira-lint: allow(panic-reachability)
    fn ingest_block(&mut self, block: &SweepBlock) {
        let len = block.len();
        assert!(
            len <= SWEEP_BLOCK,
            "block of {len} instants exceeds the {SWEEP_BLOCK}-instant staging rows"
        );
        macro_rules! fold_bank {
            ($field:ident, $row:expr) => {{
                let mut rows =
                    WelfordRows::<{ RackId::COUNT }>::load(self.racks.iter().map(|r| &r.$field));
                for k in 0..len {
                    rows.push_row($row(k));
                }
                rows.store(self.racks.iter_mut().map(|r| &mut r.$field));
            }};
        }
        fold_bank!(power, |k: usize| &block.obs[5][k]);
        fold_bank!(utilization, |k: usize| &block.util[k]);
        fold_bank!(flow, |k: usize| &block.obs[2][k]);
        fold_bank!(inlet, |k: usize| &block.obs[3][k]);
        fold_bank!(outlet, |k: usize| &block.obs[4][k]);
        fold_bank!(ambient_temperature, |k: usize| &block.obs[0][k]);
        fold_bank!(ambient_humidity, |k: usize| &block.obs[1][k]);

        let n = convert::f64_from_usize(RackId::COUNT);
        let mut chan = [[0.0f64; SWEEP_BLOCK]; 7];
        let mut weeks = [SimTime::from_epoch_seconds(0); SWEEP_BLOCK];
        for k in 0..len {
            let t = block.times[k];
            let parts = block.civils[k];
            let util_lane = &block.util[k];
            let dc_t_lane = &block.obs[0][k];
            let dc_h_lane = &block.obs[1][k];
            let flow_lane = &block.obs[2][k];
            let inlet_lane = &block.obs[3][k];
            let outlet_lane = &block.obs[4][k];
            let power_lane = &block.obs[5][k];

            let mut power_kw = 0.0;
            let mut util = 0.0;
            let mut flow = 0.0;
            let mut inlet = 0.0;
            let mut outlet = 0.0;
            let mut dc_t = 0.0;
            let mut dc_h = 0.0;
            for l in 0..RackId::COUNT {
                self.dc_temp_all_racks.push(dc_t_lane[l]);
                self.dc_rh_all_racks.push(dc_h_lane[l]);

                power_kw += power_lane[l];
                util += util_lane[l];
                flow += flow_lane[l];
                inlet += inlet_lane[l];
                outlet += outlet_lane[l];
                dc_t += dc_t_lane[l];
                dc_h += dc_h_lane[l];
            }
            chan[0][k] = power_kw / 1000.0;
            chan[1][k] = util / n * 100.0;
            chan[2][k] = flow;
            chan[3][k] = inlet / n;
            chan[4][k] = outlet / n;
            chan[5][k] = dc_t / n;
            chan[6][k] = dc_h / n;
            weeks[k] =
                SimTime::from_epoch_seconds(t.epoch_seconds().div_euclid(7 * 86_400) * 7 * 86_400);

            // Energy accounting — the block carries the plant response
            // directly, so no snapshot round-trip is needed.
            // Chronological pushes land in the newest (last) year row.
            let year = parts.date.year();
            let idx = if matches!(self.yearly_energy.last(), Some((y, _)) if *y == year) {
                self.yearly_energy.len() - 1
            } else {
                match self.yearly_energy.iter().position(|(y, _)| *y == year) {
                    Some(i) => i,
                    None => {
                        let at = self.yearly_energy.partition_point(|(y, _)| *y < year);
                        self.yearly_energy
                            .insert(at, (year, FreeCoolingLedger::new()));
                        at
                    }
                }
            };
            // idx is a found or just-inserted position in yearly_energy.
            // mira-lint: allow(panic-reachability)
            let ledger = &mut self.yearly_energy[idx].1;
            ledger.record(&block.plants[k], self.step);
            if parts.date.month().is_free_cooling_season() {
                self.season_saved += block.plants[k]
                    .avoided_power
                    .for_hours(self.step.as_hours());
            }
        }

        for (agg, vals) in [
            (&mut self.power_mw, &chan[0]),
            (&mut self.utilization_pct, &chan[1]),
            (&mut self.flow_gpm, &chan[2]),
            (&mut self.inlet_f, &chan[3]),
            (&mut self.outlet_f, &chan[4]),
            (&mut self.dc_temp_f, &chan[5]),
            (&mut self.dc_rh, &chan[6]),
        ] {
            for k in 0..len {
                agg.push_keyed(block.civils[k], weeks[k], vals[k]);
            }
        }
    }

    /// Per-rack mean of a channel selected by `f`, in rack-index order.
    #[must_use]
    pub fn rack_means<F: Fn(&RackAggregate) -> &Welford>(&self, f: F) -> Vec<f64> {
        self.racks.iter().map(|r| f(r).mean()).collect()
    }

    fn finish_channels(&mut self) {
        self.power_mw.finish();
        self.utilization_pct.finish();
        self.flow_gpm.finish();
        self.inlet_f.finish();
        self.outlet_f.finish();
        self.dc_temp_f.finish();
        self.dc_rh.finish();
    }
}

impl Recorder for SweepSummary {
    type Output = SweepSummary;

    fn record_block(&mut self, block: &SweepBlock, _staging: &mut SweepStep) {
        self.ingest_block(block);
    }

    fn merge(&mut self, later: Self) {
        SweepSummary::merge(self, &later);
    }

    fn finish(mut self) -> SweepSummary {
        self.finish_channels();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryEngine;
    use mira_ras::{CmfSchedule, RasLog};
    use mira_timeseries::Date;

    fn small_summary() -> SweepSummary {
        let schedule = CmfSchedule::generate(31);
        let log = RasLog::assemble(&schedule, 31);
        let engine = TelemetryEngine::new(31, &schedule, &log);
        crate::sweep::SweepPlan::new(
            &engine,
            SimTime::from_date(Date::new(2015, 3, 1)),
            SimTime::from_date(Date::new(2015, 5, 1)),
        )
        .step(Duration::from_hours(2))
        .summary()
        .expect("valid span")
    }

    #[test]
    fn aggregates_cover_the_span() {
        let s = small_summary();
        // 61 days x 12 samples/day.
        assert_eq!(s.power_mw.bins.overall().count(), 61 * 12);
        assert!(!s.power_mw.weekly.is_empty());
        assert!(s.racks.iter().all(|r| r.power.count() == 61 * 12));
    }

    #[test]
    fn system_levels_are_sane() {
        let s = small_summary();
        let mw = s.power_mw.bins.overall().mean();
        assert!((2.2..3.0).contains(&mw), "power {mw} MW");
        let util = s.utilization_pct.bins.overall().mean();
        assert!((70.0..92.0).contains(&util), "util {util} %");
        let flow = s.flow_gpm.bins.overall().mean();
        assert!((1200.0..1320.0).contains(&flow), "flow {flow} GPM");
        let inlet = s.inlet_f.bins.overall().mean();
        assert!((62.0..67.0).contains(&inlet), "inlet {inlet} F");
        let outlet = s.outlet_f.bins.overall().mean();
        assert!((75.0..84.0).contains(&outlet), "outlet {outlet} F");
    }

    #[test]
    fn weekly_series_is_weekly() {
        let s = small_summary();
        let times = s.weekly_power_times();
        for pair in times.windows(2) {
            assert_eq!((pair[1] - pair[0]).as_days(), 7.0);
        }
    }

    #[test]
    fn energy_ledger_accumulates() {
        let s = small_summary();
        assert_eq!(s.yearly_energy.len(), 1);
        assert_eq!(s.yearly_energy[0].0, 2015);
        let ledger = &s.yearly_energy[0].1;
        // March has free cooling; total saved energy must be positive.
        assert!(ledger.saved().value() > 0.0);
        assert!(s.season_saved.value() > 0.0);
        // April-May run chillers.
        assert!(ledger.chiller_energy().value() > 0.0);
    }

    impl SweepSummary {
        fn weekly_power_times(&self) -> Vec<SimTime> {
            self.power_mw.weekly.times().to_vec()
        }
    }
}
