//! The ground-truth telemetry engine: weather × workload × hydraulics ×
//! failures → coolant-monitor samples.
//!
//! Every quantity here is a deterministic function of `(seed, rack,
//! time)`, which is what makes the rest of the workspace cheap: analyses
//! can random-access any instant (the CMF predictor reads six-hour
//! floor windows around failures without replaying history), and two
//! simulations with the same seed agree bit-for-bit.

use serde::{Deserialize, Serialize};

use mira_cooling::{
    ChilledWaterPlant, CoolantMonitor, CoolantMonitorSample, FlowCursor, FlowNetwork,
    HeatExchanger, MonitorBank, PlantLoad, PrecursorSignature,
};
use mira_facility::power::STANDBY_DRAW;
use mira_facility::{BulkPowerModule, Machine, RackId};
use mira_predictor::{FloorRow, TelemetryProvider};
use mira_ras::schedule::CmfSchedule;
use mira_ras::{AvailabilityCursor, RackAvailability, RasLog};
use mira_timeseries::{CivilDayCache, CivilParts, Duration, SimTime};
use mira_units::{convert, Fahrenheit, Gpm, Kilowatts, RelHumidity, Watts};
use mira_weather::{ChicagoClimate, ClimateCursor, FractalCursor, NoiseCursor, WeatherSample};
use mira_workload::{SystemDemand, WorkloadCursor, WorkloadModel};

use crate::sweep::SweepStep;
use crate::timeline::OperationalTimeline;

/// The physical (pre-sensor) state of one rack at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackTruth {
    /// Fraction of the rack's nodes running jobs (0 while the rack is
    /// down).
    pub utilization: f64,
    /// CPU intensity of the rack's job mix.
    pub intensity: f64,
    /// Ambient temperature at the rack (room + airflow offset).
    pub ambient_temperature: Fahrenheit,
    /// Ambient humidity at the rack.
    pub ambient_humidity: RelHumidity,
    /// Coolant flow through the rack.
    pub flow: Gpm,
    /// Inlet coolant temperature.
    pub inlet: Fahrenheit,
    /// Outlet coolant temperature.
    pub outlet: Fahrenheit,
    /// Rack electrical draw.
    pub power: Kilowatts,
    /// Whether the rack is up.
    pub is_up: bool,
}

/// Shared per-instant state, computed once per step and reused across
/// the 48 racks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// The instant this snapshot describes.
    pub time: SimTime,
    /// Weather and room conditions.
    pub weather: WeatherSample,
    /// System-level demand.
    pub demand: SystemDemand,
    /// Chilled-water supply temperature delivered to the loop.
    pub supply_temperature: Fahrenheit,
    /// Fraction of the load the economizer carries.
    pub free_cooling_fraction: f64,
    /// Chiller electrical draw.
    pub chiller_power: Kilowatts,
    /// Chiller draw avoided by the economizer.
    pub avoided_power: Kilowatts,
    /// Per-rack coolant flows (index = [`RackId::index`]).
    pub flows: Vec<Gpm>,
    /// Per-rack up/down state.
    pub rack_up: Vec<bool>,
}

/// Cached next-CMF lookups per rack, each with the validity window
/// between the neighbouring CMF instants.
///
/// The cached answer for a rack holds for every `t` strictly after the
/// previous CMF and at or before the next one — window edges are pure
/// functions of the engine's (immutable) per-rack CMF lists, so
/// [`TelemetryEngine::next_cmf_cached`] is bit-identical to
/// [`TelemetryEngine::next_cmf`] from any prior cursor state.
#[derive(Debug, Clone)]
pub struct CmfCursor {
    windows: Vec<Option<(SimTime, SimTime, Option<SimTime>)>>,
}

/// The telemetry engine.
#[derive(Debug, Clone)]
pub struct TelemetryEngine {
    seed: u64,
    climate: ChicagoClimate,
    workload: WorkloadModel,
    machine: Machine,
    plant: ChilledWaterPlant,
    network: FlowNetwork,
    exchanger: HeatExchanger,
    bpm: BulkPowerModule,
    timeline: OperationalTimeline,
    signature: PrecursorSignature,
    flow_ops_noise: mira_weather::ValueNoise,
    monitors: Vec<CoolantMonitor>,
    availability: RackAvailability,
    /// Per-rack, time-sorted CMF instants (every rack in an incident's
    /// cascade records its own failure).
    cmf_times: Vec<Vec<SimTime>>,
}

impl TelemetryEngine {
    /// Builds the engine from the models and the failure ground truth.
    #[must_use]
    pub fn new(seed: u64, schedule: &CmfSchedule, ras_log: &RasLog) -> Self {
        let mut availability = RackAvailability::new();
        let mut cmf_times: Vec<Vec<SimTime>> = vec![Vec::new(); RackId::COUNT];
        for incident in schedule.incidents() {
            for &rack in &incident.affected {
                availability.mark_cmf(rack, incident.time);
                cmf_times[rack.index()].push(incident.time);
            }
        }
        for event in ras_log.counted_non_cmfs() {
            availability.mark_non_cmf(event.rack, event.time);
        }
        for times in &mut cmf_times {
            times.sort();
        }

        Self {
            seed,
            climate: ChicagoClimate::new(seed),
            workload: WorkloadModel::new(seed),
            machine: Machine::mira(),
            plant: ChilledWaterPlant::mira(seed),
            network: FlowNetwork::mira(seed),
            exchanger: HeatExchanger::mira(),
            bpm: BulkPowerModule::mira(),
            timeline: OperationalTimeline::mira(),
            signature: PrecursorSignature::mira(),
            flow_ops_noise: mira_weather::ValueNoise::new(seed ^ 0x0F10_A7E5, 18.0 * 86_400.0),
            monitors: RackId::all()
                .map(|r| CoolantMonitor::new(r, seed))
                .collect(),
            availability,
            cmf_times,
        }
    }

    /// The machine description.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The operational timeline.
    #[must_use]
    pub fn timeline(&self) -> &OperationalTimeline {
        &self.timeline
    }

    /// The workload model.
    #[must_use]
    pub fn workload(&self) -> &WorkloadModel {
        &self.workload
    }

    /// The climate model.
    #[must_use]
    pub fn climate(&self) -> &ChicagoClimate {
        &self.climate
    }

    /// Rack availability derived from the failure ground truth.
    #[must_use]
    pub fn availability(&self) -> &RackAvailability {
        &self.availability
    }

    /// The next CMF on `rack` at or after `t`, if any.
    #[must_use]
    pub fn next_cmf(&self, rack: RackId, t: SimTime) -> Option<SimTime> {
        let times = &self.cmf_times[rack.index()];
        let idx = times.partition_point(|&ct| ct < t);
        times.get(idx).copied()
    }

    /// Builds an empty cursor for [`Self::next_cmf_cached`].
    #[must_use]
    // Cursor constructor: one window vector per worker (via
    // sweep_scratch), never in the per-step fold.
    // mira-lint: allow(alloc-in-hot-path)
    pub fn cmf_cursor(&self) -> CmfCursor {
        CmfCursor {
            windows: vec![None; self.cmf_times.len()],
        }
    }

    /// [`Self::next_cmf`] through the cursor: answers from the cached
    /// window between neighbouring CMFs when `t` still falls inside it.
    #[must_use]
    pub fn next_cmf_cached(
        &self,
        rack: RackId,
        t: SimTime,
        cursor: &mut CmfCursor,
    ) -> Option<SimTime> {
        if let Some((lo, hi, next)) = cursor.windows[rack.index()] {
            if lo < t && t <= hi {
                return next;
            }
        }
        let times = &self.cmf_times[rack.index()];
        let idx = times.partition_point(|&ct| ct < t);
        let lo = idx
            .checked_sub(1)
            .and_then(|i| times.get(i))
            .copied()
            .unwrap_or(SimTime::from_epoch_seconds(i64::MIN));
        let next = times.get(idx).copied();
        let hi = next.unwrap_or(SimTime::from_epoch_seconds(i64::MAX));
        cursor.windows[rack.index()] = Some((lo, hi, next));
        next
    }

    /// Computes the shared per-instant state.
    #[must_use]
    pub fn snapshot(&self, t: SimTime) -> SystemSnapshot {
        let weather = self.climate.sample(t);
        let demand = self.workload.system_demand(t);

        let rack_up: Vec<bool> = RackId::all()
            .map(|r| self.availability.is_up(r, t))
            .collect();
        let mut valve_open = [true; RackId::COUNT];
        for (slot, up) in valve_open.iter_mut().zip(&rack_up) {
            *slot = *up;
        }

        // System heat load drives the plant.
        let heat_watts = self
            .bpm
            .heat_to_coolant_watts(demand.utilization, demand.intensity)
            * convert::f64_from_usize(RackId::COUNT);
        let free = ChicagoClimate::free_cooling_fraction_of(weather.outdoor_temperature);
        let plant = self
            .plant
            .respond(t, free, heat_watts, self.timeline.supply_uplift(t));

        let flows = self
            .network
            .distribute(t, self.effective_setpoint(t, &demand), &valve_open);

        SystemSnapshot {
            time: t,
            weather,
            demand,
            supply_temperature: plant.supply_temperature,
            free_cooling_fraction: plant.free_cooling_fraction,
            chiller_power: plant.chiller_power,
            avoided_power: plant.avoided_power,
            flows,
            rack_up,
        }
    }

    /// The operator-trimmed loop setpoint: the structural 1,250/1,300
    /// GPM level, a small seasonal uplift tracking the second-half
    /// utilization surge (Fig. 4c), and slow operator adjustments.
    #[must_use]
    pub fn effective_setpoint(&self, t: SimTime, demand: &SystemDemand) -> Gpm {
        self.effective_setpoint_with(t, demand, &mut self.flow_ops_noise.fractal_cursor(2))
    }

    /// [`Self::effective_setpoint`] through an operator-noise cursor;
    /// bit-identical to the cold path from any prior cursor state.
    #[must_use]
    pub fn effective_setpoint_with(
        &self,
        t: SimTime,
        demand: &SystemDemand,
        cursor: &mut FractalCursor,
    ) -> Gpm {
        let base = self.timeline.flow_setpoint(t);
        // Operators conservatively raise flow as utilization climbs:
        // ≈ +1 % at peak-season load.
        let seasonal = 1.0 + 0.013 * (demand.utilization - 0.80).max(0.0) / 0.13;
        let ops = self
            .flow_ops_noise
            .fractal_with(convert::f64_from_i64(t.epoch_seconds()), cursor)
            * 30.0;
        (base * seasonal + Gpm::new(ops)).saturating()
    }

    /// Ground-truth physical state of `rack` given a snapshot at the
    /// same instant.
    #[must_use]
    pub fn rack_truth(&self, rack: RackId, snap: &SystemSnapshot) -> RackTruth {
        let t = snap.time;
        let air = self.machine.airflow().at(rack);
        let ambient_temperature = snap.weather.indoor_temperature + air.temperature_offset;
        let ambient_humidity =
            RelHumidity::new(snap.weather.indoor_humidity.value() * air.humidity_factor);

        let up = snap.rack_up[rack.index()];
        let load = if up {
            self.workload.rack_load_with(t, rack, &snap.demand)
        } else {
            mira_workload::RackLoad {
                utilization: 0.0,
                intensity: 0.0,
            }
        };

        let mut flow = snap.flows[rack.index()];
        let mut inlet = snap.supply_temperature;

        // Pre-failure signature on racks with an impending CMF, scaled
        // by the event's severity (not every incident telegraphs
        // equally hard).
        if let Some(cmf_at) = self.next_cmf(rack, t) {
            let lead = cmf_at - t;
            if lead <= self.signature.horizon() {
                let severity = self
                    .signature
                    .event_severity(rack.index(), cmf_at.epoch_seconds());
                inlet =
                    inlet * PrecursorSignature::scale(self.signature.inlet_factor(lead), severity);
                flow = flow * PrecursorSignature::scale(self.signature.flow_factor(lead), severity);
            }
        }

        let power = if up {
            self.bpm.draw(load.utilization, load.intensity)
        } else {
            STANDBY_DRAW
        };
        let heat = if up {
            self.bpm
                .heat_to_coolant_watts(load.utilization, load.intensity)
        } else {
            Watts::new(0.0)
        };
        // The outlet dip of Fig. 12 needs no separate injection: the
        // sagging inlet propagates through the heat exchanger, producing
        // the ≈5 % outlet drop the paper reports (a 7 % drop on 64 F in,
        // unchanged ΔT, is ≈5.7 % on 79 F out).
        let outlet = self.exchanger.outlet_temperature(inlet, flow, heat);

        RackTruth {
            utilization: load.utilization,
            intensity: load.intensity,
            ambient_temperature,
            ambient_humidity,
            flow,
            inlet,
            outlet,
            power,
            is_up: up,
        }
    }

    /// The coolant-monitor record for `rack` given a snapshot.
    #[must_use]
    pub fn observe(&self, rack: RackId, snap: &SystemSnapshot) -> CoolantMonitorSample {
        let truth = self.rack_truth(rack, snap);
        self.monitors[rack.index()].observe(
            snap.time,
            truth.ambient_temperature,
            truth.ambient_humidity,
            truth.flow,
            truth.inlet,
            truth.outlet,
            truth.power,
        )
    }

    /// Builds the reusable per-worker scratch for
    /// [`Self::sweep_steps_into`].
    #[must_use]
    // This *is* the scratch constructor: it allocates the reusable
    // buffers exactly once per worker so the per-step fold doesn't
    // have to. mira-lint: allow(alloc-in-hot-path)
    pub fn sweep_scratch(&self) -> SweepScratch {
        let origin = SimTime::from_epoch_seconds(0);
        SweepScratch {
            step: SweepStep {
                snapshot: SystemSnapshot {
                    time: origin,
                    weather: WeatherSample {
                        outdoor_temperature: Fahrenheit::new(0.0),
                        outdoor_humidity: RelHumidity::new(0.0),
                        outdoor_dew_point: Fahrenheit::new(0.0),
                        indoor_temperature: Fahrenheit::new(0.0),
                        indoor_humidity: RelHumidity::new(0.0),
                    },
                    demand: SystemDemand {
                        utilization: 0.0,
                        intensity: 0.0,
                        in_maintenance: false,
                    },
                    supply_temperature: Fahrenheit::new(0.0),
                    free_cooling_fraction: 0.0,
                    chiller_power: Kilowatts::new(0.0),
                    avoided_power: Kilowatts::new(0.0),
                    flows: Vec::with_capacity(RackId::COUNT),
                    rack_up: Vec::with_capacity(RackId::COUNT),
                },
                civil: origin.civil_parts(),
                truths: Vec::with_capacity(RackId::COUNT),
                samples: Vec::with_capacity(RackId::COUNT),
            },
            block: SweepBlock::with_capacity(crate::sweep::SWEEP_BLOCK),
            civil: CivilDayCache::default(),
            climate: self.climate.cursor(),
            workload: self.workload.cursor(),
            avail: self.availability.cursor(),
            cmf: self.cmf_cursor(),
            plant: NoiseCursor::default(),
            setpoint_ops: self.flow_ops_noise.fractal_cursor(2),
            flow: self.network.flow_cursor(),
            valve_open: [true; RackId::COUNT],
            air_temp_offset: {
                let mut lanes = [0.0; RackId::COUNT];
                for (r, lane) in self.machine.airflow().iter().zip(lanes.iter_mut()) {
                    *lane = r.1.temperature_offset.value();
                }
                lanes
            },
            air_humidity_factor: {
                let mut lanes = [0.0; RackId::COUNT];
                for (r, lane) in self.machine.airflow().iter().zip(lanes.iter_mut()) {
                    *lane = r.1.humidity_factor;
                }
                lanes
            },
            monitor_bank: MonitorBank::new(&self.monitors),
        }
    }

    /// Computes `len` consecutive [`SweepStep`]s — the grid `from`,
    /// `from + step`, … — into the scratch's structure-of-arrays
    /// [`SweepBlock`], the batched sweep hot path.
    ///
    /// The work is staged so each pass streams contiguous `[f64; 48]`
    /// lane rows the compiler can autovectorize:
    ///
    /// 1. per-instant scalars (calendar, weather, demand, availability
    ///    mask, plant response, setpoint) through the shared cursors in
    ///    chronological order;
    /// 2. hydraulic flow distribution lanes;
    /// 3. workload lanes (placement wobble, clamps), zeroed on down
    ///    racks as the scalar path's skip yields exact zeros;
    /// 4. ambient thermal lanes from the precomputed airflow factors;
    /// 5. hydraulic truth lanes (supply inlet + distributed flow) with
    ///    the CMF precursor signature folded in — lanes whose CMF
    ///    window shows no failure within the signature horizon of the
    ///    whole block (the overwhelmingly common case) skip the
    ///    per-step branch entirely;
    /// 6. power draw, heat and exchanger outlet lanes;
    /// 7. sensor-noise observation lanes through the [`MonitorBank`].
    ///
    /// Every lane expression matches the scalar path's arithmetic and
    /// evaluation order, so each of the block's per-instant views is
    /// bit-identical to the scalar reference ([`Self::snapshot`],
    /// [`Self::rack_truth`], [`Self::observe`]) at the same instant,
    /// whatever the scratch computed before: every cache consulted
    /// (noise-lattice cursors, the civil-day decomposition,
    /// availability and CMF windows) is keyed on pure inputs. No heap
    /// allocation happens once the scratch is warm.
    // Every `[k]` is `k < len` over rows sized by `ensure_len(len)`,
    // and every `[l]` is `l in 0..RackId::COUNT` over `[_; 48]` rows.
    // mira-lint: allow(panic-reachability)
    pub fn sweep_steps_into(
        &self,
        from: SimTime,
        step: Duration,
        len: usize,
        scratch: &mut SweepScratch,
    ) {
        let SweepScratch {
            block,
            civil,
            climate,
            workload,
            avail,
            cmf,
            plant,
            setpoint_ops,
            flow,
            valve_open,
            air_temp_offset,
            air_humidity_factor,
            monitor_bank,
            ..
        } = scratch;
        block.ensure_len(len);
        if len == 0 {
            return;
        }

        // Pass 1: per-instant scalars.
        for k in 0..len {
            let t = from + step * convert::i64_from_usize(k);
            let parts = civil.resolve(t);
            let weather = self.climate.sample_with(t, climate);
            let demand = self.workload.system_demand_with(t, parts.date, workload);
            self.availability.fill_up_mask(t, avail, valve_open);
            let heat_watts = self
                .bpm
                .heat_to_coolant_watts(demand.utilization, demand.intensity)
                * convert::f64_from_usize(RackId::COUNT);
            let free = ChicagoClimate::free_cooling_fraction_of(weather.outdoor_temperature);
            let plant_load =
                self.plant
                    .respond_with(t, free, heat_watts, self.timeline.supply_uplift(t), plant);
            let setpoint = self.effective_setpoint_with(t, &demand, setpoint_ops);
            block.times[k] = t;
            block.civils[k] = parts;
            block.weathers[k] = weather;
            block.demands[k] = demand;
            block.plants[k] = plant_load;
            block.setpoints[k] = setpoint.value();
            block.up[k] = *valve_open;
        }

        // Pass 2: hydraulic distribution lanes.
        for k in 0..len {
            self.network.distribute_lanes(
                block.times[k],
                Gpm::new(block.setpoints[k]),
                &block.up[k],
                flow,
                &mut block.dist_flow[k],
            );
        }

        // Pass 3: workload lanes. Down racks read zero — the scalar
        // path skips them, and a discarded pure lane value cannot
        // perturb any other lane.
        for k in 0..len {
            self.workload.rack_load_lanes(
                block.times[k],
                &block.demands[k],
                workload,
                &mut block.util[k],
                &mut block.intensity[k],
            );
            let up = &block.up[k];
            let (util, intensity) = (&mut block.util[k], &mut block.intensity[k]);
            for l in 0..RackId::COUNT {
                if !up[l] {
                    util[l] = 0.0;
                    intensity[l] = 0.0;
                }
            }
        }

        // Pass 4: ambient thermal lanes.
        for k in 0..len {
            let it = block.weathers[k].indoor_temperature.value();
            let ih = block.weathers[k].indoor_humidity.value();
            let (ambient_t, ambient_rh) = (&mut block.ambient_t[k], &mut block.ambient_rh[k]);
            for l in 0..RackId::COUNT {
                ambient_t[l] = it + air_temp_offset[l];
                // `RelHumidity::new` clamps into [0, 100]; the lanes
                // store the post-clamp value the scalar truth carries.
                ambient_rh[l] = (ih * air_humidity_factor[l]).clamp(0.0, 100.0);
            }
        }

        // Pass 5: hydraulic truth lanes plus the precursor signature.
        for k in 0..len {
            block.inlet[k].fill(block.plants[k].supply_temperature.value());
            block.flow[k] = block.dist_flow[k];
        }
        let t_last = block.times[len - 1];
        for l in 0..RackId::COUNT {
            let rack = RackId::from_index(l);
            // One window probe at the block start classifies the whole
            // lane: the cached CMF window covers (prev, next], so every
            // instant through `t_last` resolves to the same next CMF,
            // and if that CMF (if any) is further than the signature
            // horizon past the block's end, no instant in the block
            // carries a precursor.
            let clean = match self.next_cmf_cached(rack, from, cmf) {
                None => true,
                Some(cmf_at) => cmf_at - t_last > self.signature.horizon(),
            };
            if clean {
                continue;
            }
            for k in 0..len {
                let t = block.times[k];
                if let Some(cmf_at) = self.next_cmf_cached(rack, t, cmf) {
                    let lead = cmf_at - t;
                    if lead <= self.signature.horizon() {
                        let severity = self
                            .signature
                            .event_severity(rack.index(), cmf_at.epoch_seconds());
                        block.inlet[k][l] *=
                            PrecursorSignature::scale(self.signature.inlet_factor(lead), severity);
                        block.flow[k][l] *=
                            PrecursorSignature::scale(self.signature.flow_factor(lead), severity);
                    }
                }
            }
        }

        // Pass 6: power, heat, and exchanger outlet lanes.
        let mut heat_w = [0.0; RackId::COUNT];
        for k in 0..len {
            self.bpm.draw_lanes(
                &block.up[k],
                &block.util[k],
                &block.intensity[k],
                &mut block.power[k],
                &mut heat_w,
            );
            self.exchanger.outlet_lanes(
                &block.inlet[k],
                &block.flow[k],
                &heat_w,
                &mut block.outlet[k],
            );
        }

        // Pass 7: sensor observation lanes.
        let [o0, o1, o2, o3, o4, o5] = &mut block.obs;
        for k in 0..len {
            monitor_bank.observe_lanes(
                block.times[k],
                [
                    &block.ambient_t[k][..],
                    &block.ambient_rh[k][..],
                    &block.flow[k][..],
                    &block.inlet[k][..],
                    &block.outlet[k][..],
                    &block.power[k][..],
                ],
                [
                    &mut o0[k][..],
                    &mut o1[k][..],
                    &mut o2[k][..],
                    &mut o3[k][..],
                    &mut o4[k][..],
                    &mut o5[k][..],
                ],
            );
        }
    }

    /// The seed the engine was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Reusable per-worker state for the allocation-free sweep path: the
/// [`SweepBlock`] rows, the [`SweepStep`] staging buffer, and every
/// model cursor, threaded through [`TelemetryEngine::sweep_steps_into`].
///
/// One scratch per sequential fold (the parallel executor builds one
/// per worker). All cached values are pure functions of their inputs, so
/// reusing a scratch across arbitrary instants — even non-monotone ones
/// — produces exactly the cold-path bits.
#[derive(Debug, Clone)]
pub struct SweepScratch {
    step: SweepStep,
    block: SweepBlock,
    civil: CivilDayCache,
    climate: ClimateCursor,
    workload: WorkloadCursor,
    avail: AvailabilityCursor,
    cmf: CmfCursor,
    plant: NoiseCursor,
    setpoint_ops: FractalCursor,
    flow: FlowCursor,
    valve_open: [bool; RackId::COUNT],
    /// Per-rack airflow temperature offsets (static machine layout).
    air_temp_offset: [f64; RackId::COUNT],
    /// Per-rack airflow humidity factors (static machine layout).
    air_humidity_factor: [f64; RackId::COUNT],
    /// SoA view of the 48 coolant monitors' calibration constants.
    monitor_bank: MonitorBank,
}

impl SweepScratch {
    /// The most recently computed block.
    #[must_use]
    pub fn block(&self) -> &SweepBlock {
        &self.block
    }

    /// Split-borrow of the block (read) and the per-step staging
    /// buffer (write), for recorders that materialize per-instant
    /// views out of a batch.
    #[must_use]
    pub fn block_parts(&mut self) -> (&SweepBlock, &mut SweepStep) {
        (&self.block, &mut self.step)
    }
}

/// Structure-of-arrays output of one [`TelemetryEngine::sweep_steps_into`]
/// batch: per-instant scalars plus contiguous `[f64; 48]` lane rows for
/// every per-rack quantity, truth and observed.
///
/// Recorders either read the lanes directly (the summary and obs
/// recorders do) or materialize per-instant [`SweepStep`] views with
/// [`SweepBlock::materialize_into`]; both see exactly the bits of the
/// scalar reference at the same instant ([`TelemetryEngine::snapshot`],
/// [`TelemetryEngine::rack_truth`], [`TelemetryEngine::observe`]).
#[derive(Debug, Clone)]
pub struct SweepBlock {
    len: usize,
    pub(crate) times: Vec<SimTime>,
    pub(crate) civils: Vec<CivilParts>,
    pub(crate) weathers: Vec<WeatherSample>,
    pub(crate) demands: Vec<SystemDemand>,
    pub(crate) plants: Vec<PlantLoad>,
    pub(crate) setpoints: Vec<f64>,
    pub(crate) up: Vec<[bool; RackId::COUNT]>,
    /// Hydraulic distribution per rack (pre-precursor), GPM.
    pub(crate) dist_flow: Vec<[f64; RackId::COUNT]>,
    pub(crate) util: Vec<[f64; RackId::COUNT]>,
    pub(crate) intensity: Vec<[f64; RackId::COUNT]>,
    pub(crate) ambient_t: Vec<[f64; RackId::COUNT]>,
    pub(crate) ambient_rh: Vec<[f64; RackId::COUNT]>,
    /// Truth flow per rack (post-precursor), GPM.
    pub(crate) flow: Vec<[f64; RackId::COUNT]>,
    pub(crate) inlet: Vec<[f64; RackId::COUNT]>,
    pub(crate) outlet: Vec<[f64; RackId::COUNT]>,
    pub(crate) power: Vec<[f64; RackId::COUNT]>,
    /// Observed sensor lanes in channel order (dc-temperature,
    /// dc-humidity, flow, inlet, outlet, power).
    pub(crate) obs: [Vec<[f64; RackId::COUNT]>; 6],
}

impl SweepBlock {
    /// An empty block with room for `capacity` instants.
    // Scratch constructor: buffers grow here and in `ensure_len`, once
    // per worker, never in the per-step fold.
    // mira-lint: allow(alloc-in-hot-path)
    fn with_capacity(capacity: usize) -> Self {
        let mut block = Self {
            len: 0,
            times: Vec::new(),
            civils: Vec::new(),
            weathers: Vec::new(),
            demands: Vec::new(),
            plants: Vec::new(),
            setpoints: Vec::new(),
            up: Vec::new(),
            dist_flow: Vec::new(),
            util: Vec::new(),
            intensity: Vec::new(),
            ambient_t: Vec::new(),
            ambient_rh: Vec::new(),
            flow: Vec::new(),
            inlet: Vec::new(),
            outlet: Vec::new(),
            power: Vec::new(),
            obs: Default::default(),
        };
        block.ensure_len(capacity);
        block.len = 0;
        block
    }

    /// Grows the rows to hold `len` instants (one-time, amortized; the
    /// executor reuses one block per worker) and sets the active
    /// length. Row contents beyond the previous length are unspecified
    /// until the kernel passes overwrite them — every pass writes all
    /// `len` instants, so no stale value survives into a result.
    // Cold growth only; steady-state blocks never reallocate.
    // mira-lint: allow(alloc-in-hot-path)
    fn ensure_len(&mut self, len: usize) {
        if self.times.len() < len {
            let origin = SimTime::from_epoch_seconds(0);
            self.times.resize(len, origin);
            self.civils.resize(len, origin.civil_parts());
            self.weathers.resize(
                len,
                WeatherSample {
                    outdoor_temperature: Fahrenheit::new(0.0),
                    outdoor_humidity: RelHumidity::new(0.0),
                    outdoor_dew_point: Fahrenheit::new(0.0),
                    indoor_temperature: Fahrenheit::new(0.0),
                    indoor_humidity: RelHumidity::new(0.0),
                },
            );
            self.demands.resize(
                len,
                SystemDemand {
                    utilization: 0.0,
                    intensity: 0.0,
                    in_maintenance: false,
                },
            );
            self.plants.resize(
                len,
                PlantLoad {
                    supply_temperature: Fahrenheit::new(0.0),
                    free_cooling_fraction: 0.0,
                    chiller_power: Kilowatts::new(0.0),
                    avoided_power: Kilowatts::new(0.0),
                },
            );
            self.setpoints.resize(len, 0.0);
            self.up.resize(len, [true; RackId::COUNT]);
            for lanes in [
                &mut self.dist_flow,
                &mut self.util,
                &mut self.intensity,
                &mut self.ambient_t,
                &mut self.ambient_rh,
                &mut self.flow,
                &mut self.inlet,
                &mut self.outlet,
                &mut self.power,
            ] {
                lanes.resize(len, [0.0; RackId::COUNT]);
            }
            for lanes in &mut self.obs {
                lanes.resize(len, [0.0; RackId::COUNT]);
            }
        }
        self.len = len;
    }

    /// Number of instants in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no instants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The instant at block index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is at or past [`Self::len`].
    #[must_use]
    // Documented panic contract; the read is at the asserted `k`.
    // mira-lint: allow(panic-reachability)
    pub fn time(&self, k: usize) -> SimTime {
        assert!(k < self.len, "block index out of range");
        self.times[k]
    }

    /// Materializes the per-instant view at block index `k` into a
    /// reusable [`SweepStep`], re-wrapping each lane value in its unit
    /// newtype. Humidity lanes already carry post-clamp values and flow
    /// and power observations their zero floor, so the constructors are
    /// idempotent here and the materialized step is bit-identical to
    /// the scalar reference at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if `k` is at or past [`Self::len`].
    // Documented panic contract; all lane indexing below is over
    // fixed-size [_; 48] rows. mira-lint: allow(panic-reachability)
    pub fn materialize_into(&self, k: usize, out: &mut SweepStep) {
        assert!(k < self.len, "block index out of range");
        let snap = &mut out.snapshot;
        snap.time = self.times[k];
        snap.weather = self.weathers[k];
        snap.demand = self.demands[k];
        let plant = self.plants[k];
        snap.supply_temperature = plant.supply_temperature;
        snap.free_cooling_fraction = plant.free_cooling_fraction;
        snap.chiller_power = plant.chiller_power;
        snap.avoided_power = plant.avoided_power;
        snap.flows.clear();
        snap.flows
            .extend(self.dist_flow[k].iter().map(|&f| Gpm::new(f)));
        snap.rack_up.clear();
        snap.rack_up.extend_from_slice(&self.up[k]);
        out.civil = self.civils[k];
        out.truths.clear();
        out.samples.clear();
        for l in 0..RackId::COUNT {
            out.truths.push(RackTruth {
                utilization: self.util[k][l],
                intensity: self.intensity[k][l],
                ambient_temperature: Fahrenheit::new(self.ambient_t[k][l]),
                ambient_humidity: RelHumidity::new(self.ambient_rh[k][l]),
                flow: Gpm::new(self.flow[k][l]),
                inlet: Fahrenheit::new(self.inlet[k][l]),
                outlet: Fahrenheit::new(self.outlet[k][l]),
                power: Kilowatts::new(self.power[k][l]),
                is_up: self.up[k][l],
            });
            out.samples.push(CoolantMonitorSample {
                time: self.times[k],
                rack: RackId::from_index(l),
                dc_temperature: Fahrenheit::new(self.obs[0][k][l]),
                dc_humidity: RelHumidity::new(self.obs[1][k][l]),
                flow: Gpm::new(self.obs[2][k][l]),
                inlet: Fahrenheit::new(self.obs[3][k][l]),
                outlet: Fahrenheit::new(self.obs[4][k][l]),
                power: Kilowatts::new(self.obs[5][k][l]),
            });
        }
    }
}

impl TelemetryProvider for TelemetryEngine {
    fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
        let snap = self.snapshot(t);
        self.observe(rack, &snap)
    }

    fn interval(&self) -> Duration {
        mira_cooling::monitor::SAMPLE_INTERVAL
    }

    /// One [`TelemetryEngine::sweep_steps_into`] over the window, read
    /// from the block's observed-sample lanes: bit for bit the default's
    /// 48 [`TelemetryProvider::sample`] calls per instant.
    // The kernel fills `rows.len()` instants of 48 lanes, so `k` and `l`
    // index the block's lane rows in bounds. mira-lint: allow(panic-reachability)
    fn floor_window(&self, from: SimTime, rows: &mut [FloorRow]) {
        let mut scratch = self.sweep_scratch();
        self.sweep_steps_into(from, self.interval(), rows.len(), &mut scratch);
        let obs = &scratch.block.obs;
        for (k, row) in rows.iter_mut().enumerate() {
            let lanes = obs.each_ref().map(|channel| &channel[k]);
            for (l, channels) in row.iter_mut().enumerate() {
                *channels = lanes.map(|lane| lane[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::Date;

    fn engine() -> TelemetryEngine {
        let schedule = CmfSchedule::generate(21);
        let log = RasLog::assemble(&schedule, 21);
        TelemetryEngine::new(21, &schedule, &log)
    }

    fn quiet_time() -> SimTime {
        // 2017 had zero CMFs: telemetry is clean.
        SimTime::from_date(Date::new(2017, 5, 10)) + Duration::from_hours(14)
    }

    #[test]
    fn healthy_sample_is_in_nominal_ranges() {
        let e = engine();
        let snap = e.snapshot(quiet_time());
        for s in RackId::all().map(|rack| e.observe(rack, &snap)) {
            assert!((55.0..75.0).contains(&s.inlet.value()), "inlet {}", s.inlet);
            assert!(
                (70.0..95.0).contains(&s.outlet.value()),
                "outlet {}",
                s.outlet
            );
            assert!((20.0..32.0).contains(&s.flow.value()), "flow {}", s.flow);
            assert!((40.0..75.0).contains(&s.power.value()), "power {}", s.power);
            assert!((70.0..95.0).contains(&s.dc_temperature.value()));
            assert!((20.0..45.0).contains(&s.dc_humidity.value()));
        }
    }

    #[test]
    fn system_power_in_paper_band() {
        let e = engine();
        let snap = e.snapshot(quiet_time());
        let mw: f64 = RackId::all()
            .map(|rack| e.observe(rack, &snap).power.value())
            .sum::<f64>()
            / 1000.0;
        assert!((2.3..3.2).contains(&mw), "system power {mw} MW");
    }

    #[test]
    fn engine_is_deterministic() {
        let a = engine();
        let b = engine();
        let t = quiet_time();
        let (sa, sb) = (a.snapshot(t), b.snapshot(t));
        assert_eq!(sa, sb);
        for rack in RackId::all() {
            assert_eq!(a.observe(rack, &sa), b.observe(rack, &sb));
        }
    }

    #[test]
    fn random_access_matches_snapshot_path() {
        let e = engine();
        let t = quiet_time();
        let mut scratch = e.sweep_scratch();
        e.sweep_steps_into(t, e.interval(), 1, &mut scratch);
        let (block, step) = scratch.block_parts();
        block.materialize_into(0, step);
        let samples = &step.samples;
        let rack = RackId::new(1, 8);
        assert_eq!(e.observe(rack, &e.snapshot(t)), samples[rack.index()]);
        assert_eq!(
            TelemetryProvider::sample(&e, rack, t),
            samples[rack.index()]
        );
    }

    #[test]
    fn downed_rack_reads_dark() {
        let e = engine();
        let schedule = CmfSchedule::generate(21);
        let incident = &schedule.incidents()[0];
        let during = incident.time + Duration::from_hours(1);
        let snap = e.snapshot(during);
        let truth = e.rack_truth(incident.epicenter, &snap);
        assert!(!truth.is_up);
        assert_eq!(truth.utilization, 0.0);
        assert!(truth.power.value() < 5.0);
        assert_eq!(truth.flow.value(), 0.0, "valve closed");
    }

    #[test]
    fn precursor_shows_in_epicenter_telemetry() {
        let e = engine();
        let schedule = CmfSchedule::generate(21);
        let incident = &schedule.incidents()[0];
        let rack = incident.epicenter;
        // Trough of the inlet sag ~2 h before failure.
        let trough = incident.time - Duration::from_hours(2);
        let healthy = incident.time - Duration::from_hours(30);
        let s_trough = TelemetryProvider::sample(&e, rack, trough);
        let s_healthy = TelemetryProvider::sample(&e, rack, healthy);
        let drop = (s_healthy.inlet.value() - s_trough.inlet.value()) / s_healthy.inlet.value();
        assert!(
            (0.03..0.10).contains(&drop),
            "inlet sag {drop} (healthy {}, trough {})",
            s_healthy.inlet,
            s_trough.inlet
        );
    }

    /// The default [`TelemetryProvider::floor_window`]: 48 `sample`
    /// calls per instant.
    struct ByRack<'a>(&'a TelemetryEngine);

    impl TelemetryProvider for ByRack<'_> {
        fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
            self.0.sample(rack, t)
        }

        fn interval(&self) -> Duration {
            self.0.interval()
        }
    }

    #[test]
    fn floor_window_matches_per_rack_samples_bit_for_bit() {
        let e = engine();
        let schedule = CmfSchedule::generate(21);
        let incident = &schedule.incidents()[0];
        // A month seam off the 5-minute grid, and a window running from
        // inside the precursor horizon through the failure and outage.
        let seam =
            SimTime::from_date(Date::new(2015, 4, 1)) - Duration::from_seconds(3 * 3_600 + 17);
        for (from, n) in [(seam, 72), (incident.time - Duration::from_hours(5), 97)] {
            let mut kernel = vec![[[0.0; 6]; RackId::COUNT]; n];
            let mut scalar = kernel.clone();
            e.floor_window(from, &mut kernel);
            ByRack(&e).floor_window(from, &mut scalar);
            for (k, (a, b)) in kernel.iter().zip(&scalar).enumerate() {
                for (l, (ra, rb)) in a.iter().zip(b).enumerate() {
                    for (c, (va, vb)) in ra.iter().zip(rb).enumerate() {
                        assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "instant {k} rack {l} channel {c}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            e.next_cmf(incident.epicenter, incident.time - Duration::from_hours(5)),
            Some(incident.time),
            "the second window starts inside the epicenter's precursor"
        );
    }

    #[test]
    fn next_cmf_lookup() {
        let e = engine();
        let schedule = CmfSchedule::generate(21);
        let incident = &schedule.incidents()[0];
        let before = incident.time - Duration::from_hours(5);
        assert_eq!(e.next_cmf(incident.epicenter, before), Some(incident.time));
    }

    #[test]
    fn winter_inlet_warmer_than_summer() {
        // Free cooling makes winter supply slightly warmer (Fig. 4d).
        let e = engine();
        let mean_inlet = |y: i32, m: u8| {
            let mut total = 0.0;
            let mut n = 0u32;
            for d in [3u8, 9, 15, 21] {
                for h in [2i64, 8, 14, 20] {
                    let t = SimTime::from_date(Date::new(y, m, d)) + Duration::from_hours(h);
                    let snap = e.snapshot(t);
                    total += RackId::all()
                        .map(|rack| e.observe(rack, &snap).inlet.value())
                        .sum::<f64>()
                        / 48.0;
                    n += 1;
                }
            }
            total / f64::from(n)
        };
        let feb = mean_inlet(2015, 2);
        let aug = mean_inlet(2015, 8);
        assert!(feb > aug + 0.5, "feb {feb} aug {aug}");
    }
}
