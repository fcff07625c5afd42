//! A job-level FCFS + EASY-backfill scheduler over the rack grid.
//!
//! The paper observes that "state-of-the-art back-filling job scheduling
//! strategies may not be able to fill all such holes" when the system
//! drains for a large capability job. This module is a real (if compact)
//! implementation of that scheduler class, usable for hole-filling
//! experiments: FCFS order, with EASY backfill — a waiting job may jump
//! the queue only if starting it now does not delay the reservation of
//! the queue's head job.
//!
//! Allocation is in midplane units (512 nodes): 96 midplanes across 48
//! racks, `prod-long` restricted to row 0's 32 midplanes, other queues to
//! rows 1–2.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use mira_facility::{Queue, RackId};
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::job::Job;

/// Midplanes per rack.
const MIDPLANES_PER_RACK: u32 = 2;

/// Total midplanes on the machine.
pub const TOTAL_MIDPLANES: u32 = MIDPLANES_PER_RACK * convert::u32_from_usize(RackId::COUNT);

/// A running job with its allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// The job itself.
    pub job: Job,
    /// When it started.
    pub started: SimTime,
    /// When it will finish (start + walltime).
    pub ends: SimTime,
    /// Midplane slots held, as `(rack, midplane-within-rack)` pairs.
    pub allocation: Vec<(RackId, u8)>,
}

/// Counters describing scheduler behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Jobs started in FCFS order.
    pub started_fcfs: u64,
    /// Jobs started by backfill.
    pub started_backfill: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Total queue wait accumulated by started jobs, in seconds.
    pub total_wait_seconds: i64,
}

impl SchedulerStats {
    /// Jobs started by either path.
    #[must_use]
    pub fn started(&self) -> u64 {
        self.started_fcfs + self.started_backfill
    }

    /// Mean queue wait of started jobs.
    #[must_use]
    pub fn mean_wait(&self) -> Duration {
        let n = self.started();
        if n == 0 {
            Duration::ZERO
        } else {
            Duration::from_seconds(self.total_wait_seconds / convert::i64_from_u64(n))
        }
    }
}

/// FCFS + EASY-backfill scheduler.
///
/// ```
/// use mira_timeseries::{Date, Duration, SimTime};
/// use mira_workload::{BackfillScheduler, JobGenerator};
///
/// let mut sched = BackfillScheduler::new();
/// let mut generator = JobGenerator::new(1);
/// let mut t = SimTime::from_date(Date::new(2016, 3, 1));
/// for _ in 0..48 {
///     for job in generator.submissions(t, Duration::from_hours(1)) {
///         sched.submit(job);
///     }
///     sched.step(t);
///     t += Duration::from_hours(1);
/// }
/// assert!(sched.utilization() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BackfillScheduler {
    /// `busy[rack][midplane]` — occupancy grid.
    busy: Vec<[bool; 2]>,
    queue: VecDeque<Job>,
    running: Vec<RunningJob>,
    stats: SchedulerStats,
    /// Racks administratively drained (failed or under maintenance).
    drained: Vec<bool>,
}

impl BackfillScheduler {
    /// Creates an empty scheduler over the full machine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            busy: vec![[false; 2]; RackId::COUNT],
            queue: VecDeque::new(),
            running: Vec::new(),
            stats: SchedulerStats::default(),
            drained: vec![false; RackId::COUNT],
        }
    }

    /// Enqueues a job.
    pub fn submit(&mut self, job: Job) {
        self.queue.push_back(job);
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Currently running jobs.
    #[must_use]
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Scheduler counters.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Marks a rack drained (its midplanes become unallocatable and any
    /// job touching it is killed). Returns the number of jobs killed.
    pub fn drain_rack(&mut self, rack: RackId) -> usize {
        self.drained[rack.index()] = true;
        let (killed, keep): (Vec<RunningJob>, Vec<RunningJob>) = self
            .running
            .drain(..)
            .partition(|r| r.allocation.iter().any(|(rk, _)| *rk == rack));
        for job in &killed {
            for &(rk, mp) in &job.allocation {
                self.busy[rk.index()][usize::from(mp)] = false;
            }
        }
        self.running = keep;
        killed.len()
    }

    /// Returns a drained rack to service.
    pub fn restore_rack(&mut self, rack: RackId) {
        self.drained[rack.index()] = false;
    }

    /// Fraction of the machine's midplanes currently running jobs.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let busy: u32 = self
            .busy
            .iter()
            .map(|r| convert::u32_from_usize(r.iter().filter(|&&b| b).count()))
            .sum();
        f64::from(busy) / f64::from(TOTAL_MIDPLANES)
    }

    /// Racks a queue may allocate on.
    fn allowed(queue: Queue, rack: RackId) -> bool {
        match queue {
            Queue::ProdLong => rack.row() == 0,
            Queue::ProdShort | Queue::Backfill => rack.row() != 0,
        }
    }

    /// Free midplane slots available to `queue` right now.
    // mp < MIDPLANES_PER_RACK matches the busy table's row width.
    // mira-lint: allow(panic-reachability)
    fn free_slots(&self, queue: Queue) -> Vec<(RackId, u8)> {
        let mut out = Vec::new();
        // Two midplanes per rack: the saturation never fires.
        let midplanes = u8::try_from(MIDPLANES_PER_RACK).unwrap_or(u8::MAX);
        for rack in RackId::all() {
            if self.drained[rack.index()] || !Self::allowed(queue, rack) {
                continue;
            }
            for mp in 0..midplanes {
                if !self.busy[rack.index()][usize::from(mp)] {
                    out.push((rack, mp));
                }
            }
        }
        out
    }

    // Allocation slots come from free_slots, built against the same
    // busy table. mira-lint: allow(panic-reachability)
    fn start(&mut self, job: Job, now: SimTime, backfilled: bool) {
        let slots = self.free_slots(job.queue);
        debug_assert!(slots.len() >= convert::usize_from_u32(job.midplanes));
        let allocation: Vec<(RackId, u8)> = slots
            .into_iter()
            .take(convert::usize_from_u32(job.midplanes))
            .collect();
        for &(rack, mp) in &allocation {
            self.busy[rack.index()][usize::from(mp)] = true;
        }
        let ends = now + job.walltime;
        let waited = (now - job.submitted).as_seconds().max(0);
        self.running.push(RunningJob {
            job,
            started: now,
            ends,
            allocation,
        });
        if backfilled {
            self.stats.started_backfill += 1;
        } else {
            self.stats.started_fcfs += 1;
        }
        self.stats.total_wait_seconds += waited;
    }

    /// Advances the scheduler to `now`: completes finished jobs, starts
    /// FCFS-eligible jobs, then backfills.
    // Midplane slots come from free_slots/allocations, which are built
    // against the same busy table. mira-lint: allow(panic-reachability)
    pub fn step(&mut self, now: SimTime) {
        // Complete.
        let (done, keep): (Vec<RunningJob>, Vec<RunningJob>) =
            self.running.drain(..).partition(|r| r.ends <= now);
        for job in &done {
            for &(rack, mp) in &job.allocation {
                self.busy[rack.index()][usize::from(mp)] = false;
            }
        }
        self.stats.completed += done.len() as u64;
        self.running = keep;

        // FCFS: start from the head while it fits.
        while let Some(head) = self.queue.front() {
            if self.free_slots(head.queue).len() < convert::usize_from_u32(head.midplanes) {
                break;
            }
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            self.start(job, now, false);
        }

        // EASY backfill behind a blocked head.
        if let Some(head) = self.queue.front().cloned() {
            let shadow = self.shadow_time(&head, now);
            let mut i = 1;
            while i < self.queue.len() {
                let candidate = self.queue[i].clone();
                let fits = self.free_slots(candidate.queue).len()
                    >= convert::usize_from_u32(candidate.midplanes);
                // EASY rule: a backfilled job must end before the head's
                // reservation, or not touch the head's queue partition.
                let head_partition_disjoint = candidate.queue != head.queue
                    && (candidate.queue == Queue::ProdLong) != (head.queue == Queue::ProdLong);
                let ok = fits && (now + candidate.walltime <= shadow || head_partition_disjoint);
                if ok {
                    let Some(job) = self.queue.remove(i) else {
                        break;
                    };
                    self.start(job, now, true);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Earliest time the queue head could start, given running jobs'
    /// declared walltimes.
    fn shadow_time(&self, head: &Job, now: SimTime) -> SimTime {
        let mut free = convert::u32_from_usize(self.free_slots(head.queue).len());
        if free >= head.midplanes {
            return now;
        }
        let mut ends: Vec<(SimTime, u32)> = self
            .running
            .iter()
            .map(|r| {
                let relevant = convert::u32_from_usize(
                    r.allocation
                        .iter()
                        .filter(|(rack, _)| Self::allowed(head.queue, *rack))
                        .count(),
                );
                (r.ends, relevant)
            })
            .filter(|(_, n)| *n > 0)
            .collect();
        ends.sort_by_key(|(t, _)| *t);
        for (t, n) in ends {
            free += n;
            if free >= head.midplanes {
                return t;
            }
        }
        // Head can never fit (larger than its partition): park far out.
        now + Duration::from_days(365)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobGenerator, Program};
    use mira_timeseries::Date;

    fn job(id: u64, queue: Queue, midplanes: u32, hours: i64, t: SimTime) -> Job {
        Job {
            id,
            program: Program::Incite,
            queue,
            midplanes,
            walltime: Duration::from_hours(hours),
            intensity: 0.7,
            submitted: t,
        }
    }

    fn t0() -> SimTime {
        SimTime::from_date(Date::new(2016, 5, 2))
    }

    #[test]
    fn starts_and_completes_jobs() {
        let mut s = BackfillScheduler::new();
        s.submit(job(1, Queue::ProdShort, 4, 2, t0()));
        s.step(t0());
        assert_eq!(s.running().len(), 1);
        assert!((s.utilization() - 4.0 / 96.0).abs() < 1e-12);
        s.step(t0() + Duration::from_hours(3));
        assert_eq!(s.running().len(), 0);
        assert_eq!(s.stats().completed, 1);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn prod_long_lands_on_row_zero() {
        let mut s = BackfillScheduler::new();
        s.submit(job(1, Queue::ProdLong, 8, 12, t0()));
        s.step(t0());
        assert_eq!(s.running().len(), 1);
        assert!(s.running()[0]
            .allocation
            .iter()
            .all(|(rack, _)| rack.row() == 0));
    }

    #[test]
    fn backfill_fills_behind_blocked_head() {
        let mut s = BackfillScheduler::new();
        // Fill rows 1-2 almost completely (64 midplanes): 60 busy for 10 h.
        s.submit(job(1, Queue::ProdShort, 60, 10, t0()));
        s.step(t0());
        // Head needs 8 midplanes -> blocked (only 4 free).
        s.submit(job(2, Queue::ProdShort, 8, 5, t0()));
        // Short job fits in the hole and ends before the 10 h shadow.
        s.submit(job(3, Queue::ProdShort, 2, 3, t0()));
        s.step(t0() + Duration::from_minutes(5));
        let stats = s.stats();
        assert_eq!(stats.started_backfill, 1, "{stats:?}");
        assert_eq!(s.queued(), 1, "head still waiting");
    }

    #[test]
    fn backfill_does_not_delay_head() {
        let mut s = BackfillScheduler::new();
        s.submit(job(1, Queue::ProdShort, 60, 4, t0()));
        s.step(t0());
        s.submit(job(2, Queue::ProdShort, 8, 5, t0()));
        // Candidate fits the hole but runs 12 h — past the 4 h shadow.
        s.submit(job(3, Queue::ProdShort, 2, 12, t0()));
        s.step(t0() + Duration::from_minutes(5));
        assert_eq!(s.stats().started_backfill, 0);
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn drain_kills_jobs_and_blocks_allocation() {
        let mut s = BackfillScheduler::new();
        s.submit(job(1, Queue::ProdShort, 64, 10, t0()));
        s.step(t0());
        assert_eq!(s.running().len(), 1);
        let victim = s.running()[0].allocation[0].0;
        let killed = s.drain_rack(victim);
        assert_eq!(killed, 1);
        assert_eq!(s.running().len(), 0);
        // The drained rack cannot be re-allocated.
        s.submit(job(2, Queue::ProdShort, 64, 1, t0()));
        s.step(t0() + Duration::from_hours(1));
        assert_eq!(s.queued(), 1, "64 midplanes no longer available");
        s.restore_rack(victim);
        s.step(t0() + Duration::from_hours(2));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn oversized_head_parks_without_blocking_backfill_forever() {
        let mut s = BackfillScheduler::new();
        // 40 > 32 row-0 midplanes: can never run.
        s.submit(job(1, Queue::ProdLong, 64, 1, t0()));
        s.submit(job(2, Queue::ProdShort, 2, 1, t0()));
        s.step(t0());
        // The short job backfills because it uses a disjoint partition.
        assert_eq!(s.stats().started_backfill, 1);
    }

    #[test]
    fn wait_times_are_tracked() {
        let mut s = BackfillScheduler::new();
        // Saturate rows 1-2 so the next job queues.
        s.submit(job(1, Queue::ProdShort, 64, 5, t0()));
        s.step(t0());
        s.submit(job(2, Queue::ProdShort, 4, 1, t0()));
        s.step(t0());
        assert_eq!(s.stats().started(), 1, "second job queued");
        // After the first completes, the queued job starts 5 h late.
        s.step(t0() + Duration::from_hours(5));
        assert_eq!(s.stats().started(), 2);
        assert_eq!(s.stats().mean_wait(), Duration::from_hours(5) / 2);
    }

    #[test]
    fn sustained_load_reaches_high_utilization() {
        let mut s = BackfillScheduler::new();
        let mut generator = JobGenerator::new(77);
        let mut t = t0();
        for _ in 0..(24 * 14) {
            for j in generator.submissions(t, Duration::from_hours(1)) {
                s.submit(j);
            }
            s.step(t);
            t += Duration::from_hours(1);
        }
        assert!(
            s.utilization() > 0.6,
            "two weeks of arrivals should saturate: {}",
            s.utilization()
        );
        // With no drains, every started job has either completed or is
        // still running, and each start is counted once.
        let stats = s.stats();
        assert!(stats.started_backfill > 0, "{stats:?}");
        assert_eq!(
            stats.started(),
            stats.completed + convert::u64_from_usize(s.running().len())
        );
    }
}
