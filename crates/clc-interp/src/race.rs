//! Data-race detection for shared (local / global) memory.
//!
//! The paper defines a data race (§3.1) as two accesses to a common location
//! from distinct work-items where at least one access is a write and either
//! the work-items are in different groups, or they are in the same group,
//! at least one access is non-atomic, and the accesses are not separated by
//! a barrier.
//!
//! The detector logs every shared-memory access together with the work-item
//! that made it and the *barrier interval* (number of group barriers the
//! work-item has passed).  Two same-group accesses conflict only when they
//! fall in the same interval; cross-group accesses always conflict when one
//! is a non-atomic write.  This is exactly the check the paper's authors had
//! to perform manually when they discovered the races in Parboil `spmv` and
//! Rodinia `myocyte` (§2.4).
//!
//! # Shadow-memory layout
//!
//! Accesses are kept in flat per-object *shadow arrays* indexed by cell
//! offset rather than in a hash map keyed by `(ObjId, usize)`: the detector
//! sits on the interpreter's shared-access hot path, where a `Vec` index is
//! far cheaper than hashing.  Each shadow carries an *era* counter and each
//! cell log is tagged with the era it was written under, so both whole-object
//! resets (a finished group's locals) and whole-detector resets (reuse across
//! launches, mirroring `Memory::spare_cells`) are O(1)-per-object era bumps
//! instead of deallocations — a stale-era cell log is simply treated as
//! empty and lazily re-initialised on its next access.

use crate::error::RaceReport;
use crate::value::ObjId;
use std::collections::HashMap;

/// Kind of access, for conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain read.
    Read,
    /// Plain write.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }

    fn is_atomic(self) -> bool {
        matches!(self, AccessKind::Atomic)
    }
}

#[derive(Debug, Clone)]
struct Access {
    thread: usize,
    group: usize,
    interval: u32,
    kind: AccessKind,
}

/// Sentinel for "retained accesses come from more than one thread".
const MIXED_THREADS: usize = usize::MAX;

/// Per-cell access log inside a shadow array.
#[derive(Debug, Clone)]
struct CellLog {
    /// Era this log was last written under; a log whose era differs from its
    /// shadow's current era is logically empty.
    era: u64,
    /// Retained accesses.  Keeping every access would be quadratic; keeping
    /// the full set per location is fine because CLsmith kernels touch each
    /// shared cell a bounded number of times, but to stay robust on
    /// adversarial inputs the log per cell is capped.
    accesses: Vec<Access>,
    /// Whether any retained access is a write or atomic (summary used to
    /// skip the conflict scan for read-after-reads).
    has_write: bool,
    /// The single thread all retained accesses come from, or
    /// [`MIXED_THREADS`].  A thread never races with itself, so a cell only
    /// ever touched by one thread needs no conflict scan.
    only_thread: usize,
}

impl Default for CellLog {
    fn default() -> CellLog {
        CellLog {
            era: 0,
            accesses: Vec::new(),
            has_write: false,
            only_thread: MIXED_THREADS,
        }
    }
}

/// Flat shadow array for one object.
#[derive(Debug, Clone)]
struct Shadow {
    /// Current era; cell logs tagged with an older era are empty.
    era: u64,
    /// Era in which this shadow last counted towards
    /// [`RaceStats::shadow_arrays`], so reuse across eras is counted once
    /// per era rather than once per access.
    counted_era: u64,
    /// One log per cell offset, grown lazily to the highest offset touched.
    cells: Vec<CellLog>,
}

impl Default for Shadow {
    fn default() -> Shadow {
        Shadow {
            // Start above the `CellLog` default era so a freshly grown cell
            // log is always seen as stale and initialised on first use.
            era: 1,
            counted_era: 0,
            cells: Vec::new(),
        }
    }
}

/// Counters describing the work the detector did during one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Shared-memory accesses recorded.
    pub accesses: u64,
    /// Distinct shadow arrays active (objects with at least one recorded
    /// access in their current era).
    pub shadow_arrays: u64,
    /// O(1) era bumps performed in place of log clears (one per group-local
    /// object at each group retirement).
    pub epoch_bumps: u64,
}

/// Records shared-memory accesses and reports the first conflicting pair.
#[derive(Debug)]
pub struct RaceDetector {
    /// Shadow arrays indexed by `ObjId::slot`, grown lazily.  Only shared
    /// objects are recorded, and they are never freed, so no two objects
    /// share a slot's shadow.
    shadows: Vec<Shadow>,
    /// Human-readable object names for reports.
    names: HashMap<ObjId, String>,
    /// First detected race, if any.
    first_race: Option<RaceReport>,
    /// Cap on retained accesses per cell.  New accesses beyond the cap are
    /// dropped; retained accesses are never evicted, so the earlier half of
    /// a racing pair (checked against *before* the cap is applied to the
    /// newcomer) always survives until the race is reported.
    per_cell_cap: usize,
    /// Per-launch counters.
    stats: RaceStats,
}

impl Default for RaceDetector {
    fn default() -> RaceDetector {
        RaceDetector {
            shadows: Vec::new(),
            names: HashMap::new(),
            first_race: None,
            per_cell_cap: 64,
            stats: RaceStats::default(),
        }
    }
}

impl RaceDetector {
    /// Creates a detector.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Resets the detector for reuse by another launch, keeping the shadow
    /// allocations.  Existing cell logs are invalidated by bumping every
    /// shadow's era rather than by clearing them.
    pub fn reset(&mut self) {
        self.names.clear();
        self.first_race = None;
        self.stats = RaceStats::default();
        for shadow in &mut self.shadows {
            shadow.era += 1;
        }
    }

    /// Registers a friendly name for an object (used in reports).
    pub fn name_object(&mut self, obj: ObjId, name: &str) {
        self.names.insert(obj, name.to_string());
    }

    /// Records an access and checks it against previously recorded accesses.
    pub fn record(
        &mut self,
        obj: ObjId,
        offset: usize,
        thread: usize,
        group: usize,
        interval: u32,
        kind: AccessKind,
    ) {
        if self.first_race.is_some() {
            return;
        }
        self.stats.accesses += 1;
        let slot = obj.slot as usize;
        if slot >= self.shadows.len() {
            self.shadows.resize_with(slot + 1, Shadow::default);
        }
        let shadow = &mut self.shadows[slot];
        if shadow.counted_era != shadow.era {
            shadow.counted_era = shadow.era;
            self.stats.shadow_arrays += 1;
        }
        if offset >= shadow.cells.len() {
            shadow.cells.resize_with(offset + 1, CellLog::default);
        }
        let cell = &mut shadow.cells[offset];
        if cell.era != shadow.era {
            cell.era = shadow.era;
            cell.accesses.clear();
            cell.has_write = false;
            cell.only_thread = MIXED_THREADS;
        }
        // Fast paths: the conflict scan below can only find a pair when the
        // cell has retained accesses from another thread and at least one
        // side of some pair writes.  Both checks are summaries of exactly
        // the conditions the scan tests per entry, so skipping it is
        // behaviour-preserving.
        let scan_needed = !cell.accesses.is_empty()
            && cell.only_thread != thread
            && (cell.has_write || kind.is_write());
        if scan_needed {
            for prev in cell.accesses.iter() {
                if prev.thread == thread {
                    continue;
                }
                let involves_write = prev.kind.is_write() || kind.is_write();
                if !involves_write {
                    continue;
                }
                let conflict = if prev.group != group {
                    // Cross-group: atomics on the same location are tolerated
                    // (the generator only uses per-group atomic locations, and
                    // real benchmarks use device-wide atomics legitimately).
                    !(prev.kind.is_atomic() && kind.is_atomic())
                } else {
                    // Same group: a barrier separates the accesses when the
                    // intervals differ; both being atomic is also fine.
                    prev.interval == interval && !(prev.kind.is_atomic() && kind.is_atomic())
                };
                if conflict {
                    let object = self
                        .names
                        .get(&obj)
                        .cloned()
                        .unwrap_or_else(|| format!("obj{}", obj.slot));
                    self.first_race = Some(RaceReport {
                        object,
                        offset,
                        first_thread: prev.thread,
                        second_thread: thread,
                        same_group: prev.group == group,
                        involves_write,
                    });
                    return;
                }
            }
        }
        if cell.accesses.len() < self.per_cell_cap {
            if cell.accesses.is_empty() {
                cell.only_thread = thread;
            } else if cell.only_thread != thread {
                cell.only_thread = MIXED_THREADS;
            }
            cell.has_write |= kind.is_write();
            cell.accesses.push(Access {
                thread,
                group,
                interval,
                kind,
            });
        }
    }

    /// The first race found, if any.
    pub fn race(&self) -> Option<&RaceReport> {
        self.first_race.as_ref()
    }

    /// Counters for the current launch.
    pub fn stats(&self) -> RaceStats {
        self.stats
    }

    /// Drops the logs of a finished group's local objects: an O(1) era bump
    /// per object instead of a clear, so the next group reusing the same
    /// `local` declarations starts from logically empty shadows.
    pub fn clear_group_local(&mut self, local_objects: &[ObjId]) {
        for obj in local_objects {
            if let Some(shadow) = self.shadows.get_mut(obj.slot as usize) {
                shadow.era += 1;
                self.stats.epoch_bumps += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u32) -> ObjId {
        ObjId {
            slot: n,
            generation: 0,
        }
    }

    #[test]
    fn write_write_same_interval_is_a_race() {
        let mut d = RaceDetector::new();
        d.name_object(obj(1), "A");
        d.record(obj(1), 0, 0, 0, 0, AccessKind::Write);
        d.record(obj(1), 0, 1, 0, 0, AccessKind::Write);
        let race = d.race().expect("race expected");
        assert_eq!(race.object, "A");
        assert!(race.same_group);
    }

    #[test]
    fn reads_do_not_race() {
        let mut d = RaceDetector::new();
        d.record(obj(1), 0, 0, 0, 0, AccessKind::Read);
        d.record(obj(1), 0, 1, 0, 0, AccessKind::Read);
        assert!(d.race().is_none());
    }

    #[test]
    fn barrier_separation_prevents_race() {
        let mut d = RaceDetector::new();
        d.record(obj(1), 0, 0, 0, 0, AccessKind::Write);
        d.record(obj(1), 0, 1, 0, 1, AccessKind::Read);
        assert!(d.race().is_none());
    }

    #[test]
    fn cross_group_conflict_ignores_barriers() {
        let mut d = RaceDetector::new();
        d.record(obj(2), 5, 0, 0, 0, AccessKind::Write);
        d.record(obj(2), 5, 300, 3, 7, AccessKind::Read);
        let race = d.race().expect("race expected");
        assert!(!race.same_group);
    }

    #[test]
    fn atomics_do_not_race_with_atomics() {
        let mut d = RaceDetector::new();
        d.record(obj(3), 0, 0, 0, 0, AccessKind::Atomic);
        d.record(obj(3), 0, 1, 0, 0, AccessKind::Atomic);
        d.record(obj(3), 0, 2, 1, 0, AccessKind::Atomic);
        assert!(d.race().is_none());
        // ... but a plain write against an atomic does race.
        d.record(obj(3), 0, 3, 0, 0, AccessKind::Write);
        assert!(d.race().is_some());
    }

    #[test]
    fn same_thread_never_races_with_itself() {
        let mut d = RaceDetector::new();
        d.record(obj(4), 0, 7, 0, 0, AccessKind::Write);
        d.record(obj(4), 0, 7, 0, 0, AccessKind::Write);
        assert!(d.race().is_none());
    }

    #[test]
    fn distinct_cells_do_not_conflict() {
        let mut d = RaceDetector::new();
        d.record(obj(5), 0, 0, 0, 0, AccessKind::Write);
        d.record(obj(5), 1, 1, 0, 0, AccessKind::Write);
        assert!(d.race().is_none());
    }

    #[test]
    fn group_local_clear_forgets_prior_accesses() {
        let mut d = RaceDetector::new();
        d.record(obj(6), 0, 0, 0, 0, AccessKind::Write);
        d.clear_group_local(&[obj(6)]);
        // The next group's thread writing the same cell is not a race: the
        // era bump emptied the log.
        d.record(obj(6), 0, 9, 1, 0, AccessKind::Write);
        assert!(d.race().is_none());
        assert_eq!(d.stats().epoch_bumps, 1);
    }

    #[test]
    fn reset_reuses_shadows_without_leaking_state() {
        let mut d = RaceDetector::new();
        d.name_object(obj(1), "A");
        d.record(obj(1), 0, 0, 0, 0, AccessKind::Write);
        d.record(obj(1), 0, 1, 0, 0, AccessKind::Write);
        assert!(d.race().is_some());
        d.reset();
        assert!(d.race().is_none());
        assert_eq!(d.stats(), RaceStats::default());
        // The old write is gone: a lone write in the new launch cannot race
        // against it, and the stale name table no longer applies.
        d.record(obj(1), 0, 5, 0, 0, AccessKind::Write);
        assert!(d.race().is_none());
        d.record(obj(1), 0, 6, 0, 0, AccessKind::Write);
        let race = d.race().expect("race within the new launch");
        assert_eq!(race.object, "obj1");
        assert_eq!(race.first_thread, 5);
    }

    /// The per-cell cap drops *new* accesses once the log is full; it never
    /// evicts retained ones.  Because `record` scans the retained log before
    /// appending, the earlier half of a racing pair — here the very first
    /// access to the cell — is still present when the racing access arrives,
    /// no matter how many accesses were recorded (and dropped) in between.
    #[test]
    fn cap_never_evicts_the_earlier_half_of_a_racing_pair() {
        let mut d = RaceDetector::new();
        d.name_object(obj(1), "buf");
        // Thread 0 writes the cell, then floods it with far more reads than
        // the cap retains.
        d.record(obj(1), 0, 0, 0, 0, AccessKind::Write);
        for _ in 0..200 {
            d.record(obj(1), 0, 0, 0, 0, AccessKind::Read);
        }
        assert!(d.race().is_none());
        // A same-interval read from another thread must still pair with the
        // initial write: the cap dropped the excess reads, not the write.
        d.record(obj(1), 0, 1, 0, 0, AccessKind::Read);
        let race = d.race().expect("race against the capped-in first write");
        assert_eq!(race.object, "buf");
        assert_eq!(race.first_thread, 0);
        assert_eq!(race.second_thread, 1);
        assert!(race.same_group);
        assert!(race.involves_write);
    }
}
