//! The shape of the invariance matrix (`matrix/mod.rs`): it covers every
//! pair of levels, and each part holds the cells the tests running it are
//! named after.

mod matrix;

use matrix::*;
use opencl_sim::ExecutionTier;

#[test]
fn the_matrix_covers_every_pair_of_levels() {
    let splits = [Whole, Shards, Resumed, Leased, Fleet];
    let caches = [MemoOff, MemoOn, StoreCold, StoreWarm];
    let (workers, tiers) = ([1, 3, 8], ExecutionTier::ALL);
    let covered = |pair: &dyn Fn(&Cell) -> bool| MATRIX.iter().any(|(_, cell)| pair(cell));
    for s in splits {
        for c in caches {
            let exempt = s == Fleet && c == MemoOff;
            assert_eq!(covered(&|x| x.0 == s && x.1 == c), !exempt, "{s:?} × {c:?}");
        }
        for w in workers {
            assert!(covered(&|x| x.0 == s && x.2 == w), "{s:?} × {w}");
        }
        for t in tiers {
            assert!(covered(&|x| x.0 == s && x.3 == t), "{s:?} × {t:?}");
        }
    }
    for w in workers {
        for c in caches {
            assert!(covered(&|x| x.2 == w && x.1 == c), "{w} × {c:?}");
        }
        for t in tiers {
            assert!(covered(&|x| x.2 == w && x.3 == t), "{w} × {t:?}");
        }
    }
    for c in caches {
        for t in tiers {
            assert!(covered(&|x| x.1 == c && x.3 == t), "{c:?} × {t:?}");
        }
    }
}

#[test]
fn every_part_holds_the_cells_its_tests_are_named_after() {
    let cells = |part: Part| -> Vec<Cell> {
        let cells = MATRIX.iter().filter(|(p, _)| *p == part);
        cells.map(|&(_, cell)| cell).collect()
    };
    let has = |part: Part, want: &dyn Fn(&Cell) -> bool| cells(part).iter().any(want);
    // The reference run is memo on, one worker, bytecode, no store, whole.
    assert!(has(MemoOffOn, &|c| c.1 == MemoOff));
    for cache in [StoreCold, StoreWarm] {
        for tier in ExecutionTier::ALL {
            assert!(
                has(StoreLevels, &|c| c.1 == cache && c.3 == tier),
                "{cache:?} {tier:?}"
            );
        }
    }
    for workers in [3, 8] {
        assert!(has(WorkerCounts, &|c| c.2 == workers));
    }
    assert!(has(WorkersAndTiers, &|c| c.2 != 1 && c.3 == Tree));
    for split in [Shards, Resumed] {
        assert!(has(ShardedResumed, &|c| c.0 == split));
    }
    let shared = cells(SharedStore);
    assert!(shared.iter().all(|c| c.0 == Shards));
    assert!(has(SharedStore, &|c| c.1 == StoreCold) && has(SharedStore, &|c| c.1 == StoreWarm));
    let fleet = cells(FleetFaults);
    assert!(fleet.iter().all(|c| c.0 == Fleet));
    assert!(MATRIX
        .iter()
        .all(|(p, c)| (c.0 == Fleet) == (*p == FleetFaults)));
    // The fleets that suffer a hang (all but the warm-store one) run at two
    // and at three worker processes.
    let hanging = fleet.iter().filter(|c| c.1 != StoreWarm);
    let processes: Vec<usize> = hanging.map(|c| fleet_processes(c.2)).collect();
    assert!(
        processes.contains(&2) && processes.contains(&3),
        "{processes:?}"
    );
    for part in IN_PROCESS {
        assert!(!cells(part).is_empty(), "{part:?}");
    }
}
