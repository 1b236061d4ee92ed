//! On the single-threaded workloads the library's counter deltas and the
//! allocation count repeat exactly for a fixed seed, so they can be cited
//! as counts. Needs `--features stats`; the counters are process-wide, so
//! this file holds a single test.
#![cfg(feature = "stats")]

use perfbench::{run, Budget, Config, Plant, Workload};

#[test]
fn counts_repeat_exactly_for_a_fixed_seed() {
    for workload in [Workload::Handoff, Workload::AbortChurn] {
        let config = Config {
            workload,
            seed: 11,
            budget: Budget::Ops(200_000),
            trace: false,
            plant: Plant::None,
        };
        // Each run gets a fresh thread: the epoch collector keeps a
        // per-thread pin counter that would otherwise carry over.
        let fresh = || {
            std::thread::spawn(move || run(&config))
                .join()
                .expect("the run panicked")
        };
        let (a, b) = (fresh(), fresh());
        assert_eq!(a.failed + b.failed, 0, "{:?} {:?}", a.failures, b.failures);
        assert!(!a.stats.is_zero() && a.allocs.count > 0);
        assert_eq!(a.stats, b.stats, "{}", workload.name());
        assert_eq!(a.allocs.count, b.allocs.count, "{}", workload.name());
    }
}
