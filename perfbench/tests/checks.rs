//! The benchmark's output checks pass clean runs and catch planted defects.

use perfbench::{run, Budget, Config, Plant, Report, Workload};

fn run_with(workload: Workload, ops: u64, plant: Plant) -> Report {
    run(&Config {
        workload,
        seed: 7,
        budget: Budget::Ops(ops),
        trace: false,
        plant,
    })
}

#[test]
fn clean_runs_pass_every_check() {
    for (workload, ops) in [
        (Workload::Handoff, 50_000),
        (Workload::AbortChurn, 150_000),
        (Workload::ServiceFifo, 2_000),
    ] {
        let report = run_with(workload, ops, Plant::None);
        assert_eq!(
            report.failed,
            0,
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= ops, "{}", workload.name());
    }
}

#[test]
fn a_dropped_response_is_caught() {
    let report = run_with(Workload::ServiceFifo, 2_000, Plant::DropResponse);
    assert!(report.failed > 0);
    assert!(
        report.failures.iter().any(|f| f.contains("lost response")),
        "{:?}",
        report.failures
    );
}

#[test]
fn an_extra_release_is_caught() {
    let report = run_with(Workload::ServiceFifo, 2_000, Plant::ExtraRelease);
    assert!(report.failed > 0);
    // Release builds catch it in the conservation check; debug builds
    // already panic in the semaphore's own assertion, which the benchmark
    // records as a coroutine panic.
    let caught = if cfg!(debug_assertions) {
        "a coroutine panicked"
    } else {
        "permits not all returned"
    };
    assert!(
        report.failures.iter().any(|f| f.contains(caught)),
        "{:?}",
        report.failures
    );
}
