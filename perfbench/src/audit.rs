//! Correctness gate: every result is audited, and a seeded sample is
//! re-run on a different engine or driver.
//!
//! A scenario *fails* on a driver error, an invariant violation
//! ([`check_result`]) or an oracle mismatch. A transfer that gave up
//! cleanly and passes the invariant monitor is not a failure; it is
//! counted as abandoned.

use netdsl_netsim::scenario::{FramePath, ScenarioError};
use netdsl_netsim::{
    check_result, BatchDriver, Campaign, Scenario, ScenarioDriver, ScenarioResult, StreamingReport,
};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::SuiteDriver;

use crate::workload::Workload;

/// How many failure descriptions a tally keeps.
const KEEP: usize = 8;

/// Running counts of audited scenarios.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Scenarios audited.
    pub attempted: u64,
    /// Runs the driver refused or could not execute.
    pub driver_errors: u64,
    /// Runs whose result broke an invariant.
    pub violations: u64,
    /// Sampled runs an oracle re-run disagreed with.
    pub oracle_mismatches: u64,
    /// Clean give-ups the invariant monitor accepts.
    pub abandoned: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Audits one outcome; returns `true` when it is not a failure.
    pub fn record(
        &mut self,
        scenario: &Scenario,
        outcome: &Result<ScenarioResult, ScenarioError>,
    ) -> bool {
        self.attempted += 1;
        match outcome {
            Err(e) => {
                self.driver_errors += 1;
                self.note(format!("{}: driver error: {e}", scenario.name));
                false
            }
            Ok(result) => {
                let report = check_result(scenario, result);
                if !report.ok() {
                    self.violations += 1;
                    self.note(format!("{}: {report}", scenario.name));
                    false
                } else {
                    if !result.success {
                        self.abandoned += 1;
                    }
                    true
                }
            }
        }
    }

    /// Compares a run against its oracle re-run, field for field.
    pub fn compare(&mut self, scenario: &Scenario, got: &ScenarioResult, oracle: &ScenarioResult) {
        if got != oracle {
            self.oracle_mismatches += 1;
            self.note(format!(
                "{}: oracle mismatch: {got:?} != {oracle:?}",
                scenario.name
            ));
        }
    }

    fn compare_error(&mut self, scenario: &Scenario, e: &ScenarioError) {
        self.oracle_mismatches += 1;
        self.note(format!("{}: oracle run failed: {e}", scenario.name));
    }

    /// Scenarios that failed, by any of the three causes.
    pub fn failed(&self) -> u64 {
        self.driver_errors + self.violations + self.oracle_mismatches
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.driver_errors += other.driver_errors;
        self.violations += other.violations;
        self.oracle_mismatches += other.oracle_mismatches;
        self.abandoned += other.abandoned;
        for f in &other.failures {
            self.note(f.clone());
        }
    }

    fn note(&mut self, what: String) {
        if self.failures.len() < KEEP {
            self.failures.push(what);
        }
    }
}

/// Notes in `broken` a streamed campaign that did not run every
/// scenario it expands to.
pub fn check_stream(campaign: &Campaign, report: &StreamingReport, broken: &mut Vec<String>) {
    let n = campaign.scenario_count();
    if report.executed != n || report.errors != 0 {
        broken.push(format!(
            "{}: streamed {} of {n} scenarios, {} errors",
            campaign.name(),
            report.executed,
            report.errors
        ));
    }
}

/// Re-runs `samples` (each with the result the workload produced) on
/// the workload's oracle and counts every disagreement:
/// `bulk_1k` and `session_grid` on the interpreted frame path through
/// the solo driver, `chaos_default` on the compiled frame path through
/// the multiplexed driver.
pub fn oracle_check(workload: Workload, samples: &[(Scenario, ScenarioResult)], tally: &mut Tally) {
    let with_path = |scenario: &Scenario, path: FramePath| {
        let mut s = scenario.clone();
        s.protocol = s.protocol.with_frame_path(path);
        s
    };
    match workload {
        Workload::Bulk1k | Workload::SessionGrid => {
            let solo = SuiteDriver::new();
            for (scenario, got) in samples {
                match solo.run(&with_path(scenario, FramePath::Interpreted)) {
                    Ok(oracle) => tally.compare(scenario, got, &oracle),
                    Err(e) => tally.compare_error(scenario, &e),
                }
            }
        }
        Workload::ChaosDefault => {
            let batch: Vec<Scenario> = samples
                .iter()
                .map(|(s, _)| with_path(s, FramePath::Compiled))
                .collect();
            let oracle = MultiSessionDriver::new().run_batch(&batch);
            for ((scenario, got), outcome) in samples.iter().zip(oracle) {
                match outcome {
                    Ok(oracle) => tally.compare(scenario, got, &oracle),
                    Err(e) => tally.compare_error(scenario, &e),
                }
            }
        }
    }
}

/// Checks that the gate catches what it exists to catch: a corrupted
/// result must count as failed, and so must an oracle disagreement.
/// Returns `true` when both are caught.
pub fn self_test() -> bool {
    let scenario = Scenario::new(
        netdsl_netsim::ProtocolSpec::new(netdsl_protocols::scenario::GO_BACK_N).with_window(4),
        netdsl_netsim::LinkConfig::lossy(3, 0.1),
    )
    .with_seed(11);
    let Ok(good) = SuiteDriver::new().run(&scenario) else {
        return false;
    };
    let mut tally = Tally::default();
    let clean = tally.record(&scenario, &Ok(good.clone()));

    let mut truncated = good.clone();
    truncated.payload_bytes -= 1;
    let caught = !tally.record(&scenario, &Ok(truncated));

    let mut drifted = good.clone();
    drifted.elapsed += 1;
    tally.compare(&scenario, &drifted, &good);

    clean && caught && tally.violations == 1 && tally.oracle_mismatches == 1 && tally.failed() == 2
}
