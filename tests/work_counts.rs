//! Exact work per warm session: every golden fixture under every engine
//! combination the protocol registry accepts, pinned against the
//! committed `tests/work_counts.json`.
//!
//! Each cell runs two warm-up `SuiteDriver` sessions, then one counted
//! session, and records the event-tap counter deltas (frames, timers,
//! ARQ timeouts / retransmissions / rejections, faults) and the heap
//! allocations made on the calling thread. Both are exact and do not
//! depend on the machine, so they gate every change in `cargo test`:
//!
//! * counters must equal the table exactly and be identical across the
//!   engine combinations of one fixture — the engines do the same work,
//!   so the counts move only together with the golden corpus;
//! * allocations may not exceed the table (lower a row when a change
//!   removes allocations; a rise needs a justification);
//! * the `arq.retransmissions` delta equals the result's retransmission
//!   count on every cell except the baseline's, whose deliberately
//!   C-style endpoints report no tap events.
//!
//! The metric registry is process-wide, so this binary has a single
//! gating test: no other test can bump a counter mid-measurement.
//! After an intentional change, regenerate the table with
//! `cargo test --test work_counts -- --ignored`.

use std::path::PathBuf;

use serde::json::Value;

use netdsl::netsim::tap;
use netdsl::obs::{set_metrics_enabled, FlightKind};
use netdsl::protocols::golden::{corpus, with_combo};
use netdsl::protocols::registry::validate_engine;
use netdsl::protocols::scenario::{SuiteDriver, BASELINE};
use netdsl::scenario::{EngineConfig, ScenarioDriver};

#[path = "../crates/protocols/tests/support/counting_alloc.rs"]
mod counting_alloc;

const SCHEMA: &str = "netdsl-work-counts/1";

/// One fixture's pinned work: the tap-counter deltas its session makes
/// under every engine combination, and each combination's allocations.
struct Row {
    fixture: String,
    counters: Vec<(String, u64)>,
    allocs: Vec<(String, u64)>,
}

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/work_counts.json")
}

/// Runs every supported cell and folds the cells of one fixture into
/// one row, asserting the invariants that hold whatever the table says:
/// equal counters across combinations, and the retransmission identity.
fn measure() -> Vec<Row> {
    set_metrics_enabled(true);
    let counters: Vec<_> = FlightKind::ALL.into_iter().map(tap::counter).collect();
    let retransmissions = tap::counter(FlightKind::Retransmit).name();
    let mut rows = Vec::new();
    for fixture in corpus() {
        let mut row = Row {
            fixture: fixture.name.clone(),
            counters: Vec::new(),
            allocs: Vec::new(),
        };
        for combo in EngineConfig::all() {
            let scenario = with_combo(&fixture, combo);
            if validate_engine(&scenario.protocol).is_err() {
                continue;
            }
            let run = || SuiteDriver.run(&scenario).expect("fixture runs");
            run();
            run();
            let before: Vec<u64> = counters.iter().map(|c| c.value()).collect();
            let allocs_before = counting_alloc::allocations();
            let result = run();
            let allocs = counting_alloc::allocations() - allocs_before;
            let deltas: Vec<(String, u64)> = counters
                .iter()
                .zip(before)
                .map(|(c, before)| (c.name().to_string(), c.value() - before))
                .collect();

            let cell = format!("{} under [{}]", fixture.name, combo.label());
            if fixture.protocol.name != BASELINE {
                let tapped = deltas
                    .iter()
                    .find(|(name, _)| name == retransmissions)
                    .map(|(_, n)| *n);
                assert_eq!(
                    tapped,
                    Some(result.retransmissions),
                    "{cell}: {retransmissions} disagrees with the result"
                );
            }
            if row.allocs.is_empty() {
                row.counters = deltas;
            } else {
                assert_eq!(
                    deltas, row.counters,
                    "{cell}: counters differ from [{}]",
                    row.allocs[0].0
                );
            }
            row.allocs.push((combo.label(), allocs));
        }
        rows.push(row);
    }
    rows
}

fn counts_json(counts: &[(String, u64)]) -> Value {
    counts.iter().fold(Value::object(), |obj, (name, n)| {
        obj.set(name.as_str(), Value::Number(*n as f64))
    })
}

fn counts_of(value: Option<&Value>, what: &str) -> Vec<(String, u64)> {
    value
        .and_then(Value::as_object)
        .unwrap_or_else(|| panic!("table row lacks its {what} object"))
        .iter()
        .map(|(name, n)| {
            let n = n
                .as_u64()
                .unwrap_or_else(|| panic!("{what}.{name} is not a count"));
            (name.clone(), n)
        })
        .collect()
}

fn to_json(rows: &[Row]) -> String {
    let fixtures = rows
        .iter()
        .map(|row| {
            Value::object()
                .set("fixture", row.fixture.as_str())
                .set("counters", counts_json(&row.counters))
                .set("allocs", counts_json(&row.allocs))
        })
        .collect::<Vec<_>>();
    Value::object()
        .set("schema", SCHEMA)
        .set("fixtures", fixtures)
        .to_string_pretty()
}

fn from_json(text: &str) -> Vec<Row> {
    let table = Value::parse(text).expect("tests/work_counts.json parses");
    assert_eq!(
        table.get("schema").and_then(Value::as_str),
        Some(SCHEMA),
        "table schema"
    );
    table
        .get("fixtures")
        .and_then(Value::as_array)
        .expect("table has a fixtures array")
        .iter()
        .map(|row| Row {
            fixture: row
                .get("fixture")
                .and_then(Value::as_str)
                .expect("table row names its fixture")
                .to_string(),
            counters: counts_of(row.get("counters"), "counters"),
            allocs: counts_of(row.get("allocs"), "allocs"),
        })
        .collect()
}

#[test]
fn work_counts_match_the_committed_table() {
    let text = std::fs::read_to_string(table_path()).expect("tests/work_counts.json is committed");
    let pinned = from_json(&text);
    let measured = measure();

    let mut problems = Vec::new();
    let names = |rows: &[Row]| rows.iter().map(|r| r.fixture.clone()).collect::<Vec<_>>();
    if names(&pinned) != names(&measured) {
        problems.push(format!(
            "fixtures: table has {:?}, corpus has {:?}",
            names(&pinned),
            names(&measured)
        ));
    }
    for (want, got) in pinned.iter().zip(&measured) {
        if want.counters != got.counters {
            problems.push(format!(
                "{}: counters {:?}, table says {:?}",
                got.fixture, got.counters, want.counters
            ));
        }
        let engines = |r: &Row| r.allocs.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>();
        if engines(want) != engines(got) {
            problems.push(format!(
                "{}: engine combinations {:?}, table pins {:?}",
                got.fixture,
                engines(got),
                engines(want)
            ));
        }
        for ((engine, ceiling), (_, allocs)) in want.allocs.iter().zip(&got.allocs) {
            if allocs > ceiling {
                problems.push(format!(
                    "{} under [{engine}]: {allocs} allocations, table allows {ceiling}",
                    got.fixture
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "work counts diverge from tests/work_counts.json:\n  {}\n\
         after an intentional change, regenerate with \
         `cargo test --test work_counts -- --ignored`",
        problems.join("\n  ")
    );
}

#[test]
#[ignore = "rewrites tests/work_counts.json"]
fn regenerate_work_counts_table() {
    let rows = measure();
    std::fs::write(table_path(), to_json(&rows)).expect("tests/work_counts.json is writable");
}
