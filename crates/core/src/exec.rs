//! The transition interpreter — the paper's `execTrans`.
//!
//! ```text
//! execTrans : SendTrans s s′ → Machine s → IO (Machine s′)
//! ```
//!
//! [`Driver`] wraps a reified [`crate::fsm::Machine`] and
//! provides the run-time face of item (iii) of §3.2: it executes valid
//! transitions, **refuses** invalid ones (soundness — the machine is left
//! untouched and the caller gets [`DslError::NoTransition`]), records a
//! complete transition trace, and checks the consistent-termination
//! condition of §3.4 ("sending a packet (or sequence of packets) ends in
//! a consistent state, either with success or with timeout").

use crate::error::DslError;
use crate::fsm::{Config, EventId, Machine, Spec, StateId};

/// One executed transition, as recorded in a [`Driver`]'s trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Configuration before the event.
    pub before: Config,
    /// The event applied.
    pub event: EventId,
    /// Configuration after the event.
    pub after: Config,
}

/// Interpreter for a reified machine with trace recording.
#[derive(Debug, Clone)]
pub struct Driver<'s> {
    machine: Machine<'s>,
    trace: Vec<TransitionRecord>,
    rejected: u64,
}

impl<'s> Driver<'s> {
    /// Starts a driver at the spec's initial configuration.
    pub fn new(spec: &'s Spec) -> Self {
        Driver {
            machine: Machine::new(spec),
            trace: Vec::new(),
            rejected: 0,
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<'s> {
        &self.machine
    }

    /// The transitions executed so far, in order.
    pub fn trace(&self) -> &[TransitionRecord] {
        &self.trace
    }

    /// How many events were rejected as invalid (soundness refusals).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Executes one event by name.
    ///
    /// # Errors
    ///
    /// * [`DslError::UnknownName`] — the event is not declared;
    /// * [`DslError::NoTransition`] — the event is declared but invalid in
    ///   the current configuration; the machine is unchanged and the
    ///   refusal is counted;
    /// * [`DslError::Nondeterministic`] — spec bug surfaced.
    pub fn dispatch(&mut self, event: &str) -> Result<StateId, DslError> {
        let id = self
            .machine
            .spec()
            .event_id(event)
            .ok_or_else(|| DslError::UnknownName {
                name: event.to_string(),
            })?;
        let before = self.machine.config().clone();
        match self.machine.apply(id) {
            Ok(to) => {
                self.trace.push(TransitionRecord {
                    before,
                    event: id,
                    after: self.machine.config().clone(),
                });
                Ok(to)
            }
            Err(e) => {
                if matches!(e, DslError::NoTransition { .. }) {
                    self.rejected += 1;
                }
                Err(e)
            }
        }
    }

    /// Executes a whole event sequence, stopping at the first failure.
    ///
    /// # Errors
    ///
    /// The first dispatch error, wrapped with its position.
    pub fn run(&mut self, events: &[&str]) -> Result<(), (usize, DslError)> {
        for (i, e) in events.iter().enumerate() {
            self.dispatch(e).map_err(|err| (i, err))?;
        }
        Ok(())
    }

    /// `true` if the machine currently sits in a terminal state — the
    /// "consistent end state" check.
    pub fn at_consistent_end(&self) -> bool {
        self.machine.is_terminal()
    }

    /// Renders the trace as `state -EVENT-> state` lines for diagnostics.
    pub fn format_trace(&self) -> String {
        let spec = self.machine.spec();
        self.trace
            .iter()
            .map(|r| {
                format!(
                    "{} -{}-> {}\n",
                    spec.state_name(r.before.state),
                    spec.event_name(r.event),
                    spec.state_name(r.after.state)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::paper_sender_spec;

    #[test]
    fn dispatch_executes_and_traces() {
        let spec = paper_sender_spec(255);
        let mut d = Driver::new(&spec);
        d.dispatch("SEND").unwrap();
        d.dispatch("OK").unwrap();
        d.dispatch("FINISH").unwrap();
        assert_eq!(d.trace().len(), 3);
        assert!(d.at_consistent_end());
        let t = d.format_trace();
        assert!(t.contains("Ready -SEND-> Wait"));
        assert!(t.contains("Wait -OK-> Ready"));
        assert!(t.contains("Ready -FINISH-> Sent"));
    }

    #[test]
    fn invalid_event_counted_and_machine_untouched() {
        let spec = paper_sender_spec(255);
        let mut d = Driver::new(&spec);
        assert!(d.dispatch("OK").is_err(), "OK before SEND is invalid");
        assert_eq!(d.rejected(), 1);
        assert!(d.trace().is_empty());
        assert_eq!(spec.state_name(d.machine().state()), "Ready");
    }

    #[test]
    fn unknown_event_is_not_a_soundness_refusal() {
        let spec = paper_sender_spec(255);
        let mut d = Driver::new(&spec);
        assert!(matches!(
            d.dispatch("NOPE"),
            Err(DslError::UnknownName { .. })
        ));
        assert_eq!(d.rejected(), 0);
    }

    #[test]
    fn run_reports_failure_position() {
        let spec = paper_sender_spec(255);
        let mut d = Driver::new(&spec);
        let err = d.run(&["SEND", "OK", "OK"]).unwrap_err();
        assert_eq!(err.0, 2);
        assert!(matches!(err.1, DslError::NoTransition { .. }));
        assert_eq!(d.trace().len(), 2, "prefix executed");
    }

    #[test]
    fn trace_records_variable_evolution() {
        let spec = paper_sender_spec(255);
        let mut d = Driver::new(&spec);
        d.run(&["SEND", "OK", "SEND", "OK"]).unwrap();
        let seqs: Vec<u64> = d.trace().iter().map(|r| r.after.vars[0]).collect();
        assert_eq!(seqs, vec![0, 1, 1, 2]);
    }
}
