//! Reified protocol state machines.
//!
//! This is the *data-level* embedding of the paper's item (ii): states,
//! events, guarded transitions and bounded integer variables, all as plain
//! values. Unlike the [`crate::typestate`] embedding (where soundness is a
//! compile-time property), a reified [`Spec`] can be **analysed**: the
//! model checker in `netdsl-verify` enumerates its entire state space to
//! prove soundness, completeness and consistent termination — on the same
//! object the interpreter executes, closing the model/implementation gap
//! the paper criticises in §3.3 ("there may be errors in transcription
//! between the model and the implementation").
//!
//! Guards and effects are a tiny total expression language ([`Expr`])
//! rather than host-language closures precisely so that the checker can
//! evaluate them exhaustively.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::DslError;

/// Index of a state within its [`Spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StateId(pub usize);

/// Index of an event within its [`Spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(pub usize);

/// Index of a variable within its [`Spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// A total expression over the machine's variables.
///
/// Semantics: expressions evaluate to `u64`; comparisons and logical
/// operators yield 0/1. Arithmetic is **modular**: each `Add`/`Sub` node
/// wraps modulo the narrowest domain (`max + 1`) among the variables its
/// subtree reads, or modulo 2⁶⁴ when it reads none (see
/// [`Expr::arith_modulus`]). This makes sequence arithmetic observable
/// *inside guards*: `seq + 1 == 0` in an 8-bit domain is true exactly at
/// `seq == 255` — the paper's `Ready (seq+1)` wrap. (An earlier revision
/// saturated during evaluation but wrapped on assignment, so a guard
/// could never see the wrap an effect was about to perform.) Assignment
/// additionally reduces the final value modulo the *target* variable's
/// domain, which is the identity whenever the expression already wrapped
/// in that domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expr {
    /// A variable's current value.
    Var(String),
    /// A literal.
    Const(u64),
    /// Addition, wrapping modulo the node's [`Expr::arith_modulus`].
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction, wrapping modulo the node's [`Expr::arith_modulus`]
    /// (so `0 - 1` evaluates to `m - 1`, never saturates).
    Sub(Box<Expr>, Box<Expr>),
    /// Equality (1/0).
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality (1/0).
    Ne(Box<Expr>, Box<Expr>),
    /// Less-than (1/0).
    Lt(Box<Expr>, Box<Expr>),
    /// Less-or-equal (1/0).
    Le(Box<Expr>, Box<Expr>),
    /// Logical and (operands non-zero).
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Shorthand: variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Evaluates against a name→value environment with every variable
    /// treated as unbounded (domain `0..=u64::MAX`), so arithmetic wraps
    /// modulo 2⁶⁴. Spec execution uses [`Expr::eval_with`] with the
    /// declared domains instead; this entry point exists for expression
    /// tests and tooling that have no spec at hand.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] for unresolved variables.
    pub fn eval(&self, env: &BTreeMap<String, u64>) -> Result<u64, DslError> {
        self.eval_with(&|n| env.get(n).map(|v| (*v, u64::MAX)))
    }

    /// Evaluates against a lookup returning `(value, domain max)` per
    /// variable — **the** expression semantics, shared verbatim by the
    /// tree-walking [`Machine`] and (via precomputed moduli) the compiled
    /// stepper in [`crate::fsm_compiled`]. Each arithmetic node wraps
    /// modulo [`Expr::arith_modulus`] of its own subtree.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] when `lookup` returns `None`.
    pub fn eval_with(&self, lookup: &dyn Fn(&str) -> Option<(u64, u64)>) -> Result<u64, DslError> {
        Ok(match self {
            Expr::Var(n) => {
                lookup(n)
                    .ok_or_else(|| DslError::UnknownName { name: n.clone() })?
                    .0
            }
            Expr::Const(c) => *c,
            Expr::Add(a, b) => {
                let m = self.arith_modulus(&|n| lookup(n).map(|(_, max)| max))?;
                let va = u128::from(a.eval_with(lookup)?) % m;
                let vb = u128::from(b.eval_with(lookup)?) % m;
                ((va + vb) % m) as u64
            }
            Expr::Sub(a, b) => {
                let m = self.arith_modulus(&|n| lookup(n).map(|(_, max)| max))?;
                let va = u128::from(a.eval_with(lookup)?) % m;
                let vb = u128::from(b.eval_with(lookup)?) % m;
                ((va + m - vb) % m) as u64
            }
            Expr::Eq(a, b) => u64::from(a.eval_with(lookup)? == b.eval_with(lookup)?),
            Expr::Ne(a, b) => u64::from(a.eval_with(lookup)? != b.eval_with(lookup)?),
            Expr::Lt(a, b) => u64::from(a.eval_with(lookup)? < b.eval_with(lookup)?),
            Expr::Le(a, b) => u64::from(a.eval_with(lookup)? <= b.eval_with(lookup)?),
            Expr::And(a, b) => u64::from(a.eval_with(lookup)? != 0 && b.eval_with(lookup)? != 0),
            Expr::Or(a, b) => u64::from(a.eval_with(lookup)? != 0 || b.eval_with(lookup)? != 0),
            Expr::Not(a) => u64::from(a.eval_with(lookup)? == 0),
        })
    }

    /// The wrap modulus of an arithmetic node: the smallest `max + 1`
    /// among the variables the node's subtree reads, or 2⁶⁴ when it
    /// reads none (hence the `u128` return — 2⁶⁴ must be representable).
    /// The *narrowest* domain governs because that is the space the
    /// result will live in: `seq + 1` over an 8-bit `seq` means 8-bit
    /// arithmetic, exactly as the assignment that consumes it.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] when `max_of` cannot resolve a variable.
    pub fn arith_modulus(&self, max_of: &dyn Fn(&str) -> Option<u64>) -> Result<u128, DslError> {
        let mut m: u128 = 1 << 64;
        for v in self.variables() {
            let max = max_of(v).ok_or_else(|| DslError::UnknownName {
                name: v.to_string(),
            })?;
            m = m.min(u128::from(max) + 1);
        }
        Ok(m)
    }

    /// Names of the variables this expression reads.
    pub fn variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(n) => out.push(n),
            Expr::Const(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(a) => a.collect_vars(out),
        }
    }
}

/// One state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateDef {
    /// State name, unique within the spec.
    pub name: String,
    /// Terminal states are valid end points: the consistent-termination
    /// property requires every run to be able to reach one (the paper's
    /// §3.4 item 4: "sending … ends in a consistent state").
    pub terminal: bool,
}

/// One event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventDef {
    /// Event name, unique within the spec.
    pub name: String,
}

/// One bounded variable: domain `0..=max`, starting at `init`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarDef {
    /// Variable name, unique within the spec.
    pub name: String,
    /// Inclusive upper bound of the domain.
    pub max: u64,
    /// Initial value.
    pub init: u64,
}

/// One guarded transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionDef {
    /// Source state.
    pub from: StateId,
    /// Triggering event.
    pub event: EventId,
    /// Enabling condition (absent = always enabled).
    pub guard: Option<Expr>,
    /// Destination state.
    pub to: StateId,
    /// Variable updates `(name, expression)`, applied simultaneously
    /// (right-hand sides all read the pre-transition valuation). Results
    /// wrap modulo `max + 1` of the target variable.
    pub effects: Vec<(String, Expr)>,
}

/// A complete reified state-machine specification.
///
/// Build with [`Spec::builder`]; execute with [`Machine`]; verify with
/// `netdsl-verify`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spec {
    name: String,
    states: Vec<StateDef>,
    events: Vec<EventDef>,
    vars: Vec<VarDef>,
    transitions: Vec<TransitionDef>,
    initial: StateId,
}

impl Spec {
    /// Starts building a spec.
    pub fn builder(name: &str) -> SpecBuilder {
        SpecBuilder {
            name: name.to_string(),
            states: Vec::new(),
            events: Vec::new(),
            vars: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All states.
    pub fn states(&self) -> &[StateDef] {
        &self.states
    }

    /// All events.
    pub fn events(&self) -> &[EventDef] {
        &self.events
    }

    /// All variables.
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// All transitions.
    pub fn transitions(&self) -> &[TransitionDef] {
        &self.transitions
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Resolves a state name.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(StateId)
    }

    /// Resolves an event name.
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.events.iter().position(|e| e.name == name).map(EventId)
    }

    /// A state's name.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.0].name
    }

    /// An event's name.
    pub fn event_name(&self, id: EventId) -> &str {
        &self.events[id.0].name
    }

    /// Graphviz `dot` rendering of the transition structure. Spec,
    /// state and event names are escaped, so names containing `"` or
    /// `\` still produce valid `dot`.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", dot_escape(&self.name));
        for (i, s) in self.states.iter().enumerate() {
            let shape = if s.terminal { "doublecircle" } else { "circle" };
            let _ = writeln!(
                out,
                "  s{i} [label=\"{}\", shape={shape}];",
                dot_escape(&s.name)
            );
        }
        let _ = writeln!(out, "  init [shape=point];");
        let _ = writeln!(out, "  init -> s{};", self.initial.0);
        for t in &self.transitions {
            let guard = t.guard.as_ref().map(|_| " [guarded]").unwrap_or("");
            let _ = writeln!(
                out,
                "  s{} -> s{} [label=\"{}{}\"];",
                t.from.0,
                t.to.0,
                dot_escape(&self.events[t.event.0].name),
                guard
            );
        }
        out.push_str("}\n");
        out
    }

    /// Pairs of transition indices with the same `(from, event)` —
    /// candidates for runtime nondeterminism. [`SpecBuilder::build`]
    /// already rejects pairs that *certainly* overlap (unguarded or
    /// syntactically equal guards), so anything listed here overlaps only
    /// for valuations where both guards happen to hold; the interpreter
    /// and the compiled stepper both surface that case as
    /// [`DslError::Nondeterministic`] rather than tie-breaking. Useful as
    /// a lint: an empty list means no event can ever be ambiguous.
    pub fn overlap_candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in self.transitions.iter().enumerate() {
            for (j, b) in self.transitions.iter().enumerate().take(i) {
                if a.from == b.from && a.event == b.event {
                    out.push((j, i));
                }
            }
        }
        out
    }
}

/// Escapes a string for use inside a double-quoted Graphviz label.
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A transition as declared on the builder, still by name:
/// `(from, event, guard, to, effects)`.
type PendingTransition = (String, String, Option<Expr>, String, Vec<(String, Expr)>);

/// Builder for [`Spec`].
#[derive(Debug)]
pub struct SpecBuilder {
    name: String,
    states: Vec<StateDef>,
    events: Vec<EventDef>,
    vars: Vec<VarDef>,
    transitions: Vec<PendingTransition>,
}

impl SpecBuilder {
    /// Declares a non-terminal state. The first declared state is initial.
    #[must_use]
    pub fn state(mut self, name: &str) -> Self {
        self.states.push(StateDef {
            name: name.to_string(),
            terminal: false,
        });
        self
    }

    /// Declares a terminal state.
    #[must_use]
    pub fn terminal(mut self, name: &str) -> Self {
        self.states.push(StateDef {
            name: name.to_string(),
            terminal: true,
        });
        self
    }

    /// Declares an event.
    #[must_use]
    pub fn event(mut self, name: &str) -> Self {
        self.events.push(EventDef {
            name: name.to_string(),
        });
        self
    }

    /// Declares a bounded variable with domain `0..=max`, initially `init`.
    #[must_use]
    pub fn var(mut self, name: &str, max: u64, init: u64) -> Self {
        self.vars.push(VarDef {
            name: name.to_string(),
            max,
            init,
        });
        self
    }

    /// Adds an unguarded transition with no effects.
    #[must_use]
    pub fn transition(self, from: &str, event: &str, to: &str) -> Self {
        self.transition_full(from, event, to, None, Vec::new())
    }

    /// Adds a transition with an optional guard and variable effects.
    #[must_use]
    pub fn transition_full(
        mut self,
        from: &str,
        event: &str,
        to: &str,
        guard: Option<Expr>,
        effects: Vec<(String, Expr)>,
    ) -> Self {
        self.transitions.push((
            from.to_string(),
            event.to_string(),
            guard,
            to.to_string(),
            effects,
        ));
        self
    }

    /// Validates and produces the spec.
    ///
    /// Determinism contract: two transitions may share a `(from, event)`
    /// pair only if their guards can *distinguish* them. Pairs that
    /// certainly overlap — either transition unguarded, or both guards
    /// syntactically identical — are rejected here; pairs whose distinct
    /// guards happen to both hold at some valuation are legal to build
    /// but surface as [`DslError::Nondeterministic`] when executed there
    /// (never resolved by declaration order), so every engine over the
    /// spec provably agrees. [`Spec::overlap_candidates`] lists the
    /// residual candidates.
    ///
    /// # Errors
    ///
    /// [`DslError::BadSpec`] when names are duplicated/empty, there are
    /// no states, or two transitions certainly overlap;
    /// [`DslError::UnknownName`] when a transition, guard or
    /// effect references an undeclared state/event/variable;
    /// [`DslError::DomainViolation`] when a variable's `init` exceeds its
    /// `max`.
    pub fn build(self) -> Result<Spec, DslError> {
        let bad = |reason: String| DslError::BadSpec {
            spec: self.name.clone(),
            reason,
        };
        if self.states.is_empty() {
            return Err(bad("a spec needs at least one state".into()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.states {
            if s.name.is_empty() || !seen.insert(format!("s:{}", s.name)) {
                return Err(bad(format!("duplicate or empty state `{}`", s.name)));
            }
        }
        for e in &self.events {
            if e.name.is_empty() || !seen.insert(format!("e:{}", e.name)) {
                return Err(bad(format!("duplicate or empty event `{}`", e.name)));
            }
        }
        for v in &self.vars {
            if v.name.is_empty() || !seen.insert(format!("v:{}", v.name)) {
                return Err(bad(format!("duplicate or empty variable `{}`", v.name)));
            }
            if v.init > v.max {
                return Err(DslError::DomainViolation {
                    var: v.name.clone(),
                    value: v.init,
                    max: v.max,
                });
            }
        }
        let state_id = |n: &str| {
            self.states
                .iter()
                .position(|s| s.name == n)
                .map(StateId)
                .ok_or_else(|| DslError::UnknownName {
                    name: n.to_string(),
                })
        };
        let event_id = |n: &str| {
            self.events
                .iter()
                .position(|e| e.name == n)
                .map(EventId)
                .ok_or_else(|| DslError::UnknownName {
                    name: n.to_string(),
                })
        };
        let var_exists = |n: &str| self.vars.iter().any(|v| v.name == n);

        let mut transitions = Vec::with_capacity(self.transitions.len());
        for (from, event, guard, to, effects) in &self.transitions {
            if let Some(g) = guard {
                for v in g.variables() {
                    if !var_exists(v) {
                        return Err(DslError::UnknownName {
                            name: v.to_string(),
                        });
                    }
                }
            }
            for (target, expr) in effects {
                if !var_exists(target) {
                    return Err(DslError::UnknownName {
                        name: target.clone(),
                    });
                }
                for v in expr.variables() {
                    if !var_exists(v) {
                        return Err(DslError::UnknownName {
                            name: v.to_string(),
                        });
                    }
                }
            }
            transitions.push(TransitionDef {
                from: state_id(from)?,
                event: event_id(event)?,
                guard: guard.clone(),
                to: state_id(to)?,
                effects: effects.clone(),
            });
        }
        // Reject *certain* nondeterminism: same (from, event) where no
        // valuation can tell the transitions apart. Distinct guards may
        // still overlap for some valuations; that residue is detected at
        // execution time (Nondeterministic), never tie-broken.
        for (i, a) in transitions.iter().enumerate() {
            for b in transitions.iter().take(i) {
                if a.from != b.from || a.event != b.event {
                    continue;
                }
                let certain = match (&a.guard, &b.guard) {
                    (None, _) | (_, None) => true,
                    (Some(x), Some(y)) => x == y,
                };
                if certain {
                    return Err(bad(format!(
                        "transitions from `{}` on `{}` always overlap \
                         (unguarded or identical guards); guards must be \
                         able to distinguish same-(state, event) transitions",
                        self.states[a.from.0].name, self.events[a.event.0].name
                    )));
                }
            }
        }
        Ok(Spec {
            name: self.name,
            states: self.states,
            events: self.events,
            vars: self.vars,
            transitions,
            initial: StateId(0),
        })
    }
}

/// A concrete configuration of a machine: control state + variable
/// valuation. Used both by the interpreter and the model checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Control state.
    pub state: StateId,
    /// Variable values, in declaration order.
    pub vars: Vec<u64>,
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}{:?}", self.state.0, self.vars)
    }
}

/// An executable instance of a [`Spec`] — the machine `execTrans` steps.
#[derive(Debug, Clone)]
pub struct Machine<'s> {
    spec: &'s Spec,
    config: Config,
}

impl<'s> Machine<'s> {
    /// Creates a machine in the spec's initial configuration.
    pub fn new(spec: &'s Spec) -> Self {
        Machine {
            spec,
            config: Config {
                state: spec.initial(),
                vars: spec.vars().iter().map(|v| v.init).collect(),
            },
        }
    }

    /// Creates a machine at an arbitrary configuration (used by the model
    /// checker to explore the full space).
    ///
    /// # Errors
    ///
    /// [`DslError::DomainViolation`] if a value exceeds its domain;
    /// [`DslError::BadSpec`] if the shape doesn't match the spec.
    pub fn at(spec: &'s Spec, config: Config) -> Result<Self, DslError> {
        if config.vars.len() != spec.vars().len() || config.state.0 >= spec.states().len() {
            return Err(DslError::BadSpec {
                spec: spec.name().to_string(),
                reason: "configuration shape does not match spec".into(),
            });
        }
        for (v, def) in config.vars.iter().zip(spec.vars()) {
            if *v > def.max {
                return Err(DslError::DomainViolation {
                    var: def.name.clone(),
                    value: *v,
                    max: def.max,
                });
            }
        }
        Ok(Machine { spec, config })
    }

    /// The spec this machine runs.
    pub fn spec(&self) -> &'s Spec {
        self.spec
    }

    /// Current configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Current control state.
    pub fn state(&self) -> StateId {
        self.config.state
    }

    /// `true` if the current state is terminal.
    pub fn is_terminal(&self) -> bool {
        self.spec.states()[self.config.state.0].terminal
    }

    /// Current value of a variable.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] for undeclared variables.
    pub fn var(&self, name: &str) -> Result<u64, DslError> {
        self.spec
            .vars()
            .iter()
            .position(|v| v.name == name)
            .map(|i| self.config.vars[i])
            .ok_or_else(|| DslError::UnknownName {
                name: name.to_string(),
            })
    }

    /// The machine's variable lookup: `(value, domain max)` by name, the
    /// shape [`Expr::eval_with`] wants. Declared domains flow into
    /// arithmetic here, so guards see the same modular semantics as the
    /// effects that assign into those domains.
    fn lookup(&self, name: &str) -> Option<(u64, u64)> {
        self.spec
            .vars()
            .iter()
            .position(|v| v.name == name)
            .map(|i| (self.config.vars[i], self.spec.vars()[i].max))
    }

    /// Indices of transitions enabled for `event` in the current
    /// configuration.
    ///
    /// # Errors
    ///
    /// Guard evaluation errors propagate (unknown variables cannot occur
    /// in built specs).
    pub fn enabled(&self, event: EventId) -> Result<Vec<usize>, DslError> {
        let mut out = Vec::new();
        for (i, t) in self.spec.transitions().iter().enumerate() {
            if t.from != self.config.state || t.event != event {
                continue;
            }
            let pass = match &t.guard {
                None => true,
                Some(g) => g.eval_with(&|n| self.lookup(n))? != 0,
            };
            if pass {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// Applies `event`: the **soundness** core. Exactly one transition
    /// must be enabled; its effects run and the state advances.
    ///
    /// # Errors
    ///
    /// * [`DslError::NoTransition`] — no enabled transition (the event is
    ///   invalid here; the machine is left unchanged);
    /// * [`DslError::Nondeterministic`] — more than one enabled (spec
    ///   bug, surfaced rather than resolved arbitrarily);
    /// * [`DslError::DomainViolation`] cannot occur: effects wrap into
    ///   the target domain by construction.
    pub fn apply(&mut self, event: EventId) -> Result<StateId, DslError> {
        let enabled = self.enabled(event)?;
        let idx = match enabled.as_slice() {
            [] => {
                return Err(DslError::NoTransition {
                    state: self.spec.state_name(self.config.state).to_string(),
                    event: self.spec.event_name(event).to_string(),
                })
            }
            [one] => *one,
            _ => {
                return Err(DslError::Nondeterministic {
                    state: self.spec.state_name(self.config.state).to_string(),
                    event: self.spec.event_name(event).to_string(),
                })
            }
        };
        let t = &self.spec.transitions()[idx];
        // Simultaneous assignment: all RHS evaluated against the pre-state.
        let mut new_vars = self.config.vars.clone();
        for (target, expr) in &t.effects {
            let pos = self
                .spec
                .vars()
                .iter()
                .position(|v| v.name == *target)
                .expect("validated at build");
            let max = self.spec.vars()[pos].max;
            let raw = expr.eval_with(&|n| self.lookup(n))?;
            new_vars[pos] = match max.checked_add(1) {
                Some(m) => raw % m,
                None => raw, // domain is all of u64: nothing to reduce
            };
        }
        self.config.vars = new_vars;
        self.config.state = t.to;
        Ok(t.to)
    }

    /// Applies an event by name.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] for unknown events, otherwise as
    /// [`Machine::apply`].
    pub fn apply_named(&mut self, event: &str) -> Result<StateId, DslError> {
        let id = self
            .spec
            .event_id(event)
            .ok_or_else(|| DslError::UnknownName {
                name: event.to_string(),
            })?;
        self.apply(id)
    }
}

/// The paper's §3.4 sender machine, reified: states `Ready`, `Wait`,
/// `Timeout`, `Sent`; events `SEND`, `OK`, `FAIL`, `TIMEOUT`, `FINISH`;
/// an 8-bit-style sequence variable (domain configurable for model
/// checking).
///
/// Used as a fixture across tests, benches and the verify crate.
pub fn paper_sender_spec(seq_max: u64) -> Spec {
    Spec::builder("paper-arq-sender")
        .state("Ready")
        .state("Wait")
        .state("Timeout")
        .terminal("Sent")
        .event("SEND")
        .event("OK")
        .event("FAIL")
        .event("TIMEOUT")
        .event("FINISH")
        .event("RETRY")
        .var("seq", seq_max, 0)
        // SEND : ListByte → SendTrans (Ready seq) (Wait seq)
        .transition("Ready", "SEND", "Wait")
        // OK : ChkPacket … → SendTrans (Wait seq) (Ready (seq+1))
        .transition_full(
            "Wait",
            "OK",
            "Ready",
            None,
            vec![(
                "seq".to_string(),
                Expr::Add(Box::new(Expr::var("seq")), Box::new(Expr::Const(1))),
            )],
        )
        // FAIL : SendTrans (Wait seq) (Ready seq)
        .transition("Wait", "FAIL", "Ready")
        // TIMEOUT : SendTrans (Wait seq) (Timeout seq)
        .transition("Wait", "TIMEOUT", "Timeout")
        // FINISH : SendTrans (Ready seq) (Sent seq)
        .transition("Ready", "FINISH", "Sent")
        // Recovery from Timeout back to Ready (so the machine can retry;
        // the paper's NextSent Failure arm hands back a Timeout machine).
        .transition("Timeout", "RETRY", "Ready")
        .build()
        .expect("paper sender spec is well-formed")
}

/// The paper's §3.4 receiver: a single `ReadyFor` state whose sequence
/// variable advances on `RECV` of a checksum-valid packet.
pub fn paper_receiver_spec(seq_max: u64) -> Spec {
    Spec::builder("paper-arq-receiver")
        .state("ReadyFor")
        .event("RECV")
        .event("REJECT")
        .var("seq", seq_max, 0)
        .transition_full(
            "ReadyFor",
            "RECV",
            "ReadyFor",
            None,
            vec![(
                "seq".to_string(),
                Expr::Add(Box::new(Expr::var("seq")), Box::new(Expr::Const(1))),
            )],
        )
        .transition("ReadyFor", "REJECT", "ReadyFor")
        .build()
        .expect("paper receiver spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_evaluation() {
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 5u64);
        let e = Expr::Add(Box::new(Expr::var("x")), Box::new(Expr::Const(3)));
        assert_eq!(e.eval(&env).unwrap(), 8);
        let cmp = Expr::Lt(Box::new(Expr::var("x")), Box::new(Expr::Const(3)));
        assert_eq!(cmp.eval(&env).unwrap(), 0);
        let logic = Expr::Or(
            Box::new(Expr::Not(Box::new(Expr::Const(0)))),
            Box::new(Expr::Const(0)),
        );
        assert_eq!(logic.eval(&env).unwrap(), 1);
        assert!(Expr::var("ghost").eval(&env).is_err());
        let sub = Expr::Sub(Box::new(Expr::Const(1)), Box::new(Expr::Const(5)));
        assert_eq!(
            sub.eval(&env).unwrap(),
            u64::MAX - 3,
            "variable-free arithmetic wraps modulo 2^64, it never saturates"
        );
    }

    #[test]
    fn arithmetic_wraps_in_the_narrowest_variable_domain() {
        // `x - 1` with x = 0 over 0..=7 is 7: the subtraction happens in
        // x's own domain. The old semantics saturated to 0 and only
        // wrapped on assignment, so guards could never observe the wrap.
        let max_of = |max: u64| move |n: &str| (n == "x").then_some((0u64, max));
        let sub = Expr::Sub(Box::new(Expr::var("x")), Box::new(Expr::Const(1)));
        assert_eq!(sub.eval_with(&max_of(7)).unwrap(), 7);
        assert_eq!(sub.eval_with(&max_of(u64::MAX)).unwrap(), u64::MAX);
        // The narrowest domain among the operands governs: x + 3 with
        // x = 3 over 0..=3 is (3 + 3) mod 4 = 2.
        let add = Expr::Add(Box::new(Expr::var("x")), Box::new(Expr::Const(3)));
        let lookup = |n: &str| (n == "x").then_some((3u64, 3u64));
        assert_eq!(add.eval_with(&lookup).unwrap(), 2);
        assert_eq!(add.arith_modulus(&|_| Some(3)).unwrap(), 4);
        assert_eq!(
            Expr::Const(9).arith_modulus(&|_| None).unwrap(),
            1u128 << 64,
            "no variables read: full u64 arithmetic"
        );
    }

    #[test]
    fn guard_observes_domain_wrap() {
        // Regression for the saturate-vs-wrap mismatch: a guard
        // `seq + 1 == 0` in an 8-bit domain must fire exactly when the
        // effect `seq + 1` is about to wrap to 0.
        let wrap_guard = Expr::Eq(
            Box::new(Expr::Add(
                Box::new(Expr::var("seq")),
                Box::new(Expr::Const(1)),
            )),
            Box::new(Expr::Const(0)),
        );
        let spec = Spec::builder("wrap")
            .state("A")
            .state("Wrapped")
            .event("TICK")
            .var("seq", 255, 255)
            .transition_full("A", "TICK", "Wrapped", Some(wrap_guard.clone()), vec![])
            .transition_full(
                "A",
                "TICK",
                "A",
                Some(Expr::Not(Box::new(wrap_guard))),
                vec![(
                    "seq".to_string(),
                    Expr::Add(Box::new(Expr::var("seq")), Box::new(Expr::Const(1))),
                )],
            )
            .build()
            .unwrap();
        let mut m = Machine::new(&spec);
        m.apply_named("TICK").unwrap();
        assert_eq!(
            spec.state_name(m.state()),
            "Wrapped",
            "seq = 255: the guard sees (255 + 1) mod 256 == 0"
        );
        let mut low = Machine::at(
            &spec,
            Config {
                state: spec.state_id("A").unwrap(),
                vars: vec![7],
            },
        )
        .unwrap();
        low.apply_named("TICK").unwrap();
        assert_eq!(spec.state_name(low.state()), "A");
        assert_eq!(low.var("seq").unwrap(), 8);
    }

    #[test]
    fn expr_variables_collected() {
        let e = Expr::And(
            Box::new(Expr::Eq(Box::new(Expr::var("a")), Box::new(Expr::Const(1)))),
            Box::new(Expr::var("b")),
        );
        assert_eq!(e.variables(), vec!["a", "b"]);
    }

    #[test]
    fn paper_sender_walkthrough() {
        // The exact sequence of §3.4: SEND, then OK advances seq; a
        // second SEND, TIMEOUT ends in the Timeout state.
        let spec = paper_sender_spec(255);
        let mut m = Machine::new(&spec);
        assert_eq!(spec.state_name(m.state()), "Ready");
        m.apply_named("SEND").unwrap();
        assert_eq!(spec.state_name(m.state()), "Wait");
        m.apply_named("OK").unwrap();
        assert_eq!(spec.state_name(m.state()), "Ready");
        assert_eq!(m.var("seq").unwrap(), 1, "OK advances the sequence number");
        m.apply_named("SEND").unwrap();
        m.apply_named("TIMEOUT").unwrap();
        assert_eq!(spec.state_name(m.state()), "Timeout");
        assert_eq!(m.var("seq").unwrap(), 1, "TIMEOUT preserves seq");
        assert!(!m.is_terminal());
        m.apply_named("RETRY").unwrap();
        m.apply_named("FINISH").unwrap();
        assert!(m.is_terminal());
    }

    #[test]
    fn soundness_invalid_events_rejected() {
        // "timeout cannot occur if an acknowledgement has been received
        // and acted on" — §3.4 item 3.
        let spec = paper_sender_spec(255);
        let mut m = Machine::new(&spec);
        assert_eq!(
            m.apply_named("TIMEOUT"),
            Err(DslError::NoTransition {
                state: "Ready".into(),
                event: "TIMEOUT".into()
            })
        );
        // The machine is unchanged after a rejected event.
        assert_eq!(spec.state_name(m.state()), "Ready");
        m.apply_named("SEND").unwrap();
        assert!(
            m.apply_named("SEND").is_err(),
            "no pipelining in stop-and-wait"
        );
    }

    #[test]
    fn seq_wraps_at_domain_bound() {
        let spec = paper_sender_spec(3); // seq ∈ 0..=3
        let mut m = Machine::new(&spec);
        for expect in [1u64, 2, 3, 0, 1] {
            m.apply_named("SEND").unwrap();
            m.apply_named("OK").unwrap();
            assert_eq!(m.var("seq").unwrap(), expect);
        }
    }

    #[test]
    fn guards_select_transitions() {
        let spec = Spec::builder("guarded")
            .state("A")
            .state("Small")
            .state("Big")
            .event("GO")
            .var("x", 10, 0)
            .transition_full(
                "A",
                "GO",
                "Small",
                Some(Expr::Lt(Box::new(Expr::var("x")), Box::new(Expr::Const(5)))),
                vec![],
            )
            .transition_full(
                "A",
                "GO",
                "Big",
                Some(Expr::Not(Box::new(Expr::Lt(
                    Box::new(Expr::var("x")),
                    Box::new(Expr::Const(5)),
                )))),
                vec![],
            )
            .build()
            .unwrap();
        let mut m = Machine::new(&spec);
        m.apply_named("GO").unwrap();
        assert_eq!(spec.state_name(m.state()), "Small");

        let mut m2 = Machine::at(
            &spec,
            Config {
                state: spec.state_id("A").unwrap(),
                vars: vec![7],
            },
        )
        .unwrap();
        m2.apply_named("GO").unwrap();
        assert_eq!(spec.state_name(m2.state()), "Big");
    }

    /// Two `A --GO-->` transitions whose guards (`x <= 5`, `x <= 7`) are
    /// distinct but overlap for `x <= 5` — buildable, ambiguous only at
    /// runtime.
    fn sometimes_overlapping_spec() -> Spec {
        Spec::builder("nd")
            .state("A")
            .state("B")
            .event("GO")
            .var("x", 9, 0)
            .transition_full(
                "A",
                "GO",
                "B",
                Some(Expr::Le(Box::new(Expr::var("x")), Box::new(Expr::Const(5)))),
                vec![],
            )
            .transition_full(
                "A",
                "GO",
                "A",
                Some(Expr::Le(Box::new(Expr::var("x")), Box::new(Expr::Const(7)))),
                vec![],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn nondeterminism_detected_not_resolved() {
        let spec = sometimes_overlapping_spec();
        assert_eq!(spec.overlap_candidates(), vec![(0, 1)]);
        // x = 0: both guards hold — surfaced, not tie-broken by order.
        let mut m = Machine::new(&spec);
        assert!(matches!(
            m.apply_named("GO"),
            Err(DslError::Nondeterministic { .. })
        ));
        // x = 7: only the second guard holds — the overlap is genuinely
        // valuation-dependent, which is why build accepts the spec.
        let mut m7 = Machine::at(
            &spec,
            Config {
                state: spec.state_id("A").unwrap(),
                vars: vec![7],
            },
        )
        .unwrap();
        assert_eq!(m7.apply_named("GO").unwrap(), spec.state_id("A").unwrap());
    }

    #[test]
    fn certainly_overlapping_transitions_rejected_at_build() {
        // Unguarded duplicates can never be distinguished: reject early.
        assert!(matches!(
            Spec::builder("nd")
                .state("A")
                .state("B")
                .event("GO")
                .transition("A", "GO", "B")
                .transition("A", "GO", "A")
                .build(),
            Err(DslError::BadSpec { .. })
        ));
        // Same for one unguarded + one guarded…
        let g = Expr::Le(Box::new(Expr::var("x")), Box::new(Expr::Const(5)));
        assert!(matches!(
            Spec::builder("nd")
                .state("A")
                .event("GO")
                .var("x", 9, 0)
                .transition("A", "GO", "A")
                .transition_full("A", "GO", "A", Some(g.clone()), vec![])
                .build(),
            Err(DslError::BadSpec { .. })
        ));
        // …and for syntactically identical guards.
        assert!(matches!(
            Spec::builder("nd")
                .state("A")
                .state("B")
                .event("GO")
                .var("x", 9, 0)
                .transition_full("A", "GO", "A", Some(g.clone()), vec![])
                .transition_full("A", "GO", "B", Some(g), vec![])
                .build(),
            Err(DslError::BadSpec { .. })
        ));
    }

    #[test]
    fn builder_validates_references() {
        assert!(matches!(
            Spec::builder("x").build(),
            Err(DslError::BadSpec { .. })
        ));
        assert!(matches!(
            Spec::builder("x")
                .state("A")
                .event("E")
                .transition("A", "E", "Ghost")
                .build(),
            Err(DslError::UnknownName { .. })
        ));
        assert!(matches!(
            Spec::builder("x")
                .state("A")
                .event("E")
                .transition_full("A", "E", "A", Some(Expr::var("ghost")), vec![])
                .build(),
            Err(DslError::UnknownName { .. })
        ));
        assert!(matches!(
            Spec::builder("x").state("A").var("v", 3, 9).build(),
            Err(DslError::DomainViolation { .. })
        ));
        assert!(matches!(
            Spec::builder("x").state("A").state("A").build(),
            Err(DslError::BadSpec { .. })
        ));
    }

    #[test]
    fn machine_at_validates_configuration() {
        let spec = paper_sender_spec(3);
        assert!(Machine::at(
            &spec,
            Config {
                state: StateId(0),
                vars: vec![4]
            }
        )
        .is_err());
        assert!(Machine::at(
            &spec,
            Config {
                state: StateId(99),
                vars: vec![0]
            }
        )
        .is_err());
        assert!(Machine::at(
            &spec,
            Config {
                state: StateId(1),
                vars: vec![2]
            }
        )
        .is_ok());
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = paper_sender_spec(255);
        // serde is wired for tooling: specs can be stored/exchanged.
        // Round-trip through the serde data model using serde's own
        // in-memory representative (JSON not available offline): use
        // bincode-like manual check via Debug equality after clone.
        let clone = spec.clone();
        assert_eq!(spec, clone);
        // Serialize trait object-safety compile check:
        fn assert_serializable<T: Serialize + for<'de> Deserialize<'de>>() {}
        assert_serializable::<Spec>();
    }

    #[test]
    fn dot_output_names_states_and_events() {
        let spec = paper_sender_spec(255);
        let dot = spec.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("Ready"));
        assert!(dot.contains("SEND"));
        assert!(dot.contains("doublecircle"), "terminal state styled");
    }

    #[test]
    fn dot_output_escapes_hostile_names() {
        // Regression: quotes and backslashes in names used to land raw
        // inside double-quoted labels, producing invalid Graphviz.
        let spec = Spec::builder("we \"quote\" \\ stuff")
            .state("A\"B")
            .event("E\\V")
            .transition("A\"B", "E\\V", "A\"B")
            .build()
            .unwrap();
        let dot = spec.to_dot();
        assert!(dot.contains("digraph \"we \\\"quote\\\" \\\\ stuff\" {"));
        assert!(dot.contains("label=\"A\\\"B\""));
        assert!(dot.contains("label=\"E\\\\V\""));
        // Every quote inside a label is now escaped: strip the escapes
        // and no bare quote may remain between the label delimiters.
        for line in dot.lines().filter(|l| l.contains("label=")) {
            let body = line.split("label=\"").nth(1).unwrap();
            let body = &body[..body.rfind('"').unwrap()];
            assert!(
                !body.replace("\\\\", "").replace("\\\"", "").contains('"'),
                "unescaped quote in {line:?}"
            );
        }
    }

    #[test]
    fn receiver_spec_advances_on_recv() {
        let spec = paper_receiver_spec(7);
        let mut m = Machine::new(&spec);
        m.apply_named("RECV").unwrap();
        m.apply_named("RECV").unwrap();
        assert_eq!(m.var("seq").unwrap(), 2);
        m.apply_named("REJECT").unwrap();
        assert_eq!(m.var("seq").unwrap(), 2, "rejects do not advance");
    }
}
