//! Compiled transition-table engine for reified FSMs.
//!
//! [`lower`] flattens a [`Spec`] into a [`CompiledFsm`]: a dense
//! `state × event` cell table whose cells index a contiguous pool of
//! candidate transitions, with every guard and effect expression compiled
//! to a short postfix program over [`VarId`] registers. The [`Stepper`]
//! executes that artifact with no `BTreeMap<String, u64>` environment, no
//! per-step `Vec` of candidates and no `Expr` tree recursion — the same
//! precompute-don't-rediscover move `netdsl-codec` applies to packet
//! specs, here applied to the paper's state machines (§3.4).
//!
//! Two consumers share the artifact, which is the paper's "one spec,
//! executed and model-checked" claim made concrete: protocol endpoints
//! step it on the hot path (`netdsl-protocols`), and the model checker
//! uses it as a dense successor function (`netdsl-verify`). The
//! tree-walking [`Machine`](crate::fsm::Machine) stays authoritative as
//! the *differential oracle*: `lower` is correct exactly when stepping
//! the compiled table is indistinguishable from stepping the walker, and
//! the `fsm_differential` proptest suite pins that equivalence on random
//! specs. See `docs/FSM.md` for the IR layout and lowering rules.
//!
//! Expression semantics are those of [`Expr::eval_with`]: each
//! arithmetic node wraps modulo the narrowest domain among the variables
//! its subtree reads ([`Expr::arith_modulus`]). Lowering bakes that
//! modulus into the instruction ([`FsmOp::AddMod`]/[`FsmOp::SubMod`]),
//! so the stepper never recomputes it.

use crate::error::DslError;
use crate::fsm::{Config, EventId, Expr, Spec, StateId, VarId};

/// One postfix stack-machine instruction of a compiled guard or effect
/// program. Programs are straight-line: operands are pushed, operators
/// pop two (one for [`FsmOp::Not`]) and push the result; the final stack
/// top is the program's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmOp {
    /// Push the register holding variable `.0`.
    Load(u32),
    /// Push a constant.
    Push(u64),
    /// Pop `b`, `a`; push `(a + b) mod m` where `m` is the baked-in
    /// [`Expr::arith_modulus`] of the source node. `m == 0` encodes the
    /// modulus 2⁶⁴ (plain wrapping `u64` addition).
    AddMod(u64),
    /// Pop `b`, `a`; push `(a - b) mod m`, same modulus encoding.
    SubMod(u64),
    /// Pop `b`, `a`; push `a == b`.
    Eq,
    /// Pop `b`, `a`; push `a != b`.
    Ne,
    /// Pop `b`, `a`; push `a < b`.
    Lt,
    /// Pop `b`, `a`; push `a <= b`.
    Le,
    /// Pop `b`, `a`; push `a != 0 && b != 0`.
    And,
    /// Pop `b`, `a`; push `a != 0 || b != 0`.
    Or,
    /// Pop `a`; push `a == 0`.
    Not,
}

/// Half-open range into [`CompiledFsm`]'s flat `code` pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CodeRange {
    start: u32,
    len: u32,
}

impl CodeRange {
    const EMPTY: CodeRange = CodeRange { start: 0, len: 0 };

    fn slice<'a>(&self, code: &'a [FsmOp]) -> &'a [FsmOp] {
        &code[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One candidate transition within a `(state, event)` cell, in
/// declaration order. `guard.len == 0` means unguarded.
#[derive(Debug, Clone, Copy)]
struct Arm {
    guard: CodeRange,
    to: u32,
    effects_start: u32,
    effects_len: u32,
}

/// One compiled variable update: run `code`, reduce into `var`'s domain,
/// write the register (simultaneously with the arm's other effects).
#[derive(Debug, Clone, Copy)]
struct EffectIr {
    var: u32,
    code: CodeRange,
}

/// A [`Spec`] lowered to a flat transition-table IR. Produced by
/// [`lower`]; executed by [`Stepper`]; immutable and shareable
/// (`Sync`), so one artifact can feed endpoints and the checker at once.
#[derive(Debug, Clone)]
pub struct CompiledFsm {
    /// The source spec — kept for names in errors, oracle access and
    /// tooling; the executable form below never consults it.
    spec: Spec,
    n_states: usize,
    n_events: usize,
    /// `terminal[s]` for dense terminal checks.
    terminal: Vec<bool>,
    /// Per-variable domain modulus `max + 1`, with 0 encoding 2⁶⁴.
    var_mod: Vec<u64>,
    /// Per-variable initial value.
    var_init: Vec<u64>,
    initial: u32,
    /// `cells[s * n_events + e] .. cells[s * n_events + e + 1]` indexes
    /// the arms of cell `(s, e)`; length `n_states * n_events + 1`.
    cells: Vec<u32>,
    arms: Vec<Arm>,
    effects: Vec<EffectIr>,
    /// All guard and effect programs, interned back to back.
    code: Vec<FsmOp>,
}

/// Lowers a [`Spec`] into its dense transition-table form.
///
/// Specs produced by [`Spec::builder`] always lower; the `Result` guards
/// against deserialized specs whose guard/effect expressions reference
/// undeclared variables (builder validation was bypassed).
///
/// # Errors
///
/// [`DslError::UnknownName`] for unresolvable variable references;
/// [`DslError::BadSpec`] for out-of-range state/event indices.
pub fn lower(spec: &Spec) -> Result<CompiledFsm, DslError> {
    let n_states = spec.states().len();
    let n_events = spec.events().len();
    let n_vars = spec.vars().len();
    let bad = |reason: &str| DslError::BadSpec {
        spec: spec.name().to_string(),
        reason: reason.to_string(),
    };
    if spec.initial().0 >= n_states {
        return Err(bad("initial state out of range"));
    }

    let mut code: Vec<FsmOp> = Vec::new();
    let mut compiled: Vec<(CodeRange, Vec<EffectIr>)> =
        Vec::with_capacity(spec.transitions().len());
    for t in spec.transitions() {
        if t.from.0 >= n_states || t.to.0 >= n_states || t.event.0 >= n_events {
            return Err(bad("transition references out-of-range state or event"));
        }
        let guard = match &t.guard {
            None => CodeRange::EMPTY,
            Some(g) => compile_expr(g, spec, &mut code)?,
        };
        let mut effects = Vec::with_capacity(t.effects.len());
        for (target, expr) in &t.effects {
            let var = spec
                .vars()
                .iter()
                .position(|v| v.name == *target)
                .ok_or_else(|| DslError::UnknownName {
                    name: target.clone(),
                })?;
            effects.push(EffectIr {
                var: var as u32,
                code: compile_expr(expr, spec, &mut code)?,
            });
        }
        compiled.push((guard, effects));
    }

    // Group arms densely by (state, event) cell, declaration order kept
    // within a cell so ambiguity detection sees the same candidate set
    // as the walker's linear scan.
    let mut cells = Vec::with_capacity(n_states * n_events + 1);
    let mut arms = Vec::with_capacity(spec.transitions().len());
    let mut effects = Vec::new();
    cells.push(0u32);
    for s in 0..n_states {
        for e in 0..n_events {
            for (t, (guard, effs)) in spec.transitions().iter().zip(&compiled) {
                if t.from.0 != s || t.event.0 != e {
                    continue;
                }
                arms.push(Arm {
                    guard: *guard,
                    to: t.to.0 as u32,
                    effects_start: effects.len() as u32,
                    effects_len: effs.len() as u32,
                });
                effects.extend_from_slice(effs);
            }
            cells.push(arms.len() as u32);
        }
    }

    let fsm = CompiledFsm {
        spec: spec.clone(),
        n_states,
        n_events,
        terminal: spec.states().iter().map(|s| s.terminal).collect(),
        var_mod: spec.vars().iter().map(|v| v.max.wrapping_add(1)).collect(),
        var_init: spec.vars().iter().map(|v| v.init).collect(),
        initial: spec.initial().0 as u32,
        cells,
        arms,
        effects,
        code,
    };
    debug_assert_eq!(fsm.cells.len(), n_states * n_events + 1);
    debug_assert_eq!(fsm.var_mod.len(), n_vars);
    Ok(fsm)
}

/// Emits `expr` as a postfix program into `code`, returning its range.
/// Arithmetic moduli are resolved against the spec's declared domains
/// here, once, so execution pays no per-step domain lookups.
fn compile_expr(expr: &Expr, spec: &Spec, code: &mut Vec<FsmOp>) -> Result<CodeRange, DslError> {
    let start = code.len() as u32;
    emit(expr, spec, code)?;
    Ok(CodeRange {
        start,
        len: code.len() as u32 - start,
    })
}

fn emit(expr: &Expr, spec: &Spec, code: &mut Vec<FsmOp>) -> Result<(), DslError> {
    let max_of = |n: &str| spec.vars().iter().find(|v| v.name == n).map(|v| v.max);
    match expr {
        Expr::Var(n) => {
            let ix = spec
                .vars()
                .iter()
                .position(|v| v.name == *n)
                .ok_or_else(|| DslError::UnknownName { name: n.clone() })?;
            code.push(FsmOp::Load(ix as u32));
        }
        Expr::Const(c) => code.push(FsmOp::Push(*c)),
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            // arith_modulus of 2⁶⁴ (= 1 << 64) wraps to the 0 encoding.
            let m = expr.arith_modulus(&max_of)? as u64;
            emit(a, spec, code)?;
            emit(b, spec, code)?;
            code.push(match expr {
                Expr::Add(..) => FsmOp::AddMod(m),
                _ => FsmOp::SubMod(m),
            });
        }
        Expr::Eq(a, b)
        | Expr::Ne(a, b)
        | Expr::Lt(a, b)
        | Expr::Le(a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => {
            emit(a, spec, code)?;
            emit(b, spec, code)?;
            code.push(match expr {
                Expr::Eq(..) => FsmOp::Eq,
                Expr::Ne(..) => FsmOp::Ne,
                Expr::Lt(..) => FsmOp::Lt,
                Expr::Le(..) => FsmOp::Le,
                Expr::And(..) => FsmOp::And,
                _ => FsmOp::Or,
            });
        }
        Expr::Not(a) => {
            emit(a, spec, code)?;
            code.push(FsmOp::Not);
        }
    }
    Ok(())
}

/// `(a + b) mod m`, with `m == 0` meaning 2⁶⁴.
#[inline]
fn mod_add(a: u64, b: u64, m: u64) -> u64 {
    if m == 0 {
        a.wrapping_add(b)
    } else {
        let m = u128::from(m);
        ((u128::from(a) % m + u128::from(b) % m) % m) as u64
    }
}

/// `(a - b) mod m`, with `m == 0` meaning 2⁶⁴.
#[inline]
fn mod_sub(a: u64, b: u64, m: u64) -> u64 {
    if m == 0 {
        a.wrapping_sub(b)
    } else {
        let m = u128::from(m);
        ((u128::from(a) % m + m - u128::from(b) % m) % m) as u64
    }
}

/// Runs one straight-line program over the register file.
#[inline]
fn run(code: &[FsmOp], regs: &[u64], stack: &mut Vec<u64>) -> u64 {
    stack.clear();
    for op in code {
        match *op {
            FsmOp::Load(r) => stack.push(regs[r as usize]),
            FsmOp::Push(c) => stack.push(c),
            FsmOp::Not => {
                let a = stack.pop().expect("well-formed program");
                stack.push(u64::from(a == 0));
            }
            binary => {
                let b = stack.pop().expect("well-formed program");
                let a = stack.pop().expect("well-formed program");
                stack.push(match binary {
                    FsmOp::AddMod(m) => mod_add(a, b, m),
                    FsmOp::SubMod(m) => mod_sub(a, b, m),
                    FsmOp::Eq => u64::from(a == b),
                    FsmOp::Ne => u64::from(a != b),
                    FsmOp::Lt => u64::from(a < b),
                    FsmOp::Le => u64::from(a <= b),
                    FsmOp::And => u64::from(a != 0 && b != 0),
                    FsmOp::Or => u64::from(a != 0 || b != 0),
                    FsmOp::Load(_) | FsmOp::Push(_) | FsmOp::Not => unreachable!("handled above"),
                });
            }
        }
    }
    stack.pop().expect("program yields a value")
}

/// Outcome of probing one cell, allocation-free (errors with names are
/// materialised only on the public [`Stepper::apply`] boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Exactly one arm enabled; the step was taken.
    Taken(u32),
    /// No arm enabled.
    Disabled,
    /// More than one arm enabled: spec-level nondeterminism.
    Ambiguous,
}

impl CompiledFsm {
    /// The source spec.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Number of states (rows of the dense table).
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of events (columns of the dense table).
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Number of variables (registers).
    pub fn n_vars(&self) -> usize {
        self.var_init.len()
    }

    /// The initial configuration.
    pub fn initial_config(&self) -> Config {
        Config {
            state: StateId(self.initial as usize),
            vars: self.var_init.clone(),
        }
    }

    /// `true` if `state` is terminal (dense lookup, no spec walk).
    pub fn state_is_terminal(&self, state: StateId) -> bool {
        self.terminal[state.0]
    }

    /// Resolves a variable name to its register index.
    pub fn var_index(&self, name: &str) -> Option<VarId> {
        self.spec
            .vars()
            .iter()
            .position(|v| v.name == name)
            .map(VarId)
    }

    /// Human-readable listing of the table and its programs, in the
    /// spirit of the codec engine's `disassemble` — cells in row-major
    /// order, one line per arm, programs inline.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compiled fsm `{}`: {} states x {} events, {} arms, {} ops",
            self.spec.name(),
            self.n_states,
            self.n_events,
            self.arms.len(),
            self.code.len()
        );
        for s in 0..self.n_states {
            for e in 0..self.n_events {
                let cell = s * self.n_events + e;
                let lo = self.cells[cell] as usize;
                let hi = self.cells[cell + 1] as usize;
                for arm in &self.arms[lo..hi] {
                    let guard = if arm.guard.len == 0 {
                        "always".to_string()
                    } else {
                        format!("{:?}", arm.guard.slice(&self.code))
                    };
                    let _ = write!(
                        out,
                        "  [{} x {}] -> {}  when {}",
                        self.spec.state_name(StateId(s)),
                        self.spec.event_name(EventId(e)),
                        self.spec.state_name(StateId(arm.to as usize)),
                        guard
                    );
                    for eff in self.arm_effects(arm) {
                        let _ = write!(
                            out,
                            "  ; {} := {:?}",
                            self.spec.vars()[eff.var as usize].name,
                            eff.code.slice(&self.code)
                        );
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    fn arm_effects(&self, arm: &Arm) -> &[EffectIr] {
        &self.effects[arm.effects_start as usize..(arm.effects_start + arm.effects_len) as usize]
    }
}

/// Executes a [`CompiledFsm`]: the compiled counterpart of
/// [`Machine`](crate::fsm::Machine), with an identical observable
/// contract (same accepted events, same successor configurations, same
/// error classification) — pinned by the differential test suite.
///
/// All scratch space lives in the stepper, so a long-lived stepper
/// applies events with zero heap allocation.
#[derive(Debug, Clone)]
pub struct Stepper<'c> {
    fsm: &'c CompiledFsm,
    state: u32,
    regs: Vec<u64>,
    /// Evaluation stack, reused across programs.
    stack: Vec<u64>,
    /// Post-effect register file (simultaneous assignment staging).
    staged: Vec<u64>,
    /// Pre-step register snapshot for [`Stepper::successors_into`].
    saved: Vec<u64>,
}

impl<'c> Stepper<'c> {
    /// A stepper in the initial configuration.
    pub fn new(fsm: &'c CompiledFsm) -> Self {
        Stepper {
            fsm,
            state: fsm.initial,
            regs: fsm.var_init.clone(),
            stack: Vec::with_capacity(8),
            staged: vec![0; fsm.var_init.len()],
            saved: vec![0; fsm.var_init.len()],
        }
    }

    /// A stepper at an arbitrary configuration (checker entry point),
    /// validated like [`Machine::at`](crate::fsm::Machine::at).
    ///
    /// # Errors
    ///
    /// [`DslError::BadSpec`] on shape mismatch,
    /// [`DslError::DomainViolation`] on out-of-domain values.
    pub fn at(fsm: &'c CompiledFsm, config: Config) -> Result<Self, DslError> {
        let mut s = Stepper::new(fsm);
        s.set_config(&config)?;
        Ok(s)
    }

    /// The artifact this stepper runs.
    pub fn fsm(&self) -> &'c CompiledFsm {
        self.fsm
    }

    /// Current configuration (allocates the variable vector).
    pub fn config(&self) -> Config {
        Config {
            state: StateId(self.state as usize),
            vars: self.regs.clone(),
        }
    }

    /// Current control state.
    pub fn state(&self) -> StateId {
        StateId(self.state as usize)
    }

    /// `true` if the current state is terminal.
    pub fn is_terminal(&self) -> bool {
        self.fsm.terminal[self.state as usize]
    }

    /// A register's current value.
    pub fn reg(&self, var: VarId) -> u64 {
        self.regs[var.0]
    }

    /// Current value of a variable by name.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] for undeclared variables.
    pub fn var(&self, name: &str) -> Result<u64, DslError> {
        self.fsm
            .var_index(name)
            .map(|v| self.regs[v.0])
            .ok_or_else(|| DslError::UnknownName {
                name: name.to_string(),
            })
    }

    /// Repositions the stepper at `config` without reallocating.
    ///
    /// # Errors
    ///
    /// As [`Stepper::at`].
    pub fn set_config(&mut self, config: &Config) -> Result<(), DslError> {
        if config.vars.len() != self.fsm.n_vars() || config.state.0 >= self.fsm.n_states {
            return Err(DslError::BadSpec {
                spec: self.fsm.spec.name().to_string(),
                reason: "configuration shape does not match spec".into(),
            });
        }
        for (v, def) in config.vars.iter().zip(self.fsm.spec.vars()) {
            if *v > def.max {
                return Err(DslError::DomainViolation {
                    var: def.name.clone(),
                    value: *v,
                    max: def.max,
                });
            }
        }
        self.state = config.state.0 as u32;
        self.regs.copy_from_slice(&config.vars);
        Ok(())
    }

    /// Back to the initial configuration (allocation-free).
    pub fn reset(&mut self) {
        self.state = self.fsm.initial;
        self.regs.copy_from_slice(&self.fsm.var_init);
    }

    /// The allocation-free core: probes cell `(state, event)`, takes the
    /// step if exactly one arm is enabled.
    fn probe(&mut self, event: usize) -> Probe {
        let cell = self.state as usize * self.fsm.n_events + event;
        let lo = self.fsm.cells[cell] as usize;
        let hi = self.fsm.cells[cell + 1] as usize;
        let mut chosen: Option<usize> = None;
        for ix in lo..hi {
            let arm = &self.fsm.arms[ix];
            let pass = arm.guard.len == 0
                || run(arm.guard.slice(&self.fsm.code), &self.regs, &mut self.stack) != 0;
            if pass {
                if chosen.is_some() {
                    return Probe::Ambiguous;
                }
                chosen = Some(ix);
            }
        }
        let Some(ix) = chosen else {
            return Probe::Disabled;
        };
        let arm = self.fsm.arms[ix];
        if arm.effects_len > 0 {
            // Simultaneous assignment: stage against the pre-state regs.
            self.staged.copy_from_slice(&self.regs);
            for eff in self.fsm.arm_effects(&arm) {
                let raw = run(eff.code.slice(&self.fsm.code), &self.regs, &mut self.stack);
                let m = self.fsm.var_mod[eff.var as usize];
                self.staged[eff.var as usize] = if m == 0 { raw } else { raw % m };
            }
            std::mem::swap(&mut self.regs, &mut self.staged);
        }
        self.state = arm.to;
        Probe::Taken(arm.to)
    }

    /// Applies `event` — same contract as
    /// [`Machine::apply`](crate::fsm::Machine::apply): exactly one arm
    /// must be enabled, effects are simultaneous, a refused event leaves
    /// the configuration untouched.
    ///
    /// # Errors
    ///
    /// [`DslError::NoTransition`] when no arm is enabled;
    /// [`DslError::Nondeterministic`] when more than one is.
    pub fn apply(&mut self, event: EventId) -> Result<StateId, DslError> {
        match self.probe(event.0) {
            Probe::Taken(to) => Ok(StateId(to as usize)),
            Probe::Disabled => Err(DslError::NoTransition {
                state: self.fsm.spec.state_name(self.state()).to_string(),
                event: self.fsm.spec.event_name(event).to_string(),
            }),
            Probe::Ambiguous => Err(DslError::Nondeterministic {
                state: self.fsm.spec.state_name(self.state()).to_string(),
                event: self.fsm.spec.event_name(event).to_string(),
            }),
        }
    }

    /// Applies an event by name.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownName`] for unknown events, otherwise as
    /// [`Stepper::apply`].
    pub fn apply_named(&mut self, event: &str) -> Result<StateId, DslError> {
        let id = self
            .fsm
            .spec
            .event_id(event)
            .ok_or_else(|| DslError::UnknownName {
                name: event.to_string(),
            })?;
        self.apply(id)
    }

    /// Appends every `(event, successor)` of the current configuration
    /// to `out` (cleared first) — the dense successor function the model
    /// checker runs. The stepper's configuration is preserved. Ambiguous
    /// events contribute no successor, matching the walker-backed
    /// `SpecSystem` (whose `apply` errors there).
    pub fn successors_into(&mut self, out: &mut Vec<(EventId, Config)>) {
        out.clear();
        let base_state = self.state;
        self.saved.copy_from_slice(&self.regs);
        for e in 0..self.fsm.n_events {
            if let Probe::Taken(_) = self.probe(e) {
                out.push((EventId(e), self.config()));
                self.state = base_state;
                self.regs.copy_from_slice(&self.saved);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{paper_receiver_spec, paper_sender_spec, Machine};

    #[test]
    fn lowered_paper_sender_matches_walker_on_the_canonical_walkthrough() {
        let spec = paper_sender_spec(255);
        let fsm = lower(&spec).unwrap();
        let mut walker = Machine::new(&spec);
        let mut stepper = Stepper::new(&fsm);
        for ev in ["SEND", "OK", "SEND", "TIMEOUT", "RETRY", "FINISH"] {
            let w = walker.apply_named(ev);
            let c = stepper.apply_named(ev);
            assert_eq!(w, c, "event {ev}");
            assert_eq!(walker.config(), &stepper.config(), "event {ev}");
        }
        assert!(stepper.is_terminal());
        assert_eq!(stepper.var("seq").unwrap(), 1);
    }

    #[test]
    fn rejected_events_leave_the_stepper_untouched() {
        let spec = paper_sender_spec(7);
        let fsm = lower(&spec).unwrap();
        let mut s = Stepper::new(&fsm);
        let before = s.config();
        assert!(matches!(
            s.apply_named("TIMEOUT"),
            Err(DslError::NoTransition { .. })
        ));
        assert_eq!(s.config(), before);
    }

    #[test]
    fn guard_wrap_semantics_survive_lowering() {
        // seq + 1 == 0 over an 8-bit domain: the modulus is baked into
        // the AddMod instruction at lowering.
        let wrap = Expr::Eq(
            Box::new(Expr::Add(
                Box::new(Expr::var("seq")),
                Box::new(Expr::Const(1)),
            )),
            Box::new(Expr::Const(0)),
        );
        let spec = Spec::builder("wrap")
            .state("A")
            .terminal("W")
            .event("T")
            .var("seq", 255, 255)
            .transition_full("A", "T", "W", Some(wrap.clone()), vec![])
            .transition_full(
                "A",
                "T",
                "A",
                Some(Expr::Not(Box::new(wrap))),
                vec![(
                    "seq".to_string(),
                    Expr::Add(Box::new(Expr::var("seq")), Box::new(Expr::Const(1))),
                )],
            )
            .build()
            .unwrap();
        let fsm = lower(&spec).unwrap();
        let mut s = Stepper::new(&fsm);
        s.apply_named("T").unwrap();
        assert!(s.is_terminal(), "compiled guard observes the wrap");
    }

    #[test]
    fn ambiguity_is_surfaced_not_tie_broken() {
        let spec = Spec::builder("nd")
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
            .unwrap();
        let fsm = lower(&spec).unwrap();
        let mut s = Stepper::new(&fsm);
        let before = s.config();
        assert!(matches!(
            s.apply_named("GO"),
            Err(DslError::Nondeterministic { .. })
        ));
        assert_eq!(s.config(), before, "ambiguous events mutate nothing");
    }

    #[test]
    fn successors_match_walker_derived_successors() {
        let spec = paper_sender_spec(3);
        let fsm = lower(&spec).unwrap();
        let mut stepper = Stepper::new(&fsm);
        let mut out = Vec::new();
        // Walk a few configurations and compare successor sets.
        for state in 0..spec.states().len() {
            for v in 0..=3u64 {
                let cfg = Config {
                    state: StateId(state),
                    vars: vec![v],
                };
                stepper.set_config(&cfg).unwrap();
                stepper.successors_into(&mut out);
                let mut expected = Vec::new();
                for e in 0..spec.events().len() {
                    let mut m = Machine::at(&spec, cfg.clone()).unwrap();
                    if m.apply(EventId(e)).is_ok() {
                        expected.push((EventId(e), m.config().clone()));
                    }
                }
                assert_eq!(out, expected, "config {cfg}");
                assert_eq!(stepper.config(), cfg, "successor probing is pure");
            }
        }
    }

    #[test]
    fn set_config_validates_shape_and_domain() {
        let fsm = lower(&paper_sender_spec(3)).unwrap();
        let mut s = Stepper::new(&fsm);
        assert!(s
            .set_config(&Config {
                state: StateId(0),
                vars: vec![4]
            })
            .is_err());
        assert!(s
            .set_config(&Config {
                state: StateId(99),
                vars: vec![0]
            })
            .is_err());
        assert!(s
            .set_config(&Config {
                state: StateId(1),
                vars: vec![2]
            })
            .is_ok());
    }

    #[test]
    fn receiver_spec_lowered_round_trip() {
        let spec = paper_receiver_spec(7);
        let fsm = lower(&spec).unwrap();
        let mut s = Stepper::new(&fsm);
        s.apply_named("RECV").unwrap();
        s.apply_named("RECV").unwrap();
        assert_eq!(s.var("seq").unwrap(), 2);
        s.apply_named("REJECT").unwrap();
        assert_eq!(s.var("seq").unwrap(), 2);
        s.reset();
        assert_eq!(s.var("seq").unwrap(), 0);
    }

    #[test]
    fn disassembly_lists_every_arm() {
        let spec = paper_sender_spec(255);
        let fsm = lower(&spec).unwrap();
        let listing = fsm.disassemble();
        assert!(listing.contains("paper-arq-sender"));
        assert!(listing.contains("[Ready x SEND] -> Wait"));
        assert!(listing.contains("seq :="), "OK effect listed");
        assert_eq!(
            listing.lines().count(),
            1 + spec.transitions().len(),
            "header plus one line per arm"
        );
    }

    #[test]
    fn full_u64_domain_lowering_uses_wrapping_encoding() {
        let spec = Spec::builder("wide")
            .state("A")
            .event("T")
            .var("x", u64::MAX, 0)
            .transition_full(
                "A",
                "T",
                "A",
                None,
                vec![(
                    "x".to_string(),
                    Expr::Sub(Box::new(Expr::var("x")), Box::new(Expr::Const(1))),
                )],
            )
            .build()
            .unwrap();
        let fsm = lower(&spec).unwrap();
        let mut s = Stepper::new(&fsm);
        s.apply_named("T").unwrap();
        assert_eq!(s.var("x").unwrap(), u64::MAX, "0 - 1 wraps modulo 2^64");
        let spec2 = paper_sender_spec(u64::MAX);
        let mut w = Machine::new(&spec2);
        let fsm2 = lower(&spec2).unwrap();
        let mut c = Stepper::new(&fsm2);
        for ev in ["SEND", "OK"] {
            assert_eq!(w.apply_named(ev), c.apply_named(ev));
        }
        assert_eq!(w.config(), &c.config());
    }
}
