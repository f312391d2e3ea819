//! Microinstruction step accounting.
//!
//! The PSI interpreter is a microprogram; the paper's measurements are
//! all phrased in *microinstruction execution steps*. Every primitive
//! operation of our simulated interpreter charges steps through
//! [`MicroTally`], attributing each step to:
//!
//! * an interpreter **module** (Table 2: control / unify / trail /
//!   get_arg / cut / built),
//! * one of the 16 **branch-field operations** (Table 7),
//! * whether the step also performed **data manipulation** (§4.4
//!   reports ≈50% of branching steps manipulate data).

use psi_core::{PsiError, Result, Tag, Word};
use std::fmt;

/// The component modules of the firmware interpreter (Table 2
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InterpModule {
    /// Call/return management, frame handling, clause selection.
    Control = 0,
    /// Head unification and structure copying.
    Unify = 1,
    /// Trail pushes and trail unwinding.
    Trail = 2,
    /// Fetching and decoding arguments for built-in predicates.
    GetArg = 3,
    /// Cut processing.
    Cut = 4,
    /// Built-in predicate bodies.
    Builtin = 5,
}

impl InterpModule {
    /// All modules, in Table 2 column order.
    pub const ALL: [InterpModule; 6] = [
        InterpModule::Control,
        InterpModule::Unify,
        InterpModule::Trail,
        InterpModule::GetArg,
        InterpModule::Cut,
        InterpModule::Builtin,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 2 column label.
    pub fn label(self) -> &'static str {
        match self {
            InterpModule::Control => "control",
            InterpModule::Unify => "unify",
            InterpModule::Trail => "trail",
            InterpModule::GetArg => "get_arg",
            InterpModule::Cut => "cut",
            InterpModule::Builtin => "built",
        }
    }
}

impl fmt::Display for InterpModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The 16 branch-field operations of Table 7, three instruction
/// types (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BranchOp {
    /// (1) Type 1, no operation.
    Nop1 = 0,
    /// (2) `if (cond) then`.
    IfCond = 1,
    /// (3) `if (not(cond)) then`.
    IfNotCond = 2,
    /// (4) `if tag(src2) then` — compare against a given tag value.
    IfTag = 3,
    /// (5) `case (tag(n, P/CDR))` — the tag-dispatch multi-way branch.
    CaseTag = 4,
    /// (6) `case (irn)` — multi-way branch on a packed operand's 3-bit
    /// tag.
    CaseIrn = 5,
    /// (7) `case (ir-opcode)` — dispatch on an instruction opcode.
    CaseOpcode = 6,
    /// (8) Type 1 `goto`.
    Goto1 = 7,
    /// (9) `gosub` — microsubroutine call.
    Gosub = 8,
    /// (10) `return` from microsubroutine.
    Return = 9,
    /// (11) `load-jr` — load the jump register (used as loop counter).
    LoadJr = 10,
    /// (12) `goto @jr` — indirect branch through JR.
    GotoJr1 = 11,
    /// (13) Type 2, no operation.
    Nop2 = 12,
    /// (14) Type 2 `goto`.
    Goto2 = 13,
    /// (15) Type 3, no operation.
    Nop3 = 14,
    /// (16) Type 3 `goto @jr`.
    GotoJr3 = 15,
}

impl BranchOp {
    /// All operations in Table 7 row order.
    pub const ALL: [BranchOp; 16] = [
        BranchOp::Nop1,
        BranchOp::IfCond,
        BranchOp::IfNotCond,
        BranchOp::IfTag,
        BranchOp::CaseTag,
        BranchOp::CaseIrn,
        BranchOp::CaseOpcode,
        BranchOp::Goto1,
        BranchOp::Gosub,
        BranchOp::Return,
        BranchOp::LoadJr,
        BranchOp::GotoJr1,
        BranchOp::Nop2,
        BranchOp::Goto2,
        BranchOp::Nop3,
        BranchOp::GotoJr3,
    ];

    /// Dense index (Table 7 row number minus one).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Is this one of the three no-operation rows?
    pub fn is_nop(self) -> bool {
        matches!(self, BranchOp::Nop1 | BranchOp::Nop2 | BranchOp::Nop3)
    }

    /// Table 7 row label.
    pub fn label(self) -> &'static str {
        match self {
            BranchOp::Nop1 => "no operation (t1)",
            BranchOp::IfCond => "if (cond) then",
            BranchOp::IfNotCond => "if (not(cond)) then",
            BranchOp::IfTag => "if tag(src2) then",
            BranchOp::CaseTag => "case (tag(n,P/CDR))",
            BranchOp::CaseIrn => "case (irn)",
            BranchOp::CaseOpcode => "case (ir-opcode)",
            BranchOp::Goto1 => "goto (t1)",
            BranchOp::Gosub => "gosub",
            BranchOp::Return => "return",
            BranchOp::LoadJr => "load-jr",
            BranchOp::GotoJr1 => "goto @jr (t1)",
            BranchOp::Nop2 => "no operation (t2)",
            BranchOp::Goto2 => "goto (t2)",
            BranchOp::Nop3 => "no operation (t3)",
            BranchOp::GotoJr3 => "goto @jr (t3)",
        }
    }
}

impl fmt::Display for BranchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-module step counts (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleTally {
    counts: [u64; 6],
}

impl ModuleTally {
    /// Steps charged to `module`.
    pub fn count(&self, module: InterpModule) -> u64 {
        self.counts[module.index()]
    }

    /// Total steps.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentages in Table 2 column order.
    pub fn percentages(&self) -> [f64; 6] {
        let total = self.total().max(1) as f64;
        let mut out = [0.0; 6];
        for m in InterpModule::ALL {
            out[m.index()] = self.counts[m.index()] as f64 * 100.0 / total;
        }
        out
    }
}

/// Per-operation branch-field counts (Table 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchTally {
    counts: [u64; 16],
    with_data: u64,
}

impl BranchTally {
    /// Steps whose branch field held `op`.
    pub fn count(&self, op: BranchOp) -> u64 {
        self.counts[op.index()]
    }

    /// Total steps recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentages in Table 7 row order.
    pub fn percentages(&self) -> [f64; 16] {
        let total = self.total().max(1) as f64;
        let mut out = [0.0; 16];
        for op in BranchOp::ALL {
            out[op.index()] = self.counts[op.index()] as f64 * 100.0 / total;
        }
        out
    }

    /// Share of steps carrying a real branch operation (the paper
    /// reports 77–83%).
    pub fn branch_share_pct(&self) -> f64 {
        let total = self.total().max(1) as f64;
        let nops: u64 = BranchOp::ALL
            .iter()
            .filter(|op| op.is_nop())
            .map(|op| self.counts[op.index()])
            .sum();
        (self.total() - nops) as f64 * 100.0 / total
    }

    /// Share of *branching* steps that also manipulated data (§4.4
    /// reports ≈50% with, ≈30% without, of all steps).
    pub fn with_data_share_pct(&self) -> f64 {
        let total = self.total().max(1) as f64;
        self.with_data as f64 * 100.0 / total
    }
}

/// The combined microstep tally the machine updates on every step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroTally {
    /// Per-module counts (Table 2).
    pub modules: ModuleTally,
    /// Per-branch-op counts (Table 7).
    pub branches: BranchTally,
    /// Joint rotor phase, stored packed as `((nop * 4) + goto) * 2 +
    /// cond` — the same index [`MicroTally::phase_index`] exposes.
    /// One byte instead of three separate rotors keeps the compiled
    /// lane's deferred charge (one load, one table store) minimal;
    /// the eager `step_*` rotors unpack and repack their own field.
    phase: u8,
}

impl MicroTally {
    /// Creates a zeroed tally.
    pub fn new() -> MicroTally {
        MicroTally::default()
    }

    /// Total microinstruction steps.
    pub fn steps(&self) -> u64 {
        self.modules.total()
    }

    /// Charges one step with an explicit branch operation.
    /// `with_data` notes whether the step also moved/combined data.
    pub fn step(&mut self, module: InterpModule, op: BranchOp, with_data: bool) {
        self.modules.counts[module.index()] += 1;
        self.branches.counts[op.index()] += 1;
        if with_data && !op.is_nop() {
            self.branches.with_data += 1;
        }
    }

    /// Charges a sequential (non-branching) step. The no-op rows of
    /// Table 7 are spread over the three instruction types; real
    /// microcode alternates among them depending on which fields the
    /// instruction needs, which we model with a rotor.
    pub fn step_seq(&mut self, module: InterpModule, with_data: bool) {
        let nop = (self.phase >> 3) + 1;
        let nop = if nop == 3 { 0 } else { nop };
        self.phase = (self.phase & 0b111) | (nop << 3);
        let op = match nop {
            0 => BranchOp::Nop1,
            1 => BranchOp::Nop2,
            _ => BranchOp::Nop3,
        };
        self.step(module, op, with_data);
    }

    /// Charges an unconditional-branch step. The paper shows Type 2
    /// `goto` about three times as frequent as Type 1 (Table 7 rows 8
    /// and 14), because the Type 2 field coexists with more data
    /// operations; the rotor reproduces that mix.
    pub fn step_goto(&mut self, module: InterpModule, with_data: bool) {
        let goto = ((self.phase >> 1) + 1) & 0b11;
        self.phase = (self.phase & 0b11001) | (goto << 1);
        let op = if goto == 0 {
            BranchOp::Goto1
        } else {
            BranchOp::Goto2
        };
        self.step(module, op, with_data);
    }

    /// Charges a conditional-branch step. Microcode uses `if (cond)`
    /// and `if (not(cond))` about equally (Table 7 rows 2 and 3); the
    /// rotor alternates.
    pub fn step_cond(&mut self, module: InterpModule, with_data: bool) {
        self.phase ^= 1;
        let op = if self.phase & 1 == 0 {
            BranchOp::IfCond
        } else {
            BranchOp::IfNotCond
        };
        self.step(module, op, with_data);
    }

    /// Merges another tally (for cross-process aggregation).
    pub fn merge(&mut self, other: &MicroTally) {
        for i in 0..6 {
            self.modules.counts[i] += other.modules.counts[i];
        }
        for i in 0..16 {
            self.branches.counts[i] += other.branches.counts[i];
        }
        self.branches.with_data += other.branches.with_data;
    }

    /// The tally's rotor phase: which of the 3 × 4 × 2 = 24 joint
    /// rotor states it is in. A fixed charge sequence replayed from a
    /// given phase always lands in the same successor phase with the
    /// same per-op deltas, which is what lets [`ChargePacket`] replace
    /// a whole sequence of `step_*` calls with one table lookup.
    pub(crate) fn phase_index(&self) -> usize {
        self.phase as usize
    }

    /// Places the rotors into joint phase `idx` (inverse of
    /// [`MicroTally::phase_index`]; used when recording packets).
    pub(crate) fn set_phase(&mut self, idx: usize) {
        debug_assert!(idx < CHARGE_PHASES);
        self.phase = idx as u8;
    }
}

// ------------------------------------------------------------------
// charge packets (compiled lane)
// ------------------------------------------------------------------

/// Joint rotor states of a [`MicroTally`] (3 nop × 4 goto × 2 cond).
pub(crate) const CHARGE_PHASES: usize = 24;

/// Dense tally delta of one charge sequence replayed from one rotor
/// phase: per-module and per-branch-op increments, the `with_data`
/// increment, the step total, and the successor rotor phase. The
/// counter deltas are full-width (all 6 modules, all 16 branch ops)
/// so applying one is a fixed run of branchless widening adds the
/// compiler can unroll and vectorize — no data-dependent loop bounds
/// on the hot path.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseDelta {
    modules: [u8; 6],
    branches: [u8; 16],
    with_data: u8,
    steps: u8,
    phase_after: u8,
}

/// A pre-recorded microstep charge sequence, one [`PhaseDelta`] per
/// rotor phase.
///
/// The compiled lane (Lane C) charges its fixed interpreter sequences
/// — code fetches, memory-access cycles, frame saves, call overheads —
/// through these instead of replaying each `step_seq`/`step_goto`/
/// `step_cond` call. A packet is *recorded* by running the real
/// charging closure against a zeroed tally from each of the 24
/// phases, so the deltas cannot drift from the fidelity lane's
/// sequences: bit-identity of module tallies, branch tallies (with
/// `with_data`), step totals and rotor state is by construction, and
/// `tests` below assert it for every phase.
#[derive(Debug, Clone)]
pub(crate) struct ChargePacket {
    phases: [PhaseDelta; CHARGE_PHASES],
    /// Step count of the sequence — phase-independent (a fixed
    /// sequence has a fixed length), asserted during recording.
    steps: u8,
    /// Successor rotor phase per start phase: the only part of a
    /// charge that must be applied *eagerly* (direct `step_*` calls
    /// interleave with packet charges and read the rotors), kept as a
    /// one-byte table so the eager path touches a single cache line.
    phase_after: [u8; CHARGE_PHASES],
    /// Slot in the machine's deferred-count array (see
    /// [`ChargePacket::charge_deferred`]); assigned by
    /// `ChargeTable::finalize_ids`.
    pub(crate) id: u8,
}

impl ChargePacket {
    /// Records the charge sequence `f` (a closure calling only
    /// `MicroTally::step*`) from every rotor phase.
    pub(crate) fn record(f: impl Fn(&mut MicroTally)) -> ChargePacket {
        let mut phases = [PhaseDelta::default(); CHARGE_PHASES];
        let mut phase_after = [0u8; CHARGE_PHASES];
        let mut steps = None;
        for (phase, delta) in phases.iter_mut().enumerate() {
            let mut t = MicroTally::new();
            t.set_phase(phase);
            f(&mut t);
            let mut d = PhaseDelta {
                phase_after: t.phase_index() as u8,
                ..PhaseDelta::default()
            };
            for (i, &c) in t.modules.counts.iter().enumerate() {
                assert!(c <= u8::MAX as u64, "charge sequence too long for a packet");
                d.modules[i] = c as u8;
            }
            for (i, &c) in t.branches.counts.iter().enumerate() {
                assert!(c <= u8::MAX as u64, "charge sequence too long for a packet");
                d.branches[i] = c as u8;
            }
            assert!(t.branches.with_data <= u8::MAX as u64);
            assert!(t.steps() <= u8::MAX as u64);
            d.with_data = t.branches.with_data as u8;
            d.steps = t.steps() as u8;
            assert_eq!(
                *steps.get_or_insert(d.steps),
                d.steps,
                "a fixed sequence must charge a phase-independent step count"
            );
            phase_after[phase] = t.phase_index() as u8;
            *delta = d;
        }
        ChargePacket {
            phases,
            steps: steps.unwrap_or(0),
            phase_after,
            id: 0,
        }
    }

    /// Applies the packet to `t` (deltas of the phase `t` is in) and
    /// returns the number of microsteps charged, for the caller to
    /// advance the bus step counter by.
    ///
    /// The hot path uses [`ChargePacket::charge_deferred`] instead;
    /// this eager form is the reference the unit tests below hold the
    /// deferred split (and packet recording itself) against.
    #[allow(dead_code)]
    #[inline]
    pub(crate) fn charge(&self, t: &mut MicroTally) -> u64 {
        // `% CHARGE_PHASES` costs a multiply-shift and lets the
        // compiler drop the bounds-check branch (the rotors keep the
        // index in range by construction, but it cannot see that).
        let d = &self.phases[t.phase_index() % CHARGE_PHASES];
        for (c, &a) in t.modules.counts.iter_mut().zip(&d.modules) {
            *c += a as u64;
        }
        for (c, &a) in t.branches.counts.iter_mut().zip(&d.branches) {
            *c += a as u64;
        }
        t.branches.with_data += d.with_data as u64;
        t.phase = d.phase_after;
        d.steps as u64
    }

    /// Deferred charge: the compiled lane's hot path. Counter deltas
    /// commute (they are pure adds), so instead of applying ~22
    /// widening adds per charge this only bumps the packet's
    /// per-start-phase count in `counts` and advances the rotors —
    /// [`ChargeTable::apply_deferred`] materializes `count × delta`
    /// into the tally when it is actually observed. Returns the step
    /// count for the caller's bus advance (and running step total,
    /// which budget checks need without a flush).
    #[inline]
    pub(crate) fn charge_deferred(&self, t: &mut MicroTally, counts: &mut [u64]) -> u64 {
        let ph = t.phase_index() % CHARGE_PHASES;
        counts[self.id as usize * CHARGE_PHASES + ph] += 1;
        t.set_phase(self.phase_after[ph] as usize);
        self.steps as u64
    }

    /// Flush half of [`ChargePacket::charge_deferred`]: folds this
    /// packet's pending counts into `t`. Rotors are untouched — they
    /// were advanced eagerly.
    fn apply_counts(&self, t: &mut MicroTally, counts: &[u64]) {
        for (ph, d) in self.phases.iter().enumerate() {
            let n = counts[self.id as usize * CHARGE_PHASES + ph];
            if n == 0 {
                continue;
            }
            for (c, &a) in t.modules.counts.iter_mut().zip(&d.modules) {
                *c += a as u64 * n;
            }
            for (c, &a) in t.branches.counts.iter_mut().zip(&d.branches) {
                *c += a as u64 * n;
            }
            t.branches.with_data += d.with_data as u64 * n;
        }
    }
}

/// The compiled lane's table of pre-recorded charge sequences, one
/// per fixed interpreter sequence. Built once per process (see
/// `exec::charge_table`) from the same `step_*` calls the fidelity
/// lane makes, so the two lanes cannot diverge.
#[derive(Debug)]
pub(crate) struct ChargeTable {
    /// One code-word fetch (`fetch_code`'s five steps), per module ×
    /// fetch op (`[0]` = `CaseOpcode`, `[1]` = `CaseTag`).
    pub(crate) code_fetch: [[ChargePacket; 2]; 6],
    /// Address generation + access cycle, per module — the charge
    /// shape shared by `mem_read`, `mem_write` and `mem_push`.
    pub(crate) addr_cycle: [ChargePacket; 6],
    /// Tag-dispatching read (`mem_read_dispatch`), per module.
    pub(crate) read_dispatch: [ChargePacket; 6],
    /// `materialize_env`: load-jr plus the 10-word frame burst.
    pub(crate) env_save: ChargePacket,
    /// `push_choice_point`: load-jr, two ALU steps, 10-word burst.
    pub(crate) cp_save: ChargePacket,
    /// `handle_user_call` overhead after argument build: two ALU
    /// steps, a condition, the predicate-table indirect jump.
    pub(crate) call_overhead: ChargePacket,
    /// `enter_clause` entry overhead: gosub, header fetch, two ALU
    /// steps, frame setup.
    pub(crate) enter_clause: ChargePacket,
    /// `backtrack_loop` iteration head: goto, two ALU steps, a
    /// condition.
    pub(crate) backtrack_head: ChargePacket,
    /// One trail unwind of a bound cell: tag-dispatch read plus the
    /// cell reset write.
    pub(crate) trail_undo: ChargePacket,
    /// `unify`'s gosub/return bracket.
    pub(crate) unify_frame: ChargePacket,
    /// One `unify_inner` pair dispatch with no arm charges.
    pub(crate) unify_case: ChargePacket,
    /// Pair dispatch + constant compare (atom/int arm).
    pub(crate) unify_const: ChargePacket,
    /// Pair dispatch + four element reads (list/list arm).
    pub(crate) unify_list: ChargePacket,
    /// Pair dispatch + two functor reads + compare (vect/vect arm).
    pub(crate) unify_vect_head: ChargePacket,
    /// One element-pair read of the vect/vect arm.
    pub(crate) unify_pair_read: ChargePacket,
    /// `bind` without a trail entry: trail test + cell write.
    pub(crate) bind_plain: ChargePacket,
    /// `bind` with a trail entry: test + trail push + cell write.
    pub(crate) bind_trailed: ChargePacket,
    /// `handle_return` through a materialized caller frame: three
    /// frame-word reads, the register reload ALU step, the
    /// continuation test and the return op.
    pub(crate) ret_frame: ChargePacket,
    /// `handle_return` with the caller's registers still in the WF:
    /// reload, test, return — no frame reads.
    pub(crate) ret_quick: ChargePacket,
    /// One skeleton element cycle: code-word fetch plus the paired
    /// memory access (the element read when matching, the global-stack
    /// push when copying — both charge the `addr_cycle` shape).
    pub(crate) skel_fetch_cycle: ChargePacket,
    /// `unify_skeleton`'s list head: the skeleton-kind dispatch folded
    /// onto the first element cycle.
    pub(crate) skel_head: ChargePacket,
    /// `unify_skeleton`'s vector head: kind dispatch, functor fetch,
    /// functor read, functor compare.
    pub(crate) skel_vect_test: ChargePacket,
    /// `copy_skeleton`'s vector head: functor fetch, functor push and
    /// the arity load-jr.
    pub(crate) skel_vect_copy_head: ChargePacket,
    /// One head-argument cycle ending in a buffered slot access: code
    /// fetch + the WF frame-buffer read/write step.
    pub(crate) head_slot_buf: ChargePacket,
    /// One constant head argument: code fetch + the unify
    /// microsubroutine bracket (the arm's own charges follow).
    pub(crate) head_const: ChargePacket,
    /// One copied slot-variable skeleton element, slot still
    /// buffered: fetch + buffer read + global-stack push.
    pub(crate) skel_var_buf: ChargePacket,
    /// One copied slot-variable skeleton element, slot flushed:
    /// fetch + local-stack read + global-stack push.
    pub(crate) skel_var_mem: ChargePacket,
    /// One skeleton head argument whose value derefs in a single
    /// hop (the dominant case): code fetch + the dispatch read.
    pub(crate) head_skel_ref: ChargePacket,
    /// `backtrack_loop` retry resume with a remaining alternative:
    /// the state-restore step + the alternative-advance frame write.
    pub(crate) bt_resume: ChargePacket,
}

impl ChargeTable {
    /// Total number of packets in the table — the stride of the
    /// machine's deferred-count array.
    pub(crate) const PACKETS: usize = 6 * 2 + 6 + 6 + 6 + 8 + 6 + 6;

    fn for_each(&self, mut f: impl FnMut(&ChargePacket)) {
        for pair in &self.code_fetch {
            f(&pair[0]);
            f(&pair[1]);
        }
        for p in &self.addr_cycle {
            f(p);
        }
        for p in &self.read_dispatch {
            f(p);
        }
        f(&self.env_save);
        f(&self.cp_save);
        f(&self.call_overhead);
        f(&self.enter_clause);
        f(&self.backtrack_head);
        f(&self.trail_undo);
        f(&self.unify_frame);
        f(&self.unify_case);
        f(&self.unify_const);
        f(&self.unify_list);
        f(&self.unify_vect_head);
        f(&self.unify_pair_read);
        f(&self.bind_plain);
        f(&self.bind_trailed);
        f(&self.ret_frame);
        f(&self.ret_quick);
        f(&self.skel_fetch_cycle);
        f(&self.skel_head);
        f(&self.skel_vect_test);
        f(&self.skel_vect_copy_head);
        f(&self.head_slot_buf);
        f(&self.head_const);
        f(&self.skel_var_buf);
        f(&self.skel_var_mem);
        f(&self.head_skel_ref);
        f(&self.bt_resume);
    }

    /// Assigns every packet its slot in the deferred-count array.
    /// Called once at table construction.
    pub(crate) fn finalize_ids(&mut self) {
        let mut next = 0u8;
        let mut assign = |p: &mut ChargePacket| {
            p.id = next;
            next += 1;
        };
        for pair in &mut self.code_fetch {
            assign(&mut pair[0]);
            assign(&mut pair[1]);
        }
        for p in &mut self.addr_cycle {
            assign(p);
        }
        for p in &mut self.read_dispatch {
            assign(p);
        }
        assign(&mut self.env_save);
        assign(&mut self.cp_save);
        assign(&mut self.call_overhead);
        assign(&mut self.enter_clause);
        assign(&mut self.backtrack_head);
        assign(&mut self.trail_undo);
        assign(&mut self.unify_frame);
        assign(&mut self.unify_case);
        assign(&mut self.unify_const);
        assign(&mut self.unify_list);
        assign(&mut self.unify_vect_head);
        assign(&mut self.unify_pair_read);
        assign(&mut self.bind_plain);
        assign(&mut self.bind_trailed);
        assign(&mut self.ret_frame);
        assign(&mut self.ret_quick);
        assign(&mut self.skel_fetch_cycle);
        assign(&mut self.skel_head);
        assign(&mut self.skel_vect_test);
        assign(&mut self.skel_vect_copy_head);
        assign(&mut self.head_slot_buf);
        assign(&mut self.head_const);
        assign(&mut self.skel_var_buf);
        assign(&mut self.skel_var_mem);
        assign(&mut self.head_skel_ref);
        assign(&mut self.bt_resume);
        debug_assert_eq!(next as usize, Self::PACKETS);
    }

    /// Materializes all pending deferred charges into `t`. Pure adds
    /// — order-independent, rotors untouched — so this is exact
    /// regardless of how packet charges interleaved with direct
    /// `step_*` calls.
    pub(crate) fn apply_deferred(&self, t: &mut MicroTally, counts: &[u64]) {
        self.for_each(|p| p.apply_counts(t, counts));
    }
}

// ------------------------------------------------------------------
// fused program (compiled lane)
// ------------------------------------------------------------------

/// Post-processed dispatch kind of a fused op (compiled lane). The
/// whole program is fused eagerly when code is loaded, and
/// non-dispatch positions (argument words, clause headers, skeletons)
/// are [`FusedKind::NotOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum FusedKind {
    /// Not a dispatchable goal word; dispatching here is the
    /// corrupt-code error path.
    NotOp = 0,
    /// A user-predicate call with pre-classified arguments.
    Goal = 1,
    /// A built-in call with pre-classified arguments.
    Builtin = 2,
    /// A cut.
    Cut = 3,
    /// The end-of-body sentinel.
    Return = 4,
}

/// Flag: this op's continuation (at [`FusedOp::next`]) is itself a
/// dispatchable op, so the fused dispatch loop executes it without
/// returning to the outer run loop (the superinstruction chain:
/// builtin→goal, builtin→builtin, builtin→return, cut→goal,
/// cut→return).
pub(crate) const FUSE_NEXT: u8 = 1 << 0;
/// Flag: the goal's arguments came as one `Tag::Packed` word; charge
/// one fetch plus per-operand `case (irn)` steps and use the
/// base-relative slot path, as `build_args` does.
pub(crate) const ARGS_PACKED: u8 = 1 << 1;
/// Flag: the argument words are decoded as `build_args` fetches them
/// — every goal on the fidelity lane, and a fused goal whose words did
/// not all pre-classify (corrupt or exotic input), so its error
/// behaviour stays identical to the fidelity lane.
pub(crate) const ARGS_GENERIC: u8 = 1 << 2;

/// One fused dispatch op: kind, argument-packing flags, operand, the
/// continuation offset past the goal's argument words, and the extent
/// of its pre-classified arguments in [`FusedProgram::args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FusedOp {
    pub(crate) kind: FusedKind,
    pub(crate) flags: u8,
    pub(crate) nargs: u8,
    pub(crate) operand: u32,
    pub(crate) args_at: u32,
    pub(crate) next: u32,
}

impl FusedOp {
    /// The non-dispatch filler every non-goal position holds.
    pub(crate) const NOT_OP: FusedOp = FusedOp {
        kind: FusedKind::NotOp,
        flags: 0,
        nargs: 0,
        operand: 0,
        args_at: 0,
        next: 0,
    };

    /// A goal decoded from its fetched word at run time rather than
    /// fused: `build_args` decodes its argument words as it fetches
    /// them.
    pub(crate) fn decoded(kind: FusedKind, operand: u32, nargs: u8) -> FusedOp {
        FusedOp {
            kind,
            flags: ARGS_GENERIC,
            nargs,
            operand,
            ..FusedOp::NOT_OP
        }
    }
}

/// A decoded goal argument: what `build_args` materializes, decoded
/// by [`PackedArg::from_word`] / [`PackedArg::from_operand`] (at fuse
/// time on the fast lane, as the words are fetched on the fidelity
/// lane). Under [`ARGS_PACKED`] the variable variants use the
/// base-relative slot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedArg {
    /// An immediate word (atom, int, nil — packed ints and nils are
    /// pre-materialized to full words).
    Const(Word),
    /// First occurrence of a local variable: bind slot to a fresh
    /// global cell.
    FirstVar(u16),
    /// Subsequent occurrence: read the slot.
    LocalVar(u16),
    /// Singleton variable: fresh global cell, no slot.
    Void,
    /// Static list/structure skeleton: copy to the global stack.
    Skeleton(Word),
}

impl PackedArg {
    /// Decodes an unpacked argument word.
    pub(crate) fn from_word(w: Word) -> Result<PackedArg> {
        Ok(match w.tag() {
            Tag::Atom | Tag::Int | Tag::Nil => PackedArg::Const(w),
            Tag::FirstVar => PackedArg::FirstVar(w.var_slot().expect("FirstVar")),
            Tag::LocalVar => PackedArg::LocalVar(w.var_slot().expect("LocalVar")),
            Tag::Void => PackedArg::Void,
            Tag::CodeList | Tag::CodeVect => PackedArg::Skeleton(w),
            other => {
                return Err(PsiError::EvalError {
                    detail: format!("corrupt argument word ({other})"),
                })
            }
        })
    }

    /// Decodes one 8-bit operand of a `Packed` argument word (§4.4:
    /// a 3-bit tag and a 5-bit payload).
    pub(crate) fn from_operand(op: u8) -> Result<PackedArg> {
        let (tag3, payload) = Word::packed_operand(op);
        Ok(if Some(tag3) == Tag::Int.packed_tag() {
            PackedArg::Const(Word::int(payload as i32))
        } else if Some(tag3) == Tag::Nil.packed_tag() {
            PackedArg::Const(Word::nil())
        } else if Some(tag3) == Tag::FirstVar.packed_tag() {
            PackedArg::FirstVar(payload as u16)
        } else if Some(tag3) == Tag::LocalVar.packed_tag() {
            PackedArg::LocalVar(payload as u16)
        } else if Some(tag3) == Tag::Void.packed_tag() {
            PackedArg::Void
        } else {
            return Err(PsiError::EvalError {
                detail: format!("corrupt packed operand tag {tag3}"),
            });
        })
    }
}

/// The compiled lane's dense fused program: one [`FusedOp`] per loaded
/// code word, plus a side array of pre-classified goal arguments.
///
/// Built eagerly by the append-only `sync_code` pass (loaded code is
/// immutable, so the program is only ever extended) and shared
/// copy-on-write with forks behind an `Arc`. The classification is sound because goal tags (`Goal`, `BuiltinGoal`,
/// `CutGoal`, `EndBody`) never occur in argument, header or skeleton
/// positions: every position holding one *is* a dispatchable op.
#[derive(Debug, Clone, Default)]
pub(crate) struct FusedProgram {
    pub(crate) ops: Vec<FusedOp>,
    pub(crate) args: Vec<PackedArg>,
}

impl FusedProgram {
    /// The pre-classified arguments of `op` (not valid for
    /// [`ARGS_GENERIC`] ops, which fall back to the code words).
    #[inline]
    pub(crate) fn args_of(&self, op: FusedOp) -> &[PackedArg] {
        debug_assert_eq!(op.flags & ARGS_GENERIC, 0);
        &self.args[op.args_at as usize..op.args_at as usize + op.nargs as usize]
    }

    /// Extends the fused program over newly appended code words
    /// (`heap` is the full code image; everything before `self.ops.
    /// len()` is already fused and immutable).
    pub(crate) fn extend(&mut self, heap: &[Word]) {
        let from = self.ops.len();
        self.ops.resize(heap.len(), FusedOp::NOT_OP);
        for off in from..heap.len() {
            let w = heap[off];
            self.ops[off] = match w.tag() {
                Tag::Goal | Tag::BuiltinGoal => {
                    let (operand, nargs) = w.goal_value().expect("goal word");
                    let kind = if w.tag() == Tag::Goal {
                        FusedKind::Goal
                    } else {
                        FusedKind::Builtin
                    };
                    self.classify_goal(heap, off, kind, operand, nargs)
                }
                Tag::CutGoal => FusedOp {
                    kind: FusedKind::Cut,
                    next: off as u32 + 1,
                    ..FusedOp::NOT_OP
                },
                Tag::EndBody => FusedOp {
                    kind: FusedKind::Return,
                    next: off as u32 + 1,
                    ..FusedOp::NOT_OP
                },
                _ => FusedOp::NOT_OP,
            };
        }
        // Superinstruction marking, after all kinds are known: a cut
        // or builtin whose continuation is itself a dispatchable op
        // chains into it without a run-loop round trip. Goals and
        // returns transfer control dynamically, so they never chain
        // statically.
        for off in from..self.ops.len() {
            let op = self.ops[off];
            if !matches!(op.kind, FusedKind::Builtin | FusedKind::Cut) {
                continue;
            }
            if let Some(next) = self.ops.get(op.next as usize) {
                if next.kind != FusedKind::NotOp {
                    self.ops[off].flags |= FUSE_NEXT;
                }
            }
        }
    }

    /// Classifies a goal's argument words. Anything that does not
    /// decode (truncated tail, corrupt word, unexpected packed tag)
    /// produces an [`ARGS_GENERIC`] op, so `build_args` decodes it at
    /// run time and raises the fidelity lane's error.
    fn classify_goal(
        &mut self,
        heap: &[Word],
        off: usize,
        kind: FusedKind,
        operand: u32,
        nargs: u8,
    ) -> FusedOp {
        let args_at = self.args.len();
        let packed = nargs > 0 && heap.get(off + 1).is_some_and(|w| w.tag() == Tag::Packed);
        let mut op = FusedOp {
            kind,
            flags: if packed { ARGS_PACKED } else { 0 },
            nargs,
            operand,
            args_at: args_at as u32,
            next: off as u32 + 1 + if packed { 1 } else { nargs as u32 },
        };
        let decode = |i: usize| {
            if packed {
                PackedArg::from_operand(*heap[off + 1].packed_operands()?.get(i)?).ok()
            } else {
                PackedArg::from_word(*heap.get(off + 1 + i)?).ok()
            }
        };
        for i in 0..nargs as usize {
            let Some(arg) = decode(i) else {
                self.args.truncate(args_at);
                op.flags |= ARGS_GENERIC;
                break;
            };
            self.args.push(arg);
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_accumulate_per_module() {
        let mut t = MicroTally::new();
        t.step(InterpModule::Unify, BranchOp::CaseTag, true);
        t.step(InterpModule::Unify, BranchOp::CaseTag, false);
        t.step(InterpModule::Control, BranchOp::Gosub, false);
        assert_eq!(t.steps(), 3);
        assert_eq!(t.modules.count(InterpModule::Unify), 2);
        let pct = t.modules.percentages();
        assert!((pct[InterpModule::Unify.index()] - 66.666).abs() < 0.01);
    }

    #[test]
    fn branch_share_excludes_nops() {
        let mut t = MicroTally::new();
        for _ in 0..6 {
            t.step_seq(InterpModule::Control, false);
        }
        for _ in 0..4 {
            t.step(InterpModule::Unify, BranchOp::CaseTag, true);
        }
        assert!((t.branches.branch_share_pct() - 40.0).abs() < 1e-9);
        assert!((t.branches.with_data_share_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rotors_spread_over_types() {
        let mut t = MicroTally::new();
        for _ in 0..30 {
            t.step_seq(InterpModule::Control, false);
        }
        assert_eq!(t.branches.count(BranchOp::Nop1), 10);
        assert_eq!(t.branches.count(BranchOp::Nop2), 10);
        assert_eq!(t.branches.count(BranchOp::Nop3), 10);
        for _ in 0..40 {
            t.step_goto(InterpModule::Control, false);
        }
        assert_eq!(t.branches.count(BranchOp::Goto1), 10);
        assert_eq!(t.branches.count(BranchOp::Goto2), 30);
        for _ in 0..10 {
            t.step_cond(InterpModule::Builtin, true);
        }
        assert_eq!(t.branches.count(BranchOp::IfCond), 5);
        assert_eq!(t.branches.count(BranchOp::IfNotCond), 5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = MicroTally::new();
        a.step(InterpModule::Cut, BranchOp::Goto2, false);
        let mut b = MicroTally::new();
        b.step(InterpModule::Cut, BranchOp::Goto2, true);
        a.merge(&b);
        assert_eq!(a.modules.count(InterpModule::Cut), 2);
        assert_eq!(a.branches.count(BranchOp::Goto2), 2);
    }

    #[test]
    fn charge_packet_replays_identically_from_every_phase() {
        // A representative mixed sequence: fetch-shaped steps, nops,
        // conditions both ways, gotos, a data-carrying dispatch.
        let seq = |t: &mut MicroTally| {
            t.step(InterpModule::Control, BranchOp::CaseOpcode, true);
            t.step_seq(InterpModule::Control, true);
            t.step_cond(InterpModule::Control, true);
            t.step_cond(InterpModule::Control, false);
            t.step_goto(InterpModule::Control, true);
            t.step(InterpModule::Unify, BranchOp::IfTag, true);
            t.step_seq(InterpModule::Unify, false);
            t.step_goto(InterpModule::Unify, false);
        };
        let packet = ChargePacket::record(seq);
        for phase in 0..CHARGE_PHASES {
            // Direct replay from this rotor phase, over pre-existing
            // counts so the delta (not just the end state) must match.
            let mut direct = MicroTally::new();
            direct.step(InterpModule::Cut, BranchOp::Gosub, false);
            direct.set_phase(phase);
            let before = direct.steps();
            seq(&mut direct);

            let mut charged = MicroTally::new();
            charged.step(InterpModule::Cut, BranchOp::Gosub, false);
            charged.set_phase(phase);
            let n = packet.charge(&mut charged);

            assert_eq!(n, direct.steps() - before, "step count, phase {phase}");
            assert_eq!(charged, direct, "tally divergence from phase {phase}");
        }
    }

    #[test]
    fn every_charge_table_packet_charges_a_phase_independent_step_count() {
        let table = crate::exec::charge_table();
        let mut packets: Vec<(&str, &ChargePacket)> = vec![
            ("env_save", &table.env_save),
            ("cp_save", &table.cp_save),
            ("call_overhead", &table.call_overhead),
            ("enter_clause", &table.enter_clause),
            ("backtrack_head", &table.backtrack_head),
            ("trail_undo", &table.trail_undo),
        ];
        for m in 0..6 {
            packets.push(("code_fetch/opcode", &table.code_fetch[m][0]));
            packets.push(("code_fetch/tag", &table.code_fetch[m][1]));
            packets.push(("addr_cycle", &table.addr_cycle[m]));
            packets.push(("read_dispatch", &table.read_dispatch[m]));
        }
        for (name, packet) in packets {
            let mut reference = None;
            for phase in 0..CHARGE_PHASES {
                let mut t = MicroTally::new();
                t.set_phase(phase);
                let n = packet.charge(&mut t);
                assert!(n > 0, "{name}: empty packet");
                assert_eq!(n, t.steps(), "{name}: charge out of step with tally");
                assert_eq!(
                    n,
                    *reference.get_or_insert(n),
                    "{name}: step count depends on rotor phase {phase}"
                );
            }
        }
    }

    #[test]
    fn deferred_charging_matches_eager_charging_exactly() {
        // Charge a mix of table packets eagerly on one tally and
        // deferred on another, interleaving direct `step_*` calls
        // (which read and advance the rotors between packet charges),
        // then flush — the tallies and running step totals must be
        // bit-identical.
        let table = crate::exec::charge_table();
        let mix: [&ChargePacket; 7] = [
            &table.code_fetch[0][0],
            &table.addr_cycle[1],
            &table.enter_clause,
            &table.read_dispatch[2],
            &table.cp_save,
            &table.code_fetch[5][1],
            &table.trail_undo,
        ];
        let mut eager = MicroTally::new();
        let mut deferred = MicroTally::new();
        let mut counts = vec![0u64; ChargeTable::PACKETS * CHARGE_PHASES];
        let mut deferred_steps = 0u64;
        for round in 0..50 {
            let p = mix[round % mix.len()];
            assert_eq!(p.charge(&mut eager), {
                let n = p.charge_deferred(&mut deferred, &mut counts);
                deferred_steps += n;
                n
            });
            // Interleave a direct step so the rotor handoff between
            // eager and deferred paths is exercised, not just the
            // counter adds.
            let m = InterpModule::ALL[round % 6];
            eager.step_goto(m, round % 2 == 0);
            deferred.step_goto(m, round % 2 == 0);
        }
        assert_eq!(
            eager.steps(),
            deferred.steps() + deferred_steps,
            "running step total must not need a flush"
        );
        table.apply_deferred(&mut deferred, &counts);
        assert_eq!(eager, deferred, "flush must reproduce eager tally");
    }

    #[test]
    fn fusion_classifies_goals_and_marks_chains() {
        use psi_core::Word;
        // p(7, X) :- q, !, end  — shaped as raw code words.
        let heap = [
            Word::goal(3, 2),
            Word::int(7),
            Word::first_var(0),
            Word::builtin_goal(5, 0),
            Word::cut_goal(),
            Word::end_body(),
        ];
        let mut fused = FusedProgram::default();
        fused.extend(&heap);
        assert_eq!(fused.ops.len(), heap.len());

        let goal = fused.ops[0];
        assert_eq!(goal.kind, FusedKind::Goal);
        assert_eq!((goal.operand, goal.nargs, goal.next), (3, 2, 3));
        assert_eq!(goal.flags, 0, "goals never chain statically");
        assert_eq!(
            fused.args_of(goal),
            &[PackedArg::Const(Word::int(7)), PackedArg::FirstVar(0)]
        );

        // Argument positions are non-dispatchable filler.
        assert_eq!(fused.ops[1], FusedOp::NOT_OP);
        assert_eq!(fused.ops[2], FusedOp::NOT_OP);

        // builtin → cut → return all chain via FUSE_NEXT.
        let builtin = fused.ops[3];
        assert_eq!(builtin.kind, FusedKind::Builtin);
        assert_eq!(builtin.flags & FUSE_NEXT, FUSE_NEXT);
        let cut = fused.ops[4];
        assert_eq!(cut.kind, FusedKind::Cut);
        assert_eq!(cut.flags & FUSE_NEXT, FUSE_NEXT);
        let ret = fused.ops[5];
        assert_eq!(ret.kind, FusedKind::Return);
        assert_eq!(ret.flags, 0, "returns transfer control dynamically");
    }

    #[test]
    fn fusion_classifies_packed_arguments() {
        use psi_core::{Tag, Word};
        let enc = |tag: Tag, payload: u8| (tag.packed_tag().unwrap() << 5) | payload;
        let heap = [
            Word::goal(1, 4),
            Word::packed([
                enc(Tag::Int, 9),
                enc(Tag::Nil, 0),
                enc(Tag::LocalVar, 3),
                enc(Tag::Void, 0),
            ]),
            Word::end_body(),
        ];
        let mut fused = FusedProgram::default();
        fused.extend(&heap);
        let goal = fused.ops[0];
        assert_eq!(goal.flags & ARGS_PACKED, ARGS_PACKED);
        assert_eq!(goal.flags & ARGS_GENERIC, 0);
        assert_eq!(goal.next, 2, "packed goal spans exactly two words");
        assert_eq!(
            fused.args_of(goal),
            &[
                PackedArg::Const(Word::int(9)),
                PackedArg::Const(Word::nil()),
                PackedArg::LocalVar(3),
                PackedArg::Void,
            ]
        );
    }

    #[test]
    fn unclassifiable_arguments_fall_back_to_the_generic_path() {
        use psi_core::Word;
        // A goal whose declared arity extends past the loaded image:
        // the generic path must handle it (and reproduce the fidelity
        // lane's error), so classification abstains.
        let heap = [Word::goal(2, 2), Word::int(1)];
        let mut fused = FusedProgram::default();
        fused.extend(&heap);
        let truncated = fused.ops[0];
        assert_eq!(truncated.flags & ARGS_GENERIC, ARGS_GENERIC);
        assert_eq!(truncated.next, 3);
        assert!(fused.args.is_empty(), "abstained args must be rolled back");

        // A dispatch tag in argument position does not pre-classify.
        let heap = [Word::goal(2, 1), Word::cut_goal(), Word::end_body()];
        let mut fused = FusedProgram::default();
        fused.extend(&heap);
        assert_eq!(fused.ops[0].flags & ARGS_GENERIC, ARGS_GENERIC);
    }

    #[test]
    fn argument_decoders_raise_typed_errors_on_corrupt_input() {
        use psi_core::{PsiError, Tag, Word};
        let detail = |r: Result<PackedArg>| match r {
            Err(PsiError::EvalError { detail }) => detail,
            other => panic!("expected an EvalError, got {other:?}"),
        };
        assert_eq!(
            PackedArg::from_word(Word::first_var(3)).unwrap(),
            PackedArg::FirstVar(3)
        );
        assert!(
            detail(PackedArg::from_word(Word::cut_goal())).starts_with("corrupt argument word (")
        );
        let int = Word::make_packed_operand(Tag::Int.packed_tag().unwrap(), 9);
        assert_eq!(
            PackedArg::from_operand(int).unwrap(),
            PackedArg::Const(Word::int(9))
        );
        // Atoms never pack, so their packed tag is a corrupt operand.
        let atom = Word::make_packed_operand(Tag::Atom.packed_tag().unwrap(), 1);
        assert_eq!(
            detail(PackedArg::from_operand(atom)),
            "corrupt packed operand tag 0"
        );
    }

    #[test]
    fn extend_is_append_only_and_chains_across_the_boundary() {
        use psi_core::Word;
        let first = [Word::builtin_goal(4, 0)];
        let mut fused = FusedProgram::default();
        fused.extend(&first);
        // Nothing follows yet: the builtin cannot chain.
        assert_eq!(fused.ops[0].flags & FUSE_NEXT, 0);
        let frozen = fused.ops[0];

        let both = [Word::builtin_goal(4, 0), Word::end_body()];
        fused.extend(&both);
        assert_eq!(fused.ops.len(), 2);
        assert_eq!(fused.ops[1].kind, FusedKind::Return);
        // The already-fused prefix is immutable — the old op keeps its
        // flags even though a chain target now exists (chains are an
        // optimisation, never a correctness requirement).
        assert_eq!(fused.ops[0], frozen);
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut t = MicroTally::new();
        for (i, op) in BranchOp::ALL.iter().enumerate() {
            for _ in 0..=i {
                t.step(InterpModule::Control, *op, false);
            }
        }
        let sum: f64 = t.branches.percentages().iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }
}
