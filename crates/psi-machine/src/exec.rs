//! Execution engine: micro-op primitives, call/return/backtrack/cut,
//! frame buffers, and built-in predicates.

use crate::codegen::{IndexKey, BUCKET_LINEAR, BUCKET_VAR_ONLY};
use crate::machine::{Activation, ChoicePoint, Flow, Machine, ProcStatus};
use crate::ucode::{
    BranchOp, ChargePacket, ChargeTable, FusedOp, InterpModule, PackedArg, ARGS_GENERIC,
    ARGS_PACKED,
};
use crate::wf::{WfField, WfMode};
use crate::Builtin;
use psi_core::{Address, Area, PsiError, Result, Tag, Word};
use std::sync::OnceLock;

/// Words in a control frame (environment or choice point), §2.1:
/// "The control stack contains 10-word control frames".
pub(crate) const CONTROL_FRAME_WORDS: u32 = 10;

static CHARGE_TABLE: OnceLock<ChargeTable> = OnceLock::new();

/// The compiled lane's charge table, recorded once per process. Lives
/// here, next to the microstep sequences it mirrors: every packet is
/// recorded by replaying the corresponding `Machine` sequence's
/// `step_*` calls (same branch ops, same order, same data flags), so
/// the packets cannot drift from the fidelity lane without the
/// equivalence tests catching it.
pub(crate) fn charge_table() -> &'static ChargeTable {
    CHARGE_TABLE.get_or_init(|| {
        let mut t = ChargeTable::build();
        t.finalize_ids();
        t
    })
}

impl ChargeTable {
    /// Records every packet. Each closure mirrors one named sequence
    /// below — the comments say which.
    fn build() -> ChargeTable {
        use InterpModule as M;
        // `fetch_code`: fetch, decode+advance,
        // two tag tests, dispatch.
        let fetch = |m: InterpModule, op: BranchOp| {
            ChargePacket::record(move |t| {
                t.step(m, op, true);
                t.step_seq(m, true);
                t.step_cond(m, true);
                t.step_cond(m, false);
                t.step_goto(m, true);
            })
        };
        ChargeTable {
            code_fetch: std::array::from_fn(|mi| {
                let m = M::ALL[mi];
                [fetch(m, BranchOp::CaseOpcode), fetch(m, BranchOp::CaseTag)]
            }),
            // `mem_read` / `mem_write` / `mem_push`: address
            // generation (bounds or permission test), access cycle.
            addr_cycle: std::array::from_fn(|mi| {
                let m = M::ALL[mi];
                ChargePacket::record(move |t| {
                    t.step_cond(m, true);
                    t.step_seq(m, true);
                })
            }),
            // `mem_read_dispatch`: tag test, tag dispatch.
            read_dispatch: std::array::from_fn(|mi| {
                let m = M::ALL[mi];
                ChargePacket::record(move |t| {
                    t.step(m, BranchOp::IfTag, true);
                    t.step(m, BranchOp::CaseTag, true);
                })
            }),
            // `materialize_env`: load-jr, 10-word burst.
            env_save: ChargePacket::record(|t| {
                t.step(M::Control, BranchOp::LoadJr, true);
                for _ in 0..CONTROL_FRAME_WORDS {
                    t.step_goto(M::Control, true);
                }
            }),
            // `push_choice_point`: load-jr, two ALU steps, 10-word
            // burst.
            cp_save: ChargePacket::record(|t| {
                t.step(M::Control, BranchOp::LoadJr, true);
                t.step_seq(M::Control, true);
                t.step_seq(M::Control, true);
                for _ in 0..CONTROL_FRAME_WORDS {
                    t.step_goto(M::Control, true);
                }
            }),
            // `handle_user_call` post-argument overhead: two ALU
            // steps, a condition, the predicate-table indirect jump.
            call_overhead: ChargePacket::record(|t| {
                t.step_seq(M::Control, true);
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step(M::Control, BranchOp::GotoJr1, false);
            }),
            // `enter_clause` entry: gosub, header fetch (the five
            // fetch steps), two ALU steps, frame setup.
            enter_clause: ChargePacket::record(|t| {
                t.step(M::Control, BranchOp::Gosub, false);
                t.step(M::Control, BranchOp::CaseOpcode, true);
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step_cond(M::Control, false);
                t.step_goto(M::Control, true);
                t.step_seq(M::Control, true);
                t.step_seq(M::Control, true);
                t.step_seq(M::Control, true);
            }),
            // `backtrack_loop` iteration head: goto, two ALU steps, a
            // condition, then the clause-alternative word read (the
            // host copies the rest of the frame out of the choice
            // point, which charges nothing in between).
            backtrack_head: ChargePacket::record(|t| {
                t.step_goto(M::Control, false);
                t.step_seq(M::Control, true);
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step_cond(M::Control, true);
                t.step_seq(M::Control, true);
            }),
            // One trail unwind of a bound cell: the dispatch read plus
            // the reset write's address and write cycles.
            trail_undo: ChargePacket::record(|t| {
                t.step(M::Trail, BranchOp::IfTag, true);
                t.step(M::Trail, BranchOp::CaseTag, true);
                t.step_cond(M::Trail, true);
                t.step_seq(M::Trail, true);
            }),
            // `unify`'s microsubroutine bracket (gosub + return). Both
            // ops are rotor-independent, so charging the pair up front
            // commutes with everything the body charges.
            unify_frame: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::Gosub, false);
                t.step(M::Unify, BranchOp::Return, false);
            }),
            // One `unify_inner` pair dispatch (the tag-pair case
            // branch) with no further charges in its arm.
            unify_case: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
            }),
            // Pair dispatch + the constant-compare test
            // (`test_const_step`) of the atom/int arm.
            unify_const: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_cond(M::Unify, true);
            }),
            // Pair dispatch + the four element reads of the list/list
            // arm (two cars, two cdrs — `mem_read` each).
            unify_list: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                for _ in 0..4 {
                    t.step_cond(M::Unify, true);
                    t.step_seq(M::Unify, true);
                }
            }),
            // Pair dispatch + the two functor reads and the functor
            // compare of the vect/vect arm.
            unify_vect_head: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                for _ in 0..2 {
                    t.step_cond(M::Unify, true);
                    t.step_seq(M::Unify, true);
                }
                t.step_cond(M::Unify, true);
            }),
            // One element-pair read of the vect/vect arm (two
            // `mem_read`s).
            unify_pair_read: ChargePacket::record(|t| {
                for _ in 0..2 {
                    t.step_cond(M::Unify, true);
                    t.step_seq(M::Unify, true);
                }
            }),
            // `bind` without a trail entry: the conditional-trailing
            // test plus the cell write.
            bind_plain: ChargePacket::record(|t| {
                t.step_cond(M::Trail, false);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // `bind` with a trail entry: the test, the trail push,
            // the cell write.
            bind_trailed: ChargePacket::record(|t| {
                t.step_cond(M::Trail, false);
                t.step_cond(M::Trail, true);
                t.step_seq(M::Trail, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // `handle_return` through a materialized frame: three
            // frame-word reads, register reload, continuation test,
            // return op (reclaim between them is host-only).
            ret_frame: ChargePacket::record(|t| {
                for _ in 0..3 {
                    t.step_cond(M::Control, true);
                    t.step_seq(M::Control, true);
                }
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step(M::Control, BranchOp::Return, false);
            }),
            // `handle_return` from the WF-resident registers.
            ret_quick: ChargePacket::record(|t| {
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step(M::Control, BranchOp::Return, false);
            }),
            // One skeleton element: code fetch + element read/push.
            skel_fetch_cycle: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // `unify_skeleton` list head: skeleton-kind dispatch +
            // first element cycle.
            skel_head: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // `unify_skeleton` vector head: kind dispatch, functor
            // fetch, functor read, functor compare. The arity load-jr
            // stays eager — the fidelity lane only charges it after
            // the compare passes.
            skel_vect_test: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
            }),
            // `copy_skeleton` vector head: functor fetch, functor
            // push, arity load-jr (charged unconditionally there).
            skel_vect_copy_head: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
                t.step(M::Unify, BranchOp::LoadJr, true);
            }),
            // One head-argument cycle ending in a buffered slot
            // access: code fetch + the frame-buffer access step.
            head_slot_buf: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // One constant head argument: code fetch + the unify
            // gosub/return bracket (rotor-independent, so it commutes
            // with the unify body's own charges).
            head_const: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step(M::Unify, BranchOp::Gosub, false);
                t.step(M::Unify, BranchOp::Return, false);
            }),
            // One copied slot-variable element, slot buffered: fetch,
            // frame-buffer read, push.
            skel_var_buf: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // One copied slot-variable element, slot flushed: fetch,
            // local-stack read, push.
            skel_var_mem: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_seq(M::Unify, true);
            }),
            // One skeleton head argument derefing in a single hop:
            // code fetch + the dispatch read (both dispatch ops are
            // fixed, so the fused position is exact).
            head_skel_ref: ChargePacket::record(|t| {
                t.step(M::Unify, BranchOp::CaseTag, true);
                t.step_seq(M::Unify, true);
                t.step_cond(M::Unify, true);
                t.step_cond(M::Unify, false);
                t.step_goto(M::Unify, true);
                t.step(M::Unify, BranchOp::IfTag, true);
                t.step(M::Unify, BranchOp::CaseTag, true);
            }),
            // `backtrack_loop` resume with a remaining alternative:
            // restore step + the in-place alternative-advance write.
            bt_resume: ChargePacket::record(|t| {
                t.step_seq(M::Control, true);
                t.step_cond(M::Control, true);
                t.step_seq(M::Control, true);
            }),
        }
    }
}

/// Resolved location of a local-variable slot (see
/// [`Machine::slot_place`]).
pub(crate) enum SlotPlace {
    /// Still in WF frame buffer `0` or `1`.
    Buffered(usize),
    /// Flushed to the local stack at this address.
    Flushed(Address),
}

impl Machine {
    // ------------------------------------------------- micro primitives

    pub(crate) fn micro(&mut self, m: InterpModule, op: BranchOp, data: bool) {
        self.tally.step(m, op, data);
        self.bus.tick(self.config.cycle_ns);
    }

    pub(crate) fn micro_seq(&mut self, m: InterpModule, data: bool) {
        self.tally.step_seq(m, data);
        self.bus.tick(self.config.cycle_ns);
    }

    pub(crate) fn micro_cond(&mut self, m: InterpModule, data: bool) {
        self.tally.step_cond(m, data);
        self.bus.tick(self.config.cycle_ns);
    }

    pub(crate) fn micro_goto(&mut self, m: InterpModule, data: bool) {
        self.tally.step_goto(m, data);
        self.bus.tick(self.config.cycle_ns);
    }

    /// Applies one pre-recorded charge packet (compiled lane): the
    /// tally deltas of the whole sequence in one lookup, plus a batch
    /// bus-step advance standing in for the sequence's ticks.
    #[inline]
    pub(crate) fn charge_packet(&mut self, p: &ChargePacket) {
        let steps = p.charge_deferred(&mut self.tally, &mut self.charge_counts);
        self.deferred_steps += steps;
        self.bus.advance(steps);
    }

    /// An ALU step combining two registers into a third.
    pub(crate) fn alu_step(&mut self, m: InterpModule) {
        self.micro_seq(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
        self.wf.touch_write(WfMode::Direct10);
    }

    /// A comparison against a constant from the WF constant area.
    pub(crate) fn test_const_step(&mut self, m: InterpModule) {
        self.micro_cond(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Constant);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
    }

    // -------------------------------------------------- memory accesses

    pub(crate) fn heap_addr(&self, off: u32) -> Address {
        Address::heap(off)
    }

    pub(crate) fn local_addr(&self, off: u32) -> Address {
        Address::new(self.procs[self.cur].pid, Area::LocalStack, off)
    }

    pub(crate) fn global_addr(&self, off: u32) -> Address {
        Address::new(self.procs[self.cur].pid, Area::GlobalStack, off)
    }

    pub(crate) fn ctl_addr(&self, off: u32) -> Address {
        Address::new(self.procs[self.cur].pid, Area::ControlStack, off)
    }

    pub(crate) fn trail_addr(&self, off: u32) -> Address {
        Address::new(self.procs[self.cur].pid, Area::TrailStack, off)
    }

    /// Instruction fetch from the heap area (the dominant heap traffic
    /// of Table 4).
    #[inline]
    pub(crate) fn fetch_code(&mut self, m: InterpModule, op: BranchOp, off: u32) -> Result<Word> {
        if self.lane_compiled {
            return self.fetch_code_fast(m, op, off);
        }
        self.micro(m, op, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        let w = self.bus.read(self.heap_addr(off));
        // Decode the fetched word and advance the code pointer: the
        // real microcode spends extra cycles per fetched word (tag
        // extraction, pointer increment, field moves).
        self.micro_seq(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct00);
        self.wf.touch_write(WfMode::Direct10);
        self.micro_cond(m, true);
        self.micro_cond(m, false);
        self.micro_goto(m, true);
        w
    }

    /// Fast-lane code fetch: the fidelity lane's microstep charges as
    /// one pre-recorded packet, with the simulated-memory round trip
    /// replaced by a direct read of the host-side code image. This is
    /// sound because `sync_code` copies the image verbatim into the
    /// simulated heap and code is immutable once loaded; an offset
    /// beyond the image falls back to the bus so error behaviour
    /// matches the fidelity lane.
    #[inline]
    fn fetch_code_fast(&mut self, m: InterpModule, op: BranchOp, off: u32) -> Result<Word> {
        let w = self.fetch_code_uncharged(off);
        let oi = match op {
            BranchOp::CaseOpcode => 0,
            BranchOp::CaseTag => 1,
            _ => unreachable!("code is only fetched through CaseOpcode or CaseTag"),
        };
        self.charge_packet(&self.charges.code_fetch[m.index()][oi]);
        w
    }

    /// The host-side read of [`Machine::fetch_code_fast`] without its
    /// charge — for compiled-lane callers whose fused packet already
    /// covers the fetch.
    #[inline]
    pub(crate) fn fetch_code_uncharged(&mut self, off: u32) -> Result<Word> {
        match self.image.heap().get(off as usize) {
            Some(&w) => Ok(w),
            None => self.bus.read(self.heap_addr(off)),
        }
    }

    /// Reads a cell that may hold a raw unbound marker, converting it
    /// to a reference to the cell itself so the caller can bind it.
    pub(crate) fn read_value(&mut self, m: InterpModule, addr: Address) -> Result<Word> {
        let w = self.mem_read(m, addr)?;
        Ok(if w.is_undef() {
            Word::reference(addr)
        } else {
            w
        })
    }

    pub(crate) fn mem_read(&mut self, m: InterpModule, addr: Address) -> Result<Word> {
        if self.lane_compiled {
            self.charge_packet(&self.charges.addr_cycle[m.index()]);
            return self.bus.read(addr);
        }
        // Address generation (with an area bounds test), then the
        // access cycle.
        self.micro_cond(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_write(WfMode::Direct00);
        self.micro_seq(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.bus.read(addr)
    }

    /// A read that dispatches on the tag of the fetched word.
    pub(crate) fn mem_read_dispatch(&mut self, m: InterpModule, addr: Address) -> Result<Word> {
        if self.lane_compiled {
            self.charge_packet(&self.charges.read_dispatch[m.index()]);
            return self.bus.read(addr);
        }
        self.micro(m, BranchOp::IfTag, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
        self.wf.touch_write(WfMode::Direct00);
        self.micro(m, BranchOp::CaseTag, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.bus.read(addr)
    }

    pub(crate) fn mem_write(&mut self, m: InterpModule, addr: Address, w: Word) -> Result<()> {
        if self.lane_compiled {
            self.charge_packet(&self.charges.addr_cycle[m.index()]);
            return self.bus.write(addr, w);
        }
        // Address generation (write-permission test), then the write
        // cycle.
        self.micro_cond(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct00);
        self.micro_seq(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
        self.bus.write(addr, w)
    }

    /// A burst push (one word per cycle): frame writes stream through
    /// WFAR1 auto-increment straight into write-stack commands, so no
    /// separate address-generation cycle is needed.
    pub(crate) fn mem_push_burst(&mut self, m: InterpModule, addr: Address, w: Word) -> Result<()> {
        self.micro_goto(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::IndWfar1);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
        self.bus.write_stack(addr, w)
    }

    /// A push to a stack top, using the specialized write-stack cache
    /// command (cache spec item (g)).
    pub(crate) fn mem_push(&mut self, m: InterpModule, addr: Address, w: Word) -> Result<()> {
        if self.lane_compiled {
            self.charge_packet(&self.charges.addr_cycle[m.index()]);
            return self.bus.write_stack(addr, w);
        }
        // Top-of-stack pointer update with overflow test, then the
        // push cycle.
        self.micro_cond(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_write(WfMode::Direct10);
        self.micro_seq(m, true);
        self.wf.touch_read(WfField::Source1, WfMode::Direct10);
        self.wf.touch_read(WfField::Source2, WfMode::Direct00);
        self.bus.write_stack(addr, w)
    }

    // ------------------------------------------------------ fused arms
    //
    // One body runs on both lanes. The fidelity lane charges an arm's
    // steps one at a time, interleaved with its timed accesses; the
    // fast lane charges the arm's recorded packet up front, and the
    // accessors below then skip the charges that packet covers. They
    // are forced inline so each arm stays straight-line code on the
    // fast lane: called out of line they slowed it by 6-10% per Table 1
    // row (2-core x86-64 host).

    /// Charges a fused arm's packet on the fast lane; a no-op on the
    /// fidelity lane, whose in-arm accessors charge the steps instead.
    #[inline(always)]
    pub(crate) fn charge_arm(&mut self, p: &ChargePacket) {
        if self.lane_compiled {
            self.charge_packet(p);
        }
    }

    /// A code fetch inside a fused arm (`case (tag)` dispatch).
    #[inline(always)]
    pub(crate) fn fetch_code_in_arm(&mut self, m: InterpModule, off: u32) -> Result<Word> {
        if self.lane_compiled {
            self.fetch_code_uncharged(off)
        } else {
            self.fetch_code(m, BranchOp::CaseTag, off)
        }
    }

    /// [`Machine::mem_read`] inside a fused arm.
    #[inline(always)]
    pub(crate) fn mem_read_in_arm(&mut self, m: InterpModule, addr: Address) -> Result<Word> {
        if self.lane_compiled {
            self.bus.read(addr)
        } else {
            self.mem_read(m, addr)
        }
    }

    /// [`Machine::read_value`] inside a fused arm.
    #[inline(always)]
    pub(crate) fn read_value_in_arm(&mut self, m: InterpModule, addr: Address) -> Result<Word> {
        let w = self.mem_read_in_arm(m, addr)?;
        Ok(if w.is_undef() {
            Word::reference(addr)
        } else {
            w
        })
    }

    /// [`Machine::mem_push`] inside a fused arm.
    #[inline(always)]
    pub(crate) fn mem_push_in_arm(
        &mut self,
        m: InterpModule,
        addr: Address,
        w: Word,
    ) -> Result<()> {
        if self.lane_compiled {
            self.bus.write_stack(addr, w)
        } else {
            self.mem_push(m, addr, w)
        }
    }

    /// Reads unify-module slot `slot` inside a fused arm whose packet
    /// depends on where the slot lives: `arm[0]` while it is
    /// buffered, `arm[1]` once flushed.
    #[inline(always)]
    pub(crate) fn read_slot_in_arm(&mut self, slot: u16, arm: [&ChargePacket; 2]) -> Result<Word> {
        if !self.lane_compiled {
            return self.read_slot(InterpModule::Unify, slot, true);
        }
        match self.slot_place(slot) {
            SlotPlace::Buffered(buf) => {
                self.charge_packet(arm[0]);
                Ok(self.wf.read_buffer(buf, slot as u32, false, true))
            }
            SlotPlace::Flushed(addr) => {
                self.charge_packet(arm[1]);
                self.bus.read(addr)
            }
        }
    }

    /// Writes unify-module slot `slot` inside a fused arm; `arm` as
    /// for [`Machine::read_slot_in_arm`].
    #[inline(always)]
    pub(crate) fn write_slot_in_arm(
        &mut self,
        slot: u16,
        w: Word,
        arm: [&ChargePacket; 2],
    ) -> Result<()> {
        if !self.lane_compiled {
            return self.write_slot(InterpModule::Unify, slot, w, true);
        }
        match self.slot_place(slot) {
            SlotPlace::Buffered(buf) => {
                self.charge_packet(arm[0]);
                self.wf.write_buffer(buf, slot as u32, w, false, true);
                Ok(())
            }
            SlotPlace::Flushed(addr) => {
                self.charge_packet(arm[1]);
                self.bus.write(addr, w)
            }
        }
    }

    // ------------------------------------------------------ local slots

    /// Where slot `slot` of the current activation lives right now:
    /// its WF frame buffer while buffered, its local-stack address
    /// once flushed. The single place the buffered-vs-flushed decision
    /// is made — all four slot accessors go through it.
    pub(crate) fn slot_place(&self, slot: u16) -> SlotPlace {
        let env = self.procs[self.cur].regs.env;
        let act = &self.procs[self.cur].envs[env];
        match act.buffer {
            Some(buf) => SlotPlace::Buffered(buf),
            None => SlotPlace::Flushed(self.local_addr(act.locals_base + slot as u32)),
        }
    }

    /// Reads local variable slot `slot` of the current activation —
    /// from the WF frame buffer while buffered, from the local stack
    /// once flushed.
    pub(crate) fn read_slot(&mut self, m: InterpModule, slot: u16, auto: bool) -> Result<Word> {
        self.read_slot_with(m, slot, false, auto)
    }

    fn read_slot_with(
        &mut self,
        m: InterpModule,
        slot: u16,
        base_relative: bool,
        auto: bool,
    ) -> Result<Word> {
        match self.slot_place(slot) {
            SlotPlace::Buffered(buf) => {
                self.micro_seq(m, true);
                Ok(self.wf.read_buffer(buf, slot as u32, base_relative, auto))
            }
            SlotPlace::Flushed(addr) => self.mem_read(m, addr),
        }
    }

    /// Writes local variable slot `slot` of the current activation.
    pub(crate) fn write_slot(
        &mut self,
        m: InterpModule,
        slot: u16,
        w: Word,
        auto: bool,
    ) -> Result<()> {
        self.write_slot_with(m, slot, w, false, auto)
    }

    fn write_slot_with(
        &mut self,
        m: InterpModule,
        slot: u16,
        w: Word,
        base_relative: bool,
        auto: bool,
    ) -> Result<()> {
        match self.slot_place(slot) {
            SlotPlace::Buffered(buf) => {
                self.micro_seq(m, true);
                if !base_relative {
                    // Direct slot addressing routes the source operand
                    // through the WF Source2 port; the PDR/CDR
                    // base-relative path does not (§4.3 function (4)).
                    self.wf.touch_read(WfField::Source2, WfMode::Direct00);
                }
                self.wf
                    .write_buffer(buf, slot as u32, w, base_relative, auto);
                Ok(())
            }
            SlotPlace::Flushed(addr) => self.mem_write(m, addr, w),
        }
    }

    // ---------------------------------------------------- frame buffers

    /// Acquires a WF frame buffer for a new activation of `nlocals`
    /// slots, flushing the oldest buffered frame if both buffers are
    /// taken (§2.2: "Two buffers are used alternately").
    pub(crate) fn acquire_buffer(&mut self, nlocals: u16) -> Result<Option<usize>> {
        if !self.config.frame_buffering || nlocals as u32 > crate::wf::FRAME_BUFFER_WORDS {
            return Ok(None);
        }
        if self.procs[self.cur].buffered.len() >= 2 {
            let oldest = self.procs[self.cur].buffered[0];
            self.flush_env_buffer(oldest)?;
        }
        let used: Vec<usize> = self.procs[self.cur]
            .buffered
            .iter()
            .filter_map(|&e| self.procs[self.cur].envs[e].buffer)
            .collect();
        let buf = (0..2)
            .find(|b| !used.contains(b))
            .expect("a buffer is free");
        Ok(Some(buf))
    }

    /// Writes a buffered activation's locals to the local stack and
    /// releases its buffer.
    pub(crate) fn flush_env_buffer(&mut self, env_id: usize) -> Result<()> {
        let (buf, base, n) = {
            let act = &self.procs[self.cur].envs[env_id];
            match act.buffer {
                Some(b) => (b, act.locals_base, act.nlocals),
                None => return Ok(()),
            }
        };
        let at_top = base + n as u32 == self.procs[self.cur].local_top;
        for slot in 0..n {
            self.micro_seq(InterpModule::Control, true);
            let w = self.wf.read_buffer(buf, slot as u32, false, true);
            let addr = self.local_addr(base + slot as u32);
            self.wf.touch_read(WfField::Source2, WfMode::Direct00);
            if at_top {
                self.bus.write_stack(addr, w)?;
            } else {
                self.bus.write(addr, w)?;
            }
        }
        self.procs[self.cur].envs[env_id].buffer = None;
        self.procs[self.cur].buffered.retain(|&e| e != env_id);
        Ok(())
    }

    /// Flushes every buffered frame (choice-point creation and process
    /// switches).
    pub(crate) fn flush_all_buffers(&mut self) -> Result<()> {
        while let Some(&oldest) = self.procs[self.cur].buffered.first() {
            self.flush_env_buffer(oldest)?;
        }
        Ok(())
    }

    // ------------------------------------------------------ allocation

    /// Allocates one fresh unbound cell on the global stack.
    pub(crate) fn new_global_cell(&mut self, m: InterpModule) -> Result<Address> {
        let off = self.procs[self.cur].global_top;
        let addr = self.global_addr(off);
        self.mem_push(m, addr, Word::undef())?;
        self.procs[self.cur].global_top = off + 1;
        Ok(addr)
    }

    // ------------------------------------------------------- user calls

    /// Calls the user predicate of goal `op`, the goal word at
    /// `code_ptr`: its fused op on the fast lane, the op decoded from
    /// the fetched word ([`FusedOp::decoded`]) on the fidelity lane.
    pub(crate) fn handle_user_call(&mut self, op: FusedOp, code_ptr: u32) -> Result<Flow> {
        // Build the arguments into the reusable scratch buffer (taken
        // out of `self` so `build_args` can borrow `self` mutably, put
        // back on every exit path).
        let mut args = std::mem::take(&mut self.scratch_args);
        let flow = (|| {
            let next_off = self.build_args(InterpModule::Control, op, code_ptr + 1, &mut args)?;
            self.user_calls += 1;
            // Predicate-table lookup and register save: the call overhead
            // the paper blames for PSI's slowness on simple programs
            // (§3.1: "more execution management information to be
            // stacked"), then the dispatch through the predicate table
            // (indirect jump).
            self.charge_arm(&self.charges.call_overhead);
            if !self.lane_compiled {
                self.alu_step(InterpModule::Control);
                self.alu_step(InterpModule::Control);
                self.micro_cond(InterpModule::Control, true);
                self.micro(InterpModule::Control, BranchOp::GotoJr1, false);
                self.wf.touch_read(WfField::Source1, WfMode::Direct10);
            }
            self.call_predicate(op.operand, &args, next_off)
        })();
        self.scratch_args = args;
        flow
    }

    /// Calls `pred` with `args`; `next_off` is the caller's resume
    /// point.
    pub(crate) fn call_predicate(
        &mut self,
        pred: u32,
        args: &[Word],
        next_off: u32,
    ) -> Result<Flow> {
        let nclauses = self.image.predicate(pred).clauses.len();
        if nclauses == 0 {
            if self.image.predicate(pred).dynamic {
                // A dynamic predicate whose clauses were all
                // retracted: the call fails cleanly, it is not an
                // undefined-predicate error.
                self.micro_cond(InterpModule::Control, false);
                return Ok(Flow::Backtrack);
            }
            return Err(PsiError::UndefinedPredicate {
                name: self.image.predicate(pred).indicator(),
            });
        }

        // First-argument indexing (opt-in performance profile): pick
        // the candidate bucket for the dereferenced first argument.
        // The paper-faithful default keeps the linear bucket and runs
        // through this block untouched — no deref, no extra
        // microsteps, bit-identical dynamic statistics.
        let bucket = if self.config.clause_indexing && nclauses > 1 {
            self.indexed_calls += 1;
            let b = self.select_bucket(pred, args)?;
            let ncand = self.image.predicate(pred).candidate_count(b);
            let direct = ncand == 1;
            if direct {
                self.index_direct += 1;
            }
            let ev = psi_core::ObsEvent::index_lookup(
                self.bus.step(),
                ncand as u32,
                nclauses as u32,
                direct,
            );
            self.bus.record_event(ev);
            if ncand == 0 {
                // Every clause head is guaranteed to fail on the
                // first argument: the call fails cleanly without
                // entering any clause or pushing a choice point.
                self.micro_cond(InterpModule::Control, false);
                return Ok(Flow::Backtrack);
            }
            b
        } else {
            BUCKET_LINEAR
        };
        let ncand = self.image.predicate(pred).candidate_count(bucket);

        let cur_env = self.procs[self.cur].regs.env;
        let barrier = self.procs[self.cur].cps.len();

        // Continuation: last-call optimization passes the caller's own
        // continuation through when the environment is not protected
        // by newer choice points (§2.2 tail recursion optimization).
        let is_last = self.peek_is_end_body(next_off);
        let act = self.procs[self.cur].envs[cur_env];
        let (cont_code, cont_env) = if is_last
            && self.config.tail_recursion_opt
            && self.procs[self.cur].cps.len() == act.entry_cps
        {
            self.micro_goto(InterpModule::Control, false);
            self.discard_env(cur_env)?;
            (act.cont_code, act.cont_env)
        } else {
            self.materialize_env(cur_env)?;
            (next_off, Some(cur_env))
        };

        if ncand > 1 {
            self.push_choice_point(pred, bucket, args, cont_code, cont_env, barrier)?;
        }
        let first = self.image.predicate(pred).candidate(bucket, 0);
        if self.enter_clause(pred, first, args, cont_code, cont_env, barrier)? {
            Ok(Flow::Continue)
        } else {
            Ok(Flow::Backtrack)
        }
    }

    /// Maps the dereferenced first call argument to a candidate
    /// bucket of `pred`. Only called on the indexing profile, so the
    /// probe's microstep charges (the deref walk, a tag dispatch and
    /// an ALU step for the table lookup) never touch the
    /// paper-faithful statistics.
    fn select_bucket(&mut self, pred: u32, args: &[Word]) -> Result<u32> {
        let Some(&first) = args.first() else {
            // Zero-arity predicates have nothing to index on.
            return Ok(BUCKET_LINEAR);
        };
        self.micro(InterpModule::Control, BranchOp::CaseTag, true);
        let (v, unbound) = self.deref(InterpModule::Control, first)?;
        if unbound.is_some() {
            // An unbound key matches every clause head.
            return Ok(BUCKET_LINEAR);
        }
        let key = match v.tag() {
            Tag::Atom => IndexKey::Atom(v.atom_value().expect("Atom")),
            Tag::Int => IndexKey::Int(v.int_value().expect("Int")),
            Tag::Nil => IndexKey::Nil,
            Tag::List => IndexKey::List,
            Tag::Vect => {
                let ptr = v.address_value().expect("Vect");
                let f = self.mem_read(InterpModule::Control, ptr)?;
                match f.functor_value() {
                    Some(f) => IndexKey::Struct(f),
                    None => {
                        return Err(PsiError::EvalError {
                            detail: "corrupt structure header".into(),
                        })
                    }
                }
            }
            // Anything else (heap vectors) unifies with no constant
            // head, so only var-headed clauses can match.
            _ => return Ok(BUCKET_VAR_ONLY),
        };
        self.alu_step(InterpModule::Control);
        Ok(self.image.predicate(pred).bucket_for(key))
    }

    /// Is the code word at `off` the end-of-body sentinel? (The
    /// microcode knows this statically from the instruction stream;
    /// no counted fetch.)
    fn peek_is_end_body(&self, off: u32) -> bool {
        self.image
            .heap()
            .get(off as usize)
            .map(|w| w.tag() == Tag::EndBody)
            .unwrap_or(false)
    }

    /// Discards an activation at a deterministic last call: frees its
    /// buffer and reclaims its stack space when it sits on top.
    fn discard_env(&mut self, env_id: usize) -> Result<()> {
        let act = self.procs[self.cur].envs[env_id];
        if act.buffer.is_some() {
            // The locals die with the activation; the buffer is simply
            // released — this is exactly the saving TRO buys.
            self.procs[self.cur].envs[env_id].buffer = None;
            self.procs[self.cur].buffered.retain(|&e| e != env_id);
        }
        if env_id + 1 == self.procs[self.cur].envs.len() {
            self.procs[self.cur].envs.pop();
            let p = &mut self.procs[self.cur];
            if act.locals_base + act.nlocals as u32 == p.local_top {
                p.local_top = act.locals_base;
            }
            if let Some(ctl) = act.materialized {
                if ctl + CONTROL_FRAME_WORDS == p.ctl_top {
                    p.ctl_top = ctl;
                    Self::drop_saved_frames_from(p, ctl);
                }
            }
        }
        Ok(())
    }

    /// Saves the activation's environment frame to the control stack
    /// if not already saved (§2.1: control information "saved to the
    /// control stack as necessary").
    fn materialize_env(&mut self, env_id: usize) -> Result<()> {
        if self.procs[self.cur].envs[env_id].materialized.is_some() {
            return Ok(());
        }
        let base = self.procs[self.cur].ctl_top;
        if self.lane_compiled {
            // Charge the frame burst but skip the simulated-memory
            // image: the compiled lane never reads control frames back
            // (returns and retries reload from the host-side
            // activation and choice-point structs), so the words would
            // be write-only.
            self.charge_packet(&self.charges.env_save);
        } else {
            let act = self.procs[self.cur].envs[env_id];
            let payloads = [
                0, // kind = environment
                act.cont_code,
                act.cont_env.map(|e| e as u32 + 1).unwrap_or(0),
                act.locals_base,
                act.nlocals as u32,
                act.cut_barrier as u32,
                act.entry_cps as u32,
                self.procs[self.cur].pid.get() as u32,
                0,
                0,
            ];
            self.micro(InterpModule::Control, BranchOp::LoadJr, true);
            for (i, p) in payloads.iter().enumerate() {
                let addr = self.ctl_addr(base + i as u32);
                self.mem_push_burst(InterpModule::Control, addr, Word::ctl(*p))?;
            }
        }
        self.procs[self.cur].ctl_top = base + CONTROL_FRAME_WORDS;
        self.procs[self.cur].envs[env_id].materialized = Some(base);
        if self.procs[self.cur].mat_stack.len() == self.procs[self.cur].mat_stack.capacity() {
            // Stale entries (frames whose activation has returned, or
            // whose env id was recycled) accumulate until a backtrack
            // drops below their base; compact them away in place
            // before conceding a reallocation. Only a stack full of
            // *live* saved frames forces growth.
            Self::compact_mat_stack(&mut self.procs[self.cur]);
            if self.procs[self.cur].mat_stack.len() == self.procs[self.cur].mat_stack.capacity() {
                self.hot_allocs += 1;
            }
        }
        self.procs[self.cur].mat_stack.push((base, env_id as u32));
        Ok(())
    }

    /// Drops materialization-stack entries whose activation no longer
    /// carries the matching saved-frame mark — exactly the entries
    /// `drop_saved_frames_from` would skip over. Preserves order, so
    /// the strictly-increasing-base invariant survives. In place: no
    /// allocation.
    fn compact_mat_stack(p: &mut crate::machine::Proc) {
        let envs = &p.envs;
        p.mat_stack.retain(|&(base, env_id)| {
            envs.get(env_id as usize)
                .is_some_and(|act| act.materialized == Some(base))
        });
    }

    /// Pops materialization-stack entries whose frame base is at or
    /// above the (just lowered) control top `ct`, clearing the
    /// saved-frame mark of any still-live activation among them. Call
    /// after every `ctl_top` decrease; the base guard makes stale
    /// entries (dead activations, recycled env ids) harmless.
    fn drop_saved_frames_from(p: &mut crate::machine::Proc, ct: u32) {
        while let Some(&(base, env_id)) = p.mat_stack.last() {
            if base < ct {
                break;
            }
            p.mat_stack.pop();
            if let Some(act) = p.envs.get_mut(env_id as usize) {
                if act.materialized == Some(base) {
                    act.materialized = None;
                }
            }
        }
    }

    fn push_choice_point(
        &mut self,
        pred: u32,
        bucket: u32,
        args: &[Word],
        cont_code: u32,
        cont_env: Option<usize>,
        barrier: usize,
    ) -> Result<()> {
        // A fresh choice point always resumes at the second candidate
        // of its bucket (the first is entered directly).
        let next_clause = 1;
        // Host-side count only; `metrics_snapshot` mirrors it into
        // the registry (like module steps), so no live incr here.
        self.cp_pushed += 1;
        // A pending alternative forces the buffered frames to the
        // local stack (§2.2: buffers are used "when no local frame
        // have to be saved into the local stack").
        self.flush_all_buffers()?;
        // Park the goal arguments in the copy-on-backtrack arena; the
        // choice point records only their extent. The arena is
        // truncated back when the choice point is popped.
        let arena_grows = {
            let p = &self.procs[self.cur];
            p.arg_arena.len() + args.len() > p.arg_arena.capacity()
        };
        if arena_grows {
            self.hot_allocs += 1;
        }
        let cps_grow = self.procs[self.cur].cps.len() == self.procs[self.cur].cps.capacity();
        if cps_grow {
            self.hot_allocs += 1;
        }
        let p = &mut self.procs[self.cur];
        let args_start = p.arg_arena.len() as u32;
        p.arg_arena.extend_from_slice(args);
        let cp = ChoicePoint {
            pred,
            bucket,
            next_clause,
            args_start,
            args_len: args.len() as u8,
            cont_code,
            cont_env,
            barrier,
            saved_local_top: p.local_top,
            saved_global_top: p.global_top,
            saved_trail_top: p.trail_top,
            saved_envs_len: p.envs.len(),
            ctl_addr: p.ctl_top,
        };
        let base = cp.ctl_addr;
        if self.lane_compiled {
            // Same write-only elision as `materialize_env`: the charge
            // stands in for the burst, the host-side `ChoicePoint` is
            // the live copy.
            self.charge_packet(&self.charges.cp_save);
        } else {
            let payloads = [
                1, // kind = choice point
                pred,
                next_clause as u32,
                cont_code,
                cp.saved_local_top,
                cp.saved_global_top,
                cp.saved_trail_top,
                cp.saved_envs_len as u32,
                cp.barrier as u32,
                cp.cont_env.map(|e| e as u32 + 1).unwrap_or(0),
            ];
            self.micro(InterpModule::Control, BranchOp::LoadJr, true);
            self.alu_step(InterpModule::Control);
            self.alu_step(InterpModule::Control);
            for (i, p) in payloads.iter().enumerate() {
                let addr = self.ctl_addr(base + i as u32);
                self.mem_push_burst(InterpModule::Control, addr, Word::ctl(*p))?;
            }
        }
        self.procs[self.cur].ctl_top = base + CONTROL_FRAME_WORDS;
        self.procs[self.cur].cps.push(cp);
        Ok(())
    }

    /// Enters clause `clause_idx` of `pred`. Returns `false` if head
    /// unification fails.
    pub(crate) fn enter_clause(
        &mut self,
        pred: u32,
        clause_idx: usize,
        args: &[Word],
        cont_code: u32,
        cont_env: Option<usize>,
        barrier: usize,
    ) -> Result<bool> {
        let cc = self.image.predicate(pred).clauses[clause_idx];
        // Clause entry microsubroutine: header decode, local frame
        // allocation, WF buffer setup.
        if self.lane_compiled {
            // One packet for the whole entry sequence (gosub, header
            // fetch, frame setup). The header word is known valid at
            // fuse time, so the image read is elided with it.
            self.charge_packet(&self.charges.enter_clause);
        } else {
            self.micro(InterpModule::Control, BranchOp::Gosub, false);
            let header = self.fetch_code(InterpModule::Control, BranchOp::CaseOpcode, cc.addr)?;
            debug_assert_eq!(header.tag(), Tag::ClauseHead);
            self.alu_step(InterpModule::Control);
            self.alu_step(InterpModule::Control);
            self.micro_seq(InterpModule::Control, true);
            self.wf.touch_read(WfField::Source1, WfMode::Direct10);
            self.wf.touch_write(WfMode::Direct10);
        }

        let buffer = self.acquire_buffer(cc.nlocals)?;
        let locals_base = self.procs[self.cur].local_top;
        let act = Activation {
            locals_base,
            nlocals: cc.nlocals,
            buffer,
            materialized: None,
            cont_code,
            cont_env,
            cut_barrier: barrier,
            entry_cps: self.procs[self.cur].cps.len(),
        };
        if self.procs[self.cur].envs.len() == self.procs[self.cur].envs.capacity() {
            self.hot_allocs += 1;
        }
        {
            let p = &mut self.procs[self.cur];
            p.local_top += cc.nlocals as u32;
            p.envs.push(act);
            let env_id = p.envs.len() - 1;
            p.regs.env = env_id;
            if buffer.is_some() {
                p.buffered.push(env_id);
            }
        }
        // Unbuffered activations reserve their local-stack extent
        // immediately (the area grows by write, so touch the last
        // slot).
        if buffer.is_none() && cc.nlocals > 0 {
            let addr = self.local_addr(locals_base + cc.nlocals as u32 - 1);
            self.bus.poke(addr, Word::undef())?;
        }

        // Head unification, argument by argument.
        for (i, &arg) in args.iter().enumerate().take(cc.arity as usize) {
            if !self.unify_head_arg(cc.addr + 1 + i as u32, arg)? {
                return Ok(false);
            }
        }
        self.procs[self.cur].regs.code_ptr = cc.addr + 1 + cc.arity as u32;
        Ok(true)
    }

    // -------------------------------------------------------- backtrack

    /// Restores the newest choice point and retries its next clause.
    /// Returns `false` when the process has no alternatives left.
    pub(crate) fn backtrack(&mut self) -> Result<bool> {
        // The retried clause's arguments are replayed out of the
        // argument arena through a reusable scratch buffer (the arena
        // itself may shrink while the clause is entered).
        let mut cp_args = std::mem::take(&mut self.scratch_cp_args);
        let result = self.backtrack_loop(&mut cp_args);
        cp_args.clear();
        self.scratch_cp_args = cp_args;
        let remaining = self.procs[self.cur].cps.len() as u32;
        self.metrics.incr(psi_obs::Counter::Backtracks);
        self.metrics
            .observe(psi_obs::Histo::BacktrackDepth, remaining as u64);
        if self.bus.events_enabled() {
            let ev = psi_core::ObsEvent::backtrack(self.bus.step(), remaining);
            self.bus.record_event(ev);
        }
        result
    }

    fn backtrack_loop(&mut self, cp_args: &mut Vec<Word>) -> Result<bool> {
        loop {
            if self.procs[self.cur].cps.is_empty() {
                return Ok(false);
            }
            if self.lane_compiled {
                self.charge_packet(&self.charges.backtrack_head);
            } else {
                self.micro_goto(InterpModule::Control, false);
                self.alu_step(InterpModule::Control);
                self.alu_step(InterpModule::Control);
                self.micro_cond(InterpModule::Control, true);
            }

            // Restore machine state from the choice point. The newest
            // choice point's registers are held in the WF (§2.1:
            // "Control information for the current execution is held
            // in a register file"), so shallow backtracking re-reads
            // only the clause-alternative word from memory.
            let cp = *self.procs[self.cur].cps.last().expect("nonempty");
            {
                let p = &self.procs[self.cur];
                let start = cp.args_start as usize;
                cp_args.clear();
                cp_args.extend_from_slice(&p.arg_arena[start..start + cp.args_len as usize]);
            }
            if !self.lane_compiled {
                // (The compiled lane's `backtrack_head` packet already
                // covers this read — the alternative word lives in the
                // host `ChoicePoint`, so the memory access is dead.)
                self.mem_read(InterpModule::Control, self.ctl_addr(cp.ctl_addr + 2))?;
            }
            self.wf.touch_read(WfField::Source1, WfMode::Direct00);
            // Unwind the trail (Table 2 "trail" module).
            if self.lane_compiled {
                // Fused unwind: one packet per bound entry (dispatch
                // read + reset write), one per plain entry. The tally
                // totals and rotor state are order-insensitive, so
                // charging after the read is equivalent.
                while self.procs[self.cur].trail_top > cp.saved_trail_top {
                    let t = self.procs[self.cur].trail_top - 1;
                    self.procs[self.cur].trail_top = t;
                    let entry = self.procs[self.cur]
                        .trail
                        .pop()
                        .expect("host trail underflow");
                    if let Some(cell) = entry.address_value() {
                        self.charge_packet(&self.charges.trail_undo);
                        self.bus.write(cell, Word::undef())?;
                    } else {
                        self.charge_packet(
                            &self.charges.read_dispatch[InterpModule::Trail.index()],
                        );
                    }
                }
            } else {
                while self.procs[self.cur].trail_top > cp.saved_trail_top {
                    let t = self.procs[self.cur].trail_top - 1;
                    self.procs[self.cur].trail_top = t;
                    self.wf.touch_trail_buffer(false);
                    let entry = self.mem_read_dispatch(InterpModule::Trail, self.trail_addr(t))?;
                    if let Some(cell) = entry.address_value() {
                        self.mem_write(InterpModule::Trail, cell, Word::undef())?;
                    }
                }
            }
            // Restore stack tops and the activation arena.
            {
                let pid = self.procs[self.cur].pid;
                let p = &mut self.procs[self.cur];
                p.local_top = cp.saved_local_top;
                p.global_top = cp.saved_global_top;
                // Control frames created after this choice point are
                // dead; the choice point's own frame stays.
                p.ctl_top = cp.ctl_addr + CONTROL_FRAME_WORDS;
                p.envs.truncate(cp.saved_envs_len);
                let envs_len = p.envs.len();
                p.buffered.retain(|&e| e < envs_len);
                // A surviving environment may have been saved to the
                // control stack *after* this choice point was pushed
                // (a non-TRO last call); its frame is gone now, so it
                // must be re-saved if needed again.
                let ct = p.ctl_top;
                Self::drop_saved_frames_from(p, ct);
                // Keep the backing store honest: discarded cells must
                // not be readable.
                let (lt, gt, ct, tt) = (p.local_top, p.global_top, p.ctl_top, p.trail_top);
                self.bus.memory_mut().truncate(pid, Area::LocalStack, lt);
                self.bus.memory_mut().truncate(pid, Area::GlobalStack, gt);
                self.bus.memory_mut().truncate(pid, Area::ControlStack, ct);
                self.bus.memory_mut().truncate(pid, Area::TrailStack, tt);
            }
            // Resolve the retried position through the choice point's
            // candidate bucket. The linear bucket (the only one the
            // default profile creates) maps positions to clause
            // indices one-to-one, so this is pure host-side
            // arithmetic — no extra microsteps on either profile.
            let ncand = self.image.predicate(cp.pred).candidate_count(cp.bucket);
            if cp.next_clause >= ncand {
                // The candidate list shrank underneath this choice
                // point (`retract/1` on the predicate while it was
                // live): no alternatives remain, discard the choice
                // point and keep backtracking.
                self.micro_cond(InterpModule::Control, false);
                let p = &mut self.procs[self.cur];
                p.cps.pop();
                p.arg_arena.truncate(cp.args_start as usize);
                if cp.ctl_addr + CONTROL_FRAME_WORDS == p.ctl_top {
                    p.ctl_top = cp.ctl_addr;
                    Self::drop_saved_frames_from(p, cp.ctl_addr);
                }
                let ct = p.ctl_top;
                let pid = p.pid;
                self.bus.memory_mut().truncate(pid, Area::ControlStack, ct);
                continue;
            }
            let clause_idx = self
                .image
                .predicate(cp.pred)
                .candidate(cp.bucket, cp.next_clause);
            if cp.next_clause + 1 >= ncand {
                // Last alternative: the restore step, then pop the
                // choice point (trust) and give its arena extent back.
                self.micro_seq(InterpModule::Control, true);
                let p = &mut self.procs[self.cur];
                p.cps.pop();
                p.arg_arena.truncate(cp.args_start as usize);
                if cp.ctl_addr + CONTROL_FRAME_WORDS == p.ctl_top {
                    p.ctl_top = cp.ctl_addr;
                    Self::drop_saved_frames_from(p, cp.ctl_addr);
                }
                let ct = p.ctl_top;
                let pid = p.pid;
                self.bus.memory_mut().truncate(pid, Area::ControlStack, ct);
            } else {
                // The restore step, then advance the alternative in
                // place (one frame write). The compiled lane fuses
                // both into one packet — nothing charges in between.
                let idx = self.procs[self.cur].cps.len() - 1;
                self.procs[self.cur].cps[idx].next_clause += 1;
                if self.lane_compiled {
                    self.charge_packet(&self.charges.bt_resume);
                } else {
                    self.micro_seq(InterpModule::Control, true);
                    let addr = self.ctl_addr(cp.ctl_addr + 2);
                    self.mem_write(
                        InterpModule::Control,
                        addr,
                        Word::ctl(cp.next_clause as u32 + 1),
                    )?;
                }
            }

            if self.enter_clause(
                cp.pred,
                clause_idx,
                cp_args,
                cp.cont_code,
                cp.cont_env,
                cp.barrier,
            )? {
                return Ok(true);
            }
        }
    }

    // -------------------------------------------------------------- cut

    pub(crate) fn handle_cut(&mut self, code_ptr: u32) -> Result<Flow> {
        let env = self.procs[self.cur].regs.env;
        let barrier = self.procs[self.cur].envs[env].cut_barrier;
        while self.procs[self.cur].cps.len() > barrier {
            self.micro(InterpModule::Cut, BranchOp::IfCond, true);
            let cp = self.procs[self.cur].cps.pop().expect("nonempty");
            let p = &mut self.procs[self.cur];
            p.arg_arena.truncate(cp.args_start as usize);
            if cp.ctl_addr + CONTROL_FRAME_WORDS == p.ctl_top {
                p.ctl_top = cp.ctl_addr;
                Self::drop_saved_frames_from(p, cp.ctl_addr);
            }
        }
        self.micro_seq(InterpModule::Cut, false);
        self.procs[self.cur].regs.code_ptr = code_ptr + 1;
        Ok(Flow::Continue)
    }

    // ----------------------------------------------------------- return

    pub(crate) fn handle_return(&mut self) -> Result<Flow> {
        let env = self.procs[self.cur].regs.env;
        let act = self.procs[self.cur].envs[env];
        let Some(cont_env) = act.cont_env else {
            // The query activation finished: a solution.
            self.micro(InterpModule::Control, BranchOp::Return, false);
            return Ok(Flow::Solution);
        };
        // Reload the caller's control registers from its saved frame.
        let materialized = self.procs[self.cur].envs[cont_env].materialized;
        if self.lane_compiled {
            // One packet for the whole return: the three frame-word
            // reads (when the frame was materialized — without
            // touching the write-only, elided simulated frame image),
            // the register reload, the continuation test and the
            // return op. Reclaim between them is host-only.
            self.charge_packet(if materialized.is_some() {
                &self.charges.ret_frame
            } else {
                &self.charges.ret_quick
            });
            self.try_reclaim(env);
        } else {
            if let Some(frame) = materialized {
                for i in 0..3 {
                    let addr = self.ctl_addr(frame + i);
                    self.mem_read(InterpModule::Control, addr)?;
                }
            }
            self.try_reclaim(env);
            self.alu_step(InterpModule::Control);
            self.micro_cond(InterpModule::Control, true);
            self.micro(InterpModule::Control, BranchOp::Return, false);
        }
        let p = &mut self.procs[self.cur];
        p.regs.env = cont_env;
        p.regs.code_ptr = act.cont_code;
        Ok(Flow::Continue)
    }

    /// Pops a returning activation when nothing can reference it
    /// anymore: it is the newest activation and no choice point was
    /// created after its entry.
    fn try_reclaim(&mut self, env_id: usize) {
        let p = &mut self.procs[self.cur];
        if env_id + 1 != p.envs.len() {
            return;
        }
        let act = &p.envs[env_id];
        if p.cps.len() > act.entry_cps {
            return;
        }
        let act = p.envs.pop().expect("nonempty");
        if let Some(_buf) = act.buffer {
            p.buffered.retain(|&e| e != env_id);
        }
        if act.locals_base + act.nlocals as u32 == p.local_top {
            p.local_top = act.locals_base;
        }
        if let Some(ctl) = act.materialized {
            if ctl + CONTROL_FRAME_WORDS == p.ctl_top {
                p.ctl_top = ctl;
                Self::drop_saved_frames_from(p, ctl);
            }
        }
    }

    // ------------------------------------------------------- arguments

    /// Builds the argument vector of goal `op`, whose argument words
    /// start at `off`, into `args` (cleared first — normally one of
    /// the machine's reusable scratch buffers). Returns the offset just
    /// past the arguments.
    ///
    /// Each argument word costs one code fetch; a §2.1 packed word
    /// costs one fetch plus a `case (irn)` multi-way branch per operand
    /// (Table 7 row 6). The fidelity lane fetches and decodes the
    /// words here. The fast lane charges the fetches and takes the
    /// arguments its fusion pass classified, unless the op is
    /// [`ARGS_GENERIC`].
    pub(crate) fn build_args(
        &mut self,
        m: InterpModule,
        op: FusedOp,
        off: u32,
        args: &mut Vec<Word>,
    ) -> Result<u32> {
        args.clear();
        let classified = op.flags & ARGS_GENERIC == 0;
        // Copy the pre-classified arguments out of the shared fused
        // program (a few `Copy` words) so no borrow of `self.fused`
        // is held across the `&mut self` build calls — this keeps the
        // dispatch loop free of per-call `Arc` refcount traffic.
        let mut pargs = std::mem::take(&mut self.scratch_pargs);
        pargs.clear();
        if classified {
            pargs.extend_from_slice(self.fused.args_of(op));
        }
        let mut packed = op.flags & ARGS_PACKED != 0;
        let flow = (|| {
            let mut word = Word::nil();
            for i in 0..op.nargs as usize {
                if i == 0 || !packed {
                    if classified {
                        self.charge_packet(&self.charges.code_fetch[m.index()][1]);
                    } else {
                        word = self.fetch_code(m, BranchOp::CaseTag, off + i as u32)?;
                        packed = i == 0 && word.tag() == Tag::Packed;
                    }
                }
                if packed {
                    // A packed word holds at most four operands.
                    if i == 4 {
                        break;
                    }
                    self.micro(m, BranchOp::CaseIrn, true);
                }
                let pa = match pargs.get(i) {
                    // Classified at fuse time (`pargs` is empty otherwise).
                    Some(&pa) => pa,
                    None if packed => {
                        PackedArg::from_operand(word.packed_operands().expect("Packed word")[i])?
                    }
                    None => PackedArg::from_word(word)?,
                };
                let w = self.build_arg(m, pa, packed)?;
                args.push(w);
            }
            Ok(off + if packed { 1 } else { op.nargs as u32 })
        })();
        self.scratch_pargs = pargs;
        flow
    }

    /// Materializes one decoded argument. `base_relative` selects the
    /// packed-operand slot path: packed operands address the frame
    /// buffer base-relative through PDR/CDR (§4.3 function (4)).
    fn build_arg(&mut self, m: InterpModule, pa: PackedArg, base_relative: bool) -> Result<Word> {
        match pa {
            PackedArg::Const(w) => Ok(w),
            PackedArg::FirstVar(slot) => {
                let w = Word::reference(self.new_global_cell(m)?);
                self.write_slot_with(m, slot, w, base_relative, !base_relative)?;
                Ok(w)
            }
            PackedArg::LocalVar(slot) => {
                self.read_slot_with(m, slot, base_relative, !base_relative)
            }
            PackedArg::Void => Ok(Word::reference(self.new_global_cell(m)?)),
            PackedArg::Skeleton(w) => self.copy_skeleton(w),
        }
    }

    // --------------------------------------------------------- builtins

    /// Calls the built-in of goal `op`, the goal word at `code_ptr`;
    /// `op` as for [`Machine::handle_user_call`].
    pub(crate) fn handle_builtin_call(&mut self, op: FusedOp, code_ptr: u32) -> Result<Flow> {
        let b = Builtin::from_id(op.operand).ok_or_else(|| PsiError::EvalError {
            detail: format!("corrupt builtin id {}", op.operand),
        })?;
        // Argument fetching for built-ins is the paper's get_arg
        // module (Table 2). Arguments go through the same reusable
        // scratch buffer as user calls (the two never nest).
        let mut args = std::mem::take(&mut self.scratch_args);
        let flow = (|| {
            let next_off = self.build_args(InterpModule::GetArg, op, code_ptr + 1, &mut args)?;
            self.builtin_calls += 1;
            self.procs[self.cur].regs.code_ptr = next_off;
            // Built-in dispatch: microsubroutine call through the builtin
            // jump table.
            self.micro(InterpModule::GetArg, BranchOp::CaseOpcode, true);
            self.micro(InterpModule::Builtin, BranchOp::Gosub, false);
            let flow = self.exec_builtin(b, &args)?;
            self.micro(InterpModule::Builtin, BranchOp::Return, false);
            Ok(flow)
        })();
        self.scratch_args = args;
        flow
    }

    fn exec_builtin(&mut self, b: Builtin, args: &[Word]) -> Result<Flow> {
        let ok = match b {
            Builtin::True => {
                self.micro_seq(InterpModule::Builtin, false);
                true
            }
            Builtin::Fail => {
                self.micro_seq(InterpModule::Builtin, false);
                false
            }
            Builtin::Unify => self.unify(args[0], args[1])?,
            Builtin::NotUnify => {
                // Trial unification with trail mark and undo.
                let mark = self.procs[self.cur].trail_top;
                let saved_global = self.procs[self.cur].global_top;
                let unified = self.unify(args[0], args[1])?;
                self.undo_trail_to(mark)?;
                self.procs[self.cur].global_top = saved_global;
                !unified
            }
            Builtin::Is => {
                let v = self.eval_arith(args[1])?;
                self.micro_seq(InterpModule::Builtin, true);
                self.unify(args[0], Word::int(v))?
            }
            Builtin::Lt
            | Builtin::Gt
            | Builtin::Le
            | Builtin::Ge
            | Builtin::ArithEq
            | Builtin::ArithNe => {
                let a = self.eval_arith(args[0])?;
                let bv = self.eval_arith(args[1])?;
                self.micro_cond(InterpModule::Builtin, true);
                self.wf.touch_read(WfField::Source1, WfMode::Direct10);
                self.wf.touch_read(WfField::Source2, WfMode::Direct00);
                match b {
                    Builtin::Lt => a < bv,
                    Builtin::Gt => a > bv,
                    Builtin::Le => a <= bv,
                    Builtin::Ge => a >= bv,
                    Builtin::ArithEq => a == bv,
                    _ => a != bv,
                }
            }
            Builtin::TermEq => self.term_identical(args[0], args[1])?,
            Builtin::TermNe => !self.term_identical(args[0], args[1])?,
            Builtin::Var | Builtin::Nonvar | Builtin::Atom | Builtin::Atomic | Builtin::Integer => {
                let (v, unbound) = self.deref(InterpModule::Builtin, args[0])?;
                self.micro(InterpModule::Builtin, BranchOp::IfTag, true);
                self.wf.touch_read(WfField::Source2, WfMode::Direct00);
                let is_var = unbound.is_some();
                match b {
                    Builtin::Var => is_var,
                    Builtin::Nonvar => !is_var,
                    Builtin::Atom => !is_var && matches!(v.tag(), Tag::Atom | Tag::Nil),
                    Builtin::Atomic => !is_var && v.tag().is_atomic_value(),
                    _ => !is_var && v.tag() == Tag::Int,
                }
            }
            Builtin::Functor => self.builtin_functor(args)?,
            Builtin::Arg => self.builtin_arg(args)?,
            Builtin::Write => {
                let term = self.decode_counted(InterpModule::Builtin, args[0])?;
                self.output.push_str(&term.to_string());
                true
            }
            Builtin::Nl => {
                self.micro_seq(InterpModule::Builtin, false);
                self.output.push('\n');
                true
            }
            Builtin::Tab => {
                let n = self.eval_arith(args[0])?;
                self.micro_seq(InterpModule::Builtin, false);
                for _ in 0..n.clamp(0, 80) {
                    self.output.push(' ');
                }
                true
            }
            Builtin::VectorNew => self.builtin_vector_new(args)?,
            Builtin::VectorGet => self.builtin_vector_get(args)?,
            Builtin::VectorSet => self.builtin_vector_set(args)?,
            Builtin::Yield => {
                self.micro_seq(InterpModule::Builtin, false);
                return Ok(Flow::Yield);
            }
            Builtin::Halt => {
                self.micro_seq(InterpModule::Builtin, false);
                self.procs[self.cur].status = ProcStatus::Done;
                return Ok(Flow::Solution);
            }
            Builtin::Assert => self.builtin_assert(args, false)?,
            Builtin::Asserta => self.builtin_assert(args, true)?,
            Builtin::Retract => self.builtin_retract(args)?,
        };
        Ok(if ok { Flow::Continue } else { Flow::Backtrack })
    }

    fn builtin_functor(&mut self, args: &[Word]) -> Result<bool> {
        let (t, unbound) = self.deref(InterpModule::Builtin, args[0])?;
        self.micro(InterpModule::Builtin, BranchOp::CaseTag, true);
        if unbound.is_none() {
            // Decompose.
            let (name_w, arity) = match t.tag() {
                Tag::Atom | Tag::Int | Tag::Nil => (t, 0u8),
                Tag::List => (Word::atom(self.arith.dot), 2),
                Tag::Vect => {
                    let ptr = t.address_value().expect("Vect");
                    let f = self.mem_read(InterpModule::Builtin, ptr)?;
                    let f = f.functor_value().ok_or_else(|| PsiError::EvalError {
                        detail: "corrupt structure header".into(),
                    })?;
                    (Word::atom(f.symbol), f.arity)
                }
                _ => {
                    return Err(PsiError::TypeError {
                        builtin: "functor/3".into(),
                        expected: "callable or atomic",
                    })
                }
            };
            return Ok(
                self.unify(args[1], name_w)? && self.unify(args[2], Word::int(arity as i32))?
            );
        }
        // Construct.
        let (name, _) = self.deref(InterpModule::Builtin, args[1])?;
        let arity = self.eval_arith(args[2])?;
        if !(0..=255).contains(&arity) {
            return Err(PsiError::TypeError {
                builtin: "functor/3".into(),
                expected: "arity in 0..=255",
            });
        }
        if arity == 0 {
            return self.unify(args[0], name);
        }
        let sym = name.atom_value().ok_or(PsiError::TypeError {
            builtin: "functor/3".into(),
            expected: "atom name",
        })?;
        let base = self.procs[self.cur].global_top;
        let f = Word::functor(psi_core::Functor::new(sym, arity as u8));
        self.mem_push(InterpModule::Builtin, self.global_addr(base), f)?;
        for i in 0..arity as u32 {
            let cell = self.global_addr(base + 1 + i);
            self.mem_push(InterpModule::Builtin, cell, Word::undef())?;
        }
        self.procs[self.cur].global_top = base + 1 + arity as u32;
        self.unify(args[0], Word::vect(self.global_addr(base)))
    }

    fn builtin_arg(&mut self, args: &[Word]) -> Result<bool> {
        let n = self.eval_arith(args[0])?;
        let (t, _) = self.deref(InterpModule::Builtin, args[1])?;
        self.micro(InterpModule::Builtin, BranchOp::CaseTag, true);
        match t.tag() {
            Tag::Vect => {
                let ptr = t.address_value().expect("Vect");
                let f = self.mem_read(InterpModule::Builtin, ptr)?;
                let f = f.functor_value().ok_or_else(|| PsiError::EvalError {
                    detail: "corrupt structure header".into(),
                })?;
                if n < 1 || n > f.arity as i32 {
                    return Ok(false);
                }
                let v = self.read_value(InterpModule::Builtin, ptr.offset_by(n as u32))?;
                self.unify(args[2], v)
            }
            Tag::List => {
                let ptr = t.address_value().expect("List");
                if !(1..=2).contains(&n) {
                    return Ok(false);
                }
                let v = self.read_value(InterpModule::Builtin, ptr.offset_by(n as u32 - 1))?;
                self.unify(args[2], v)
            }
            _ => Ok(false),
        }
    }

    fn builtin_vector_new(&mut self, args: &[Word]) -> Result<bool> {
        let n = self.eval_arith(args[1])?;
        if n < 0 {
            return Err(PsiError::TypeError {
                builtin: "vector/2".into(),
                expected: "non-negative size",
            });
        }
        // Heap vectors live in the shared heap area (§4.2: "Only the
        // program WINDOW uses data of the heap vector type").
        let base = self.heap_top;
        self.mem_write(InterpModule::Builtin, self.heap_addr(base), Word::int(n))?;
        for i in 0..n as u32 {
            self.mem_write(
                InterpModule::Builtin,
                self.heap_addr(base + 1 + i),
                Word::int(0),
            )?;
        }
        self.heap_top = base + 1 + n as u32;
        self.unify(args[0], Word::heap_vect(self.heap_addr(base)))
    }

    fn vector_slot(&mut self, vec: Word, index: Word) -> Result<Option<Address>> {
        let (v, _) = self.deref(InterpModule::Builtin, vec)?;
        if v.tag() != Tag::HeapVect {
            return Err(PsiError::TypeError {
                builtin: "vget/vset".into(),
                expected: "heap vector",
            });
        }
        let ptr = v.address_value().expect("HeapVect");
        let size = self.mem_read(InterpModule::Builtin, ptr)?;
        let size = size.int_value().unwrap_or(0);
        let i = self.eval_arith(index)?;
        self.micro_cond(InterpModule::Builtin, true);
        if i < 0 || i >= size {
            return Ok(None);
        }
        Ok(Some(ptr.offset_by(1 + i as u32)))
    }

    fn builtin_vector_get(&mut self, args: &[Word]) -> Result<bool> {
        match self.vector_slot(args[0], args[1])? {
            Some(cell) => {
                let v = self.read_value(InterpModule::Builtin, cell)?;
                self.unify(args[2], v)
            }
            None => Ok(false),
        }
    }

    fn builtin_vector_set(&mut self, args: &[Word]) -> Result<bool> {
        match self.vector_slot(args[0], args[1])? {
            Some(cell) => {
                // Destructive heap write — the WINDOW workload's heap
                // write traffic (Table 3/4).
                let (v, unbound) = self.deref(InterpModule::Builtin, args[2])?;
                let stored = if unbound.is_some() { Word::int(0) } else { v };
                self.mem_write(InterpModule::Builtin, cell, stored)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    // ------------------------------------------------- dynamic database

    /// `assert/1`, `assertz/1` (`front == false`) and `asserta/1`
    /// (`front == true`): decodes the argument (a charged term walk),
    /// compiles it as a clause of its predicate, marks the predicate
    /// dynamic, and re-syncs the simulated heap plus the fused view
    /// over the appended words. Each loaded word charges one
    /// sequential microstep — the clause-loading work the firmware
    /// would do — through the lane-split primitives, so the charge is
    /// identical in both lanes.
    fn builtin_assert(&mut self, args: &[Word], front: bool) -> Result<bool> {
        let term = self.decode_counted(InterpModule::Builtin, args[0])?;
        let truth;
        let (head, body) = match &term {
            kl0::Term::Struct(f, hb) if f == ":-" && hb.len() == 2 => (&hb[0], &hb[1]),
            t => {
                truth = kl0::Term::atom("true");
                (t, &truth)
            }
        };
        let before = self.image.heap().len();
        std::sync::Arc::make_mut(&mut self.image).assert_clause(head, body, front)?;
        self.db_writes += 1;
        self.sync_code()?;
        let added = self.image.heap().len() - before;
        for _ in 0..added {
            self.micro_seq(InterpModule::Builtin, true);
        }
        Ok(true)
    }

    /// `retract/1`: removes the first clause whose head and body
    /// unify with the argument (`Head` alone abbreviates
    /// `Head :- true`). Semi-deterministic — it commits to the first
    /// match and is not re-satisfiable on backtracking. Bindings made
    /// by the successful trial unification are kept; failed trials
    /// are undone through the trail exactly like `\=`.
    fn builtin_retract(&mut self, args: &[Word]) -> Result<bool> {
        let (t, unbound) = self.deref(InterpModule::Builtin, args[0])?;
        self.micro(InterpModule::Builtin, BranchOp::CaseTag, true);
        if unbound.is_some() {
            return Err(PsiError::TypeError {
                builtin: "retract/1".into(),
                expected: "callable",
            });
        }
        // Split an explicit `Head :- Body` template.
        let neck = self.image.symbols().lookup(":-");
        let (head_w, body_w) = match t.tag() {
            Tag::Vect => {
                let ptr = t.address_value().expect("Vect");
                let f = self.mem_read_dispatch(InterpModule::Builtin, ptr)?;
                let f = f.functor_value().ok_or_else(|| PsiError::EvalError {
                    detail: "corrupt structure header".into(),
                })?;
                if Some(f.symbol) == neck && f.arity == 2 {
                    let h = self.read_value(InterpModule::Builtin, ptr.offset_by(1))?;
                    let b = self.read_value(InterpModule::Builtin, ptr.offset_by(2))?;
                    (h, Some(b))
                } else {
                    (t, None)
                }
            }
            _ => (t, None),
        };
        // Resolve the head to a predicate-table entry.
        let (hd, h_unbound) = self.deref(InterpModule::Builtin, head_w)?;
        self.micro(InterpModule::Builtin, BranchOp::CaseTag, true);
        if h_unbound.is_some() {
            return Err(PsiError::TypeError {
                builtin: "retract/1".into(),
                expected: "callable head",
            });
        }
        let (name_sym, arity) = match hd.tag() {
            Tag::Atom => (hd.atom_value().expect("Atom"), 0u8),
            Tag::Vect => {
                let ptr = hd.address_value().expect("Vect");
                let f = self.mem_read(InterpModule::Builtin, ptr)?;
                let f = f.functor_value().ok_or_else(|| PsiError::EvalError {
                    detail: "corrupt structure header".into(),
                })?;
                (f.symbol, f.arity)
            }
            _ => {
                return Err(PsiError::TypeError {
                    builtin: "retract/1".into(),
                    expected: "callable head",
                })
            }
        };
        let key = (
            self.image.symbols().name(name_sym).to_owned(),
            arity as usize,
        );
        if Builtin::lookup(&key.0, key.1).is_some() {
            return Err(PsiError::TypeError {
                builtin: "retract/1".into(),
                expected: "non-builtin predicate",
            });
        }
        let Some(pred) = self.image.lookup(&key) else {
            // A predicate the database has never seen: nothing to
            // retract, the call just fails.
            self.micro_cond(InterpModule::Builtin, false);
            return Ok(false);
        };
        // Trial-unify against each clause's retained source form, in
        // clause order, committing to the first match. Trials bind
        // cells no choice point guards, so `force_trail` makes every
        // binding undoable; it is lowered again on every exit path.
        self.force_trail = true;
        let result = self.retract_trials(pred, head_w, body_w);
        self.force_trail = false;
        result
    }

    /// The trial loop of [`Machine::builtin_retract`], split out so
    /// the caller can bracket it with `force_trail`.
    fn retract_trials(&mut self, pred: u32, head_w: Word, body_w: Option<Word>) -> Result<bool> {
        let mut pos = 0;
        loop {
            if pos >= self.image.predicate(pred).clauses.len() {
                self.micro_cond(InterpModule::Builtin, false);
                return Ok(false);
            }
            let source = self.image.predicate(pred).sources[pos].clone();
            // `retract(Head)` only ever matches facts; skip bodied
            // clauses without building the trial copy.
            self.micro_cond(InterpModule::Builtin, true);
            if body_w.is_none() && source.body != kl0::Term::atom("true") {
                pos += 1;
                continue;
            }
            let mark = self.procs[self.cur].trail_top;
            let saved_global = self.procs[self.cur].global_top;
            let mut vars = std::collections::HashMap::new();
            let sh = self.push_source_term(&source.head, &mut vars)?;
            let mut matched = self.unify(head_w, sh)?;
            if matched {
                if let Some(bw) = body_w {
                    let sb = self.push_source_term(&source.body, &mut vars)?;
                    matched = self.unify(bw, sb)?;
                }
            }
            if matched {
                std::sync::Arc::make_mut(&mut self.image).retract_clause(pred, pos);
                self.db_writes += 1;
                // Code addresses never move on retract, so the loaded
                // heap and the fused view stay valid as they are.
                return Ok(true);
            }
            self.undo_trail_to(mark)?;
            self.procs[self.cur].global_top = saved_global;
            pos += 1;
        }
    }

    /// Builds a runtime copy of a retained clause-source term on the
    /// global stack (the runtime analogue of `copy_skeleton` for
    /// terms that only exist as AST). Fresh cells are created per
    /// distinct variable name; every push goes through the lane-split
    /// memory primitives, so the charge shape is lane-invariant.
    fn push_source_term(
        &mut self,
        t: &kl0::Term,
        vars: &mut std::collections::HashMap<String, Word>,
    ) -> Result<Word> {
        Ok(match t {
            kl0::Term::Atom(a) if a == "[]" => Word::nil(),
            kl0::Term::Atom(a) => Word::atom(self.runtime_symbol(a)),
            kl0::Term::Int(i) => Word::int(*i),
            kl0::Term::Var(v) => {
                if let Some(&w) = vars.get(v) {
                    w
                } else {
                    let cell = self.new_global_cell(InterpModule::Builtin)?;
                    let w = Word::reference(cell);
                    vars.insert(v.clone(), w);
                    w
                }
            }
            kl0::Term::Struct(f, args) if f == "." && args.len() == 2 => {
                let car = self.push_source_term(&args[0], vars)?;
                let cdr = self.push_source_term(&args[1], vars)?;
                let base = self.procs[self.cur].global_top;
                self.procs[self.cur].global_top = base + 2;
                self.mem_push(InterpModule::Builtin, self.global_addr(base), car)?;
                self.mem_push(InterpModule::Builtin, self.global_addr(base + 1), cdr)?;
                Word::list(self.global_addr(base))
            }
            kl0::Term::Struct(f, args) => {
                let mut arg_words = Vec::with_capacity(args.len());
                for a in args {
                    arg_words.push(self.push_source_term(a, vars)?);
                }
                let sym = self.runtime_symbol(f);
                let fw = Word::functor(psi_core::Functor::new(sym, args.len() as u8));
                let base = self.procs[self.cur].global_top;
                self.procs[self.cur].global_top = base + 1 + args.len() as u32;
                self.mem_push(InterpModule::Builtin, self.global_addr(base), fw)?;
                for (i, w) in arg_words.into_iter().enumerate() {
                    self.mem_push(
                        InterpModule::Builtin,
                        self.global_addr(base + 1 + i as u32),
                        w,
                    )?;
                }
                Word::vect(self.global_addr(base))
            }
        })
    }

    /// Resolves `name` to an interned symbol, interning on demand
    /// (deterministic: the id depends only on the sequence of interns,
    /// which is identical across lanes running the same program).
    fn runtime_symbol(&mut self, name: &str) -> psi_core::SymbolId {
        match self.image.symbols().lookup(name) {
            Some(id) => id,
            None => std::sync::Arc::make_mut(&mut self.image)
                .symbols_mut()
                .intern(name),
        }
    }

    // ------------------------------------------------------- arithmetic

    /// Evaluates an arithmetic expression term (`is/2` and
    /// comparisons).
    pub(crate) fn eval_arith(&mut self, w: Word) -> Result<i32> {
        let (v, unbound) = self.deref(InterpModule::Builtin, w)?;
        if unbound.is_some() {
            return Err(PsiError::EvalError {
                detail: "unbound variable in arithmetic".into(),
            });
        }
        match v.tag() {
            Tag::Int => {
                self.micro_seq(InterpModule::Builtin, true);
                Ok(v.int_value().expect("Int"))
            }
            Tag::Vect => {
                let ptr = v.address_value().expect("Vect");
                let f = self.mem_read_dispatch(InterpModule::Builtin, ptr)?;
                let f = f.functor_value().ok_or_else(|| PsiError::EvalError {
                    detail: "corrupt structure in arithmetic".into(),
                })?;
                let a = self.mem_read(InterpModule::Builtin, ptr.offset_by(1))?;
                let x = self.eval_arith(a)?;
                if f.arity == 1 {
                    self.alu_step(InterpModule::Builtin);
                    if f.symbol == self.arith.minus {
                        return Ok(x.wrapping_neg());
                    }
                    if f.symbol == self.arith.abs {
                        return Ok(x.wrapping_abs());
                    }
                    return Err(self.arith_error(f.symbol, f.arity));
                }
                if f.arity != 2 {
                    return Err(self.arith_error(f.symbol, f.arity));
                }
                let bw = self.mem_read(InterpModule::Builtin, ptr.offset_by(2))?;
                let y = self.eval_arith(bw)?;
                self.alu_step(InterpModule::Builtin);
                let s = f.symbol;
                if s == self.arith.plus {
                    Ok(x.wrapping_add(y))
                } else if s == self.arith.minus {
                    Ok(x.wrapping_sub(y))
                } else if s == self.arith.star {
                    Ok(x.wrapping_mul(y))
                } else if s == self.arith.int_div || s == self.arith.slash {
                    // KL0 has no floats: `/` is integer division,
                    // synonymous with `//`.
                    if y == 0 {
                        Err(PsiError::EvalError {
                            detail: "division by zero".into(),
                        })
                    } else {
                        Ok(x.wrapping_div(y))
                    }
                } else if s == self.arith.modulo {
                    if y == 0 {
                        Err(PsiError::EvalError {
                            detail: "division by zero".into(),
                        })
                    } else {
                        Ok(x.rem_euclid(y))
                    }
                } else if s == self.arith.rem {
                    if y == 0 {
                        Err(PsiError::EvalError {
                            detail: "division by zero".into(),
                        })
                    } else {
                        Ok(x.wrapping_rem(y))
                    }
                } else if s == self.arith.shl {
                    // Shift counts are masked to the word width, like
                    // the 32-bit ALU the tags leave room for.
                    Ok(x.wrapping_shl(y as u32))
                } else if s == self.arith.shr {
                    Ok(x.wrapping_shr(y as u32))
                } else if s == self.arith.band {
                    Ok(x & y)
                } else if s == self.arith.bor {
                    Ok(x | y)
                } else if s == self.arith.bxor {
                    Ok(x ^ y)
                } else if s == self.arith.min {
                    Ok(x.min(y))
                } else if s == self.arith.max {
                    Ok(x.max(y))
                } else {
                    Err(self.arith_error(s, 2))
                }
            }
            _ => Err(PsiError::EvalError {
                detail: format!("non-arithmetic term ({})", v.tag()),
            }),
        }
    }

    fn arith_error(&self, sym: psi_core::SymbolId, arity: u8) -> PsiError {
        PsiError::EvalError {
            detail: format!(
                "unknown arithmetic functor {}/{arity}",
                self.image.symbols().name(sym)
            ),
        }
    }

    /// Undoes trail entries down to `mark` (used by `\=`).
    pub(crate) fn undo_trail_to(&mut self, mark: u32) -> Result<()> {
        while self.procs[self.cur].trail_top > mark {
            let t = self.procs[self.cur].trail_top - 1;
            self.procs[self.cur].trail_top = t;
            let entry = if self.lane_compiled {
                // Compiled lane: the entry lives host-side (see
                // `Proc::trail`); charge the dispatch read it stands for.
                self.charge_packet(&self.charges.read_dispatch[InterpModule::Trail.index()]);
                self.procs[self.cur]
                    .trail
                    .pop()
                    .expect("host trail underflow")
            } else {
                self.mem_read_dispatch(InterpModule::Trail, self.trail_addr(t))?
            };
            if let Some(cell) = entry.address_value() {
                self.mem_write(InterpModule::Trail, cell, Word::undef())?;
            }
        }
        Ok(())
    }
}
