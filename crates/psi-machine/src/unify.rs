//! Unification, structure copying, binding and the trail.
//!
//! The PSI unifies caller argument values against machine-resident
//! head code, copying static skeletons to the global stack when the
//! target is unbound (the structure-copy execution model of §2.1).
//! Binding records trail entries so backtracking can restore the
//! state; conditional trailing only trails cells older than the
//! newest choice point.

use crate::machine::Machine;
use crate::ucode::{BranchOp, ChargePacket, InterpModule};
use psi_core::{Address, PsiError, Result, Tag, Word};

impl Machine {
    /// Dereferences a value word: follows `Ref` chains until reaching
    /// either a value (returned with `None`) or an unbound cell
    /// (returns the `Ref` and `Some(cell address)`).
    pub(crate) fn deref(&mut self, m: InterpModule, w: Word) -> Result<(Word, Option<Address>)> {
        let (v, cell, _) = self.deref_walk(m, w, true)?;
        Ok((v, cell))
    }

    /// [`Machine::deref`] that also returns the number of hops walked.
    /// With `charged == false` the hops' dispatch reads go uncharged,
    /// for a fused arm that charges them itself.
    #[inline(always)]
    fn deref_walk(
        &mut self,
        m: InterpModule,
        w: Word,
        charged: bool,
    ) -> Result<(Word, Option<Address>, u32)> {
        let mut cur = w;
        let mut hops = 0;
        loop {
            if cur.tag() != Tag::Ref {
                return Ok((cur, None, hops));
            }
            let addr = cur.address_value().ok_or_else(|| PsiError::EvalError {
                detail: "corrupt reference word".into(),
            })?;
            let content = if charged {
                self.mem_read_dispatch(m, addr)?
            } else {
                self.bus.read(addr)?
            };
            hops += 1;
            match content.tag() {
                Tag::Undef => return Ok((cur, Some(addr), hops)),
                Tag::Ref => cur = content,
                _ => return Ok((content, None, hops)),
            }
        }
    }

    /// Binds the unbound cell at `addr` to `value`, trailing it when a
    /// choice point could need it restored.
    pub(crate) fn bind(&mut self, addr: Address, value: Word) -> Result<()> {
        // Conditional trailing: only cells older than the newest
        // choice point need a trail entry — unless a trial
        // unification (`retract/1`) asked for every binding to be
        // trailed so a failed trial can be undone even with no choice
        // point below it.
        let needs_trail = self.force_trail
            || match self.procs[self.cur].cps.last() {
                Some(cp) => match addr.area() {
                    psi_core::Area::GlobalStack => addr.offset() < cp.saved_global_top,
                    psi_core::Area::Heap => false, // heap vectors are destructive
                    _ => addr.offset() < cp.saved_local_top,
                },
                None => false,
            };
        if self.lane_compiled {
            // Compiled lane: one fused packet for the whole bind
            // (trail test + optional trail push + cell write), with
            // the trail entry kept host-side (see `Proc::trail`).
            if needs_trail {
                let t = self.procs[self.cur].trail_top;
                self.charge_packet(&self.charges.bind_trailed);
                self.procs[self.cur].trail.push(Word::trail_ref(addr));
                self.procs[self.cur].trail_top = t + 1;
            } else {
                self.charge_packet(&self.charges.bind_plain);
            }
            return self.bus.write(addr, value);
        }
        self.micro_cond(InterpModule::Trail, false);
        if needs_trail {
            let t = self.procs[self.cur].trail_top;
            self.wf.touch_trail_buffer(true);
            let taddr = self.trail_addr(t);
            self.mem_push(InterpModule::Trail, taddr, Word::trail_ref(addr))?;
            self.procs[self.cur].trail_top = t + 1;
        }
        self.mem_write(InterpModule::Unify, addr, value)
    }

    /// General unification of two runtime values. Returns whether it
    /// succeeded; bindings stand either way (failure is followed by
    /// backtracking, which unwinds them).
    pub(crate) fn unify(&mut self, a: Word, b: Word) -> Result<bool> {
        if self.lane_compiled {
            // Gosub and return are rotor-independent, so the fused
            // bracket packet commutes with the body's charges.
            self.charge_packet(&self.charges.unify_frame);
            return self.unify_inner(a, b);
        }
        // The unify microsubroutine (gosub/return, Table 7 rows 9/10).
        self.micro(InterpModule::Unify, BranchOp::Gosub, false);
        let r = self.unify_inner(a, b);
        self.micro(InterpModule::Unify, BranchOp::Return, false);
        r
    }

    pub(crate) fn unify_inner(&mut self, a: Word, b: Word) -> Result<bool> {
        // The work stack is a machine-owned scratch buffer: unification
        // runs once per head argument, so a fresh `Vec` here would put
        // a malloc/free pair on the hottest path of every lane.
        let mut work = std::mem::take(&mut self.scratch_unify);
        work.clear();
        work.push((a, b));
        let r = self.unify_work(&mut work);
        work.clear();
        self.scratch_unify = work;
        r
    }

    /// The pair loop. The fidelity lane charges each pair's tag-pair
    /// dispatch eagerly, then its arm's steps one by one; the fast
    /// lane charges each arm's recorded packet (dispatch included) up
    /// front and does the reads it covers uncharged.
    fn unify_work(&mut self, work: &mut Vec<(Word, Word)>) -> Result<bool> {
        let t = self.charges;
        let fast = self.lane_compiled;
        while let Some((a, b)) = work.pop() {
            let (av, acell) = self.deref(InterpModule::Unify, a)?;
            let (bv, bcell) = self.deref(InterpModule::Unify, b)?;
            if !fast {
                self.micro(InterpModule::Unify, BranchOp::CaseTag, true);
                self.wf
                    .touch_read(crate::wf::WfField::Source1, crate::wf::WfMode::Direct00);
                self.wf
                    .touch_read(crate::wf::WfField::Source2, crate::wf::WfMode::Direct00);
            }
            match (acell, bcell) {
                (Some(ac), Some(bc)) => {
                    self.charge_arm(&t.unify_case);
                    if ac == bc {
                        continue;
                    }
                    // Bind the younger cell to the older to keep
                    // reference chains pointing down the stack.
                    if ac.raw() < bc.raw() {
                        self.bind(bc, Word::reference(ac))?;
                    } else {
                        self.bind(ac, Word::reference(bc))?;
                    }
                }
                (Some(ac), None) => {
                    self.charge_arm(&t.unify_case);
                    self.bind(ac, bv)?;
                }
                (None, Some(bc)) => {
                    self.charge_arm(&t.unify_case);
                    self.bind(bc, av)?;
                }
                (None, None) => match (av.tag(), bv.tag()) {
                    (Tag::Int, Tag::Int) | (Tag::Atom, Tag::Atom) => {
                        self.charge_arm(&t.unify_const);
                        if !fast {
                            self.test_const_step(InterpModule::Unify);
                        }
                        if av.data() != bv.data() {
                            return Ok(false);
                        }
                    }
                    (Tag::List, Tag::List) | (Tag::Vect, Tag::Vect)
                        if av.address_value() == bv.address_value() =>
                    {
                        self.charge_arm(&t.unify_case);
                    }
                    (Tag::List, Tag::List) => {
                        let ap = av.address_value().expect("List");
                        let bp = bv.address_value().expect("List");
                        self.charge_arm(&t.unify_list);
                        let acar = self.read_value_in_arm(InterpModule::Unify, ap)?;
                        let bcar = self.read_value_in_arm(InterpModule::Unify, bp)?;
                        let acdr = self.read_value_in_arm(InterpModule::Unify, ap.offset_by(1))?;
                        let bcdr = self.read_value_in_arm(InterpModule::Unify, bp.offset_by(1))?;
                        work.push((acdr, bcdr));
                        work.push((acar, bcar));
                    }
                    (Tag::Vect, Tag::Vect) => {
                        let ap = av.address_value().expect("Vect");
                        let bp = bv.address_value().expect("Vect");
                        self.charge_arm(&t.unify_vect_head);
                        let af = self.mem_read_in_arm(InterpModule::Unify, ap)?;
                        let bf = self.mem_read_in_arm(InterpModule::Unify, bp)?;
                        if !fast {
                            self.test_const_step(InterpModule::Unify);
                        }
                        if af != bf {
                            return Ok(false);
                        }
                        let arity = af.functor_value().map(|f| f.arity).unwrap_or(0);
                        for i in (1..=arity as u32).rev() {
                            self.charge_arm(&t.unify_pair_read);
                            let aa =
                                self.read_value_in_arm(InterpModule::Unify, ap.offset_by(i))?;
                            let ba =
                                self.read_value_in_arm(InterpModule::Unify, bp.offset_by(i))?;
                            work.push((aa, ba));
                        }
                    }
                    (Tag::Nil, Tag::Nil) => self.charge_arm(&t.unify_case),
                    (Tag::HeapVect, Tag::HeapVect) => {
                        self.charge_arm(&t.unify_case);
                        if av.data() != bv.data() {
                            return Ok(false);
                        }
                    }
                    _ => {
                        self.charge_arm(&t.unify_case);
                        return Ok(false);
                    }
                },
            }
        }
        Ok(true)
    }

    /// Structural identity (`==/2`) without binding.
    pub(crate) fn term_identical(&mut self, a: Word, b: Word) -> Result<bool> {
        let mut work = std::mem::take(&mut self.scratch_unify);
        work.clear();
        work.push((a, b));
        let r = self.term_identical_work(&mut work);
        work.clear();
        self.scratch_unify = work;
        r
    }

    fn term_identical_work(&mut self, work: &mut Vec<(Word, Word)>) -> Result<bool> {
        while let Some((a, b)) = work.pop() {
            let (av, acell) = self.deref(InterpModule::Builtin, a)?;
            let (bv, bcell) = self.deref(InterpModule::Builtin, b)?;
            self.micro(InterpModule::Builtin, BranchOp::CaseTag, true);
            match (acell, bcell) {
                (Some(ac), Some(bc)) => {
                    if ac != bc {
                        return Ok(false);
                    }
                }
                (None, None) => match (av.tag(), bv.tag()) {
                    (Tag::Int, Tag::Int) | (Tag::Atom, Tag::Atom) => {
                        if av.data() != bv.data() {
                            return Ok(false);
                        }
                    }
                    (Tag::Nil, Tag::Nil) => {}
                    (Tag::List, Tag::List) => {
                        let ap = av.address_value().expect("List");
                        let bp = bv.address_value().expect("List");
                        if ap != bp {
                            let acar = self.read_value(InterpModule::Builtin, ap)?;
                            let bcar = self.read_value(InterpModule::Builtin, bp)?;
                            let acdr = self.read_value(InterpModule::Builtin, ap.offset_by(1))?;
                            let bcdr = self.read_value(InterpModule::Builtin, bp.offset_by(1))?;
                            work.push((acdr, bcdr));
                            work.push((acar, bcar));
                        }
                    }
                    (Tag::Vect, Tag::Vect) => {
                        let ap = av.address_value().expect("Vect");
                        let bp = bv.address_value().expect("Vect");
                        if ap != bp {
                            let af = self.mem_read(InterpModule::Builtin, ap)?;
                            let bf = self.mem_read(InterpModule::Builtin, bp)?;
                            if af != bf {
                                return Ok(false);
                            }
                            let arity = af.functor_value().map(|f| f.arity).unwrap_or(0);
                            for i in (1..=arity as u32).rev() {
                                let aa = self.read_value(InterpModule::Builtin, ap.offset_by(i))?;
                                let ba = self.read_value(InterpModule::Builtin, bp.offset_by(i))?;
                                work.push((aa, ba));
                            }
                        }
                    }
                    (Tag::HeapVect, Tag::HeapVect) => {
                        if av.data() != bv.data() {
                            return Ok(false);
                        }
                    }
                    _ => return Ok(false),
                },
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Fetches head argument word `off` and unifies it against caller
    /// argument `arg`. On the fast lane each arm's packet folds the
    /// code fetch into the arm's first charge: the slot access, the
    /// unify bracket, the first dispatch read, or nothing.
    pub(crate) fn unify_head_arg(&mut self, off: u32, arg: Word) -> Result<bool> {
        let t = self.charges;
        let u = InterpModule::Unify.index();
        // A flushed slot's access has the shape of a skeleton element
        // cycle: fetch, address generation, access.
        let slot_arm = [&t.head_slot_buf, &t.skel_fetch_cycle];
        let w = self.fetch_code_in_arm(InterpModule::Unify, off)?;
        match w.tag() {
            Tag::FirstVar => {
                let slot = w.var_slot().expect("FirstVar");
                self.write_slot_in_arm(slot, arg, slot_arm)?;
                Ok(true)
            }
            Tag::Void => {
                self.charge_arm(&t.code_fetch[u][1]);
                Ok(true)
            }
            Tag::LocalVar => {
                let slot = w.var_slot().expect("LocalVar");
                let v = self.read_slot_in_arm(slot, slot_arm)?;
                self.unify(v, arg)
            }
            Tag::Atom | Tag::Int | Tag::Nil => {
                if !self.lane_compiled {
                    return self.unify(w, arg);
                }
                // One packet: the fetch plus unify's gosub/return
                // bracket, which commutes with the body's charges.
                self.charge_packet(&t.head_const);
                self.unify_inner(w, arg)
            }
            Tag::CodeList | Tag::CodeVect => {
                let (v, cell, hops) =
                    self.deref_walk(InterpModule::Unify, arg, !self.lane_compiled)?;
                if self.lane_compiled {
                    // The dominant single hop fuses the fetch with its
                    // dispatch read. Dispatch ops are fixed, so
                    // charging further hops after it stays exact.
                    if hops == 0 {
                        self.charge_packet(&t.code_fetch[u][1]);
                    } else {
                        self.charge_packet(&t.head_skel_ref);
                    }
                    for _ in 1..hops {
                        self.charge_packet(&t.read_dispatch[u]);
                    }
                }
                self.unify_skeleton_deref(w, v, cell)
            }
            other => Err(PsiError::EvalError {
                detail: format!("corrupt head argument word ({other})"),
            }),
        }
    }

    /// Unifies a static code skeleton against a runtime value: match
    /// element-wise if bound, copy to the global stack if unbound.
    pub(crate) fn unify_skeleton(&mut self, code_word: Word, value: Word) -> Result<bool> {
        let (v, cell) = self.deref(InterpModule::Unify, value)?;
        self.unify_skeleton_deref(code_word, v, cell)
    }

    /// [`Machine::unify_skeleton`] past the deref of its value: `cell`
    /// is the unbound cell the value ends in, or `v` the bound value.
    /// On the fast lane the skeleton-kind dispatch rides in the first
    /// packet of each arm.
    #[inline]
    fn unify_skeleton_deref(
        &mut self,
        code_word: Word,
        v: Word,
        cell: Option<Address>,
    ) -> Result<bool> {
        if let Some(addr) = cell {
            let copied = self.copy_skeleton(code_word)?;
            self.bind(addr, copied)?;
            return Ok(true);
        }
        let t = self.charges;
        let off = code_word.data();
        if !self.lane_compiled {
            self.micro(InterpModule::Unify, BranchOp::CaseTag, true);
        }
        match (code_word.tag(), v.tag()) {
            (Tag::CodeList, Tag::List) => {
                let ptr = v.address_value().expect("List");
                Ok(self.unify_skeleton_elem(&t.skel_head, off, ptr)?
                    && self.unify_skeleton_elem(&t.skel_fetch_cycle, off + 1, ptr.offset_by(1))?)
            }
            (Tag::CodeVect, Tag::Vect) => {
                let ptr = v.address_value().expect("Vect");
                self.charge_arm(&t.skel_vect_test);
                let cf = self.fetch_code_in_arm(InterpModule::Unify, off)?;
                let mf = self.mem_read_in_arm(InterpModule::Unify, ptr)?;
                if !self.lane_compiled {
                    self.micro_cond(InterpModule::Unify, true);
                }
                if cf != mf {
                    return Ok(false);
                }
                let arity = cf.functor_value().map(|f| f.arity).unwrap_or(0);
                // Charged only once the functor compare passes, so it
                // stays out of the arm packet.
                self.micro(InterpModule::Unify, BranchOp::LoadJr, true);
                for i in 1..=arity as u32 {
                    if !self.unify_skeleton_elem(&t.skel_fetch_cycle, off + i, ptr.offset_by(i))? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => {
                self.charge_arm(&t.unify_case);
                Ok(false)
            }
        }
    }

    /// Unifies skeleton element `off` against the value in cell
    /// `addr`; `arm` is the fast lane's packet for the fetch and read.
    #[inline(always)]
    fn unify_skeleton_elem(&mut self, arm: &ChargePacket, off: u32, addr: Address) -> Result<bool> {
        self.charge_arm(arm);
        let cw = self.fetch_code_in_arm(InterpModule::Unify, off)?;
        let mv = self.read_value_in_arm(InterpModule::Unify, addr)?;
        self.unify_code_arg(cw, mv)
    }

    /// Unifies one skeleton element word against a runtime value.
    fn unify_code_arg(&mut self, code_word: Word, value: Word) -> Result<bool> {
        match code_word.tag() {
            Tag::Atom | Tag::Int | Tag::Nil => self.unify(code_word, value),
            Tag::FirstVar => {
                let slot = code_word.var_slot().expect("FirstVar");
                self.write_slot(InterpModule::Unify, slot, value, true)?;
                Ok(true)
            }
            Tag::LocalVar => {
                let slot = code_word.var_slot().expect("LocalVar");
                let v = self.read_slot(InterpModule::Unify, slot, true)?;
                self.unify(v, value)
            }
            Tag::Void => Ok(true),
            Tag::CodeList | Tag::CodeVect => self.unify_skeleton(code_word, value),
            other => Err(PsiError::EvalError {
                detail: format!("corrupt skeleton word ({other})"),
            }),
        }
    }

    /// Copies a static skeleton to the global stack, creating fresh
    /// cells for first-occurrence variables, and returns the value
    /// word for the copy.
    pub(crate) fn copy_skeleton(&mut self, code_word: Word) -> Result<Word> {
        if self.lane_compiled {
            // Same rotor-independent gosub/return bracket as `unify`.
            self.charge_packet(&self.charges.unify_frame);
            return self.copy_skeleton_inner(code_word);
        }
        self.micro(InterpModule::Unify, BranchOp::Gosub, false);
        let r = self.copy_skeleton_inner(code_word);
        self.micro(InterpModule::Unify, BranchOp::Return, false);
        r
    }

    fn copy_skeleton_inner(&mut self, code_word: Word) -> Result<Word> {
        let off = code_word.data();
        match code_word.tag() {
            Tag::CodeList => {
                let base = self.procs[self.cur].global_top;
                self.procs[self.cur].global_top = base + 2;
                for i in 0..2 {
                    self.copy_skeleton_elem(off + i, base + i)?;
                }
                Ok(Word::list(self.global_addr(base)))
            }
            Tag::CodeVect => {
                self.charge_arm(&self.charges.skel_vect_copy_head);
                let cf = self.fetch_code_in_arm(InterpModule::Unify, off)?;
                let arity = cf.functor_value().map(|f| f.arity).unwrap_or(0) as u32;
                let base = self.procs[self.cur].global_top;
                self.procs[self.cur].global_top = base + 1 + arity;
                self.mem_push_in_arm(InterpModule::Unify, self.global_addr(base), cf)?;
                if !self.lane_compiled {
                    self.micro(InterpModule::Unify, BranchOp::LoadJr, true);
                }
                for i in 1..=arity {
                    self.copy_skeleton_elem(off + i, base + i)?;
                }
                Ok(Word::vect(self.global_addr(base)))
            }
            other => Err(PsiError::EvalError {
                detail: format!("not a skeleton word ({other})"),
            }),
        }
    }

    /// Copies skeleton element `off` to global-stack offset `dst`. On
    /// the fast lane a constant or slot-variable element is one packet
    /// (fetch, any slot read, push); any other element charges between
    /// its fetch and its push, so those two stay split.
    fn copy_skeleton_elem(&mut self, off: u32, dst: u32) -> Result<()> {
        let t = self.charges;
        let u = InterpModule::Unify.index();
        let cw = self.fetch_code_in_arm(InterpModule::Unify, off)?;
        let w = match cw.tag() {
            Tag::Atom | Tag::Int | Tag::Nil => {
                self.charge_arm(&t.skel_fetch_cycle);
                cw
            }
            Tag::LocalVar => {
                let slot = cw.var_slot().expect("LocalVar");
                self.read_slot_in_arm(slot, [&t.skel_var_buf, &t.skel_var_mem])?
            }
            tag => {
                self.charge_arm(&t.code_fetch[u][1]);
                let w = match tag {
                    Tag::FirstVar => {
                        let slot = cw.var_slot().expect("FirstVar");
                        let cell = self.new_global_cell(InterpModule::Unify)?;
                        self.write_slot(InterpModule::Unify, slot, Word::reference(cell), true)?;
                        Word::reference(cell)
                    }
                    Tag::Void => Word::reference(self.new_global_cell(InterpModule::Unify)?),
                    Tag::CodeList | Tag::CodeVect => self.copy_skeleton_inner(cw)?,
                    other => {
                        return Err(PsiError::EvalError {
                            detail: format!("corrupt skeleton element ({other})"),
                        })
                    }
                };
                self.charge_arm(&t.addr_cycle[u]);
                w
            }
        };
        self.mem_push_in_arm(InterpModule::Unify, self.global_addr(dst), w)
    }
}
