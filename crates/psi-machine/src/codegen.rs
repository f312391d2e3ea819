//! Compilation of lowered KL0 clauses into PSI machine-resident
//! instruction code.
//!
//! §2.1: "a microprogrammed interpreter interprets and executes
//! machine-resident expressions of KL0 programs (instruction code)...
//! each atom, predicate name and variable is mainly expressed in a
//! word containing the corresponding tags. If arguments for a
//! predicate don't require one-word length expressions, up to four
//! 8-bit arguments are packed into one word."
//!
//! A clause compiles to a contiguous block in the heap area:
//!
//! ```text
//! ClauseHead(arity, nlocals)
//! <arity head argument words>
//! { Goal|BuiltinGoal(id, nargs)  <argument words | one Packed word> }*
//! { CutGoal }*
//! EndBody
//! ```
//!
//! Static list/structure skeletons are emitted as separate heap blocks
//! referenced by `CodeList`/`CodeVect` words. Local variables are
//! numbered in the exact order the interpreter traverses the clause,
//! so a `FirstVar` word always precedes any `LocalVar` for the same
//! slot at run time.

use crate::Builtin;
use kl0::{ArgShape, FlatGoal, LoweredProgram, PredicateKey, Term};
use psi_core::{Functor, PsiError, Result, SymbolTable, Tag, Word};
use std::collections::HashMap;

/// Compiled code for one clause.
#[derive(Debug, Clone, Copy)]
pub struct ClauseCode {
    /// Heap offset of the `ClauseHead` word.
    pub addr: u32,
    /// Head arity.
    pub arity: u8,
    /// Number of local variable slots.
    pub nlocals: u16,
}

/// Sentinel bucket id: no index filtering — the candidate list is
/// every clause in source order, and candidate positions are clause
/// indices directly. This is the only bucket the paper-faithful
/// profile ([`crate::MachineConfig::clause_indexing`] off) ever uses.
pub const BUCKET_LINEAR: u32 = u32::MAX;

/// Sentinel bucket id: only the clauses whose first head argument is
/// a variable. Selected when the dereferenced call key matches no
/// constant bucket (so every constant-headed clause is guaranteed to
/// fail head unification).
pub const BUCKET_VAR_ONLY: u32 = u32::MAX - 1;

/// Key of a first-argument index bucket — the compile-time analogue
/// of the runtime tag dispatch in WAM-style switch-on-term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// A non-`[]` atom, keyed by interned symbol.
    Atom(psi_core::SymbolId),
    /// An integer, keyed by value.
    Int(i32),
    /// The empty list.
    Nil,
    /// Any cons cell (all lists share one bucket).
    List,
    /// A compound term, keyed by functor symbol and arity.
    Struct(Functor),
}

/// Per-predicate first-argument clause index, built at compile time.
///
/// Each bucket holds, in source order, the clause positions whose
/// first head argument either matches the bucket's key or is a
/// variable (variables unify with anything). `var_only` holds just
/// the var-headed clauses — the candidate list for runtime keys that
/// match no bucket. Lists are immutable at run time, so candidate
/// iteration never allocates on the interpreter hot path.
#[derive(Debug, Clone, Default)]
pub struct ClauseIndex {
    map: HashMap<IndexKey, u32>,
    buckets: Vec<Vec<u32>>,
    var_only: Vec<u32>,
}

impl ClauseIndex {
    /// Records clause `pos` (a position into `Predicate::clauses`)
    /// under `key`; `None` marks a var-headed clause, which joins
    /// every bucket. Clauses must be added in source order.
    fn push(&mut self, pos: u32, key: Option<IndexKey>) {
        match key {
            None => {
                self.var_only.push(pos);
                for bucket in &mut self.buckets {
                    bucket.push(pos);
                }
            }
            Some(k) => {
                let b = match self.map.get(&k) {
                    Some(&b) => b,
                    None => {
                        let b = self.buckets.len() as u32;
                        // A new bucket starts with the var-headed
                        // clauses seen so far (all precede `pos`).
                        self.buckets.push(self.var_only.clone());
                        self.map.insert(k, b);
                        b
                    }
                };
                self.buckets[b as usize].push(pos);
            }
        }
    }

    /// Number of distinct constant keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Removes clause position `pos` from every bucket it joined (a
    /// var-headed clause joined all of them plus `var_only`) and
    /// shifts the higher positions down. Bucket ids are stable across
    /// removal — a bucket chosen by a live choice point keeps meaning
    /// the same key, its candidate list merely shrinks.
    fn remove(&mut self, pos: u32) {
        fn fix(v: &mut Vec<u32>, pos: u32) {
            v.retain(|&p| p != pos);
            for p in v.iter_mut() {
                if *p > pos {
                    *p -= 1;
                }
            }
        }
        for bucket in &mut self.buckets {
            fix(bucket, pos);
        }
        fix(&mut self.var_only, pos);
    }

    /// Inserts a new clause at position 0 (`asserta`), shifting every
    /// recorded position up. As with [`ClauseIndex::remove`], bucket
    /// ids stay stable.
    fn insert_front(&mut self, key: Option<IndexKey>) {
        for bucket in &mut self.buckets {
            for p in bucket.iter_mut() {
                *p += 1;
            }
        }
        for p in self.var_only.iter_mut() {
            *p += 1;
        }
        match key {
            None => {
                self.var_only.insert(0, 0);
                for bucket in &mut self.buckets {
                    bucket.insert(0, 0);
                }
            }
            Some(k) => {
                let b = match self.map.get(&k) {
                    Some(&b) => b,
                    None => {
                        let b = self.buckets.len() as u32;
                        // All var-headed positions were just shifted
                        // past 0, so seeding + front insertion keeps
                        // source order.
                        self.buckets.push(self.var_only.clone());
                        self.map.insert(k, b);
                        b
                    }
                };
                self.buckets[b as usize].insert(0, 0);
            }
        }
    }
}

/// The source form of a compiled clause, retained so `retract` can
/// trial-unify against it and report the clause it removed. Control
/// constructs (`;`, `->`, `\+`) have already been lowered away, so
/// `body` is a plain conjunction of calls, `!`, or `true`.
#[derive(Debug, Clone)]
pub struct ClauseSource {
    /// The clause head.
    pub head: Term,
    /// The (lowered) clause body; the atom `true` for facts.
    pub body: Term,
}

/// A predicate table entry.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// Predicate name.
    pub name: String,
    /// Arity.
    pub arity: u8,
    /// Clauses in source order. Empty means "called but never
    /// defined" (a runtime error, as on the real system) — unless the
    /// predicate is `dynamic`, in which case the call just fails.
    pub clauses: Vec<ClauseCode>,
    /// Source form of each clause, parallel to `clauses` (used by
    /// `retract` for trial unification).
    pub sources: Vec<ClauseSource>,
    /// First-argument index over `clauses` (consulted only when
    /// [`crate::MachineConfig::clause_indexing`] is on).
    pub index: ClauseIndex,
    /// Has this predicate been touched by `assert`/`retract`? A
    /// dynamic predicate with no clauses fails cleanly instead of
    /// raising an undefined-predicate error.
    pub dynamic: bool,
}

impl Predicate {
    /// `name/arity` for error messages.
    pub fn indicator(&self) -> String {
        format!("{}/{}", self.name, self.arity)
    }

    /// The bucket to try for a dereferenced, bound first-argument
    /// key: the key's own bucket if any clause mentions the constant,
    /// otherwise only the var-headed clauses can match.
    pub fn bucket_for(&self, key: IndexKey) -> u32 {
        match self.index.map.get(&key) {
            Some(&b) => b,
            None => BUCKET_VAR_ONLY,
        }
    }

    /// Number of candidate clauses in `bucket`. A bucket id the index
    /// does not know (possible only for a stale choice point over a
    /// dynamic predicate) has zero candidates.
    pub fn candidate_count(&self, bucket: u32) -> usize {
        match bucket {
            BUCKET_LINEAR => self.clauses.len(),
            BUCKET_VAR_ONLY => self.index.var_only.len(),
            b => self.index.buckets.get(b as usize).map_or(0, Vec::len),
        }
    }

    /// The clause index of candidate `pos` in `bucket`.
    pub fn candidate(&self, bucket: u32, pos: usize) -> usize {
        match bucket {
            BUCKET_LINEAR => pos,
            BUCKET_VAR_ONLY => self.index.var_only[pos] as usize,
            b => self.index.buckets[b as usize][pos] as usize,
        }
    }
}

/// A compiled query: entry predicate plus its variable names in
/// argument order.
#[derive(Debug, Clone)]
pub struct QueryCode {
    /// Index of the generated `$query` predicate.
    pub pred: u32,
    /// The query's variable names, one per argument.
    pub vars: Vec<String>,
}

/// The machine-resident code image: heap words plus the predicate
/// table and symbol table.
#[derive(Debug, Clone)]
pub struct CodeImage {
    heap: Vec<Word>,
    preds: Vec<Predicate>,
    /// Predicate ids by name, then arity: keyed by name alone so that
    /// resolving a call looks up a borrowed `&str` and allocates
    /// nothing.
    index: HashMap<String, Vec<(usize, u32)>>,
    symbols: SymbolTable,
    query_counter: u32,
    aux_counter: u32,
}

impl CodeImage {
    /// Creates an empty image.
    pub fn new() -> CodeImage {
        CodeImage {
            heap: Vec::new(),
            preds: Vec::new(),
            index: HashMap::new(),
            symbols: SymbolTable::new(),
            query_counter: 0,
            aux_counter: 0,
        }
    }

    /// Compiles a whole lowered program.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Compile`] for clauses that redefine
    /// built-ins or exceed encoding limits (255 arguments, 65535
    /// locals).
    pub fn compile(program: &LoweredProgram) -> Result<CodeImage> {
        let mut image = CodeImage::new();
        image.add_program(program)?;
        Ok(image)
    }

    /// Adds a lowered program to the image (incremental consult).
    ///
    /// # Errors
    ///
    /// See [`CodeImage::compile`].
    pub fn add_program(&mut self, program: &LoweredProgram) -> Result<()> {
        // Pass 1: ensure predicate entries exist so calls can resolve
        // forward references.
        for key in program.predicates() {
            if Builtin::lookup(&key.0, key.1).is_some() {
                return Err(PsiError::Compile {
                    detail: format!("cannot redefine built-in {}/{}", key.0, key.1),
                });
            }
            self.pred_index(&key.0, key.1)?;
        }
        // Pass 2: compile clauses, growing each predicate's
        // first-argument index as its clauses are appended
        // (incremental consult keeps the index current).
        for key in program.predicates() {
            for clause in program.clauses_for(key) {
                let code = self.compile_clause(&clause.head, &clause.goals)?;
                let index_key = self.first_arg_key(&clause.head);
                let idx = self.pred_index(&key.0, key.1)? as usize;
                let pos = self.preds[idx].clauses.len() as u32;
                self.preds[idx].clauses.push(code);
                self.preds[idx].sources.push(ClauseSource {
                    head: clause.head.clone(),
                    body: goals_to_term(&clause.goals),
                });
                self.preds[idx].index.push(pos, index_key);
            }
        }
        self.aux_counter = self.aux_counter.max(program.aux_counter());
        Ok(())
    }

    /// The aux-predicate counter to seed [`kl0::LoweredProgram::lower_from`]
    /// with, so `$auxN` names stay unique across incremental batches
    /// (consult, queries, asserted clauses).
    pub fn aux_base(&self) -> u32 {
        self.aux_counter
    }

    /// Compiles and appends (`front == false`) or prepends
    /// (`front == true`) the clause `head :- body` to its predicate,
    /// marking it dynamic. This is the database half of
    /// `assert`/`asserta`; the machine charges for it and re-syncs
    /// its fused view afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Compile`] if the clause redefines a
    /// built-in, is not callable, or exceeds encoding limits.
    pub fn assert_clause(&mut self, head: &Term, body: &Term, front: bool) -> Result<()> {
        let (name, arity) = head.functor().ok_or_else(|| PsiError::Compile {
            detail: format!("asserted clause head is not callable: {head}"),
        })?;
        let body = (body.functor() != Some(("true", 0))).then_some(body);
        let lowered = LoweredProgram::lower_clauses([(head, body)], self.aux_counter)?;
        self.add_program(&lowered)?;
        let idx = self.find(name, arity).ok_or_else(|| PsiError::Compile {
            detail: format!("asserted predicate {name}/{arity} missing after compilation"),
        })? as usize;
        if front && self.preds[idx].clauses.len() > 1 {
            let index_key = self.first_arg_key(head);
            let pred = &mut self.preds[idx];
            let last = pred.clauses.len() - 1;
            pred.index.remove(last as u32);
            let code = pred.clauses.remove(last);
            let source = pred.sources.remove(last);
            pred.clauses.insert(0, code);
            pred.sources.insert(0, source);
            pred.index.insert_front(index_key);
        }
        self.preds[idx].dynamic = true;
        Ok(())
    }

    /// Removes clause `pos` of predicate `idx` from the clause list,
    /// its source record, and every index bucket it joined, marking
    /// the predicate dynamic. The compiled words stay in the heap
    /// (code addresses never move), so the fused view remains valid
    /// byte-for-byte.
    pub fn retract_clause(&mut self, idx: u32, pos: usize) {
        let pred = &mut self.preds[idx as usize];
        pred.clauses.remove(pos);
        pred.sources.remove(pos);
        pred.index.remove(pos as u32);
        pred.dynamic = true;
    }

    /// The index key of a clause head's first argument, interning
    /// symbols as needed. `None` for var-headed clauses and for
    /// zero-arity predicates (which are never indexed).
    fn first_arg_key(&mut self, head: &Term) -> Option<IndexKey> {
        let first = match head {
            Term::Struct(_, args) => args.first()?,
            _ => return None,
        };
        match first.arg_shape() {
            ArgShape::Var => None,
            ArgShape::Nil => Some(IndexKey::Nil),
            ArgShape::Atom(a) => Some(IndexKey::Atom(self.symbols.intern(a))),
            ArgShape::Int(i) => Some(IndexKey::Int(i)),
            ArgShape::List => Some(IndexKey::List),
            ArgShape::Struct(f, n) => {
                // Structures beyond 255 arguments are rejected by
                // `compile_clause` before indexing is reached.
                let id = self.symbols.intern(f);
                Some(IndexKey::Struct(Functor::new(id, n as u8)))
            }
        }
    }

    /// Compiles `goal` as a query, producing a fresh entry predicate
    /// whose arguments are the goal's variables.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::Compile`] if the goal has more than 255
    /// variables or contains unsupported constructs.
    pub fn compile_query(&mut self, goal: &Term) -> Result<QueryCode> {
        self.query_counter += 1;
        let name = format!("$query{}", self.query_counter);
        let vars: Vec<String> = goal.variables().into_iter().map(str::to_owned).collect();
        if vars.len() > 255 {
            return Err(PsiError::Compile {
                detail: "query has more than 255 variables".into(),
            });
        }
        let head = Term::compound(&name, vars.iter().map(|v| Term::var(v)).collect());
        let lowered = LoweredProgram::lower_clauses([(&head, Some(goal))], self.aux_counter)?;
        self.add_program(&lowered)?;
        // The lookup follows a successful `add_program` for this very
        // predicate, so a miss means the image's predicate table is
        // inconsistent — surface it as a typed error rather than a
        // panic, since this path runs on every user query.
        let arity = vars.len();
        let pred = self.find(&name, arity).ok_or_else(|| PsiError::Compile {
            detail: format!("query entry predicate {name}/{arity} missing after compilation"),
        })?;
        Ok(QueryCode { pred, vars })
    }

    /// The compiled heap image.
    pub fn heap(&self) -> &[Word] {
        &self.heap
    }

    /// How many queries have been compiled into this image. Each
    /// `compile_query` appends a `$queryN` entry predicate, so a
    /// nonzero count means the image is no longer the pristine result
    /// of consulting program text — the gate `Machine::fork` checks.
    pub fn query_count(&self) -> u32 {
        self.query_counter
    }

    /// The predicate table.
    pub fn predicates(&self) -> &[Predicate] {
        &self.preds
    }

    /// Looks up a predicate index.
    pub fn lookup(&self, key: &PredicateKey) -> Option<u32> {
        self.find(&key.0, key.1)
    }

    fn find(&self, name: &str, arity: usize) -> Option<u32> {
        let arities = self.index.get(name)?;
        arities
            .iter()
            .find(|&&(a, _)| a == arity)
            .map(|&(_, idx)| idx)
    }

    /// The predicate at `idx`.
    pub fn predicate(&self, idx: u32) -> &Predicate {
        &self.preds[idx as usize]
    }

    /// The symbol table (shared with the machine for decoding).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable symbol table access.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    fn pred_index(&mut self, name: &str, arity: usize) -> Result<u32> {
        if let Some(idx) = self.find(name, arity) {
            return Ok(idx);
        }
        if arity > 255 {
            return Err(PsiError::Compile {
                detail: format!("predicate {name}/{arity} exceeds 255 arguments"),
            });
        }
        let idx = self.preds.len() as u32;
        self.preds.push(Predicate {
            name: name.to_owned(),
            arity: arity as u8,
            clauses: Vec::new(),
            sources: Vec::new(),
            index: ClauseIndex::default(),
            dynamic: false,
        });
        self.index
            .entry(name.to_owned())
            .or_default()
            .push((arity, idx));
        Ok(idx)
    }

    fn compile_clause(&mut self, head: &Term, goals: &[FlatGoal]) -> Result<ClauseCode> {
        let (_, arity) = head.functor().ok_or_else(|| PsiError::Compile {
            detail: format!("clause head is not callable: {head}"),
        })?;
        let mut ctx = ClauseCtx::new(head, goals);
        let mut body = Vec::new();

        // Head arguments (never packed; head unification examines each
        // word's full tag).
        if let Term::Struct(_, args) = head {
            for arg in args {
                let w = self.encode_term(arg, &mut ctx)?;
                body.push(w);
            }
        }

        // Body goals.
        for goal in goals {
            match goal {
                FlatGoal::Cut => body.push(Word::cut_goal()),
                FlatGoal::Call(term) => self.encode_goal(term, &mut ctx, &mut body)?,
            }
        }
        body.push(Word::end_body());

        if ctx.next_slot > u16::MAX as u32 {
            return Err(PsiError::Compile {
                detail: "clause exceeds 65535 local variables".into(),
            });
        }

        // The skeletons were appended during encoding; the clause block
        // goes after them.
        let addr = self.heap.len() as u32;
        self.heap
            .push(Word::clause_head(arity as u8, ctx.next_slot as u16));
        self.heap.extend_from_slice(&body);
        Ok(ClauseCode {
            addr,
            arity: arity as u8,
            nlocals: ctx.next_slot as u16,
        })
    }

    fn encode_goal<'a>(
        &mut self,
        term: &'a Term,
        ctx: &mut ClauseCtx<'a>,
        body: &mut Vec<Word>,
    ) -> Result<()> {
        let (name, nargs) = term.functor().ok_or_else(|| PsiError::Compile {
            detail: format!("goal is not callable: {term}"),
        })?;
        let header = if let Some(b) = Builtin::lookup(name, nargs) {
            Word::builtin_goal(b.id(), nargs as u8)
        } else {
            let idx = self.pred_index(name, nargs)?;
            Word::goal(idx, nargs as u8)
        };
        body.push(header);
        let args: &[Term] = match term {
            Term::Struct(_, args) => args,
            _ => &[],
        };
        // §2.1 packing: up to four 8-bit arguments in one word.
        if !args.is_empty() && args.len() <= 4 && ctx.all_packable(args) {
            let mut ops = [0u8; 4];
            for (i, arg) in args.iter().enumerate() {
                ops[i] = ctx.pack(arg);
            }
            body.push(Word::packed(ops));
            return Ok(());
        }
        for arg in args {
            let w = self.encode_term(arg, ctx)?;
            body.push(w);
        }
        Ok(())
    }

    fn encode_term<'a>(&mut self, term: &'a Term, ctx: &mut ClauseCtx<'a>) -> Result<Word> {
        Ok(match term {
            Term::Atom(a) if a == "[]" => Word::nil(),
            Term::Atom(a) => {
                let id = self.symbols.intern(a);
                Word::atom(id)
            }
            Term::Int(i) => Word::int(*i),
            Term::Var(v) => ctx.encode_var(v),
            Term::Struct(f, args) if f == "." && args.len() == 2 => {
                // Reserve the two cons words, then fill them in
                // traversal order so slot numbering matches execution.
                let base = self.heap.len();
                self.heap.push(Word::undef());
                self.heap.push(Word::undef());
                let car = self.encode_term(&args[0], ctx)?;
                self.heap[base] = car;
                let cdr = self.encode_term(&args[1], ctx)?;
                self.heap[base + 1] = cdr;
                Word::code_list(base as u32)
            }
            Term::Struct(f, args) => {
                if args.len() > 255 {
                    return Err(PsiError::Compile {
                        detail: format!("structure {f} exceeds 255 arguments"),
                    });
                }
                let id = self.symbols.intern(f);
                let base = self.heap.len();
                self.heap
                    .push(Word::functor(psi_core::Functor::new(id, args.len() as u8)));
                for _ in args {
                    self.heap.push(Word::undef());
                }
                for (i, arg) in args.iter().enumerate() {
                    let w = self.encode_term(arg, ctx)?;
                    self.heap[base + 1 + i] = w;
                }
                Word::code_vect(base as u32)
            }
        })
    }
}

impl Default for CodeImage {
    fn default() -> CodeImage {
        CodeImage::new()
    }
}

/// Rebuilds a body term from flattened goals: `!` for cuts, goals
/// joined right-associatively with `,`, the atom `true` when empty.
fn goals_to_term(goals: &[FlatGoal]) -> Term {
    let mut parts: Vec<Term> = goals
        .iter()
        .map(|g| match g {
            FlatGoal::Cut => Term::atom("!"),
            FlatGoal::Call(t) => t.clone(),
        })
        .collect();
    match parts.pop() {
        None => Term::atom("true"),
        Some(last) => parts
            .into_iter()
            .rev()
            .fold(last, |acc, t| Term::Struct(",".to_owned(), vec![t, acc])),
    }
}

/// Per-clause compilation context: variable slot assignment and
/// singleton detection. Keyed by names borrowed from the clause, so
/// counting occurrences allocates no strings.
struct ClauseCtx<'a> {
    slots: HashMap<&'a str, u32>,
    occurrences: HashMap<&'a str, u32>,
    next_slot: u32,
}

impl<'a> ClauseCtx<'a> {
    fn new(head: &'a Term, goals: &'a [FlatGoal]) -> ClauseCtx<'a> {
        let mut true_counts: HashMap<&'a str, u32> = HashMap::new();
        fn walk<'a>(t: &'a Term, counts: &mut HashMap<&'a str, u32>) {
            match t {
                Term::Var(v) => *counts.entry(v).or_default() += 1,
                Term::Struct(_, args) => {
                    for a in args {
                        walk(a, counts);
                    }
                }
                _ => {}
            }
        }
        walk(head, &mut true_counts);
        for g in goals {
            if let FlatGoal::Call(t) = g {
                walk(t, &mut true_counts);
            }
        }
        ClauseCtx {
            slots: HashMap::new(),
            occurrences: true_counts,
            next_slot: 0,
        }
    }

    fn is_singleton(&self, v: &str) -> bool {
        self.occurrences.get(v).copied().unwrap_or(0) <= 1
    }

    fn encode_var(&mut self, v: &'a str) -> Word {
        if self.is_singleton(v) {
            return Word::void();
        }
        if let Some(&slot) = self.slots.get(v) {
            Word::local_var(slot as u16)
        } else {
            let slot = self.next_slot;
            self.slots.insert(v, slot);
            self.next_slot += 1;
            Word::first_var(slot as u16)
        }
    }

    /// Can every argument be expressed as a packed 8-bit operand
    /// (3-bit tag + 5-bit payload)?
    fn all_packable(&self, args: &[Term]) -> bool {
        let mut pending_new = 0u32;
        args.iter().all(|a| match a {
            Term::Int(i) => (0..32).contains(i),
            Term::Atom(a) => a == "[]",
            Term::Var(v) => {
                if self.is_singleton(v) {
                    true
                } else if let Some(&slot) = self.slots.get(v.as_str()) {
                    slot < 32
                } else {
                    pending_new += 1;
                    self.next_slot + pending_new - 1 < 32
                }
            }
            Term::Struct(..) => false,
        })
    }

    /// Packs one argument (must have been vetted by
    /// [`ClauseCtx::all_packable`]).
    fn pack(&mut self, arg: &'a Term) -> u8 {
        match arg {
            Term::Int(i) => {
                Word::make_packed_operand(Tag::Int.packed_tag().expect("int packs"), *i as u8)
            }
            Term::Atom(_) => {
                Word::make_packed_operand(Tag::Nil.packed_tag().expect("nil packs"), 0)
            }
            Term::Var(v) => {
                if self.is_singleton(v) {
                    Word::make_packed_operand(Tag::Void.packed_tag().expect("void packs"), 0)
                } else if let Some(&slot) = self.slots.get(v.as_str()) {
                    Word::make_packed_operand(
                        Tag::LocalVar.packed_tag().expect("local packs"),
                        slot as u8,
                    )
                } else {
                    let slot = self.next_slot;
                    self.slots.insert(v, slot);
                    self.next_slot += 1;
                    Word::make_packed_operand(
                        Tag::FirstVar.packed_tag().expect("first packs"),
                        slot as u8,
                    )
                }
            }
            Term::Struct(..) => unreachable!("structures are never packable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kl0::Program;

    fn image(src: &str) -> CodeImage {
        let p = Program::parse(src).unwrap();
        let lp = LoweredProgram::lower(&p).unwrap();
        CodeImage::compile(&lp).unwrap()
    }

    #[test]
    fn fact_layout() {
        let img = image("p(a, 1, []).");
        let pred = img.lookup(&("p".into(), 3)).unwrap();
        let clause = img.predicate(pred).clauses[0];
        assert_eq!(clause.arity, 3);
        assert_eq!(clause.nlocals, 0);
        let h = img.heap();
        let (arity, nlocals) = h[clause.addr as usize].clause_head_value().unwrap();
        assert_eq!((arity, nlocals), (3, 0));
        assert_eq!(h[clause.addr as usize + 1].tag(), Tag::Atom);
        assert_eq!(h[clause.addr as usize + 2].int_value(), Some(1));
        assert_eq!(h[clause.addr as usize + 3].tag(), Tag::Nil);
        assert_eq!(h[clause.addr as usize + 4].tag(), Tag::EndBody);
    }

    #[test]
    fn variables_get_slots_in_traversal_order() {
        let img = image("p(X, Y, X, Y).");
        let pred = img.lookup(&("p".into(), 4)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        let a = c.addr as usize;
        assert_eq!(h[a + 1], Word::first_var(0)); // X
        assert_eq!(h[a + 2], Word::first_var(1)); // Y
        assert_eq!(h[a + 3], Word::local_var(0)); // X again
        assert_eq!(h[a + 4], Word::local_var(1)); // Y again
        assert_eq!(c.nlocals, 2);
    }

    #[test]
    fn singletons_become_void() {
        let img = image("p(X, Y) :- q(X).");
        let pred = img.lookup(&("p".into(), 2)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        assert_eq!(h[c.addr as usize + 1], Word::first_var(0)); // X used twice
        assert_eq!(h[c.addr as usize + 2], Word::void()); // Y singleton
        assert_eq!(c.nlocals, 1);
    }

    #[test]
    fn list_skeletons_are_emitted_before_the_clause() {
        let img = image("p([H|T]) :- p(T), q(H).");
        let pred = img.lookup(&("p".into(), 1)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        let arg = h[c.addr as usize + 1];
        assert_eq!(arg.tag(), Tag::CodeList);
        let skel = arg.data() as usize;
        assert!(skel < c.addr as usize, "skeleton precedes clause block");
        assert_eq!(h[skel], Word::first_var(0)); // H
        assert_eq!(h[skel + 1], Word::first_var(1)); // T
    }

    #[test]
    fn structure_skeleton_layout() {
        let img = image("p(f(a, g(X), X)).");
        let pred = img.lookup(&("p".into(), 1)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        let arg = h[c.addr as usize + 1];
        assert_eq!(arg.tag(), Tag::CodeVect);
        let base = arg.data() as usize;
        let f = h[base].functor_value().unwrap();
        assert_eq!(f.arity, 3);
        assert_eq!(img.symbols().name(f.symbol), "f");
        assert_eq!(h[base + 1].tag(), Tag::Atom);
        assert_eq!(h[base + 2].tag(), Tag::CodeVect);
        assert_eq!(h[base + 3], Word::local_var(0)); // X first occurs inside g(X)
        let inner = h[base + 2].data() as usize;
        assert_eq!(h[inner + 1], Word::first_var(0));
    }

    #[test]
    fn small_goal_args_are_packed() {
        let img = image("p(X) :- q(X, 3, []).");
        let q = img.lookup(&("q".into(), 3)).unwrap();
        assert!(img.predicate(q).clauses.is_empty(), "q is undefined");
        let pred = img.lookup(&("p".into(), 1)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        // header, head arg X, goal word, packed word, endbody
        let goal = h[c.addr as usize + 2];
        assert_eq!(goal.tag(), Tag::Goal);
        let packed = h[c.addr as usize + 3];
        assert_eq!(packed.tag(), Tag::Packed);
        let ops = packed.packed_operands().unwrap();
        let (t0, p0) = Word::packed_operand(ops[0]);
        assert_eq!(t0, Tag::LocalVar.packed_tag().unwrap());
        assert_eq!(p0, 0);
        let (t1, p1) = Word::packed_operand(ops[1]);
        assert_eq!(t1, Tag::Int.packed_tag().unwrap());
        assert_eq!(p1, 3);
        let (t2, _) = Word::packed_operand(ops[2]);
        assert_eq!(t2, Tag::Nil.packed_tag().unwrap());
    }

    #[test]
    fn atoms_and_structures_are_not_packed() {
        let img = image("p :- q(foo, 3).");
        let pred = img.lookup(&("p".into(), 0)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        let goal = h[c.addr as usize + 1];
        assert_eq!(goal.tag(), Tag::Goal);
        assert_eq!(h[c.addr as usize + 2].tag(), Tag::Atom);
        assert_eq!(h[c.addr as usize + 3].tag(), Tag::Int);
    }

    #[test]
    fn builtins_are_resolved() {
        let img = image("p(X, Y) :- X is Y + 1.");
        let pred = img.lookup(&("p".into(), 2)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        let goal = h[c.addr as usize + 3];
        assert_eq!(goal.tag(), Tag::BuiltinGoal);
        let (id, nargs) = goal.goal_value().unwrap();
        assert_eq!(Builtin::from_id(id), Some(Builtin::Is));
        assert_eq!(nargs, 2);
    }

    #[test]
    fn redefining_builtins_is_rejected() {
        let p = Program::parse("is(X, X).").unwrap();
        let lp = LoweredProgram::lower(&p).unwrap();
        assert!(CodeImage::compile(&lp).is_err());
    }

    #[test]
    fn query_compilation() {
        let mut img = image("p(1). p(2).");
        let q = img
            .compile_query(&kl0::parser::parse_term("p(X), p(Y)").unwrap())
            .unwrap();
        assert_eq!(q.vars, vec!["X".to_owned(), "Y".to_owned()]);
        let pred = img.predicate(q.pred);
        assert_eq!(pred.arity, 2);
        assert_eq!(pred.clauses.len(), 1);
    }

    #[test]
    fn index_buckets_group_clauses_by_first_argument() {
        let img = image("p(a, 1). p(b, 2). p(a, 3). p([], 4). p([_|_], 5). p(f(_), 6). p(7, 8).");
        let pred = img.predicate(img.lookup(&("p".into(), 2)).unwrap());
        assert_eq!(pred.index.key_count(), 6);
        let sym = |n: &str| img.symbols().lookup(n).unwrap();
        let candidates = |key: IndexKey| {
            let b = pred.bucket_for(key);
            (0..pred.candidate_count(b))
                .map(|i| pred.candidate(b, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(candidates(IndexKey::Atom(sym("a"))), vec![0, 2]);
        assert_eq!(candidates(IndexKey::Atom(sym("b"))), vec![1]);
        assert_eq!(candidates(IndexKey::Nil), vec![3]);
        assert_eq!(candidates(IndexKey::List), vec![4]);
        assert_eq!(
            candidates(IndexKey::Struct(Functor::new(sym("f"), 1))),
            vec![5]
        );
        assert_eq!(candidates(IndexKey::Int(7)), vec![6]);
        // A key no clause mentions falls back to var-headed clauses
        // only — here there are none.
        assert_eq!(candidates(IndexKey::Int(99)), Vec::<usize>::new());
    }

    #[test]
    fn var_headed_clauses_join_every_bucket() {
        let img = image("p(a). p(X) :- q(X). p(b). q(_).");
        let pred = img.predicate(img.lookup(&("p".into(), 1)).unwrap());
        let sym = |n: &str| img.symbols().lookup(n).unwrap();
        let candidates = |key: IndexKey| {
            let b = pred.bucket_for(key);
            (0..pred.candidate_count(b))
                .map(|i| pred.candidate(b, i))
                .collect::<Vec<_>>()
        };
        // Bucket order preserves source order even when the var clause
        // joins a bucket created before (a) or after (b) it.
        assert_eq!(candidates(IndexKey::Atom(sym("a"))), vec![0, 1]);
        assert_eq!(candidates(IndexKey::Atom(sym("b"))), vec![1, 2]);
        // Unmatched constants still reach the var-headed clause.
        assert_eq!(candidates(IndexKey::Int(0)), vec![1]);
    }

    #[test]
    fn linear_bucket_is_identity() {
        let img = image("p(a). p(b). p(c).");
        let pred = img.predicate(img.lookup(&("p".into(), 1)).unwrap());
        assert_eq!(pred.candidate_count(BUCKET_LINEAR), 3);
        for i in 0..3 {
            assert_eq!(pred.candidate(BUCKET_LINEAR, i), i);
        }
    }

    #[test]
    fn zero_arity_predicates_are_never_indexed() {
        let img = image("p. p :- q. q.");
        let pred = img.predicate(img.lookup(&("p".into(), 0)).unwrap());
        assert_eq!(pred.index.key_count(), 0);
        // Both clauses are var-only (match any call).
        assert_eq!(pred.candidate_count(BUCKET_VAR_ONLY), 2);
    }

    #[test]
    fn incremental_consult_extends_the_index() {
        let p1 = Program::parse("p(a, 1).").unwrap();
        let mut img = CodeImage::compile(&LoweredProgram::lower(&p1).unwrap()).unwrap();
        let p2 = Program::parse("p(a, 2). p(b, 3).").unwrap();
        img.add_program(&LoweredProgram::lower(&p2).unwrap())
            .unwrap();
        let pred = img.predicate(img.lookup(&("p".into(), 2)).unwrap());
        let a = img.symbols().lookup("a").unwrap();
        let b = pred.bucket_for(IndexKey::Atom(a));
        assert_eq!(pred.candidate_count(b), 2);
        assert_eq!(pred.candidate(b, 0), 0);
        assert_eq!(pred.candidate(b, 1), 1);
    }

    #[test]
    fn retract_removes_var_headed_clause_from_every_bucket() {
        // The var-headed clause (pos 1) joined the `a`, `b`, `[]`
        // and int buckets plus var_only; removing it must purge all
        // of them and renumber the later positions.
        let mut img = image("p(a). p(X) :- q(X). p(b). p([]). p(7). q(_).");
        let idx = img.lookup(&("p".into(), 1)).unwrap();
        img.retract_clause(idx, 1);
        let pred = img.predicate(idx);
        assert!(pred.dynamic);
        assert_eq!(pred.clauses.len(), 4);
        assert_eq!(pred.sources.len(), 4);
        let sym = |n: &str| img.symbols().lookup(n).unwrap();
        let candidates = |key: IndexKey| {
            let b = pred.bucket_for(key);
            (0..pred.candidate_count(b))
                .map(|i| pred.candidate(b, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(candidates(IndexKey::Atom(sym("a"))), vec![0]);
        assert_eq!(candidates(IndexKey::Atom(sym("b"))), vec![1]);
        assert_eq!(candidates(IndexKey::Nil), vec![2]);
        assert_eq!(candidates(IndexKey::Int(7)), vec![3]);
        // Unmatched keys fell back to the var clause; now nothing.
        assert_eq!(candidates(IndexKey::Int(99)), Vec::<usize>::new());
        assert_eq!(pred.candidate_count(BUCKET_VAR_ONLY), 0);
    }

    #[test]
    fn assert_clause_front_and_back_maintain_the_index() {
        let mut img = image("p(a, 1).");
        let a1 = kl0::parser::parse_term("p(a, 2)").unwrap();
        let a2 = kl0::parser::parse_term("p(b, 3)").unwrap();
        let a3 = kl0::parser::parse_term("p(a, 0)").unwrap();
        let truth = Term::atom("true");
        img.assert_clause(&a1, &truth, false).unwrap();
        img.assert_clause(&a2, &truth, false).unwrap();
        img.assert_clause(&a3, &truth, true).unwrap();
        let idx = img.lookup(&("p".into(), 2)).unwrap();
        let pred = img.predicate(idx);
        assert!(pred.dynamic);
        // Source order is now: p(a,0), p(a,1), p(a,2), p(b,3).
        assert_eq!(pred.sources[0].head.to_string(), "p(a,0)");
        assert_eq!(pred.sources[3].head.to_string(), "p(b,3)");
        let sym = |n: &str| img.symbols().lookup(n).unwrap();
        let candidates = |key: IndexKey| {
            let b = pred.bucket_for(key);
            (0..pred.candidate_count(b))
                .map(|i| pred.candidate(b, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(candidates(IndexKey::Atom(sym("a"))), vec![0, 1, 2]);
        assert_eq!(candidates(IndexKey::Atom(sym("b"))), vec![3]);
    }

    #[test]
    fn assert_clause_with_control_body_gets_fresh_aux_names() {
        // The asserted body's `;` lowers to an aux predicate whose
        // name must not collide with the aux of the consulted source.
        let mut img = image("p(X) :- (X = 1 ; X = 2).");
        let head = kl0::parser::parse_term("p(X)").unwrap();
        let body = kl0::parser::parse_term("(X = 3 ; X = 4)").unwrap();
        img.assert_clause(&head, &body, false).unwrap();
        let aux_count = img
            .predicates()
            .iter()
            .filter(|p| p.name.starts_with("$aux"))
            .count();
        assert_eq!(aux_count, 2, "each batch gets its own aux predicate");
    }

    #[test]
    fn cut_compiles_to_cut_goal() {
        let img = image("p :- q, !, r. q. r.");
        let pred = img.lookup(&("p".into(), 0)).unwrap();
        let c = img.predicate(pred).clauses[0];
        let h = img.heap();
        // header, goal q, cut, goal r, endbody
        assert_eq!(h[c.addr as usize + 1].tag(), Tag::Goal);
        assert_eq!(h[c.addr as usize + 2].tag(), Tag::CutGoal);
        assert_eq!(h[c.addr as usize + 3].tag(), Tag::Goal);
        assert_eq!(h[c.addr as usize + 4].tag(), Tag::EndBody);
    }
}
