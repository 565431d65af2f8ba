//! Redundant-check elimination (dataflow client) and the static failure
//! detector.
//!
//! A must-analysis tracks, per scalar pointer variable, what the checks that
//! already executed have established: non-nullness, verified SEQ/WILD
//! bounds (valid while the pointer is unmoved), verified WILD tags, and
//! verified RTTI downcast targets. A [`Check`] whose
//! fact already holds on every path is deleted — the run-time cost counters
//! drop, the verdict never changes, because a passing check is a pure
//! verification (the fat-pointer conversions happen at cast evaluation, not
//! in the check).
//!
//! The same facts power the static failure detector: a check that provably
//! *always* fails (constant out-of-bounds index, dereference of a pointer
//! that is null on every path) is reported as a compile-time diagnostic.
//! The check itself is kept so the run-time behaviour is unchanged.

use crate::cfg::{for_each_instr_mut, Cfg, InstrId};
use crate::dataflow::{forward, Analysis, Lattice};
use crate::keep::{KeepReason, OperandShape};
use crate::loops::int_bounds;
use ccured_ast::Span;
use ccured_cil::ir::*;
use ccured_cil::visit;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// A check that is statically guaranteed to fail whenever it executes.
#[derive(Debug, Clone)]
pub struct StaticFailure {
    /// Enclosing function.
    pub func: String,
    /// The check kind ([`Check::name`]).
    pub check: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Source location of the offending instruction.
    pub span: Span,
}

/// The result of running the optimizer over a program.
#[derive(Debug, Clone, Default)]
pub struct ElisionResult {
    /// Deleted-check counts (`no_stack_escape` is always 0: escape checks
    /// are never elided).
    pub stats: PerCheck<u64>,
    /// Checks that provably always fail (kept in the program; reported).
    pub failures: Vec<StaticFailure>,
    /// Deleted instructions per check site, keyed by the raw
    /// [`SiteId`] index. Sites the instrumentation
    /// did not number ([`SiteId::NONE`](ccured_cil::ir::SiteId::NONE)) are
    /// not recorded.
    pub site_elides: BTreeMap<u32, u64>,
    /// Why each site with a surviving check was kept, keyed like
    /// [`ElisionResult::site_elides`]: the reason of its first kept check
    /// in block order, or the loop optimizer's rewrite, which takes
    /// precedence. Feeds the profiler's "hot sites the optimizer could not
    /// elide" report.
    pub site_keeps: BTreeMap<u32, KeepReason>,
}

/// A trackable place: a whole scalar variable. Address-taken locals are
/// tracked too — the escape pre-pass records them in
/// [`ElimAnalysis::aliased_locals`], and any store through memory (or any
/// call) kills their facts, so a stale fact can never survive a write
/// through an alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Place {
    Local(u32),
    Global(u32),
}

/// An inclusive integer interval, with `i128::MIN`/`i128::MAX` standing in
/// for −∞/+∞. The value-range domain lets index facts survive arithmetic:
/// `i = i + 2` shifts the interval instead of destroying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Range {
    pub lo: i128,
    pub hi: i128,
}

impl Range {
    const FULL: Range = Range {
        lo: i128::MIN,
        hi: i128::MAX,
    };

    fn exact(v: i128) -> Range {
        Range { lo: v, hi: v }
    }

    fn is_full(&self) -> bool {
        *self == Range::FULL
    }

    /// Whether every value of `self` lies inside `[lo, hi]`.
    fn within(&self, lo: i128, hi: i128) -> bool {
        self.lo >= lo && self.hi <= hi
    }

    fn intersect(&self, o: &Range) -> Range {
        Range {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// Join with widening against the previously stored interval: a bound
    /// that grows jumps straight to its infinity, so each stored bound
    /// changes at most twice and the fixpoint terminates. (This is the
    /// sanctioned non-commutative meet documented on
    /// [`Lattice`](crate::dataflow::Lattice): `self` is the old fact.)
    fn widen_join(&self, new: &Range) -> Range {
        Range {
            lo: if new.lo < self.lo { i128::MIN } else { self.lo },
            hi: if new.hi > self.hi { i128::MAX } else { self.hi },
        }
    }

    fn add(&self, o: &Range) -> Range {
        let lo = self.lo.checked_add(o.lo);
        let hi = self.hi.checked_add(o.hi);
        match (lo, hi) {
            (Some(lo), Some(hi)) => Range { lo, hi },
            _ => Range::FULL,
        }
    }

    fn sub(&self, o: &Range) -> Range {
        let lo = self.lo.checked_sub(o.hi);
        let hi = self.hi.checked_sub(o.lo);
        match (lo, hi) {
            (Some(lo), Some(hi)) => Range { lo, hi },
            _ => Range::FULL,
        }
    }

    fn mul(&self, o: &Range) -> Range {
        let corners = [
            self.lo.checked_mul(o.lo),
            self.lo.checked_mul(o.hi),
            self.hi.checked_mul(o.lo),
            self.hi.checked_mul(o.hi),
        ];
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for c in corners {
            match c {
                Some(v) => {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                None => return Range::FULL,
            }
        }
        Range { lo, hi }
    }
}

/// A map from places to values, kept as a vector sorted by place. Keys
/// stay in `Place` order, so equality and every operation below give
/// exactly what a `BTreeMap<Place, V>` would, while a clone is one
/// allocation and a meet one linear merge.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlaceMap<V>(Vec<(Place, V)>);

/// A set of places: a [`PlaceMap`] with no values.
type PlaceSet = PlaceMap<()>;

impl<V> Default for PlaceMap<V> {
    fn default() -> Self {
        PlaceMap(Vec::new())
    }
}

impl<V: Copy> PlaceMap<V> {
    fn find(&self, p: Place) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(&p))
    }

    fn get(&self, p: Place) -> Option<V> {
        self.find(p).ok().map(|i| self.0[i].1)
    }

    fn contains(&self, p: Place) -> bool {
        self.find(p).is_ok()
    }

    fn insert(&mut self, p: Place, v: V) {
        match self.find(p) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (p, v)),
        }
    }

    fn remove(&mut self, p: Place) {
        if let Ok(i) = self.find(p) {
            self.0.remove(i);
        }
    }

    fn retain(&mut self, keep: impl Fn(&Place) -> bool) {
        self.0.retain(|(p, _)| keep(p));
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    /// Gives `dst` the value `src` has, if any.
    fn copy(&mut self, src: Place, dst: Place) {
        if let Some(v) = self.get(src) {
            self.insert(dst, v);
        }
    }

    /// The places in both maps, each with `join(self's value, other's
    /// value)`; places where `join` returns `None` are dropped. One linear
    /// merge of the two sorted vectors.
    fn meet_with(&self, other: &Self, join: impl Fn(V, V) -> Option<V>) -> Self {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if let Some(v) = join(a[i].1, b[j].1) {
                        out.push((a[i].0, v));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        PlaceMap(out)
    }
}

/// The must-facts holding at a program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Facts {
    /// Places verified non-null.
    nonnull: PlaceSet,
    /// Places that are null on every path (for the failure detector).
    null: PlaceSet,
    /// Largest verified SEQ access size per unmoved place.
    bounds: PlaceMap<u64>,
    /// Largest verified WILD access size per unmoved place.
    wild_bounds: PlaceMap<u64>,
    /// Places whose pointed-to word has a verified pointer tag.
    wild_tag: PlaceSet,
    /// Verified RTTI downcast target node per place.
    rtti: PlaceMap<u32>,
    /// Known value intervals of integer places (absent = unknown).
    ranges: PlaceMap<Range>,
    /// Places whose temporal capability key is verified valid. Unlike every
    /// other fact, a *call* is what invalidates these (the callee may
    /// `free`), so [`Facts::kill_call`] clears the whole set.
    temporal: PlaceSet,
}

/// The set meet: a place survives when both sides hold it.
fn in_both(_: (), _: ()) -> Option<()> {
    Some(())
}

impl Lattice for Facts {
    fn meet(&self, other: &Self) -> Self {
        Facts {
            nonnull: self.nonnull.meet_with(&other.nonnull, in_both),
            null: self.null.meet_with(&other.null, in_both),
            bounds: self.bounds.meet_with(&other.bounds, |a, b| Some(a.min(b))),
            wild_bounds: self
                .wild_bounds
                .meet_with(&other.wild_bounds, |a, b| Some(a.min(b))),
            wild_tag: self.wild_tag.meet_with(&other.wild_tag, in_both),
            rtti: self
                .rtti
                .meet_with(&other.rtti, |a, b| (a == b).then_some(a)),
            ranges: self.ranges.meet_with(&other.ranges, |old, new| {
                let r = old.widen_join(&new);
                (!r.is_full()).then_some(r)
            }),
            temporal: self.temporal.meet_with(&other.temporal, in_both),
        }
    }
}

impl Facts {
    fn kill(&mut self, p: Place) {
        self.nonnull.remove(p);
        self.null.remove(p);
        self.bounds.remove(p);
        self.wild_bounds.remove(p);
        self.wild_tag.remove(p);
        self.rtti.remove(p);
        self.ranges.remove(p);
        self.temporal.remove(p);
    }

    /// A store through a pointer or into an aggregate/untracked variable:
    /// globals and address-taken locals may alias the written memory (the
    /// escape pre-pass computed `aliased`), and WILD heap facts (tags,
    /// area headers) can no longer be trusted. Only facts about locals
    /// whose address is never taken survive.
    fn kill_memory_write(&mut self, aliased: &HashSet<u32>) {
        let keep = |p: &Place| matches!(p, Place::Local(l) if !aliased.contains(l));
        self.nonnull.retain(keep);
        self.null.retain(keep);
        self.bounds.retain(keep);
        self.rtti.retain(keep);
        self.ranges.retain(keep);
        // A store cannot free, so a temporal key verified for an unaliased
        // local stays valid; an aliased place may have been overwritten
        // with a different (possibly dead) pointer.
        self.temporal.retain(keep);
        self.wild_tag.clear();
        self.wild_bounds.clear();
    }

    /// A call: the callee may write any global or any heap cell — including
    /// any local whose address has escaped — and, crucially for temporal
    /// safety, may `free` *any* heap allocation, so every temporal fact
    /// dies regardless of aliasing.
    fn kill_call(&mut self, aliased: &HashSet<u32>) {
        self.kill_memory_write(aliased);
        self.temporal.clear();
    }

    fn copy_all(&mut self, src: Place, dst: Place) {
        self.nonnull.copy(src, dst);
        self.null.copy(src, dst);
        self.bounds.copy(src, dst);
        self.wild_bounds.copy(src, dst);
        self.wild_tag.copy(src, dst);
        self.rtti.copy(src, dst);
        self.ranges.copy(src, dst);
        self.temporal.copy(src, dst);
    }

    /// Copy across a pointer cast: only value facts survive (the fat
    /// representation may differ, but the address — hence nullness — is
    /// preserved).
    fn copy_nullness(&mut self, src: Place, dst: Place) {
        self.nonnull.copy(src, dst);
        self.null.copy(src, dst);
        // A cast preserves the address, hence the allocation the pointer
        // names — temporal validity travels with it.
        self.temporal.copy(src, dst);
    }
}

/// Strips `Cast` layers off an expression.
fn strip_casts(e: &Exp) -> &Exp {
    match e {
        Exp::Cast(_, inner, _) => strip_casts(inner),
        _ => e,
    }
}

struct ElimAnalysis<'a> {
    prog: &'a Program,
    /// Locals of the current function whose address is taken somewhere in
    /// the body (the escape pre-pass). Their facts are tracked between
    /// memory writes but die at every store through memory and every call.
    aliased_locals: HashSet<u32>,
    /// Globals whose address is never taken anywhere in the program.
    tracked_globals: &'a HashSet<u32>,
}

impl ElimAnalysis<'_> {
    fn place_of_lval(&self, lv: &Lval) -> Option<Place> {
        if !lv.offsets.is_empty() {
            return None;
        }
        match &lv.base {
            LvBase::Local(l) => Some(Place::Local(l.0)),
            LvBase::Global(g) if self.tracked_globals.contains(&g.0) => Some(Place::Global(g.0)),
            _ => None,
        }
    }

    /// The tracked place an expression reads directly (no casts).
    fn direct_place(&self, e: &Exp) -> Option<Place> {
        match e {
            Exp::Load(lv, _) => self.place_of_lval(lv),
            _ => None,
        }
    }

    /// The tracked place behind any chain of casts.
    fn stripped_place(&self, e: &Exp) -> Option<Place> {
        self.direct_place(strip_casts(e))
    }

    fn is_ptr(&self, t: ccured_cil::types::TypeId) -> bool {
        self.prog.types.ptr_parts(t).is_some()
    }

    /// The conservative value interval of `e` under `fact`. Arithmetic whose
    /// interval escapes the expression's own type is widened to the full
    /// range (the evaluator wraps; a wrapped value is anywhere), so the
    /// returned interval always contains the run-time value.
    fn exp_range(&self, e: &Exp, fact: &Facts) -> Range {
        let r = match e {
            Exp::Const(Const::Int(v, _), _) => Range::exact(*v),
            Exp::Load(lv, _) => {
                return self
                    .place_of_lval(lv)
                    .and_then(|p| fact.ranges.get(p))
                    .unwrap_or(Range::FULL)
            }
            Exp::Cast(_, inner, t) => {
                let r = self.exp_range(inner, fact);
                return match int_bounds(&self.prog.types, *t) {
                    Some((lo, hi)) if r.within(lo, hi) => r,
                    _ => Range::FULL,
                };
            }
            Exp::Binop(op, a, b, _) => {
                let ra = self.exp_range(a, fact);
                let rb = self.exp_range(b, fact);
                match op {
                    BinOp::Add => ra.add(&rb),
                    BinOp::Sub => ra.sub(&rb),
                    BinOp::Mul => ra.mul(&rb),
                    _ => Range::FULL,
                }
            }
            _ => Range::FULL,
        };
        // Wrap safety: trust the interval only when it fits the type the
        // expression evaluates at.
        match int_bounds(&self.prog.types, e.ty()) {
            Some((lo, hi)) if r.within(lo, hi) => r,
            _ => Range::FULL,
        }
    }

    /// Applies the fact consequences of a *passing* check. Sound because a
    /// failing check aborts: the state after the instruction only exists on
    /// the passing outcome.
    fn gen_check(&self, c: &Check, fact: &mut Facts) {
        match c {
            Check::Null { ptr } => {
                if let Some(p) = self.stripped_place(ptr) {
                    fact.nonnull.insert(p, ());
                    fact.null.remove(p);
                }
            }
            Check::SeqBounds { ptr, access_size } | Check::SeqToSafe { ptr, access_size } => {
                if let Some(p) = self.direct_place(ptr) {
                    let v = fact.bounds.get(p).unwrap_or(0).max(*access_size);
                    fact.bounds.insert(p, v);
                    fact.nonnull.insert(p, ());
                    fact.null.remove(p);
                }
            }
            Check::WildBounds { ptr, access_size } => {
                if let Some(p) = self.direct_place(ptr) {
                    let v = fact.wild_bounds.get(p).unwrap_or(0).max(*access_size);
                    fact.wild_bounds.insert(p, v);
                    fact.nonnull.insert(p, ());
                    fact.null.remove(p);
                }
            }
            Check::WildTag { ptr } => {
                if let Some(p) = self.direct_place(ptr) {
                    fact.wild_tag.insert(p, ());
                }
            }
            Check::Rtti { ptr, target_node } => {
                if let Some(p) = self.stripped_place(ptr) {
                    fact.rtti.insert(p, *target_node);
                }
            }
            Check::IndexBound { index, len } => {
                // A passing index check proves `0 ≤ index < len`.
                if let Some(p) = self.direct_place(index) {
                    let cur = fact.ranges.get(p).unwrap_or(Range::FULL);
                    let proved = Range {
                        lo: 0,
                        hi: *len as i128 - 1,
                    };
                    fact.ranges.insert(p, cur.intersect(&proved));
                }
            }
            Check::Temporal { ptr } => {
                if let Some(p) = self.stripped_place(ptr) {
                    fact.temporal.insert(p, ());
                }
            }
            Check::NoStackEscape { .. } => {}
            // A passing guarded check certifies exactly what its original
            // would have; probes and resets certify nothing (a probe's
            // failure does not abort).
            Check::Guarded { inner, .. } => self.gen_check(inner, fact),
            Check::Probe { .. } | Check::GuardReset { .. } => {}
        }
    }

    fn set_transfer(&self, lv: &Lval, e: &Exp, fact: &mut Facts) {
        let Some(dst) = self.place_of_lval(lv) else {
            // Store through a pointer, into an aggregate, or into an
            // untracked global.
            fact.kill_memory_write(&self.aliased_locals);
            return;
        };
        // Evaluate the range before the kill: `i = i + 1` reads the old i.
        let range = self.exp_range(e, fact);
        fact.kill(dst);
        if !range.is_full() && int_bounds(&self.prog.types, e.ty()).is_some() {
            fact.ranges.insert(dst, range);
        }
        let stripped = strip_casts(e);
        if stripped.is_zero() {
            fact.null.insert(dst, ());
            return;
        }
        match stripped {
            Exp::AddrOf(..) | Exp::StartOf(..) | Exp::FnAddr(..) => {
                fact.nonnull.insert(dst, ());
            }
            Exp::Load(..) => {
                if let Some(src) = self.direct_place(e) {
                    // `p = q` with identical representation: everything
                    // established about q holds for p.
                    fact.copy_all(src, dst);
                } else if let Some(src) = self.stripped_place(e) {
                    if self.is_ptr(e.ty()) && self.is_ptr(stripped.ty()) {
                        // `p = (T *)q`: the address is preserved, the fat
                        // representation may not be.
                        fact.copy_nullness(src, dst);
                    }
                }
            }
            _ => {}
        }
    }

    fn call_transfer(&self, ret: &Option<Lval>, fact: &mut Facts) {
        fact.kill_call(&self.aliased_locals);
        if let Some(lv) = ret {
            match self.place_of_lval(lv) {
                Some(dst) => fact.kill(dst),
                None => fact.kill_memory_write(&self.aliased_locals),
            }
        }
    }

    /// Narrows `p`'s interval with `[lo, hi]`.
    fn narrow(&self, fact: &mut Facts, p: Place, lo: i128, hi: i128) {
        let cur = fact.ranges.get(p).unwrap_or(Range::FULL);
        let n = cur.intersect(&Range { lo, hi });
        if !n.is_full() {
            fact.ranges.insert(p, n);
        }
    }

    /// Refines one side of a comparison `a OP b` along a branch edge. Only
    /// *direct* loads are refined — a cast may have wrapped the value, so
    /// the comparison outcome says nothing about the un-cast variable.
    fn refine_cmp(&self, op: BinOp, a: &Exp, b: &Exp, taken: bool, fact: &mut Facts) {
        let Some(p) = self.direct_place(a) else {
            return;
        };
        let rb = self.exp_range(b, fact);
        let (lo, hi) = match (op, taken) {
            // a < b holds: a ≤ max(b) − 1. Fails: a ≥ min(b).
            (BinOp::Lt, true) => (i128::MIN, rb.hi.saturating_sub(1)),
            (BinOp::Lt, false) => (rb.lo, i128::MAX),
            (BinOp::Le, true) => (i128::MIN, rb.hi),
            (BinOp::Le, false) => (rb.lo.saturating_add(1), i128::MAX),
            (BinOp::Gt, true) => (rb.lo.saturating_add(1), i128::MAX),
            (BinOp::Gt, false) => (i128::MIN, rb.hi),
            (BinOp::Ge, true) => (rb.lo, i128::MAX),
            (BinOp::Ge, false) => (i128::MIN, rb.hi.saturating_sub(1)),
            (BinOp::Eq, true) | (BinOp::Ne, false) => (rb.lo, rb.hi),
            _ => return,
        };
        self.narrow(fact, p, lo, hi);
    }
}

/// Flips a comparison operator so `a OP b ⇔ b OP' a`.
fn mirror(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        BinOp::Eq => BinOp::Eq,
        BinOp::Ne => BinOp::Ne,
        _ => return None,
    })
}

impl Analysis for ElimAnalysis<'_> {
    type Fact = Facts;

    fn entry_fact(&self) -> Facts {
        Facts::default()
    }

    fn transfer(&mut self, _id: InstrId, instr: &Instr, fact: &mut Facts) {
        match instr {
            Instr::Check(c, _, _) => self.gen_check(c, fact),
            Instr::Set(lv, e, _) => self.set_transfer(lv, e, fact),
            Instr::Call(ret, _, _, _) => self.call_transfer(ret, fact),
        }
    }

    fn refine_edge(&mut self, cond: &Exp, taken: bool, fact: &mut Facts) {
        if let Exp::Binop(op, a, b, _) = cond {
            self.refine_cmp(*op, a, b, taken, fact);
            if let Some(m) = mirror(*op) {
                self.refine_cmp(m, b, a, taken, fact);
            }
        }
    }
}

/// Deletes provably redundant checks from one function body and reports
/// them, and the checks that provably always fail, into `result`. The
/// analysis is intraprocedural and site ids are unique, so
/// [`optimize_program`](crate::loops::optimize_program) runs this over
/// every function with one `result` and one [`tracked_globals`] set.
pub(crate) fn eliminate_checks_in_function(
    prog: &mut Program,
    fi: usize,
    tracked_globals: &HashSet<u32>,
    result: &mut ElisionResult,
) {
    let delete = plan_function(prog, fi, tracked_globals, result);
    for_each_instr_mut(&mut prog.functions[fi].body, &mut |id, _| {
        !delete.contains(&id)
    });
}

/// The checks of function `fi` to delete; their report goes to `result`.
fn plan_function(
    prog: &Program,
    fi: usize,
    tracked_globals: &HashSet<u32>,
    result: &mut ElisionResult,
) -> HashSet<InstrId> {
    let func = &prog.functions[fi];
    let cfg = Cfg::build(func);
    let mut analysis = ElimAnalysis {
        prog,
        aliased_locals: aliased_locals(func),
        tracked_globals,
    };
    let entries = forward(&cfg, &mut analysis);

    let mut delete = HashSet::new();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        // Unreachable blocks (no entry fact) keep their checks: deleting
        // dead code is not this pass's job.
        let mut fact = entries[bi].clone();
        for &(id, instr) in &block.instrs {
            // Only plain checks are judged: the loop optimizer's probes,
            // residuals and resets, which have no operand of their own, are
            // placed after this pass runs.
            let plain = match instr {
                Instr::Check(c, span, site) if c.operand().is_some() => {
                    c.kind().map(|kind| (c, kind, span, site))
                }
                _ => None,
            };
            if let Some((c, kind, span, site)) = plain {
                let decision = match &fact {
                    Some(fact) => decide(&analysis, func, c, kind, fact),
                    None => Decision::Keep(KeepReason::Unreachable),
                };
                match decision {
                    Decision::Keep(why) => {
                        if let KeepReason::AlwaysFails(message) = &why {
                            result.failures.push(StaticFailure {
                                func: func.name.clone(),
                                check: c.name(),
                                message: message.clone(),
                                span: *span,
                            });
                        }
                        if let Some(s) = site.index() {
                            result.site_keeps.entry(s as u32).or_insert(why);
                        }
                    }
                    Decision::Elide => {
                        delete.insert(id);
                        result.stats[kind] += 1;
                        if let Some(s) = site.index() {
                            *result.site_elides.entry(s as u32).or_insert(0) += 1;
                        }
                    }
                }
            }
            if let Some(fact) = &mut fact {
                analysis.transfer(id, instr, fact);
            }
        }
    }
    delete
}

enum Decision {
    Keep(KeepReason),
    Elide,
}

/// Whether `c`, a plain check of `kind`, can go under `fact`; a kept check
/// carries the reason it stays.
fn decide(
    a: &ElimAnalysis<'_>,
    func: &Function,
    c: &Check,
    kind: CheckKind,
    fact: &Facts,
) -> Decision {
    let keep = Decision::Keep;
    // Null, RTTI and temporal facts survive casts; the others do not.
    let operand = c.operand().expect("a plain check has an operand");
    let keyed = match kind {
        CheckKind::Null | CheckKind::Rtti | CheckKind::Temporal => strip_casts(operand),
        _ => operand,
    };
    let place = a.direct_place(keyed);
    // The verdict of a check that one fact about its place proves.
    let proven_if = |holds: Option<bool>| match holds {
        Some(true) => Decision::Elide,
        Some(false) => keep(KeepReason::Unproven(kind)),
        None => keep(untracked(keyed)),
    };
    match c {
        // The address of a variable or function is never null.
        Check::Null { .. }
            if matches!(keyed, Exp::AddrOf(..) | Exp::StartOf(..) | Exp::FnAddr(..)) =>
        {
            Decision::Elide
        }
        // The constant null pointer is null on every path.
        Check::Null { .. } if matches!(keyed, Exp::Const(Const::Int(0, _), _)) => keep(
            KeepReason::AlwaysFails("dereference of the constant null pointer".into()),
        ),
        Check::Null { .. } => match place {
            Some(p) if !fact.nonnull.contains(p) && fact.null.contains(p) => {
                keep(KeepReason::AlwaysFails(format!(
                    "dereference of `{}`, which is null on every path here",
                    place_name(a, func, p)
                )))
            }
            _ => proven_if(place.map(|p| fact.nonnull.contains(p))),
        },
        Check::SeqBounds { access_size, .. }
        | Check::SeqToSafe { access_size, .. }
        | Check::WildBounds { access_size, .. } => {
            let verified = match kind {
                CheckKind::WildBounds => &fact.wild_bounds,
                _ => &fact.bounds,
            };
            match place.map(|p| verified.get(p)) {
                Some(Some(v)) if v < *access_size => keep(KeepReason::ShortAccess {
                    kind,
                    verified: v,
                    needed: *access_size,
                }),
                v => proven_if(v.map(|v| v.is_some())),
            }
        }
        Check::WildTag { .. } => proven_if(place.map(|p| fact.wild_tag.contains(p))),
        Check::Rtti { target_node, .. } => {
            proven_if(place.map(|p| fact.rtti.get(p) == Some(*target_node)))
        }
        Check::Temporal { .. } => proven_if(place.map(|p| fact.temporal.contains(p))),
        Check::IndexBound { index, len } => {
            let n = *len as i128;
            if let Exp::Const(Const::Int(v, _), _) = index {
                // A constant in-bounds index cannot fail.
                return if *v < 0 || *v as u128 >= *len as u128 {
                    keep(KeepReason::AlwaysFails(format!(
                        "index {v} is always out of bounds for an array of length {len}"
                    )))
                } else {
                    Decision::Elide
                };
            }
            let Some(p) = place else {
                return keep(KeepReason::VariableIndex);
            };
            match fact.ranges.get(p) {
                // The interval proves every value in bounds.
                Some(r) if r.within(0, n - 1) => Decision::Elide,
                Some(r) if r.hi < 0 || r.lo >= n => keep(KeepReason::AlwaysFails(format!(
                    "index is always out of bounds for an array of length {n}: its value lies in [{}, {}]",
                    r.lo, r.hi
                ))),
                Some(r) => keep(KeepReason::IndexRange {
                    lo: r.lo,
                    hi: r.hi,
                    len: *len,
                }),
                None => keep(KeepReason::Unproven(kind)),
            }
        }
        Check::NoStackEscape { .. } => keep(KeepReason::Unproven(kind)),
        Check::Probe { .. } | Check::Guarded { .. } | Check::GuardReset { .. } => {
            unreachable!("the eliminator judges plain checks only")
        }
    }
}

/// Why `e`, a check operand with no tracked place, is untracked. The
/// caller strips the casts its check kind looks through.
fn untracked(e: &Exp) -> KeepReason {
    KeepReason::Untracked(match e {
        Exp::Binop(op, ..) if op.is_pointer_arith() => OperandShape::PtrArith,
        Exp::Cast(..) => OperandShape::Cast,
        Exp::Load(lv, _) if lv.is_deref() => OperandShape::ThroughMemory,
        Exp::Load(lv, _) if !lv.offsets.is_empty() => OperandShape::AggregatePart,
        // A whole local, or a global whose address is never taken, is a
        // tracked place.
        Exp::Load(..) => OperandShape::AddrTakenGlobal,
        _ => OperandShape::Other,
    })
}

fn place_name(a: &ElimAnalysis<'_>, func: &Function, p: Place) -> String {
    match p {
        Place::Local(l) => func.locals[l as usize].name.clone(),
        Place::Global(g) => a.prog.globals[g as usize].name.clone(),
    }
}

/// Locals of `func` whose address is taken somewhere in the body — the
/// escape pre-pass shared by the eliminator and the loop optimizer.
pub(crate) fn aliased_locals(func: &Function) -> HashSet<u32> {
    let mut taken = HashSet::new();
    visit::for_each_exp(&func.body, &mut |e| {
        mark_addr_taken(e, &mut taken, &mut HashSet::new())
    });
    taken
}

/// Globals whose address is never taken anywhere in the program — the
/// whole-program input of the per-function passes.
pub(crate) fn tracked_globals(prog: &Program) -> HashSet<u32> {
    let mut taken_locals = HashSet::new();
    let mut taken = HashSet::new();
    for f in &prog.functions {
        visit::for_each_exp(&f.body, &mut |e| {
            mark_addr_taken(e, &mut taken_locals, &mut taken)
        });
    }
    for g in &prog.globals {
        if let Some(init) = &g.init {
            visit::for_each_init_exp(init, &mut |e| {
                mark_addr_taken(e, &mut taken_locals, &mut taken)
            });
        }
    }
    (0..prog.globals.len() as u32)
        .filter(|g| !taken.contains(g))
        .collect()
}

fn mark_addr_taken(e: &Exp, locals: &mut HashSet<u32>, globals: &mut HashSet<u32>) {
    if let Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) = e {
        match &lv.base {
            LvBase::Local(l) => {
                locals.insert(l.0);
            }
            LvBase::Global(g) => {
                globals.insert(g.0);
            }
            LvBase::Deref(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::optimize_program;
    use ccured_cil::ir::CheckKind::{IndexBound, Null, SeqBounds, Temporal};
    use ccured_cil::ir::{Check, Instr, Stmt};
    use std::collections::BTreeSet;

    fn lower(src: &str) -> Program {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        ccured_cil::lower_translation_unit(&tu).expect("lower")
    }

    /// `Load` of a named local of function 0.
    fn load(prog: &Program, name: &str) -> Exp {
        let f = &prog.functions[0];
        let (i, l) = f
            .locals
            .iter()
            .enumerate()
            .find(|(_, l)| l.name == name)
            .expect("local");
        Exp::Load(Box::new(Lval::local(LocalId(i as u32))), l.ty)
    }

    fn null_check(prog: &Program, name: &str) -> Instr {
        Instr::Check(
            Check::Null {
                ptr: load(prog, name),
            },
            Span::DUMMY,
            SiteId::NONE,
        )
    }

    fn count_checks(prog: &Program) -> usize {
        let mut n = 0;
        for f in &prog.functions {
            visit::for_each_instr(&f.body, &mut |i| {
                n += matches!(i, Instr::Check(..)) as usize
            });
        }
        n
    }

    /// The eliminator's facts as `BTreeSet`s and `BTreeMap`s, with the
    /// operations [`Facts`] had before it became flat: the reference the
    /// flat representation is checked against.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct RefFacts {
        nonnull: BTreeSet<Place>,
        null: BTreeSet<Place>,
        bounds: BTreeMap<Place, u64>,
        wild_bounds: BTreeMap<Place, u64>,
        wild_tag: BTreeSet<Place>,
        rtti: BTreeMap<Place, u32>,
        ranges: BTreeMap<Place, Range>,
        temporal: BTreeSet<Place>,
    }

    fn meet_sets(a: &BTreeSet<Place>, b: &BTreeSet<Place>) -> BTreeSet<Place> {
        a.intersection(b).cloned().collect()
    }

    fn meet_min(a: &BTreeMap<Place, u64>, b: &BTreeMap<Place, u64>) -> BTreeMap<Place, u64> {
        a.iter()
            .filter_map(|(k, va)| b.get(k).map(|vb| (*k, (*va).min(*vb))))
            .collect()
    }

    impl RefFacts {
        fn meet(&self, other: &Self) -> Self {
            RefFacts {
                nonnull: meet_sets(&self.nonnull, &other.nonnull),
                null: meet_sets(&self.null, &other.null),
                bounds: meet_min(&self.bounds, &other.bounds),
                wild_bounds: meet_min(&self.wild_bounds, &other.wild_bounds),
                wild_tag: meet_sets(&self.wild_tag, &other.wild_tag),
                rtti: self
                    .rtti
                    .iter()
                    .filter(|(k, v)| other.rtti.get(k) == Some(v))
                    .map(|(k, v)| (*k, *v))
                    .collect(),
                ranges: self
                    .ranges
                    .iter()
                    .filter_map(|(k, old)| {
                        let r = old.widen_join(other.ranges.get(k)?);
                        (!r.is_full()).then_some((*k, r))
                    })
                    .collect(),
                temporal: meet_sets(&self.temporal, &other.temporal),
            }
        }

        fn kill(&mut self, p: Place) {
            self.nonnull.remove(&p);
            self.null.remove(&p);
            self.bounds.remove(&p);
            self.wild_bounds.remove(&p);
            self.wild_tag.remove(&p);
            self.rtti.remove(&p);
            self.ranges.remove(&p);
            self.temporal.remove(&p);
        }

        fn kill_memory_write(&mut self, aliased: &HashSet<u32>) {
            let keep = |p: &Place| matches!(p, Place::Local(l) if !aliased.contains(l));
            self.nonnull.retain(keep);
            self.null.retain(keep);
            self.bounds.retain(|p, _| keep(p));
            self.rtti.retain(|p, _| keep(p));
            self.ranges.retain(|p, _| keep(p));
            self.temporal.retain(keep);
            self.wild_tag.clear();
            self.wild_bounds.clear();
        }

        fn kill_call(&mut self, aliased: &HashSet<u32>) {
            self.kill_memory_write(aliased);
            self.temporal.clear();
        }

        fn copy_all(&mut self, src: Place, dst: Place) {
            if self.nonnull.contains(&src) {
                self.nonnull.insert(dst);
            }
            if self.null.contains(&src) {
                self.null.insert(dst);
            }
            if let Some(v) = self.bounds.get(&src).copied() {
                self.bounds.insert(dst, v);
            }
            if let Some(v) = self.wild_bounds.get(&src).copied() {
                self.wild_bounds.insert(dst, v);
            }
            if self.wild_tag.contains(&src) {
                self.wild_tag.insert(dst);
            }
            if let Some(v) = self.rtti.get(&src).copied() {
                self.rtti.insert(dst, v);
            }
            if let Some(v) = self.ranges.get(&src).copied() {
                self.ranges.insert(dst, v);
            }
            if self.temporal.contains(&src) {
                self.temporal.insert(dst);
            }
        }

        fn copy_nullness(&mut self, src: Place, dst: Place) {
            if self.nonnull.contains(&src) {
                self.nonnull.insert(dst);
            }
            if self.null.contains(&src) {
                self.null.insert(dst);
            }
            if self.temporal.contains(&src) {
                self.temporal.insert(dst);
            }
        }

        /// The same facts as flat [`PlaceMap`]s.
        fn flat(&self) -> Facts {
            fn set(s: &BTreeSet<Place>) -> PlaceSet {
                PlaceMap(s.iter().map(|&p| (p, ())).collect())
            }
            fn map<V: Copy>(m: &BTreeMap<Place, V>) -> PlaceMap<V> {
                PlaceMap(m.iter().map(|(&p, &v)| (p, v)).collect())
            }
            Facts {
                nonnull: set(&self.nonnull),
                null: set(&self.null),
                bounds: map(&self.bounds),
                wild_bounds: map(&self.wild_bounds),
                wild_tag: set(&self.wild_tag),
                rtti: map(&self.rtti),
                ranges: map(&self.ranges),
                temporal: set(&self.temporal),
            }
        }
    }

    /// splitmix64: a seeded generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// Random reference facts over `universe`. Values come from small
    /// pools, so equal-value `rtti` meets and both widening directions of
    /// the `ranges` meet happen often.
    fn random_facts(rng: &mut Rng, universe: &[Place]) -> RefFacts {
        const ENDS: [i128; 6] = [i128::MIN, -2, 0, 3, 7, i128::MAX];
        let mut f = RefFacts::default();
        for &p in universe {
            let bits: [bool; 8] = std::array::from_fn(|_| rng.below(2) == 0);
            if bits[0] {
                f.nonnull.insert(p);
            }
            if bits[1] {
                f.null.insert(p);
            }
            if bits[2] {
                f.bounds.insert(p, rng.pick(&[1, 2, 4, 8]));
            }
            if bits[3] {
                f.wild_bounds.insert(p, rng.pick(&[1, 2, 4, 8]));
            }
            if bits[4] {
                f.wild_tag.insert(p);
            }
            if bits[5] {
                f.rtti.insert(p, rng.pick(&[0, 1, 2]));
            }
            if bits[6] {
                let (a, b) = (rng.pick(&ENDS), rng.pick(&ENDS));
                let r = Range {
                    lo: a.min(b),
                    hi: a.max(b),
                };
                if !r.is_full() {
                    f.ranges.insert(p, r);
                }
            }
            if bits[7] {
                f.temporal.insert(p);
            }
        }
        f
    }

    #[test]
    fn flat_facts_agree_with_the_btree_reference() {
        let universe: Vec<Place> = (0..5)
            .flat_map(|i| [Place::Local(i), Place::Global(i)])
            .collect();
        let mut rng = Rng(0x00c0_ffee);
        for _ in 0..2000 {
            let a = random_facts(&mut rng, &universe);
            let b = random_facts(&mut rng, &universe);
            let (fa, fb) = (a.flat(), b.flat());
            assert_eq!(fa.meet(&fb), a.meet(&b).flat(), "meet of {a:?} and {b:?}");
            assert_eq!(fb.meet(&fa), b.meet(&a).flat(), "meet of {b:?} and {a:?}");
            assert_eq!(fa.meet(&fa), a.meet(&a).flat());
            assert_eq!(fa == fb, a == b);

            let aliased: HashSet<u32> = (0..5).filter(|_| rng.below(2) == 0).collect();
            let (p, q) = (rng.pick(&universe), rng.pick(&universe));
            let agree = |name: &str, f: Facts, r: RefFacts| {
                assert_eq!(f, r.flat(), "{name}({p:?}, {q:?}) on {a:?}");
            };
            let (mut f, mut r) = (fa.clone(), a.clone());
            f.kill(p);
            r.kill(p);
            agree("kill", f, r);
            let (mut f, mut r) = (fa.clone(), a.clone());
            f.kill_memory_write(&aliased);
            r.kill_memory_write(&aliased);
            agree("kill_memory_write", f, r);
            let (mut f, mut r) = (fa.clone(), a.clone());
            f.kill_call(&aliased);
            r.kill_call(&aliased);
            agree("kill_call", f, r);
            let (mut f, mut r) = (fa.clone(), a.clone());
            f.copy_all(p, q);
            r.copy_all(p, q);
            agree("copy_all", f, r);
            let (mut f, mut r) = (fa.clone(), a.clone());
            f.copy_nullness(p, q);
            r.copy_nullness(p, q);
            agree("copy_nullness", f, r);
        }
    }

    #[test]
    fn dominated_null_check_is_elided() {
        let mut prog = lower("int f(int *p) { return 0; }");
        let c1 = null_check(&prog, "p");
        let c2 = null_check(&prog, "p");
        prog.functions[0].body.insert(0, Stmt::Instr(vec![c1, c2]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 1, "the second identical check is redundant");
        assert_eq!(count_checks(&prog), 1);
        assert!(r.failures.is_empty());
    }

    fn temporal_check(prog: &Program, name: &str) -> Instr {
        Instr::Check(
            Check::Temporal {
                ptr: load(prog, name),
            },
            Span::DUMMY,
            SiteId::NONE,
        )
    }

    #[test]
    fn dominated_temporal_check_is_elided() {
        let mut prog = lower("int f(int *p) { return 0; }");
        let c1 = temporal_check(&prog, "p");
        let c2 = temporal_check(&prog, "p");
        prog.functions[0].body.insert(0, Stmt::Instr(vec![c1, c2]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[Temporal], 1,
            "back-to-back key checks are redundant"
        );
        assert_eq!(count_checks(&prog), 1);
    }

    #[test]
    fn any_call_kills_the_temporal_fact_but_not_nullness() {
        // temporal+null before a call, temporal+null after: the callee may
        // `free` p's allocation (temporal check survives elimination), but
        // it cannot change what the unaliased local p points to (the second
        // null check is still dominated).
        let mut prog = lower("extern int g(void);\nint f(int *p, int x) { x = g(); return x; }");
        let call = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Call(..)))),
            )
            .expect("call stmt");
        let before = Stmt::Instr(vec![temporal_check(&prog, "p"), null_check(&prog, "p")]);
        let after = Stmt::Instr(vec![temporal_check(&prog, "p"), null_check(&prog, "p")]);
        prog.functions[0].body.insert(call + 1, after);
        prog.functions[0].body.insert(call, before);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Temporal], 0, "the callee may free p's allocation");
        assert_eq!(r.stats[Null], 1, "nullness of an unaliased local survives");
        assert_eq!(count_checks(&prog), 3);
    }

    #[test]
    fn memory_write_spares_unaliased_temporal_fact() {
        // A store through some *other* pointer cannot free an allocation,
        // and cannot retarget the unaliased local p — the second key check
        // stays redundant across `*q = 1`.
        let mut prog = lower("int f(int *p, int *q) { *q = 1; return 0; }");
        let store = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(lv, ..) if !matches!(lv.base, ccured_cil::ir::LvBase::Local(_))))),
            )
            .expect("indirect store stmt");
        let before = Stmt::Instr(vec![temporal_check(&prog, "p")]);
        let after = Stmt::Instr(vec![temporal_check(&prog, "p")]);
        prog.functions[0].body.insert(store + 1, after);
        prog.functions[0].body.insert(store, before);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Temporal], 1, "a plain store frees nothing");
        assert_eq!(count_checks(&prog), 1);
    }

    #[test]
    fn check_after_both_armed_if_is_elided() {
        let mut prog = lower("int f(int *p, int c) { return 0; }");
        let cond = load(&prog, "c");
        let both = Stmt::If(
            cond.clone(),
            vec![Stmt::Instr(vec![null_check(&prog, "p")])],
            vec![Stmt::Instr(vec![null_check(&prog, "p")])],
        );
        let after = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.splice(0..0, [both, after]);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 1, "only the join check is dominated");
        assert_eq!(count_checks(&prog), 2);
    }

    #[test]
    fn check_after_one_armed_if_is_kept() {
        let mut prog = lower("int f(int *p, int c) { return 0; }");
        let cond = load(&prog, "c");
        let one = Stmt::If(
            cond,
            vec![Stmt::Instr(vec![null_check(&prog, "p")])],
            vec![],
        );
        let after = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.splice(0..0, [one, after]);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 0, "the fact does not hold on the else path");
        assert_eq!(count_checks(&prog), 2);
    }

    #[test]
    fn reassignment_kills_the_fact() {
        let mut prog = lower("int f(int *p, int *q) { p = q; return 0; }");
        // check p; p = q; check p  — the second check must survive.
        let assign = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(..)))),
            )
            .expect("assignment stmt");
        let c1 = Stmt::Instr(vec![null_check(&prog, "p")]);
        let c2 = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.insert(assign + 1, c2);
        prog.functions[0].body.insert(assign, c1);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 0);
        assert_eq!(count_checks(&prog), 2);
    }

    #[test]
    fn copy_propagates_nonnull() {
        let mut prog = lower("int f(int *p, int *q) { q = p; return 0; }");
        // check p; q = p; check q  — q inherits p's fact.
        let assign = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(..)))),
            )
            .expect("assignment stmt");
        let c1 = Stmt::Instr(vec![null_check(&prog, "p")]);
        let c2 = Stmt::Instr(vec![null_check(&prog, "q")]);
        prog.functions[0].body.insert(assign + 1, c2);
        prog.functions[0].body.insert(assign, c1);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 1, "q = p transfers p's nonnull fact");
        assert_eq!(count_checks(&prog), 1);
    }

    #[test]
    fn seq_bounds_elided_only_up_to_verified_size() {
        let mut prog = lower("int f(int *p) { return 0; }");
        let mk = |prog: &Program, size| {
            Instr::Check(
                Check::SeqBounds {
                    ptr: load(prog, "p"),
                    access_size: size,
                },
                Span::DUMMY,
                SiteId::NONE,
            )
        };
        let c8 = mk(&prog, 8);
        let c4 = mk(&prog, 4);
        let c16 = mk(&prog, 16);
        prog.functions[0]
            .body
            .insert(0, Stmt::Instr(vec![c8, c4, c16]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[SeqBounds], 1,
            "only the smaller re-check is covered"
        );
        assert_eq!(count_checks(&prog), 2);
    }

    #[test]
    fn must_null_deref_is_a_static_failure() {
        let mut prog = lower("int f(void) { int *p; p = 0; return 0; }");
        let assign = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(..)))),
            )
            .expect("assignment stmt");
        let c = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.insert(assign + 1, c);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].message.contains("null on every path"));
        assert_eq!(count_checks(&prog), 1, "the failing check is kept");
    }

    #[test]
    fn null_check_of_the_constant_null_is_a_static_failure() {
        // `*(int *)0`: the null check looks through the cast to the
        // constant, which no path makes non-null.
        let mut prog = lower("int f(int *p) { return 0; }");
        let p = load(&prog, "p");
        let int_ty = prog.functions[0].ret_type(&prog.types);
        let zero = Exp::int(0, ccured_cil::types::IntKind::Int, int_ty);
        let ptr = Exp::Cast(CastId(0), Box::new(zero), p.ty());
        let c = Instr::Check(Check::Null { ptr }, Span::DUMMY, SiteId(0));
        prog.functions[0].body.insert(0, Stmt::Instr(vec![c]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.failures.len(), 1);
        assert_eq!(
            r.failures[0].message,
            "dereference of the constant null pointer"
        );
        assert_eq!(
            r.site_keeps.get(&0),
            Some(&KeepReason::AlwaysFails(
                "dereference of the constant null pointer".into()
            ))
        );
        assert_eq!(count_checks(&prog), 1, "the failing check is kept");
    }

    #[test]
    fn constant_oob_index_is_a_static_failure() {
        let mut prog = lower("int f(int i) { return 0; }");
        let idx = load(&prog, "i");
        let int_ty = idx.ty();
        let c = Instr::Check(
            Check::IndexBound {
                index: Exp::int(7, ccured_cil::types::IntKind::Int, int_ty),
                len: 4,
            },
            Span::DUMMY,
            SiteId::NONE,
        );
        prog.functions[0].body.insert(0, Stmt::Instr(vec![c]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].message.contains("out of bounds"));
    }

    #[test]
    fn call_preserves_local_facts_but_kills_globals() {
        let mut prog = lower(
            "int *gp;\n\
             void g(void) { }\n\
             int f(int *p) { g(); return 0; }",
        );
        // f is function index 1 here; rebuild helpers against it.
        let fidx = prog.find_function("f").unwrap().idx();
        let (pi, pl) = prog.functions[fidx]
            .locals
            .iter()
            .enumerate()
            .find(|(_, l)| l.name == "p")
            .unwrap();
        let pload = Exp::Load(Box::new(Lval::local(LocalId(pi as u32))), pl.ty);
        let gid = prog.find_global("gp").unwrap();
        let gty = prog.globals[gid.idx()].ty;
        let gload = Exp::Load(Box::new(Lval::global(gid)), gty);
        let chk = |e: &Exp| Instr::Check(Check::Null { ptr: e.clone() }, Span::DUMMY, SiteId::NONE);
        let call = prog.functions[fidx]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Call(..)))),
            )
            .expect("call stmt");
        prog.functions[fidx]
            .body
            .insert(call + 1, Stmt::Instr(vec![chk(&pload), chk(&gload)]));
        prog.functions[fidx]
            .body
            .insert(call, Stmt::Instr(vec![chk(&pload), chk(&gload)]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[Null], 1,
            "p's fact survives the call, gp's does not"
        );
    }

    #[test]
    fn address_of_is_never_null() {
        let mut prog = lower("int f(void) { int x; x = 1; return x; }");
        let f = &prog.functions[0];
        let (xi, xl) = f
            .locals
            .iter()
            .enumerate()
            .find(|(_, l)| l.name == "x")
            .unwrap();
        let ptr_ty = xl.ty; // type is irrelevant to the decision
        let c = Instr::Check(
            Check::Null {
                ptr: Exp::AddrOf(Box::new(Lval::local(LocalId(xi as u32))), ptr_ty),
            },
            Span::DUMMY,
            SiteId::NONE,
        );
        prog.functions[0].body.insert(0, Stmt::Instr(vec![c]));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 1);
        assert_eq!(count_checks(&prog), 0);
    }

    #[test]
    fn address_taken_local_is_tracked_between_memory_writes() {
        // &p escapes, but between the two checks nothing writes memory, so
        // the second check is still provably redundant (the escape pre-pass
        // tracks p and kills it only at stores through memory and calls).
        let mut prog = lower("int f(int *p) { int **pp; pp = &p; return 0; }");
        let c1 = Stmt::Instr(vec![null_check(&prog, "p")]);
        let c2 = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.splice(0..0, [c1, c2]);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[Null], 1, "no write can intervene: still redundant");
        assert_eq!(count_checks(&prog), 1);
    }

    #[test]
    fn write_through_alias_invalidates_stale_fact() {
        // check p; *pp = q (pp aliases p); check p — the second check must
        // survive: the store through pp may have overwritten p with q,
        // whose nullness is unknown. This is the satellite regression for
        // the old `kill_memory_write` that kept facts for *all* locals.
        let mut prog = lower(
            "int f(int *p, int *q) {\n\
               int **pp;\n\
               pp = &p;\n\
               *pp = q;\n\
               return 0;\n\
             }",
        );
        // Find the store-through-pp instruction (a Set whose destination
        // derefs).
        let store = prog.functions[0]
            .body
            .iter()
            .position(|s| {
                matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(
                    i,
                    Instr::Set(lv, _, _) if matches!(lv.base, LvBase::Deref(_))
                )))
            })
            .expect("store through alias");
        let c2 = Stmt::Instr(vec![null_check(&prog, "p")]);
        let c1 = Stmt::Instr(vec![null_check(&prog, "p")]);
        prog.functions[0].body.insert(store + 1, c2);
        prog.functions[0].body.insert(store, c1);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[Null], 0,
            "the aliasing store kills the nonnull fact"
        );
        assert_eq!(count_checks(&prog), 2);
    }

    fn index_check(prog: &Program, name: &str, len: u64) -> Instr {
        Instr::Check(
            Check::IndexBound {
                index: load(prog, name),
                len,
            },
            Span::DUMMY,
            SiteId::NONE,
        )
    }

    #[test]
    fn range_facts_survive_arithmetic() {
        // i = 1; i = i + 2; a[i] with len 4: the interval [3, 3] proves the
        // index in bounds even though i is not a constant expression at the
        // check.
        let mut prog = lower("int f(void) { int i; i = 1; i = i + 2; return i; }");
        let c = Stmt::Instr(vec![index_check(&prog, "i", 4)]);
        let last_set = prog.functions[0]
            .body
            .iter()
            .rposition(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(..)))),
            )
            .expect("assignment");
        prog.functions[0].body.insert(last_set + 1, c);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.stats[IndexBound], 1, "interval [3,3] is within [0,3]");
        assert!(r.failures.is_empty());
    }

    #[test]
    fn branch_refinement_bounds_the_index() {
        // f(int i): nothing is known about i, but inside
        // `if (0 <= i) if (i < 4) ...` the branch edges pin i to [0, 3].
        let mut prog = lower(
            "int f(int i) {\n\
               if (0 <= i) { if (i < 4) { i = i + 0; } }\n\
               return i;\n\
             }",
        );
        let chk = index_check(&prog, "i", 4);
        fn push_into_innermost_if(body: &mut [Stmt], chk: &Instr) -> bool {
            for s in body {
                if let Stmt::If(_, t, _) = s {
                    if push_into_innermost_if(t, chk) {
                        return true;
                    }
                    t.insert(0, Stmt::Instr(vec![chk.clone()]));
                    return true;
                }
                if let Stmt::Block(b) = s {
                    if push_into_innermost_if(b, chk) {
                        return true;
                    }
                }
            }
            false
        }
        assert!(push_into_innermost_if(&mut prog.functions[0].body, &chk));
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[IndexBound], 1,
            "both guarding branches prove 0 <= i < 4"
        );
    }

    #[test]
    fn range_disjoint_from_array_is_a_static_failure() {
        let mut prog = lower("int f(void) { int i; i = 9; return i; }");
        let c = Stmt::Instr(vec![index_check(&prog, "i", 4)]);
        let set = prog.functions[0]
            .body
            .iter()
            .position(
                |s| matches!(s, Stmt::Instr(is) if is.iter().any(|i| matches!(i, Instr::Set(..)))),
            )
            .expect("assignment");
        prog.functions[0].body.insert(set + 1, c);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].message.contains("out of bounds"));
        assert_eq!(count_checks(&prog), 1, "the failing check is kept");
    }

    #[test]
    fn loop_body_check_of_loop_invariant_pointer_is_kept_first_elided_after() {
        // check p inside a loop: the back edge carries the fact, so the
        // in-loop check is elided only if it also holds on loop entry.
        let mut prog =
            lower("int f(int *p, int n) { int i; i = 0; while (i < n) { i = i + 1; } return 0; }");
        let pre = Stmt::Instr(vec![null_check(&prog, "p")]);
        // Insert the pre-loop check at the very start, and one inside the
        // loop body.
        let inner = null_check(&prog, "p");
        // Clippy's guard suggestion needs a mutable borrow in the pattern
        // guard, which does not borrow-check.
        #[allow(clippy::collapsible_match)]
        fn push_into_loop(body: &mut [Stmt], inner: &Instr) -> bool {
            for s in body {
                match s {
                    Stmt::Loop(b) => {
                        b.insert(0, Stmt::Instr(vec![inner.clone()]));
                        return true;
                    }
                    Stmt::Block(b) | Stmt::If(_, b, _) => {
                        if push_into_loop(b, inner) {
                            return true;
                        }
                    }
                    _ => {}
                }
            }
            false
        }
        assert!(push_into_loop(&mut prog.functions[0].body, &inner));
        prog.functions[0].body.insert(0, pre);
        let r = optimize_program(&mut prog, false).elision;
        assert_eq!(
            r.stats[Null], 1,
            "the in-loop check is dominated by the pre-loop check"
        );
    }

    /// The reason recorded for site 0 when `checks` (all stamped with that
    /// site) open the body of function 0.
    fn site_reason(prog: &mut Program, checks: Vec<Check>) -> Option<KeepReason> {
        let instrs = checks
            .into_iter()
            .map(|c| Instr::Check(c, Span::DUMMY, SiteId(0)))
            .collect();
        prog.functions[0].body.insert(0, Stmt::Instr(instrs));
        optimize_program(prog, false).elision.site_keeps.remove(&0)
    }

    fn seq_bounds(ptr: Exp) -> Check {
        Check::SeqBounds {
            ptr,
            access_size: 4,
        }
    }

    fn untracked_reason(shape: OperandShape) -> Option<KeepReason> {
        Some(KeepReason::Untracked(shape))
    }

    #[test]
    fn pointer_arithmetic_operand_is_named() {
        let mut prog = lower("int f(int *p, int i) { return 0; }");
        let (p, i) = (load(&prog, "p"), load(&prog, "i"));
        let ty = p.ty();
        let arith = Exp::Binop(BinOp::PlusPI, Box::new(p), Box::new(i), ty);
        assert_eq!(
            site_reason(&mut prog, vec![seq_bounds(arith)]),
            untracked_reason(OperandShape::PtrArith)
        );
    }

    #[test]
    fn aggregate_part_operand_is_named() {
        let mut prog = lower("int f(int *p) { return 0; }");
        let Exp::Load(lv, ty) = load(&prog, "p") else {
            unreachable!()
        };
        // A field of a local (the types are irrelevant to the decision).
        let mut field = *lv;
        field
            .offsets
            .push(Offset::Field(ccured_cil::types::CompId(0), 0));
        let ptr = Exp::Load(Box::new(field), ty);
        assert_eq!(
            site_reason(&mut prog, vec![Check::Null { ptr }]),
            untracked_reason(OperandShape::AggregatePart)
        );
    }

    #[test]
    fn operand_loaded_through_memory_is_named() {
        let mut prog = lower("int f(int **pp) { return 0; }");
        let pp = load(&prog, "pp");
        let ty = pp.ty();
        let ptr = Exp::Load(Box::new(Lval::deref(pp)), ty);
        assert_eq!(
            site_reason(&mut prog, vec![Check::Temporal { ptr }]),
            untracked_reason(OperandShape::ThroughMemory)
        );
    }

    #[test]
    fn address_taken_global_operand_is_named() {
        let mut prog = lower("int *gp;\nint f(void) { int **pp; pp = &gp; return 0; }");
        let g = prog.find_global("gp").unwrap();
        let ptr = Exp::Load(Box::new(Lval::global(g)), prog.globals[g.idx()].ty);
        assert_eq!(
            site_reason(&mut prog, vec![Check::Null { ptr }]),
            untracked_reason(OperandShape::AddrTakenGlobal)
        );
    }

    #[test]
    fn cast_operand_is_named_only_where_casts_are_not_looked_through() {
        let mut prog = lower("int f(int *p) { return 0; }");
        let p = load(&prog, "p");
        let ty = p.ty();
        let cast = Exp::Cast(CastId(0), Box::new(p), ty);
        assert_eq!(
            site_reason(&mut prog, vec![seq_bounds(cast.clone())]),
            untracked_reason(OperandShape::Cast)
        );
        // A null check sees through the cast to the tracked parameter.
        let mut prog = lower("int f(int *p) { return 0; }");
        assert_eq!(
            site_reason(&mut prog, vec![Check::Null { ptr: cast }]),
            Some(KeepReason::Unproven(CheckKind::Null))
        );
    }

    #[test]
    fn address_operand_is_named() {
        let mut prog = lower("int f(void) { int a[4]; a[0] = 1; return a[0]; }");
        let f = &prog.functions[0];
        let (ai, al) = f
            .locals
            .iter()
            .enumerate()
            .find(|(_, l)| l.name == "a")
            .unwrap();
        let ptr = Exp::StartOf(Box::new(Lval::local(LocalId(ai as u32))), al.ty);
        assert_eq!(
            site_reason(&mut prog, vec![seq_bounds(ptr)]),
            untracked_reason(OperandShape::Other)
        );
    }

    #[test]
    fn a_site_keeps_the_reason_of_its_first_kept_check() {
        // `p[i] + *q` stamps both bounds checks with one site: the first
        // kept check (on `p +p i`) gives the site its reason, not `*q`.
        let mut prog = lower("int sum2(int *p, int *q, int i) { return p[i] + *q; }");
        let (p, q, i) = (load(&prog, "p"), load(&prog, "q"), load(&prog, "i"));
        let ty = p.ty();
        let arith = Exp::Binop(BinOp::PlusPI, Box::new(p), Box::new(i), ty);
        assert_eq!(
            site_reason(&mut prog, vec![seq_bounds(arith), seq_bounds(q)]),
            untracked_reason(OperandShape::PtrArith)
        );
    }

    #[test]
    fn a_check_in_unreachable_code_says_so() {
        let mut prog = lower("int f(int *p) { return 1; return *p; }");
        let dead = prog.functions[0]
            .body
            .iter()
            .rposition(|s| matches!(s, Stmt::Return(..)))
            .expect("the second return");
        let c = Instr::Check(
            Check::Null {
                ptr: load(&prog, "p"),
            },
            Span::DUMMY,
            SiteId(0),
        );
        prog.functions[0].body.insert(dead, Stmt::Instr(vec![c]));
        let mut r = optimize_program(&mut prog, false).elision;
        assert_eq!(r.site_keeps.remove(&0), Some(KeepReason::Unreachable));
        assert_eq!(count_checks(&prog), 1, "dead code keeps its checks");
    }
}
