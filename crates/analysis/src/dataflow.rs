//! A generic intraprocedural forward-dataflow framework.
//!
//! Facts live on a meet-semilattice ([`Lattice`]); an [`Analysis`] supplies
//! the entry fact and a per-instruction transfer function; [`forward`] runs
//! a worklist to fixpoint over a [`Cfg`] and returns the fact at entry to
//! every block. Unreachable blocks get `None` (the implicit top element), so
//! must-analyses stay precise on the reachable portion without a special
//! "unreachable" value inside every fact type.

use crate::cfg::{BlockId, Cfg, InstrId};
use ccured_cil::ir::{Exp, Instr};
use std::collections::VecDeque;

/// A meet-semilattice of dataflow facts.
///
/// For a must-analysis the meet is set intersection: a fact survives a join
/// point only when it holds on every incoming path. `meet` must be
/// associative and idempotent, and the lattice must have no infinite
/// descending chains reachable from the facts a program generates (all our
/// facts are finite sets drawn from the program text). One sanctioned
/// deviation from commutativity: a meet may *widen* — compare against the
/// old fact (`self`) and jump straight to a coarser value when a component
/// keeps growing, as the value-range domain does. Widening only accelerates
/// descent, so the fixpoint stays a sound (if less precise) solution.
pub trait Lattice: Clone + PartialEq {
    /// Greatest lower bound of two facts.
    fn meet(&self, other: &Self) -> Self;
}

/// A forward dataflow analysis: an entry fact plus a transfer function.
pub trait Analysis {
    /// The fact type.
    type Fact: Lattice;

    /// The fact holding at function entry.
    fn entry_fact(&self) -> Self::Fact;

    /// Transforms `fact` (the state *before* `instr`) into the state after.
    fn transfer(&mut self, id: InstrId, instr: &Instr, fact: &mut Self::Fact);

    /// Refines `fact` along a conditional edge: `cond` is the branch
    /// condition of the block just left, and `taken` says whether this edge
    /// is the true (`if` body) or false (`else`) side. The refinement must
    /// only *strengthen* the fact with what the branch outcome proves (e.g.
    /// `i < n` bounds `i`'s range on the true edge). The default is a
    /// no-op.
    fn refine_edge(&mut self, cond: &Exp, taken: bool, fact: &mut Self::Fact) {
        let _ = (cond, taken, fact);
    }
}

/// Runs `analysis` forward over `cfg` to fixpoint.
///
/// Returns the fact at the *entry* of each block; `None` means the block is
/// unreachable from the function entry. To obtain the state at a particular
/// instruction, re-apply the transfer function from the block entry (see
/// [`crate::elim`] for the pattern).
///
/// Blocks are visited in FIFO worklist order. The order is part of the
/// result, not just of the cost: a widening meet depends on which fact
/// arrives first, so another order can reach a different fixpoint.
pub fn forward<A: Analysis>(cfg: &Cfg, analysis: &mut A) -> Vec<Option<A::Fact>> {
    let n = cfg.blocks.len();
    let mut entry: Vec<Option<A::Fact>> = vec![None; n];
    entry[cfg.entry.idx()] = Some(analysis.entry_fact());

    let mut queue: VecDeque<BlockId> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(cfg.entry);
    queued[cfg.entry.idx()] = true;

    while let Some(b) = queue.pop_front() {
        queued[b.idx()] = false;
        let block = &cfg.blocks[b.idx()];
        let Some(mut fact) = entry[b.idx()].clone() else {
            continue;
        };
        for &(id, instr) in &block.instrs {
            analysis.transfer(id, instr, &mut fact);
        }
        let Some((&last, rest)) = block.succs.split_last() else {
            continue;
        };
        // Every successor but the last gets a copy; the last takes `fact`.
        let mut flow = |s: BlockId, mut fact: A::Fact| {
            if let Some(br) = &block.branch {
                if br.on_true != br.on_false {
                    if s == br.on_true {
                        analysis.refine_edge(br.cond, true, &mut fact);
                    } else if s == br.on_false {
                        analysis.refine_edge(br.cond, false, &mut fact);
                    }
                }
            }
            let changed = match &mut entry[s.idx()] {
                slot @ None => {
                    *slot = Some(fact);
                    true
                }
                Some(old) => {
                    let merged = old.meet(&fact);
                    let changed = merged != *old;
                    if changed {
                        *old = merged;
                    }
                    changed
                }
            };
            if changed && !queued[s.idx()] {
                queue.push_back(s);
                queued[s.idx()] = true;
            }
        };
        for &s in rest {
            flow(s, fact.clone());
        }
        flow(last, fact);
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use ccured_cil::ir::{Instr, LvBase, Program};
    use std::collections::BTreeSet;

    /// A toy must-analysis: the set of locals assigned on *every* path.
    #[derive(Default)]
    struct MustAssigned;

    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    struct Assigned(BTreeSet<u32>);

    impl Lattice for Assigned {
        fn meet(&self, other: &Self) -> Self {
            Assigned(self.0.intersection(&other.0).cloned().collect())
        }
    }

    impl Analysis for MustAssigned {
        type Fact = Assigned;

        fn entry_fact(&self) -> Assigned {
            Assigned::default()
        }

        fn transfer(&mut self, _id: InstrId, instr: &Instr, fact: &mut Assigned) {
            if let Instr::Set(lv, _, _) = instr {
                if lv.offsets.is_empty() {
                    if let LvBase::Local(l) = &lv.base {
                        fact.0.insert(l.0);
                    }
                }
            }
        }
    }

    fn prog_of(src: &str) -> Program {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        ccured_cil::lower_translation_unit(&tu).expect("lower")
    }

    /// Collects the fixpoint fact at every reachable block exit.
    fn exits(src: &str) -> Vec<Assigned> {
        let prog = prog_of(src);
        let cfg = Cfg::build(&prog.functions[0]);
        let mut a = MustAssigned;
        let entries = forward(&cfg, &mut a);
        cfg.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let mut f = entries[i].clone()?;
                for &(id, instr) in &b.instrs {
                    a.transfer(id, instr, &mut f);
                }
                Some(f)
            })
            .collect()
    }

    #[test]
    fn both_arms_must_assign() {
        // x is assigned on both paths, y only on one: at the join, the
        // must-set contains x's slot but not y's.
        let outs = exits(
            "int main(void) { int c; int x; int y; c = 1;\n\
             if (c) { x = 1; y = 1; } else { x = 2; }\n\
             return x; }",
        );
        // The largest exit set on a path through the then-branch holds both;
        // some reachable block (the join) holds x but must have dropped y.
        let max = outs.iter().map(|a| a.0.len()).max().unwrap();
        assert!(max >= 3, "then-branch sees c, x, y");
        let has_intersected = outs.iter().any(|a| a.0.len() == 2);
        assert!(has_intersected, "join intersects away the one-armed y");
    }

    #[test]
    fn loop_reaches_fixpoint() {
        let outs = exits(
            "int main(void) { int i; i = 0;\n\
             while (i < 10) { i = i + 1; }\n\
             return i; }",
        );
        assert!(!outs.is_empty());
        // Every reachable exit fact contains i (slot of the only local that
        // is assigned before and inside the loop).
        assert!(outs.iter().all(|a| !a.0.is_empty()));
    }

    #[test]
    fn unreachable_blocks_stay_none() {
        let prog = prog_of("int main(void) { int x; x = 0; goto done; x = 1; done: return x; }");
        let cfg = Cfg::build(&prog.functions[0]);
        let mut a = MustAssigned;
        let entries = forward(&cfg, &mut a);
        let unreachable = entries.iter().filter(|e| e.is_none()).count();
        assert!(unreachable >= 1, "the dead store block is never reached");
    }
}
