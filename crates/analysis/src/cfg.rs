//! Control-flow graph construction over the structured CIL statement tree.
//!
//! The IR keeps `if`/`loop`/`switch` structured (plus `goto`/labels for the
//! irreducible cases), so analyses first flatten a function body into basic
//! blocks here. Every instruction is identified by a [`InstrId`]: its index
//! in a syntactic depth-first walk of the body. The walk order is a public
//! contract — [`for_each_instr_mut`] replays the same numbering over a
//! mutable body so a rewrite pass can act on decisions made against the CFG.
//!
//! A [`Cfg`] borrows the function it was built from: blocks hold references
//! to the body's instructions and branch conditions, so building one copies
//! no IR.

use ccured_cil::ir::{Exp, Function, Instr, Stmt};
use ccured_cil::visit;
use std::collections::HashMap;

/// Index of a basic block in [`Cfg::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identity of an instruction: its position in the syntactic depth-first
/// walk of the function body (statement order; `if` visits the then-branch
/// before the else-branch, `switch` visits arms in declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

/// A conditional terminator: the block ends in a two-way branch on `cond`.
/// Recorded so edge-sensitive analyses (the value-range domain) can refine
/// facts differently along the taken and fall-through edges.
#[derive(Debug, Clone)]
pub struct Branch<'f> {
    /// The branch condition, as written.
    pub cond: &'f Exp,
    /// Successor taken when `cond` is non-zero.
    pub on_true: BlockId,
    /// Successor taken when `cond` is zero.
    pub on_false: BlockId,
}

/// A basic block: straight-line instructions plus successor edges.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock<'f> {
    /// The block's instructions, tagged with their syntactic identity.
    pub instrs: Vec<(InstrId, &'f Instr)>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// The conditional terminator, when the block ends in an `if`.
    pub branch: Option<Branch<'f>>,
}

/// A function body flattened into basic blocks.
#[derive(Debug, Clone)]
pub struct Cfg<'f> {
    /// All blocks; [`Cfg::entry`] is the function entry.
    pub blocks: Vec<BasicBlock<'f>>,
    /// The entry block (always `BlockId(0)`).
    pub entry: BlockId,
}

impl<'f> Cfg<'f> {
    /// Builds the CFG of `f`'s body.
    pub fn build(f: &'f Function) -> Cfg<'f> {
        let mut b = Builder {
            blocks: vec![BasicBlock::default()],
            cur: Some(BlockId(0)),
            labels: HashMap::new(),
            next_instr: 0,
            frames: Vec::new(),
        };
        b.stmts(&f.body);
        for blk in &mut b.blocks {
            blk.succs.sort();
            blk.succs.dedup();
        }
        Cfg {
            blocks: b.blocks,
            entry: BlockId(0),
        }
    }
}

/// A loop or switch context while building.
struct Frame {
    /// Where `break` jumps.
    break_to: BlockId,
    /// Where `continue` jumps (`None` inside a switch).
    continue_to: Option<BlockId>,
}

struct Builder<'f> {
    blocks: Vec<BasicBlock<'f>>,
    /// The block under construction; `None` right after a terminator (the
    /// following code is unreachable unless it carries a label).
    cur: Option<BlockId>,
    labels: HashMap<&'f str, BlockId>,
    next_instr: u32,
    frames: Vec<Frame>,
}

impl<'f> Builder<'f> {
    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::default());
        id
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        self.blocks[from.idx()].succs.push(to);
    }

    /// The current block, creating a fresh predecessor-less one when the
    /// walk sits in dead code (instructions there still get numbered so the
    /// ids line up with [`for_each_instr_mut`]).
    fn cur_block(&mut self) -> BlockId {
        match self.cur {
            Some(b) => b,
            None => {
                let b = self.new_block();
                self.cur = Some(b);
                b
            }
        }
    }

    fn label_block(&mut self, name: &'f str) -> BlockId {
        if let Some(&b) = self.labels.get(name) {
            return b;
        }
        let b = self.new_block();
        self.labels.insert(name, b);
        b
    }

    fn stmts(&mut self, body: &'f [Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'f Stmt) {
        match s {
            Stmt::Instr(is) => {
                let b = self.cur_block();
                for i in is {
                    let id = InstrId(self.next_instr);
                    self.next_instr += 1;
                    self.blocks[b.idx()].instrs.push((id, i));
                }
            }
            Stmt::If(cond, t, e) => {
                let from = self.cur_block();
                let then_b = self.new_block();
                let else_b = self.new_block();
                self.edge(from, then_b);
                self.edge(from, else_b);
                self.blocks[from.idx()].branch = Some(Branch {
                    cond,
                    on_true: then_b,
                    on_false: else_b,
                });
                self.cur = Some(then_b);
                self.stmts(t);
                let then_end = self.cur;
                self.cur = Some(else_b);
                self.stmts(e);
                let else_end = self.cur;
                let join = self.new_block();
                if let Some(b) = then_end {
                    self.edge(b, join);
                }
                if let Some(b) = else_end {
                    self.edge(b, join);
                }
                self.cur = Some(join);
            }
            Stmt::Loop(body) => {
                let from = self.cur_block();
                let head = self.new_block();
                let exit = self.new_block();
                self.edge(from, head);
                self.frames.push(Frame {
                    break_to: exit,
                    continue_to: Some(head),
                });
                self.cur = Some(head);
                self.stmts(body);
                if let Some(b) = self.cur {
                    self.edge(b, head);
                }
                self.frames.pop();
                self.cur = Some(exit);
            }
            Stmt::Break => {
                if let Some(frame) = self.frames.last() {
                    let target = frame.break_to;
                    let b = self.cur_block();
                    self.edge(b, target);
                }
                self.cur = None;
            }
            Stmt::Continue => {
                let target = self.frames.iter().rev().find_map(|f| f.continue_to);
                if let Some(target) = target {
                    let b = self.cur_block();
                    self.edge(b, target);
                }
                self.cur = None;
            }
            Stmt::Return(_) => {
                self.cur = None;
            }
            Stmt::Goto(name) => {
                let target = self.label_block(name);
                let b = self.cur_block();
                self.edge(b, target);
                self.cur = None;
            }
            Stmt::Label(name) => {
                let target = self.label_block(name);
                if let Some(b) = self.cur {
                    self.edge(b, target);
                }
                self.cur = Some(target);
            }
            Stmt::Switch(_, arms) => {
                let from = self.cur_block();
                let exit = self.new_block();
                let starts: Vec<BlockId> = arms.iter().map(|_| self.new_block()).collect();
                for &s in &starts {
                    self.edge(from, s);
                }
                if !arms.iter().any(|a| a.values.is_empty()) {
                    // No default arm: the scrutinee may match nothing.
                    self.edge(from, exit);
                }
                self.frames.push(Frame {
                    break_to: exit,
                    continue_to: None,
                });
                for (i, arm) in arms.iter().enumerate() {
                    self.cur = Some(starts[i]);
                    self.stmts(&arm.body);
                    if let Some(b) = self.cur {
                        // C fallthrough into the next arm (or off the end).
                        let next = starts.get(i + 1).copied().unwrap_or(exit);
                        self.edge(b, next);
                    }
                }
                self.frames.pop();
                self.cur = Some(exit);
            }
            Stmt::Block(body) => self.stmts(body),
        }
    }
}

/// Replays the [`InstrId`] numbering over a mutable body, calling `keep` for
/// every instruction in the same depth-first order [`Cfg::build`] used;
/// instructions for which `keep` returns `false` are removed.
pub fn for_each_instr_mut(body: &mut [Stmt], keep: &mut impl FnMut(InstrId, &Instr) -> bool) {
    let mut next = 0u32;
    visit::for_each_instr_run_mut(body, &mut |is| {
        is.retain(|i| {
            let id = InstrId(next);
            next += 1;
            keep(id, i)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(src: &str) -> Function {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        prog.functions[0].clone()
    }

    /// All instruction ids must be 0..n in depth-first order, and the
    /// mutable replay must see the exact same numbering.
    fn assert_numbering_roundtrip(f: &Function, cfg: &Cfg) {
        let mut ids: Vec<InstrId> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(|(id, _)| *id))
            .collect();
        ids.sort();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, i, "ids must be dense");
        }
        let mut body = f.body.to_vec();
        let mut seen = Vec::new();
        for_each_instr_mut(&mut body, &mut |id, _| {
            seen.push(id);
            true
        });
        assert_eq!(seen.len(), ids.len(), "replay must visit every instr");
    }

    #[test]
    fn straight_line_is_one_block() {
        let f = func("int main(void) { int x; x = 1; x = 2; return x; }");
        let cfg = Cfg::build(&f);
        assert_numbering_roundtrip(&f, &cfg);
        assert!(cfg.blocks[cfg.entry.idx()].instrs.len() >= 2);
    }

    #[test]
    fn if_produces_diamond() {
        let f =
            func("int main(void) { int x; x = 1; if (x) { x = 2; } else { x = 3; } return x; }");
        let cfg = Cfg::build(&f);
        assert_numbering_roundtrip(&f, &cfg);
        let entry = &cfg.blocks[cfg.entry.idx()];
        assert_eq!(entry.succs.len(), 2, "if forks the entry block");
        // Both arms must rejoin at a single block.
        let joins: Vec<_> = entry
            .succs
            .iter()
            .map(|s| cfg.blocks[s.idx()].succs.clone())
            .collect();
        assert_eq!(joins[0], joins[1], "arms rejoin");
    }

    #[test]
    fn loop_back_edge_exists() {
        let f = func("int main(void) { int i; i = 0; while (i < 4) { i = i + 1; } return i; }");
        let cfg = Cfg::build(&f);
        assert_numbering_roundtrip(&f, &cfg);
        // Some block must have a successor with a smaller or equal id that is
        // not the entry: the loop back edge.
        let back = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|s| s.idx() <= i && s.idx() != 0));
        assert!(back, "while loop produces a back edge");
    }

    #[test]
    fn switch_fans_out_to_arms() {
        let f = func(
            "int main(void) { int x; int r; x = 2; r = 0;\n\
             switch (x) { case 1: r = 1; break; case 2: r = 2; break; default: r = 9; }\n\
             return r; }",
        );
        let cfg = Cfg::build(&f);
        assert_numbering_roundtrip(&f, &cfg);
        let fan = cfg.blocks.iter().map(|b| b.succs.len()).max().unwrap();
        assert!(fan >= 3, "switch block fans out to all arms, got {fan}");
    }

    #[test]
    fn goto_targets_label_block() {
        let f = func("int main(void) { int x; x = 0; goto done; x = 1; done: return x; }");
        let cfg = Cfg::build(&f);
        assert_numbering_roundtrip(&f, &cfg);
        // The dead `x = 1` lands in a predecessor-less block.
        let mut preds = vec![Vec::new(); cfg.blocks.len()];
        for (i, blk) in cfg.blocks.iter().enumerate() {
            for s in &blk.succs {
                preds[s.idx()].push(BlockId(i as u32));
            }
        }
        let dead = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| !b.instrs.is_empty() && preds[i].is_empty() && i != 0);
        assert!(dead, "code after goto is predecessor-less");
    }

    #[test]
    fn if_block_records_its_branch() {
        let f = func(
            "int main(void) { int x; x = 1; if (x < 2) { x = 2; } else { x = 3; } return x; }",
        );
        let cfg = Cfg::build(&f);
        let entry = &cfg.blocks[cfg.entry.idx()];
        let br = entry.branch.as_ref().expect("entry ends in a branch");
        assert_eq!(entry.succs.len(), 2);
        assert!(entry.succs.contains(&br.on_true));
        assert!(entry.succs.contains(&br.on_false));
        assert_ne!(br.on_true, br.on_false);
    }

    #[test]
    fn removal_via_replay_drops_selected_instr() {
        let f = func("int main(void) { int x; x = 1; x = 2; return x; }");
        let mut body = f.body.to_vec();
        let mut total = 0usize;
        for_each_instr_mut(&mut body, &mut |_, _| {
            total += 1;
            true
        });
        let drop_id = InstrId(0);
        let mut kept = 0usize;
        for_each_instr_mut(&mut body, &mut |id, _| {
            if id == drop_id {
                false
            } else {
                kept += 1;
                true
            }
        });
        assert_eq!(kept, total - 1);
    }
}
