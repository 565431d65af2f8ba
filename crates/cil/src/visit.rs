//! The one pre-order walk over a function body.
//!
//! Passes that only *visit* the IR — the optimizer's pre-passes, inference
//! and SPLIT seeding, wrapper redirection, the link audit, lowering's
//! forward-call fixup, the runtime's frame scan — go through these
//! functions, so which children an `If`, `Loop`, `Switch`, instruction,
//! lvalue and check have is written down once. Passes that decide something
//! per node (the execution engines, the bytecode compiler, the printer, the
//! CFG builder, the loop optimizer's guard planting, instrumentation, the
//! fault-injection surgeon) keep their own recursion.
//!
//! # Order
//!
//! Every walk visits a node before its children, and children in this
//! order:
//!
//! * a statement list: its statements in order;
//! * `If`: the condition, then the then-arm, then the else-arm;
//! * `Switch`: the scrutinee, then the arms in order;
//! * `Loop` and `Block`: the body; `Return`: its value;
//! * `Set`: the lvalue, then the right-hand side;
//! * `Call`: the result lvalue, then the callee pointer, then the arguments;
//! * `Check`: its [`Check::operand`]; `Probe` and `Guarded` recurse into
//!   their inner checks;
//! * an lvalue: the `Deref` base, then the `Index` offsets;
//! * an expression: its operands left to right.
//!
//! Instructions are therefore reached in the order the analysis crate's CFG
//! numbers them, and the shared and mutable walks reach the same nodes in
//! the same order.

use crate::ir::{Callee, Check, Exp, Init, Instr, LvBase, Lval, Offset, Stmt};

/// Calls `f` on every statement of `body`, each before the statements it
/// contains.
pub fn for_each_stmt<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::If(_, t, e) => {
                for_each_stmt(t, f);
                for_each_stmt(e, f);
            }
            Stmt::Loop(b) | Stmt::Block(b) => for_each_stmt(b, f),
            Stmt::Switch(_, arms) => {
                for arm in arms {
                    for_each_stmt(&arm.body, f);
                }
            }
            _ => {}
        }
    }
}

fn for_each_stmt_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::If(_, t, e) => {
                for_each_stmt_mut(t, f);
                for_each_stmt_mut(e, f);
            }
            Stmt::Loop(b) | Stmt::Block(b) => for_each_stmt_mut(b, f),
            Stmt::Switch(_, arms) => {
                for arm in arms {
                    for_each_stmt_mut(&mut arm.body, f);
                }
            }
            _ => {}
        }
    }
}

/// Calls `f` on every instruction of `body`.
pub fn for_each_instr<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Instr)) {
    for_each_stmt(body, &mut |s| {
        if let Stmt::Instr(is) = s {
            is.iter().for_each(&mut *f);
        }
    });
}

/// Calls `f` on every run of straight-line instructions (`Stmt::Instr`) of
/// `body`, which it may edit in place.
pub fn for_each_instr_run_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Vec<Instr>)) {
    for_each_stmt_mut(body, &mut |s| {
        if let Stmt::Instr(is) = s {
            f(is);
        }
    });
}

/// Calls `f` on every expression node of `body`, check operands included,
/// each before its operands.
pub fn for_each_exp<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Exp)) {
    for_each_stmt(body, &mut |s| match s {
        Stmt::Instr(is) => {
            for i in is {
                match i {
                    Instr::Set(lv, e, _) => {
                        lval(lv, f);
                        exp(e, f);
                    }
                    Instr::Call(ret, callee, args, _) => {
                        if let Some(lv) = ret {
                            lval(lv, f);
                        }
                        if let Callee::Ptr(e) = callee {
                            exp(e, f);
                        }
                        for a in args {
                            exp(a, f);
                        }
                    }
                    Instr::Check(c, _, _) => check(c, f),
                }
            }
        }
        Stmt::If(e, ..) | Stmt::Switch(e, _) | Stmt::Return(Some(e)) => exp(e, f),
        _ => {}
    });
}

/// [`for_each_exp`] over a mutable body: `f` may replace the node it is
/// given, and the walk then descends into the replacement.
pub fn for_each_exp_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Exp)) {
    for_each_stmt_mut(body, &mut |s| match s {
        Stmt::Instr(is) => {
            for i in is {
                match i {
                    Instr::Set(lv, e, _) => {
                        lval_mut(lv, f);
                        exp_mut(e, f);
                    }
                    Instr::Call(ret, callee, args, _) => {
                        if let Some(lv) = ret {
                            lval_mut(lv, f);
                        }
                        if let Callee::Ptr(e) = callee {
                            exp_mut(e, f);
                        }
                        for a in args {
                            exp_mut(a, f);
                        }
                    }
                    Instr::Check(c, _, _) => check_mut(c, f),
                }
            }
        }
        Stmt::If(e, ..) | Stmt::Switch(e, _) | Stmt::Return(Some(e)) => exp_mut(e, f),
        _ => {}
    });
}

/// Calls `f` on every expression node of a global initializer, in element
/// order.
pub fn for_each_init_exp<'a>(init: &'a Init, f: &mut impl FnMut(&'a Exp)) {
    match init {
        Init::Scalar(e) => exp(e, f),
        Init::Compound(items) => {
            for i in items {
                for_each_init_exp(i, f);
            }
        }
        Init::String(_) => {}
    }
}

/// [`for_each_init_exp`] over a mutable initializer.
pub fn for_each_init_exp_mut(init: &mut Init, f: &mut impl FnMut(&mut Exp)) {
    match init {
        Init::Scalar(e) => exp_mut(e, f),
        Init::Compound(items) => {
            for i in items {
                for_each_init_exp_mut(i, f);
            }
        }
        Init::String(_) => {}
    }
}

fn check<'a>(c: &'a Check, f: &mut impl FnMut(&'a Exp)) {
    match c {
        Check::Probe { inner, .. } => {
            for c in inner {
                check(c, f);
            }
        }
        Check::Guarded { inner, .. } => check(inner, f),
        _ => {
            if let Some(e) = c.operand() {
                exp(e, f);
            }
        }
    }
}

fn check_mut(c: &mut Check, f: &mut impl FnMut(&mut Exp)) {
    match c {
        Check::Probe { inner, .. } => {
            for c in inner {
                check_mut(c, f);
            }
        }
        Check::Guarded { inner, .. } => check_mut(inner, f),
        _ => {
            if let Some(e) = c.operand_mut() {
                exp_mut(e, f);
            }
        }
    }
}

fn lval<'a>(lv: &'a Lval, f: &mut impl FnMut(&'a Exp)) {
    if let LvBase::Deref(e) = &lv.base {
        exp(e, f);
    }
    for off in &lv.offsets {
        if let Offset::Index(e) = off {
            exp(e, f);
        }
    }
}

fn lval_mut(lv: &mut Lval, f: &mut impl FnMut(&mut Exp)) {
    if let LvBase::Deref(e) = &mut lv.base {
        exp_mut(e, f);
    }
    for off in &mut lv.offsets {
        if let Offset::Index(e) = off {
            exp_mut(e, f);
        }
    }
}

fn exp<'a>(e: &'a Exp, f: &mut impl FnMut(&'a Exp)) {
    f(e);
    match e {
        Exp::Load(lv, _) | Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) => lval(lv, f),
        Exp::Unop(_, x, _) | Exp::Cast(_, x, _) => exp(x, f),
        Exp::Binop(_, x, y, _) => {
            exp(x, f);
            exp(y, f);
        }
        Exp::Const(..) | Exp::FnAddr(..) | Exp::SizeOf(..) => {}
    }
}

fn exp_mut(e: &mut Exp, f: &mut impl FnMut(&mut Exp)) {
    f(e);
    match e {
        Exp::Load(lv, _) | Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) => lval_mut(lv, f),
        Exp::Unop(_, x, _) | Exp::Cast(_, x, _) => exp_mut(x, f),
        Exp::Binop(_, x, y, _) => {
            exp_mut(x, f);
            exp_mut(y, f);
        }
        Exp::Const(..) | Exp::FnAddr(..) | Exp::SizeOf(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, CastId, Const, LocalId, SiteId, SwitchArm, UnOp};
    use crate::types::{CompId, IntKind, TypeId};
    use ccured_ast::Span;

    /// An `int` constant: the markers whose visit order the tests read.
    fn c(n: i128) -> Exp {
        Exp::int(n, IntKind::Int, TypeId(0))
    }

    fn label(e: &Exp) -> String {
        match e {
            Exp::Const(Const::Int(n, _), _) => n.to_string(),
            Exp::Load(..) => "load".into(),
            Exp::AddrOf(..) => "addr".into(),
            Exp::Binop(..) => "binop".into(),
            Exp::Unop(..) => "unop".into(),
            Exp::Cast(..) => "cast".into(),
            other => panic!("no label for {other:?}"),
        }
    }

    fn check(c: Check) -> Instr {
        Instr::Check(c, Span::DUMMY, SiteId::NONE)
    }

    /// A body with an expression in every position the order contract
    /// names, numbered in the order the walks must reach them.
    fn body() -> Vec<Stmt> {
        let indexed = |base: Exp, index: Exp| Lval {
            base: LvBase::Deref(Box::new(base)),
            offsets: vec![Offset::Field(CompId(0), 0), Offset::Index(index)],
        };
        let load = |lv: Lval| Exp::Load(Box::new(lv), TypeId(0));
        vec![
            Stmt::If(
                c(0),
                vec![Stmt::Instr(vec![Instr::Set(
                    indexed(c(1), c(2)),
                    load(Lval::local(LocalId(0))),
                    Span::DUMMY,
                )])],
                vec![Stmt::Instr(vec![Instr::Call(
                    Some(Lval::deref(c(3))),
                    Callee::Ptr(c(4)),
                    vec![c(5), c(6)],
                    Span::DUMMY,
                )])],
            ),
            Stmt::Loop(vec![Stmt::Instr(vec![
                check(Check::Probe {
                    slot: 0,
                    inner: vec![
                        Check::Guarded {
                            slot: 0,
                            inner: Box::new(Check::Null { ptr: c(7) }),
                        },
                        Check::IndexBound {
                            index: c(8),
                            len: 4,
                        },
                    ],
                }),
                check(Check::GuardReset { slot: 0 }),
                Instr::Set(
                    Lval::local(LocalId(1)),
                    Exp::Binop(
                        BinOp::Add,
                        Box::new(c(9)),
                        Box::new(Exp::Cast(CastId(0), Box::new(c(10)), TypeId(0))),
                        TypeId(0),
                    ),
                    Span::DUMMY,
                ),
            ])]),
            Stmt::Switch(
                c(11),
                vec![
                    SwitchArm {
                        values: vec![1],
                        body: vec![Stmt::Block(vec![Stmt::Return(Some(Exp::AddrOf(
                            Box::new(indexed(c(12), c(13))),
                            TypeId(0),
                        )))])],
                    },
                    SwitchArm {
                        values: Vec::new(),
                        body: vec![Stmt::Return(Some(Exp::Unop(
                            UnOp::Neg,
                            Box::new(c(14)),
                            TypeId(0),
                        )))],
                    },
                ],
            ),
        ]
    }

    #[test]
    fn shared_and_mutable_expression_walks_follow_the_order_contract() {
        let expected = [
            "0", "1", "2", "load", "3", "4", "5", "6", "7", "8", "binop", "9", "cast", "10", "11",
            "addr", "12", "13", "unop", "14",
        ];
        let body = body();
        let mut shared = Vec::new();
        for_each_exp(&body, &mut |e| shared.push(label(e)));
        assert_eq!(shared, expected);
        let mut body = body;
        let mut mutable = Vec::new();
        for_each_exp_mut(&mut body, &mut |e| mutable.push(label(e)));
        assert_eq!(mutable, expected);
    }

    #[test]
    fn statement_and_instruction_walks_are_pre_order() {
        let body = body();
        let mut stmts = Vec::new();
        for_each_stmt(&body, &mut |s| {
            stmts.push(match s {
                Stmt::Instr(is) => format!("instr{}", is.len()),
                Stmt::If(..) => "if".into(),
                Stmt::Loop(_) => "loop".into(),
                Stmt::Switch(..) => "switch".into(),
                Stmt::Block(_) => "block".into(),
                Stmt::Return(_) => "return".into(),
                other => panic!("unexpected {other:?}"),
            })
        });
        let expected = [
            "if", "instr1", "instr1", "loop", "instr3", "switch", "block", "return", "return",
        ];
        assert_eq!(stmts, expected);
        let kind = |i: &Instr| match i {
            Instr::Set(..) => "set",
            Instr::Call(..) => "call",
            Instr::Check(..) => "check",
        };
        let mut instrs = Vec::new();
        for_each_instr(&body, &mut |i| instrs.push(kind(i)));
        assert_eq!(instrs, ["set", "call", "check", "check", "set"]);
        let mut body = body;
        let mut runs = Vec::new();
        for_each_instr_run_mut(&mut body, &mut |is| runs.extend(is.iter().map(kind)));
        assert_eq!(runs, instrs);
    }

    #[test]
    fn mutable_walk_descends_into_a_replaced_node() {
        let mut body = vec![Stmt::Return(Some(c(1)))];
        let mut seen = Vec::new();
        for_each_exp_mut(&mut body, &mut |e| {
            seen.push(label(e));
            if matches!(e, Exp::Const(Const::Int(1, _), _)) {
                *e = Exp::Unop(UnOp::Neg, Box::new(c(2)), TypeId(0));
            }
        });
        assert_eq!(seen, ["1", "2"]);
    }

    #[test]
    fn initializer_walks_reach_every_element() {
        let mut init = Init::Compound(vec![
            Init::Scalar(c(0)),
            Init::String(b"x\0".to_vec()),
            Init::Compound(vec![Init::Scalar(c(1))]),
        ]);
        let mut shared = Vec::new();
        for_each_init_exp(&init, &mut |e| shared.push(label(e)));
        assert_eq!(shared, ["0", "1"]);
        let mut mutable = Vec::new();
        for_each_init_exp_mut(&mut init, &mut |e| mutable.push(label(e)));
        assert_eq!(mutable, shared);
    }
}
