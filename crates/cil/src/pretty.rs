//! The cured-text format: the IR rendered as text.
//!
//! [`dump_program`]'s output is what the cure cache stores, what serve
//! replies carry and what determinism digests hash, so it must stay
//! byte-stable. Every line, instruction, lvalue, expression and type is
//! written straight into the one output buffer.

use crate::ir::*;
use std::fmt::Write as _;

/// Renders a whole program: global and extern declaration lines, then
/// every function block.
pub fn dump_program(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        let _ = write!(out, "global {}: ", g.name);
        p.types.write_type(g.ty, &mut out);
        if g.init.is_some() {
            out.push_str(" = <init>");
        }
        out.push('\n');
    }
    for e in &p.externals {
        if !e.name.is_empty() {
            let _ = write!(out, "extern {}: ", e.name);
            p.types.write_type(e.ty, &mut out);
            out.push('\n');
        }
    }
    for f in &p.functions {
        dump_function(p, f, &mut out);
    }
    out
}

fn dump_function(p: &Program, f: &Function, out: &mut String) {
    let _ = write!(out, "fn {}: ", f.name);
    p.types.write_type(f.ty, out);
    out.push_str(" {\n");
    for (i, l) in f.locals.iter().enumerate() {
        let kind = if l.is_param {
            "param"
        } else if l.is_temp {
            "temp"
        } else {
            "local"
        };
        let _ = write!(out, "  {kind} %{i} {}: ", l.name);
        p.types.write_type(l.ty, out);
        out.push('\n');
    }
    for s in &f.body {
        dump_stmt(p, s, 1, out);
    }
    out.push_str("}\n");
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn dump_stmt(p: &Program, s: &Stmt, depth: usize, out: &mut String) {
    match s {
        Stmt::Instr(is) => {
            for i in is {
                indent(depth, out);
                dump_instr(p, i, out);
                out.push('\n');
            }
        }
        Stmt::If(c, t, e) => {
            indent(depth, out);
            out.push_str("if ");
            dump_exp(p, c, out);
            out.push_str(" {\n");
            for s in t {
                dump_stmt(p, s, depth + 1, out);
            }
            if !e.is_empty() {
                indent(depth, out);
                out.push_str("} else {\n");
                for s in e {
                    dump_stmt(p, s, depth + 1, out);
                }
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Loop(b) => {
            indent(depth, out);
            out.push_str("loop {\n");
            for s in b {
                dump_stmt(p, s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Block(b) => {
            indent(depth, out);
            out.push_str("{\n");
            for s in b {
                dump_stmt(p, s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Break => {
            indent(depth, out);
            out.push_str("break\n");
        }
        Stmt::Continue => {
            indent(depth, out);
            out.push_str("continue\n");
        }
        Stmt::Return(None) => {
            indent(depth, out);
            out.push_str("return\n");
        }
        Stmt::Return(Some(e)) => {
            indent(depth, out);
            out.push_str("return ");
            dump_exp(p, e, out);
            out.push('\n');
        }
        Stmt::Goto(l) => {
            indent(depth, out);
            let _ = writeln!(out, "goto {l}");
        }
        Stmt::Label(l) => {
            indent(depth, out);
            let _ = writeln!(out, "{l}:");
        }
        Stmt::Switch(e, arms) => {
            indent(depth, out);
            out.push_str("switch ");
            dump_exp(p, e, out);
            out.push_str(" {\n");
            for arm in arms {
                indent(depth + 1, out);
                if arm.values.is_empty() {
                    out.push_str("default:\n");
                } else {
                    out.push_str("case ");
                    for (i, v) in arm.values.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{v}");
                    }
                    out.push_str(":\n");
                }
                for s in &arm.body {
                    dump_stmt(p, s, depth + 2, out);
                }
            }
            indent(depth, out);
            out.push_str("}\n");
        }
    }
}

fn dump_instr(p: &Program, i: &Instr, out: &mut String) {
    match i {
        Instr::Set(lv, e, _) => {
            dump_lval(p, lv, out);
            out.push_str(" = ");
            dump_exp(p, e, out);
        }
        Instr::Check(c, _, _) => {
            out.push_str("CHECK_");
            out.extend(c.name().chars().map(|ch| ch.to_ascii_uppercase()));
        }
        Instr::Call(ret, callee, args, _) => {
            if let Some(lv) = ret {
                dump_lval(p, lv, out);
                out.push_str(" = ");
            }
            match callee {
                Callee::Func(f) => out.push_str(&p.functions[f.idx()].name),
                Callee::Extern(x) => {
                    out.push_str("extern:");
                    out.push_str(&p.externals[x.idx()].name);
                }
                Callee::Ptr(e) => {
                    out.push_str("(*");
                    dump_exp(p, e, out);
                    out.push(')');
                }
            }
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                dump_exp(p, a, out);
            }
            out.push(')');
        }
    }
}

fn dump_lval(p: &Program, lv: &Lval, out: &mut String) {
    match &lv.base {
        LvBase::Local(l) => {
            let _ = write!(out, "%{}", l.0);
        }
        LvBase::Global(g) => out.push_str(&p.globals[g.idx()].name),
        LvBase::Deref(e) => {
            out.push_str("*(");
            dump_exp(p, e, out);
            out.push(')');
        }
    }
    for off in &lv.offsets {
        match off {
            Offset::Field(c, i) => {
                out.push('.');
                out.push_str(&p.types.comp(*c).fields[*i].name);
            }
            Offset::Index(e) => {
                out.push('[');
                dump_exp(p, e, out);
                out.push(']');
            }
        }
    }
}

fn dump_exp(p: &Program, e: &Exp, out: &mut String) {
    match e {
        Exp::Const(Const::Int(v, _), _) => {
            let _ = write!(out, "{v}");
        }
        Exp::Const(Const::Float(v, _), _) => {
            let _ = write!(out, "{v}");
        }
        Exp::Load(lv, _) => dump_lval(p, lv, out),
        Exp::AddrOf(lv, _) => {
            out.push('&');
            dump_lval(p, lv, out);
        }
        Exp::StartOf(lv, _) => {
            out.push_str("startof(");
            dump_lval(p, lv, out);
            out.push(')');
        }
        Exp::FnAddr(FnRef::Def(f), _) => {
            out.push('&');
            out.push_str(&p.functions[f.idx()].name);
        }
        Exp::FnAddr(FnRef::Ext(x), _) => {
            out.push_str("&extern:");
            out.push_str(&p.externals[x.idx()].name);
        }
        Exp::Unop(op, x, _) => {
            out.push_str(unop_str(*op));
            out.push('(');
            dump_exp(p, x, out);
            out.push(')');
        }
        Exp::Binop(op, a, b, _) => {
            out.push('(');
            dump_exp(p, a, out);
            out.push(' ');
            out.push_str(binop_str(*op));
            out.push(' ');
            dump_exp(p, b, out);
            out.push(')');
        }
        Exp::Cast(id, x, t) => {
            out.push('(');
            p.types.write_type(*t, out);
            if p.casts[id.idx()].trusted {
                out.push_str(" trusted");
            }
            out.push_str(")(");
            dump_exp(p, x, out);
            out.push(')');
        }
        Exp::SizeOf(t, n, _) => {
            out.push_str("sizeof(");
            p.types.write_type(*t, out);
            let _ = write!(out, " /* {n} */)");
        }
    }
}

fn unop_str(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "-",
        UnOp::BitNot => "~",
        UnOp::Not => "!",
    }
}

fn binop_str(op: BinOp) -> &'static str {
    use BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        Shl => "<<",
        Shr => ">>",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        BitAnd => "&",
        BitXor => "^",
        BitOr => "|",
        PlusPI => "+p",
        MinusPI => "-p",
        MinusPP => "-pp",
    }
}

#[cfg(test)]
mod tests {
    use crate::lower::lower_translation_unit;

    #[test]
    fn dump_is_nonempty_and_mentions_names() {
        let tu = ccured_ast::parse_translation_unit(
            "int g = 3; int add(int a, int b) { return a + b; }",
        )
        .unwrap();
        let p = lower_translation_unit(&tu).unwrap();
        let d = super::dump_program(&p);
        assert!(d.contains("global g"));
        assert!(d.contains("fn add"));
        assert!(d.contains("return"));
    }

    #[test]
    fn dump_renders_control_flow() {
        let tu = ccured_ast::parse_translation_unit(
            "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }",
        )
        .unwrap();
        let p = lower_translation_unit(&tu).unwrap();
        let d = super::dump_program(&p);
        assert!(d.contains("loop {"));
        assert!(d.contains("break"));
    }
}
